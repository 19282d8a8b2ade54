"""The four benchmark workloads: seeded inputs, one call each, output checks.

Every workload turns ``--seed`` into a list of blocks of inputs; the runner
calls them in order as a closed loop (each call waits for the previous one)
and stops at the first block boundary after the time budget.  ``check``
decides for one call whether it failed and why, and returns a digest of the
output so a traced replay can be compared with the untraced run.

The blocks hold only inputs that the program is expected to get right, so
any failure among them marks the run as incorrect.  The preimage-linking
defects of ROADMAP item 4 (a bare ``ValueError`` from winding loops, a
wrong or missing linking number for a random target, the traceback of
``hopf link --h 2 --spins "0.6,0,0.8;0,0.6,0.8"``) show instead in a
seeded ``probe``: a few such inputs that every run calls once, after the
measured loop, and reports apart from the measured calls.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np

from hopfsim import adiabatic, bzgrid, invariants, model, preimage
from hopfsim.errors import HopfError

import layers

CLIRUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clirun.py")

# Index-sweep h windows: every phase, both signs, >= 0.2 from |h| in {1, 3}.
INDEX_WINDOWS = ((0.0, 0.8), (1.2, 2.8), (3.2, 4.8))
# An n=6 mesh only has momenta at multiples of pi/3, so the lattice gap
# nearly closes at |h| = 0.5, 1.5, 2.5 and the n=6 index is only defined in
# these windows of the topological phases (measured on the analytic field).
CAMPAIGN_WINDOWS = ((0.0, 0.35), (1.65, 2.35))
LINK_H = (2.9, 2.0, -0.5, 0.0)
# At res=64 every pair of axis targets has winding preimage loops at h=-0.5
# (ROADMAP item 4), so the measured blocks leave that h to the probe.
LINK_H_AXIS = (2.9, 2.0, 0.0)
AXIS_TARGETS_SINGLE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
AXIS_TARGETS_DOUBLE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

INDEX_N = 64
LINK_RES = 64
CAMPAIGN_N = 6
CAMPAIGN_PHOTONS = 93_000
N_BLOCKS = 256


def _draw_h(rng, windows, i):
    """Seeded h in one of ``windows``.  The window and the sign rotate with
    ``i``, so every run sees the same mix of phases and only the values
    within each window depend on the seed."""
    lo, hi = windows[(i // 2) % len(windows)]
    return round((1.0 if i % 2 == 0 else -1.0) * float(rng.uniform(lo, hi)), 4)


def _unit(rng):
    v = rng.normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def _error_text(err):
    return f"{type(err).__name__}: {err}"


def _fail(reason, digest, **extra):
    return {"ok": False, "reason": reason, "digest": digest, **extra}


def _ok(digest, **extra):
    return {"ok": True, "reason": None, "digest": digest, **extra}


def check_chern_numbers(chern_numbers):
    """Failure reason when a slice Chern number is nonzero, else None."""
    nonzero = {a: [c for c in cs if c != 0] for a, cs in chern_numbers.items()}
    if any(nonzero.values()):
        return f"nonzero slice Chern numbers {nonzero}"
    return None


def check_index_report(h, report):
    """Failure reason for an index report, or None when it is right."""
    want = invariants.chi_infinity(h)
    if report["nearest_integer"] != want:
        return f"chi rounds to {report['nearest_integer']}, phase diagram says {want}"
    return check_chern_numbers(report["chern_numbers"])


def check_link_values(h, values):
    """Failure reason for a link matrix, or None when every pair links as
    the phase diagram says: |lk| = |chi| with the sign lk = -chi."""
    want = -invariants.chi_infinity(h)
    for i, row in enumerate(values):
        for j, v in enumerate(row):
            if i == j:
                continue
            if v is None:
                return f"absent preimage for pair ({i}, {j}) in a topological phase"
            if v != want:
                return f"linking number {v} for pair ({i}, {j}), expected {want}"
    return None


class Workload:
    """Defaults: no run-level checks, no probe, nothing to trace outside
    this process.

    ``block_s`` is the time one block took with the seed version of hopfsim
    on a 2-core Xeon; the traced run uses it to fix its number of blocks, so
    its call and work counts repeat exactly from run to run.
    """

    tracer = None

    def run_checks(self, calls):
        """Problems found across the calls of a run (empty when none)."""
        return []

    def probe(self, seed):
        """Inputs that hit a known defect; called once per run, unmeasured."""
        return []

    def peak_rss_mb(self):
        """Peak RSS of the calls so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class IndexSweep(Workload):
    name = "index-sweep"
    why = "n=64 Hopf index plus all 3n slice Chern numbers over h in every phase"
    block_s = 0.5

    def blocks(self, seed):
        rng = np.random.default_rng(seed)
        return [[{"h": _draw_h(rng, INDEX_WINDOWS, i)}] for i in range(N_BLOCKS)]

    def call(self, inp):
        f = bzgrid.sample_state_field(model.HopfParams(inp["h"]), bzgrid.MeshSpec(INDEX_N))
        return invariants.index_report(f)

    def check(self, inp, out):
        if isinstance(out, Exception):
            return _fail(_error_text(out), _error_text(out))
        digest = json.dumps(out, sort_keys=True)
        dev = abs(out["chi"] - invariants.chi_infinity(inp["h"]))
        reason = check_index_report(inp["h"], out)
        if reason:
            return _fail(reason, digest, chi_deviation=dev)
        return _ok(digest, chi_deviation=dev)


class LinkSweep(Workload):
    name = "link-sweep"
    why = "res=64 link matrices on the axis targets at h in {2.9, 2, 0}"
    block_s = 4.5

    @staticmethod
    def _axis(h):
        targets = AXIS_TARGETS_SINGLE if abs(h) > 1 else AXIS_TARGETS_DOUBLE
        return {"h": h, "targets": [list(t) for t in targets], "axis": True}

    def blocks(self, seed):
        # every block holds the axis call of each h, in a seeded order, so a
        # run's share of the costlier double-cover calls (whose Gauss sums run
        # over periodic images) does not depend on how many blocks fit in it
        rng = np.random.default_rng(seed)
        return [[self._axis(LINK_H_AXIS[i]) for i in rng.permutation(len(LINK_H_AXIS))]
                for _ in range(N_BLOCKS)]

    def probe(self, seed):
        # a seeded random target pair at every h, and the axis targets at
        # h=-0.5: ROADMAP item 4
        rng = np.random.default_rng([seed, 4])
        return ([{"h": h, "targets": [list(_unit(rng)), list(_unit(rng))], "axis": False}
                 for h in LINK_H] + [self._axis(-0.5)])

    def call(self, inp):
        return preimage.link_matrix(model.HopfParams(inp["h"]), inp["targets"], res=LINK_RES)

    def check(self, inp, out):
        if isinstance(out, Exception):
            typed = isinstance(out, HopfError)
            return _fail(_error_text(out), _error_text(out),
                         link_error="typed" if typed else "untyped")
        digest = json.dumps(out.to_dict(), sort_keys=True)
        reason = check_link_values(inp["h"], out.values)
        if reason:
            return _fail(reason, digest)
        return _ok(digest)


def _field_digest(result):
    h = hashlib.sha256(np.ascontiguousarray(result.field.data).tobytes())
    h.update(np.ascontiguousarray(result.stats.per_site).tobytes())
    return h.hexdigest()


class Campaign(Workload):
    name = "campaign"
    why = "n=6 simulated tomography campaigns then the index of the reconstructed field"
    block_s = 3.2

    def blocks(self, seed):
        rng = np.random.default_rng(seed)
        return [[{"h": _draw_h(rng, CAMPAIGN_WINDOWS, i), "seed": int(rng.integers(2**31))}]
                for i in range(N_BLOCKS)]

    def run(self, inp, threads):
        return adiabatic.run_campaign(
            model.HopfParams(inp["h"]), bzgrid.MeshSpec(CAMPAIGN_N),
            photons_per_site=CAMPAIGN_PHOTONS, seed=inp["seed"], threads=threads,
        )

    def call(self, inp):
        result = self.run(inp, threads=1)
        return result, invariants.index_report(result.field)

    def check(self, inp, out):
        if isinstance(out, Exception):
            return _fail(_error_text(out), _error_text(out))
        result, report = out
        digest = json.dumps({"field": _field_digest(result), "report": report},
                            sort_keys=True)
        extra = {
            "infidelity": 1.0 - result.stats.mean,
            "chi_deviation": abs(report["chi"] - invariants.chi_infinity(inp["h"])),
            "sites": CAMPAIGN_N ** 3,
            "field_digest": _field_digest(result),
        }
        if result.stats.errors:
            return _fail(f"{len(result.stats.errors)} site errors", digest, **extra)
        reason = check_index_report(inp["h"], report)
        if reason:
            return _fail(reason, digest, **extra)
        return _ok(digest, **extra)

    def run_checks(self, calls):
        """The first campaign rerun at threads=2 must give the same field."""
        first = calls[0]
        if "field_digest" not in first.verdict:
            return []
        again = _field_digest(self.run(first.inp, threads=2))
        if again != first.verdict["field_digest"]:
            return [f"campaign {first.inp} differs between threads=1 and threads=2"]
        return []


# ---------------------------------------------------------------------------
# hopf CLI subprocesses

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')
ITEM4_LINK = ["link", "--h", "2", "--spins", "0.6,0,0.8;0,0.6,0.8"]


def _fmt(x):
    return repr(float(x))


def _vec(v):
    return ",".join(_fmt(x) for x in v)


def sanitized(data):
    """Artifact bytes with the generated_at timestamp blanked."""
    return _GENERATED_AT.sub(b'"generated_at": ""', data)


def stderr_verdict(text):
    """('json', doc) for a typed JSON error, ('traceback', last line) for an
    uncaught exception, ('other', text) otherwise."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if any(ln.startswith("Traceback (most recent call last)") for ln in lines):
        return "traceback", lines[-1]
    if len(lines) == 1:
        try:
            doc = json.loads(lines[0])
        except ValueError:
            doc = None
        if isinstance(doc, dict) and "error" in doc:
            return "json", doc
    return "other", text.strip()


def _parse_artifact(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        body = [[int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), float(r[5])]
                for r in rows[1:]]
        return data, {"header": rows[0], "rows": body}
    return data, json.loads(data)


class CliMix(Workload):
    name = "cli-mix"
    why = "a fixed cycle of hopf subprocesses: start-up, parsing, serialization, writes"
    block_s = 5.0

    def __init__(self, root, workdir):
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self._first = {}
        self._seq = 0
        self._peak_mb = 0.0

    def blocks(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for c in range(N_BLOCKS):
            h_field, h_index, h_nb, h_ad, h_camp = (_draw_h(rng, INDEX_WINDOWS, 5 * c + j)
                                                    for j in range(5))
            camp = ["campaign", f"--h={_fmt(h_camp)}", "--n", "4", "--threads", "2",
                    "--seed", str(int(rng.integers(2**31)))]
            out.append([
                {"args": ["field", f"--h={_fmt(h_field)}", "--n", "32"], "expect": 0},
                {"args": ["texture", f"--h={_fmt(h_field)}", "--n", "32", "--format", "csv"],
                 "expect": 0},
                {"args": ["index", f"--h={_fmt(h_index)}", "--n", "16"], "expect": 0,
                 "h": h_index},
                {"args": ["chern", f"--h={_fmt(h_index)}", "--n", "16"], "expect": 0},
                {"args": ["neighborhood", f"--h={_fmt(h_nb)}", "--n", "10",
                          f"--spin={_vec(_unit(rng))}", "--eps", "0.3"], "expect": 0},
                {"args": ["adiabatic", f"--h={_fmt(h_ad)}",
                          f"--k={_vec(rng.uniform(0, 1, 3))}"], "expect": 0},
                {"args": ["link", "--h", "2.9", "--spins", "1,0,0;0,1,0;0,0,-1",
                          "--res", "32"], "expect": 0, "h": 2.9},
                {"args": camp, "expect": 0, "key": f"campaign{c}"},
                {"args": ["index", "--h", "1", "--n", "8"], "expect": 1},
                {"args": camp, "expect": 0, "rerun_of": f"campaign{c}"},
            ])
        return out

    def probe(self, seed):
        return [{"args": ITEM4_LINK, "expect": 1}]

    def call(self, inp):
        self._seq += 1
        outdir = os.path.join(self.workdir, f"out{self._seq}")
        os.makedirs(outdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        env["HOPF_OUTPUT_DIR"] = outdir
        env["TMPDIR"] = self.workdir
        # a traced run sets self.tracer: the command's spans are then merged
        # into the tracer
        doc_path = os.path.join(self.workdir, f"run{self._seq}.json")
        mode = "plain" if self.tracer is None else "trace"
        argv = [sys.executable, CLIRUN, doc_path, mode, *inp["args"]]
        proc = subprocess.run(argv, cwd=self.workdir, env=env,
                              capture_output=True, text=True, timeout=170)
        if os.path.exists(doc_path):
            with open(doc_path) as fh:
                doc = json.load(fh)
            os.unlink(doc_path)
            self._peak_mb = max(self._peak_mb, doc["peak_rss_mb"])
            if self.tracer is not None:
                layers.merge(self.tracer, doc)
        return proc

    def peak_rss_mb(self):
        """The largest peak RSS of the hopf commands run so far."""
        return self._peak_mb

    def check(self, inp, proc):
        if isinstance(proc, Exception):
            return _fail(_error_text(proc), _error_text(proc))
        kind, err = stderr_verdict(proc.stderr)
        is_link = inp["args"][0] == "link"
        link_error = None
        if is_link and proc.returncode != 0:
            link_error = "typed" if kind == "json" else "untyped"
        err_digest = err if kind != "other" else ""

        if inp["expect"] != 0:
            digest = json.dumps([proc.returncode, kind, err_digest], sort_keys=True)
            if proc.returncode != inp["expect"]:
                return _fail(f"exit {proc.returncode}, expected {inp['expect']}", digest,
                             link_error=link_error)
            if kind != "json":
                return _fail(f"{kind} on stderr where a typed JSON error is expected: {err}",
                             digest, link_error=link_error)
            return _ok(digest, link_error=link_error)

        paths = proc.stdout.split()
        if proc.returncode != 0 or not paths:
            digest = json.dumps([proc.returncode, kind, err_digest])
            return _fail(f"exit {proc.returncode}: {err}", digest, link_error=link_error)
        artifacts = {}
        try:
            for p in paths:
                data, doc = _parse_artifact(p)
                artifacts[os.path.basename(p)] = (hashlib.sha256(sanitized(data)).hexdigest(),
                                                  doc)
        except (OSError, ValueError, IndexError) as e:
            return _fail(f"artifact does not parse: {_error_text(e)}", "")
        digest = json.dumps({k: v[0] for k, v in sorted(artifacts.items())})
        try:
            reason = self._content_reason(inp, [doc for _, doc in artifacts.values()])
        except (KeyError, TypeError, ValueError, IndexError, StopIteration) as e:
            reason = f"artifact lacks the expected content: {_error_text(e)}"
        if "key" in inp:
            self._first[inp["key"]] = digest
        if "rerun_of" in inp and self._first.get(inp["rerun_of"]) != digest:
            reason = "rerun is not byte-identical apart from generated_at"
        if reason:
            return _fail(reason, digest)
        return _ok(digest)

    @staticmethod
    def _content_reason(inp, docs):
        cmd = inp["args"][0]
        doc = docs[0]
        if cmd == "field" and len(doc["entries"]) != 32 ** 3:
            return "field artifact has the wrong number of entries"
        if cmd == "texture" and (doc["header"] != ["jx", "jy", "jz", "sx", "sy", "sz"]
                                 or len(doc["rows"]) != 32 ** 3):
            return "texture CSV has the wrong header or row count"
        if cmd == "index":
            return check_index_report(inp["h"], doc)
        if cmd == "chern":
            return check_chern_numbers(doc["chern_numbers"])
        if cmd == "neighborhood":
            target = np.array(doc["target"])
            far = [s for s in doc["sites"]
                   if np.linalg.norm(np.array(s["bloch"]) - target) > doc["epsilon"]]
            if far:
                return f"{len(far)} neighborhood sites lie outside epsilon"
        if cmd == "adiabatic" and not 0.0 <= doc["fidelity"] <= 1.0 + 1e-12:
            return f"fidelity {doc['fidelity']} outside [0, 1]"
        if cmd == "link":
            return check_link_values(inp["h"], doc["linking"])
        if cmd == "campaign":
            if len(docs) != 2:
                return "campaign wrote the wrong number of artifacts"
            stats = next(d for d in docs if "mean_fidelity" in d)
            if stats["errors"]:
                return f"{len(stats['errors'])} campaign site errors"
        return None


def make(name, root, workdir):
    if name == "cli-mix":
        return CliMix(root, workdir)
    return {"index-sweep": IndexSweep, "link-sweep": LinkSweep, "campaign": Campaign}[name]()


"""Command-line front end: ``hopf <subcommand>``.

Subcommands cover the whole pipeline: analytic fields (field, texture),
invariants (index, chern, scaling), preimage loops and links (preimage,
neighborhood, link) and the simulated experiment (adiabatic, campaign).
Artifacts are JSON (CSV for spin textures), written atomically, and carry a
``generated_at`` timestamp; reruns with equal configuration are otherwise
byte-identical.

Exit statuses: 0 success, 1 engine error (machine-readable JSON on stderr),
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

import numpy as np

from . import adiabatic, bzgrid, invariants, model, preimage
from .errors import HopfError, UsageError

DEFAULTS = {"n": 10, "photons": 93000, "seed": 0, "res": 64, "format": "json",
            "threads": 1, "eps": None}

OUTPUT_DIR_ENV = "HOPF_OUTPUT_DIR"


@dataclass
class RunConfig:
    subcommand: str
    h: list = dc_field(default_factory=list)
    n: list = dc_field(default_factory=list)
    spins: list = dc_field(default_factory=list)
    eps: float | None = None
    res: int = 64
    photons: int = 93000
    seed: int = 0
    threads: int = 1
    k: tuple | None = None
    out: str | None = None
    fmt: str = "json"
    field_path: str | None = None


def _parse_vec(text):
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--spin/--k expects 'x,y,z', got {text!r}")
    if len(parts) != 3:
        raise UsageError(f"--spin/--k expects 3 components, got {text!r}")
    return tuple(parts)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopf",
        description="Hopf-insulator invariants, preimage links and the "
                    "simulated adiabatic-tomography experiment",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    S = argparse.SUPPRESS

    def add(name, help_, **flags):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=S, help="JSON file with default flag values")
        p.add_argument("--out", default=S, help="output path")
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", default=S, **kw)
        return p

    add("field", "write the analytic ground-state field",
        h={"type": float, "required": True}, n={"type": int})
    add("index", "Hopf index report (with slice Chern numbers)",
        h={"type": float, "required": True}, n={"type": int})
    add("chern", "slice Chern numbers only",
        h={"type": float, "required": True}, n={"type": int})
    add("scaling", "Hopf-index deviation vs mesh size",
        h={"type": float, "action": "append", "required": True},
        n={"type": int, "action": "append"})
    add("texture", "spin texture export (csv or json)",
        h={"type": float, "required": True}, n={"type": int},
        format={"choices": ["json", "csv"]})
    add("preimage", "preimage loops of one spin target",
        h={"type": float, "required": True},
        spin={"action": "append", "required": True}, res={"type": int})
    add("neighborhood", "mesh sites within eps of a spin target",
        h={"type": float}, n={"type": int},
        spin={"action": "append", "required": True},
        eps={"type": float, "required": True},
        field={"dest": "field_path", "help": "use a saved field instead of the analytic one"})
    add("link", "pairwise linking numbers of preimage loops",
        h={"type": float, "required": True},
        spins={"help": "semicolon-separated targets 'x,y,z;x,y,z;...'"},
        spin={"action": "append"}, res={"type": int})
    add("adiabatic", "single-site passage: schedule, final state, fidelity",
        h={"type": float, "required": True},
        k={"required": True, "help": "momentum in units of 2*pi, e.g. 0.4,0.3,0.5"})
    add("campaign", "simulated tomography of a whole mesh",
        h={"type": float, "required": True}, n={"type": int},
        photons={"type": int}, seed={"type": int}, threads={"type": int})
    return parser


def parse_config(argv):
    """argv -> validated RunConfig; config-file values are overridden by flags."""
    args = _build_parser().parse_args(argv)
    provided = {k: v for k, v in vars(args).items() if k != "subcommand"}

    file_values = {}
    if "config" in provided:
        with open(provided.pop("config")) as fh:
            file_values = json.load(fh)

    merged = {**DEFAULTS, **file_values, **provided}
    cmd = args.subcommand

    spins = []
    if merged.get("spins"):
        spins += [_parse_vec(tok) for tok in str(merged["spins"]).split(";") if tok]
    if merged.get("spin"):
        raw = merged["spin"]
        spins += [_parse_vec(t) for t in (raw if isinstance(raw, list) else [raw])]
    for s in spins:
        norm = np.linalg.norm(s)
        if abs(norm - 1.0) > 1e-6:
            raise UsageError(f"--spin {s} is not a unit vector (|s|={norm:.4f})")
    if cmd in ("preimage", "neighborhood", "link") and not spins:
        raise UsageError(f"--spin is required for '{cmd}'")

    eps = merged.get("eps")
    if eps is not None:
        if cmd != "neighborhood":
            raise UsageError(f"--eps is only valid for 'neighborhood', not '{cmd}'")
        if not 0 < eps <= 2:
            raise UsageError(f"--eps must be in (0, 2], got {eps}")

    hs = merged.get("h")
    hs = hs if isinstance(hs, list) else [hs] if hs is not None else []
    ns = merged.get("n", DEFAULTS["n"])
    ns = ns if isinstance(ns, list) else [ns]
    for n in ns:
        if n < 4:
            raise UsageError(f"--n must be >= 4, got {n}")
    if cmd == "scaling" and any(v < 4 for v in ns):
        raise UsageError("--n values must be >= 4")

    k = _parse_vec(merged["k"]) if merged.get("k") else None
    res = int(merged.get("res", DEFAULTS["res"]))
    if cmd in ("preimage", "link") and res < 16:
        raise UsageError(f"--res must be >= 16, got {res}")
    photons = int(merged.get("photons", DEFAULTS["photons"]))
    if cmd == "campaign" and photons < 3:
        raise UsageError(f"--photons must be >= 3, got {photons}")
    threads = int(merged.get("threads", 1))
    if threads < 0:
        raise UsageError(f"--threads must be >= 0 (0: one per CPU), got {threads}")

    return RunConfig(
        subcommand=cmd,
        h=hs,
        n=ns,
        spins=spins,
        eps=eps,
        res=res,
        photons=photons,
        seed=int(merged.get("seed", 0)),
        threads=threads,
        k=k,
        out=merged.get("out"),
        fmt=merged.get("format", "json"),
        field_path=merged.get("field_path"),
    )


# ---------------------------------------------------------------------------
# artifact I/O

def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def read_artifact(path):
    with open(path) as fh:
        return json.load(fh)


def _outpath(cfg, default_name):
    if cfg.out:
        return cfg.out
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


def _htag(h):
    return str(h).replace("-", "m").replace(".", "p")


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_field(cfg):
    f = bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))
    doc = bzgrid.field_to_dict(f)
    doc["generated_at"] = _timestamp()
    path = _outpath(cfg, f"field_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_index(cfg):
    f = bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))
    doc = invariants.index_report(f)
    doc["generated_at"] = _timestamp()
    path = _outpath(cfg, f"index_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_chern(cfg):
    f = bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))
    doc = {
        "h": cfg.h[0],
        "n": cfg.n[0],
        "chern_numbers": invariants.chern_numbers(f),
        "generated_at": _timestamp(),
    }
    path = _outpath(cfg, f"chern_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_scaling(cfg):
    rows = []
    for h in cfg.h:
        target = invariants.chi_infinity(h)
        for row in invariants.scaling_study(h, cfg.n):
            rows.append({"h": h, "n": row.n, "chi": row.chi,
                         "chi_infinity": target, "deviation": row.deviation})
    rows.sort(key=lambda r: (r["h"], r["n"]))
    doc = {"rows": rows, "generated_at": _timestamp()}
    path = _outpath(cfg, "scaling.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_texture(cfg):
    f = bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))
    if cfg.fmt == "csv":
        path = _outpath(cfg, f"texture_h{_htag(cfg.h[0])}_n{cfg.n[0]}.csv")
        rows = bzgrid.texture_rows(f)
        lines = ["jx,jy,jz,sx,sy,sz"]
        for r in rows:
            lines.append(
                f"{int(r[0])},{int(r[1])},{int(r[2])},"
                f"{float(r[3])!r},{float(r[4])!r},{float(r[5])!r}"
            )
        write_atomic(path, "\n".join(lines) + "\n")
    else:
        path = _outpath(cfg, f"texture_h{_htag(cfg.h[0])}_n{cfg.n[0]}.json")
        doc = {
            "h": cfg.h[0],
            "n": cfg.n[0],
            "rows": bzgrid.texture_rows(f).tolist(),
            "columns": ["jx", "jy", "jz", "sx", "sy", "sz"],
            "generated_at": _timestamp(),
        }
        write_json_atomic(path, doc)
    return [path]

def _cmd_preimage(cfg):
    params = model.HopfParams(cfg.h[0])
    paths = []
    for spin in cfg.spins:
        loops = preimage.preimage_contours(params, spin, res=cfg.res)
        doc = {
            "h": cfg.h[0],
            "target": list(spin),
            "res": cfg.res,
            "loops": [preimage.polyline_to_dict(c) for c in loops],
            "generated_at": _timestamp(),
        }
        tag = "_".join(f"{x:+.2f}" for x in spin)
        path = _outpath(cfg, f"preimage_h{_htag(cfg.h[0])}_s{tag}.json")
        if cfg.out and len(cfg.spins) > 1:
            base, ext = os.path.splitext(cfg.out)
            path = f"{base}_s{tag}{ext}"
        write_json_atomic(path, doc)
        paths.append(path)
    return paths

def _cmd_neighborhood(cfg):
    if cfg.field_path:
        f = bzgrid.load_field(cfg.field_path)
    else:
        if not cfg.h:
            raise UsageError("'neighborhood' needs --h (or --field)")
        f = bzgrid.sample_state_field(model.HopfParams(cfg.h[0]), bzgrid.MeshSpec(cfg.n[0]))
    spin = cfg.spins[0]
    sites = preimage.epsilon_neighborhood(f, spin, cfg.eps)
    doc = {
        "h": f.params.h,
        "n": f.n,
        "target": list(spin),
        "epsilon": cfg.eps,
        "sites": [{"site": list(site), "bloch": vec.tolist()} for site, vec in sites],
        "generated_at": _timestamp(),
    }
    path = _outpath(cfg, f"neighborhood_h{_htag(f.params.h)}_n{f.n}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_link(cfg):
    lm = preimage.link_matrix(model.HopfParams(cfg.h[0]), cfg.spins, res=cfg.res)
    doc = lm.to_dict()
    doc["h"] = cfg.h[0]
    doc["res"] = cfg.res
    doc["generated_at"] = _timestamp()
    path = _outpath(cfg, f"link_h{_htag(cfg.h[0])}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_adiabatic(cfg):
    params = model.HopfParams(cfg.h[0])
    k = 2.0 * np.pi * np.asarray(cfg.k)
    schedule = adiabatic.build_schedule(k, params)
    final = adiabatic.evolve(schedule, np.array([1.0, 0.0], dtype=complex))
    ref = model.ground_state(k, params)
    doc = {
        "h": cfg.h[0],
        "k_over_2pi": list(cfg.k),
        "fidelity": adiabatic.fidelity(final, ref),
        "final_state": [final[0].real, final[0].imag, final[1].real, final[1].imag],
        "schedule": {
            "phi": schedule.phi,
            "delta_start": schedule.delta_start,
            "delta_final": schedule.delta_final,
            "omega_peak": schedule.omega_peak,
            "omega_final": schedule.omega_final,
            "segment_duration": schedule.segment_duration,
            "sample_dt": schedule.sample_dt,
        },
        "generated_at": _timestamp(),
    }
    path = _outpath(cfg, f"adiabatic_h{_htag(cfg.h[0])}.json")
    write_json_atomic(path, doc)
    return [path]

def _cmd_campaign(cfg):
    result = adiabatic.run_campaign(
        model.HopfParams(cfg.h[0]),
        bzgrid.MeshSpec(cfg.n[0]),
        photons_per_site=cfg.photons,
        seed=cfg.seed,
        threads=cfg.threads,
    )
    stem = cfg.out or os.path.join(
        os.environ.get(OUTPUT_DIR_ENV, "."),
        f"campaign_h{_htag(cfg.h[0])}_n{cfg.n[0]}_seed{cfg.seed}",
    )
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    field_doc = bzgrid.field_to_dict(result.field)
    field_doc["generated_at"] = _timestamp()
    stats_doc = result.stats.to_dict()
    stats_doc.update(
        {"h": cfg.h[0], "n": cfg.n[0], "photons": cfg.photons, "seed": cfg.seed,
         "generated_at": _timestamp()}
    )
    field_path, stats_path = stem + ".field.json", stem + ".stats.json"
    write_json_atomic(field_path, field_doc)
    write_json_atomic(stats_path, stats_doc)
    return [field_path, stats_path]


_COMMANDS = {
    "field": _cmd_field,
    "index": _cmd_index,
    "chern": _cmd_chern,
    "scaling": _cmd_scaling,
    "texture": _cmd_texture,
    "preimage": _cmd_preimage,
    "neighborhood": _cmd_neighborhood,
    "link": _cmd_link,
    "adiabatic": _cmd_adiabatic,
    "campaign": _cmd_campaign,
}


def dispatch(cfg):
    """Run the configured engine; writes artifacts, returns the exit status."""
    try:
        paths = _COMMANDS[cfg.subcommand](cfg)
    except HopfError as err:
        detail = {
            k: getattr(err, k)
            for k in ("site", "axis", "layer", "flux", "k")
            if getattr(err, k, None) is not None
        }
        doc = {"error": type(err).__name__, "message": str(err)}
        if detail:
            doc["detail"] = {k: np.asarray(v).tolist() for k, v in detail.items()}
        print(json.dumps(doc), file=sys.stderr)
        return 1
    except OSError as err:
        print(json.dumps({"error": "IOError", "message": str(err)}), file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(json.dumps({"error": "IOError", "message": str(err)}), file=sys.stderr)
        return 3
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())

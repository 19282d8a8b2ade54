"""hopfsim benchmark: four seeded workloads driven from outside the package.

    python3 perfbench/run.py --workload index-sweep --seed 1 --seconds 20 --trace 0

Workloads: index-sweep, link-sweep, campaign, cli-mix (see workloads.py);
``--workload all`` runs each in its own process and prints every metric.
One process drives the library (or the ``hopf`` CLI as subprocesses) as a
closed loop: each call starts when the previous one has ended.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
a fixed number of blocks (about half of ``--seconds``) untraced and then
traced, checks that both give the same outputs, and prints the per-layer
metrics and the tracing overhead.  After the measured calls, every run
calls the workload's probe of known defects once and reports it apart.  The
last stdout line is one JSON object {correct, attempted, failed, metrics};
the line before it holds the inputs, provenance and per-workload metrics.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("index-sweep", "link-sweep", "campaign", "cli-mix")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("calls_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def bootstrap():
    """Import hopfsim from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "hopfsim", "__init__.py")):
        print(f"perfbench: no hopfsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hopfsim

    if not os.path.abspath(hopfsim.__file__).startswith(SRC + os.sep):
        print(f"perfbench: hopfsim came from {hopfsim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return hopfsim


@dataclass
class Call:
    inp: dict
    seconds: float
    verdict: dict


def call_all(wl, inputs, tracer=None):
    """One closed-loop pass over ``inputs``: a Call for each."""
    calls = []
    for inp in inputs:
        token = tracer.open("bench.call") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = wl.call(inp)
        except Exception as err:  # a raising call is a counted failure
            out = err
        dt = time.perf_counter() - t0
        if token is not None:
            tracer.close(token)
        calls.append(Call(inp, dt, wl.check(inp, out)))
        del out
    return calls


def measure(wl, blocks, seconds=None, nblocks=None, tracer=None):
    """Closed loop over ``blocks``: stop after ``nblocks`` blocks, or at the
    first block boundary once ``seconds`` have passed."""
    calls = []
    start = time.perf_counter()
    done = 0
    while True:
        calls += call_all(wl, blocks[done % len(blocks)], tracer)
        done += 1
        if nblocks is not None:
            if done >= nblocks:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return calls, done


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; with ten samples or fewer, the maximum at percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def calls_per_s(calls, block_len):
    """Calls per second of the median block: every block of a workload has
    ``block_len`` calls, and the median keeps one slow block from moving it."""
    blocks = [sum(c.seconds for c in calls[i:i + block_len])
              for i in range(0, len(calls), block_len)]
    return block_len / statistics.median(blocks)


def measure_setup(workload, seed):
    """Median seconds from spawning a fresh interpreter until it has
    imported hopfsim and generated the workload's inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with status {proc.returncode}")
    return statistics.median(times), times


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(hopfsim):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hopfsim": hopfsim.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def failure_reasons(calls):
    reasons = Counter(c.verdict["reason"][:120] for c in calls if not c.verdict["ok"])
    return dict(reasons.most_common(20))


def workload_metrics(name, calls, setup_s, rss):
    """The per-workload metrics by their workload-qualified names."""
    secs = [c.seconds for c in calls]
    failed = sum(1 for c in calls if not c.verdict["ok"])
    value, pct = tail(secs)
    out = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_share": (failed / len(calls), "ratio"),
    }
    if name == "index-sweep":
        out["index.report_s_p50"] = (statistics.median(secs), "s")
        out["index.report_s_tail"] = (value, "s")
        out["index.chi_deviation_max"] = (
            max(c.verdict.get("chi_deviation", float("nan")) for c in calls), "1")
    elif name == "link-sweep":
        out["link.matrix_s_p50"] = (statistics.median(secs), "s")
        out["link.matrix_s_tail"] = (value, "s")
    elif name == "campaign":
        done = [c for c in calls if "sites" in c.verdict]
        out["campaign.sites_per_s"] = (
            sum(c.verdict["sites"] for c in done) / sum(c.seconds for c in done), "1/s")
        out["campaign.infidelity_mean"] = (
            statistics.fmean(c.verdict["infidelity"] for c in done), "1")
        out["campaign.chi_deviation_max"] = (
            max(c.verdict["chi_deviation"] for c in done), "1")
    elif name == "cli-mix":
        out["cli.commands_per_s"] = (len(calls) / sum(secs), "1/s")
    return out, {"percentile": round(pct, 2), "samples": len(secs)}


def run_workload(args, hopfsim, workdir):
    import workloads

    wl = workloads.make(args.workload, ROOT, workdir)
    blocks = wl.blocks(args.seed)
    problems = []
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": wl.why, "provenance": provenance(hopfsim)}

    if not args.trace:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)
        calls, done = measure(wl, blocks, seconds=args.seconds)
        # taken before the run-level checks and the probe: they are not the measured load
        rss = wl.peak_rss_mb()
        problems += wl.run_checks(calls)
        named, tail_info = workload_metrics(args.workload, calls, setup_s, rss)
        metrics = {
            "calls_per_s": calls_per_s(calls, len(blocks[0])),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)
        detail.update(setup_runs_s=setup_runs, tail=tail_info,
                      workload_metrics={k: {"value": v, "unit": u}
                                        for k, (v, u) in named.items()})
    else:
        import layers
        from spans import Patches, Tracer

        done = max(1, round(args.seconds / 2.0 / wl.block_s))
        plain, _ = measure(wl, blocks, nblocks=done)
        problems += wl.run_checks(plain)
        tracer, patches = Tracer(), Patches()
        layers.install(tracer, patches)
        wl.tracer = tracer
        try:
            calls, _ = measure(wl, blocks, nblocks=done, tracer=tracer)
        finally:
            patches.restore()
            wl.tracer = None
        for a, b in zip(plain, calls):
            if (a.verdict["digest"], a.verdict["ok"]) != (b.verdict["digest"], b.verdict["ok"]):
                problems.append(f"traced output differs from untraced for {b.inp}")
        metrics = layers.per_layer_metrics(tracer)
        metrics["trace.overhead_s"] = (sum(c.seconds for c in calls)
                                       - sum(c.seconds for c in plain))
        units = dict(layers.PER_LAYER)
        detail.update(untraced_s=sum(c.seconds for c in plain),
                      traced_s=sum(c.seconds for c in calls),
                      spans=len(tracer.spans), computed_counts=list(layers.COMPUTED))

    probed = call_all(wl, wl.probe(args.seed))
    if args.trace:
        for c in calls + probed:
            if c.verdict.get("link_error"):
                metrics[f"preimage.errors.{c.verdict['link_error']}"] += 1
    failed = sum(1 for c in calls if not c.verdict["ok"])
    detail.update(inputs=[inp for block in blocks[:done] for inp in block],
                  call_seconds=[c.seconds for c in calls],
                  blocks=done, failures=failure_reasons(calls), problems=problems,
                  probe=[{"input": c.inp, "ok": c.verdict["ok"], "reason": c.verdict["reason"]}
                         for c in probed])
    result = {
        "correct": not failed and not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for k, v in metrics.items():
        print(f"{k:42s} {v:.6g} {units[k]}")
    if not args.trace:
        for k, (v, u) in named.items():
            print(f"{args.workload + ':' + k:42s} {v:.6g} {u}")
        print(f"{'tail':42s} p{tail_info['percentile']} of {tail_info['samples']} calls")
    print(f"{'failed':42s} {failed} of {len(calls)}")
    if probed:
        hit = sum(1 for c in probed if not c.verdict["ok"])
        print(f"{'probe (ROADMAP item 4, not measured)':42s} {hit} of {len(probed)} failed")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"detail": detail}))
    return result


def run_all(args):
    """Each workload in its own process; every metric by name and unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"perfbench: {name} failed with status {proc.returncode}\n{proc.stderr}")
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        shown = detail.get("workload_metrics") or result["metrics"]
        for k, m in shown.items():
            merged["metrics"][f"{name}/{k}"] = m
            print(f"{name + '/' + k:52s} {m['value']:.6g} {m['unit']}")
        if "tail" in detail:
            print(f"{name + '/tail':52s} p{detail['tail']['percentile']} "
                  f"of {detail['tail']['samples']} calls")
        print(f"{name + '/correct':52s} {result['correct']} "
              f"({result['failed']} of {result['attempted']} calls failed)")
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    hopfsim = bootstrap()
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, ROOT, None).blocks(args.seed)
        print("ready", flush=True)
        return 0
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run_workload(args, hopfsim, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own arithmetic, tracer and output checkers."""

import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    Patches, Span, Tracer, covered_length, rebind_everywhere, self_times, summarize,
    traced,
)

from hopfsim import bzgrid, invariants, model  # noqa: E402
from hopfsim.errors import ResolutionTooCoarse  # noqa: E402


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 5), (4, 6)]) == 5.0
    assert covered_length([(3, 4), (0, 10)]) == 10.0


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, "root", 0.0, 10.0, None),
        Span(2, "a", 1.0, 4.0, 1),
        Span(3, "b", 3.0, 6.0, 1),  # overlaps a, as a pool thread would
        Span(4, "a.child", 2.0, 3.0, 2),
        Span(5, "late", 9.0, 12.0, 1),  # ends after its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    summary = summarize(spans + [Span(6, "a", 20.0, 21.0, None)])
    assert summary["a"] == (pytest.approx(3.0), 2)


def test_fake_clock_spans_nest_on_one_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("outer")      # t=0
    inner = tracer.open("inner")      # t=1
    tracer.close(inner)               # t=2
    tracer.close(outer)               # t=3
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent is None
    assert summarize(tracer.spans)["outer"] == (2.0, 1)


def test_pool_thread_spans_take_the_open_adopting_span_as_parent():
    tracer = Tracer()
    orphan_parent = []

    def orphan():
        token = tracer.open("orphan")
        tracer.close(token)
        orphan_parent.append(tracer.spans[-1].parent)

    t = threading.Thread(target=orphan)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive() and orphan_parent == [None]

    campaign = tracer.open("run_campaign", adopt_threads=True)

    def site():
        token = tracer.open("site")
        inner = tracer.open("evolve")
        tracer.close(inner)
        tracer.close(token)

    workers = [threading.Thread(target=site) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    tracer.close(campaign)

    camp = next(s for s in tracer.spans if s.name == "run_campaign")
    sites = {s.sid: s for s in tracer.spans if s.name == "site"}
    evolves = [s for s in tracer.spans if s.name == "evolve"]
    assert len(sites) == 4 and all(s.parent == camp.sid for s in sites.values())
    assert all(e.parent in sites for e in evolves)
    # a span opened after the adopter closed is a root again
    t = threading.Thread(target=orphan)
    t.start()
    t.join(timeout=10)
    assert orphan_parent[-1] is None


def test_rebind_everywhere_and_restore():
    def original():
        return 1

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.f = sub.f = sub.alias = original
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        tracer, patches = Tracer(), Patches()
        wrapped = traced(tracer, "fake.f", original,
                         before=lambda a, k: tracer.count("fake.calls"))
        assert rebind_everywhere(patches, "fakepkg", original, wrapped) == 3
        assert pkg.f() == sub.alias() == 1
        assert tracer.counts["fake.calls"] == 2 and len(tracer.spans) == 2
        patches.restore()
        assert pkg.f is original and sub.f is original and sub.alias is original
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def test_traced_hooks_see_exceptions_and_close_the_span():
    tracer = Tracer()
    seen = []

    def boom():
        raise ValueError("x")

    wrapped = traced(tracer, "boom", boom, after=lambda r, a, k: seen.append(r))
    with pytest.raises(ValueError):
        wrapped()
    assert isinstance(seen[0], ValueError) and tracer.spans[0].name == "boom"
    assert tracer._stack() == []


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(30))
    assert run.tail(samples) == (19, pytest.approx(100 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_calls_per_s_uses_the_median_block():
    def calls(*seconds):
        return [run.Call({}, s, {}) for s in seconds]

    # blocks of two calls take 3, 30 and 4 s: the slow block does not count
    assert run.calls_per_s(calls(1, 2, 10, 20, 2, 2), 2) == pytest.approx(2 / 4)
    assert run.calls_per_s(calls(0.5, 0.25), 1) == pytest.approx(1 / 0.375)


def test_layer_install_counts_work_and_restores_every_binding():
    originals = (model.u_of_k, invariants.sample_state_field, np.fft.fftn,
                 bzgrid.StateField.pure_states)
    tracer, patches = Tracer(), Patches()
    layers.install(tracer, patches)
    try:
        f = invariants.sample_state_field(model.HopfParams(2.0), bzgrid.MeshSpec(6))
        report = invariants.index_report(f)
    finally:
        patches.restore()
    assert (model.u_of_k, invariants.sample_state_field, np.fft.fftn,
            bzgrid.StateField.pure_states) == originals
    metrics = layers.per_layer_metrics(tracer)
    # sample_state_field evaluates u(k) once itself and once in ground_state
    assert metrics["model.u_of_k.points"] == 2 * 6 ** 3
    assert metrics["invariants.chern_number.calls"] == 3 * 6
    assert metrics["invariants.fft.calls"] == 18
    assert metrics["invariants.fft.points"] == 18 * 6 ** 3
    assert metrics["invariants.hopf_index.self_s"] > 0
    assert metrics["preimage.preimage_contours.calls"] == 0
    untraced = invariants.index_report(
        bzgrid.sample_state_field(model.HopfParams(2.0), bzgrid.MeshSpec(6)))
    assert json.dumps(untraced, sort_keys=True) == json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# checkers


def _report(nearest, chi=None, chern=0):
    zeros = [0] * 4
    return {"h": 2.0, "n": 4, "chi": nearest if chi is None else chi,
            "nearest_integer": nearest, "deviation": 0.0,
            "chern_numbers": {"x": zeros, "y": zeros, "z": [chern, 0, 0, 0]}}


def test_index_checker_counts_wrong_chi_and_nonzero_chern():
    wl = workloads.IndexSweep()
    assert wl.check({"h": 2.0}, _report(1))["ok"]
    wrong = wl.check({"h": 2.0}, _report(0, chi=0.4))
    assert not wrong["ok"] and "chi" in wrong["reason"]
    assert not wl.check({"h": -0.5}, _report(1))["ok"]
    assert not wl.check({"h": 2.0}, _report(1, chern=1))["ok"]
    assert not wl.check({"h": 2.0}, ResolutionTooCoarse("x"))["ok"]


class _Links:
    def __init__(self, values):
        self.values = values

    def to_dict(self):
        return {"linking": self.values}


def test_link_checker_counts_wrong_lk_absent_and_raises():
    wl = workloads.LinkSweep()
    rand = {"h": 2.9, "axis": False}
    axis = {"h": 0.0, "axis": True}
    assert wl.check(rand, _Links([[None, -1], [-1, None]]))["ok"]
    assert wl.check(axis, _Links([[None, 2], [2, None]]))["ok"]
    wrong = wl.check(rand, _Links([[None, -2], [-2, None]]))
    assert not wrong["ok"] and "linking number" in wrong["reason"]
    assert not wl.check(axis, _Links([[None, -2], [-2, None]]))["ok"]
    assert not wl.check(rand, _Links([[None, None], [None, None]]))["ok"]
    bare = wl.check(axis, ValueError("loops wind the torus"))
    assert not bare["ok"] and bare["link_error"] == "untyped"
    typed = wl.check(axis, ResolutionTooCoarse("open chain"))
    assert not typed["ok"] and typed["link_error"] == "typed"


TRACEBACK = (
    "Traceback (most recent call last):\n"
    '  File "cli.py", line 1, in <module>\n'
    "ValueError: loops wind the torus\n"
)


def test_cli_checker_counts_traceback_where_json_error_expected(tmp_path):
    wl = workloads.CliMix(str(tmp_path), str(tmp_path))
    inp = {"args": workloads.ITEM4_LINK, "expect": 1}
    tb = wl.check(inp, subprocess.CompletedProcess([], 1, "", TRACEBACK))
    assert not tb["ok"] and "traceback" in tb["reason"]
    assert tb["link_error"] == "untyped"
    typed = json.dumps({"error": "ResolutionTooCoarse", "message": "x"}) + "\n"
    ok = wl.check(inp, subprocess.CompletedProcess([], 1, "", typed))
    assert ok["ok"] and ok["link_error"] == "typed"
    gapless = {"args": ["index", "--h", "1", "--n", "8"], "expect": 1}
    assert not wl.check(gapless, subprocess.CompletedProcess([], 0, "", ""))["ok"]
    assert not wl.check(gapless, subprocess.CompletedProcess([], 1, "", TRACEBACK))["ok"]


def test_cli_checker_reads_artifacts_and_compares_reruns(tmp_path):
    wl = workloads.CliMix(str(tmp_path), str(tmp_path))
    path = tmp_path / "index.json"
    inp = {"args": ["index", "--h=2.0", "--n", "4"], "expect": 0, "h": 2.0}

    def write(doc):
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return subprocess.CompletedProcess([], 0, f"{path}\n", "")

    assert wl.check(inp, write({**_report(1), "generated_at": "t0"}))["ok"]
    assert not wl.check(inp, write({**_report(0), "generated_at": "t0"}))["ok"]

    first = dict(inp, key="k")
    rerun = dict(inp, rerun_of="k")
    assert wl.check(first, write({**_report(1), "generated_at": "t1"}))["ok"]
    assert wl.check(rerun, write({**_report(1), "generated_at": "t2"}))["ok"]
    changed = wl.check(rerun, write({**_report(1, chi=1.01), "generated_at": "t3"}))
    assert not changed["ok"] and "byte-identical" in changed["reason"]

    path.write_text("{not json")
    broken = wl.check(inp, subprocess.CompletedProcess([], 0, f"{path}\n", ""))
    assert not broken["ok"]


def test_clirun_reports_the_command_s_own_peak_and_its_spans(tmp_path):
    # the parent holds far more memory than the command; ru_maxrss of the
    # child would start at the parent's peak, which the command inherits
    ballast = np.ones(20_000_000)
    parent_mb = workloads.Workload().peak_rss_mb()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"),
               HOPF_OUTPUT_DIR=str(tmp_path))
    docs = {}
    for mode in ("plain", "trace"):
        out = tmp_path / f"{mode}.json"
        proc = subprocess.run([sys.executable, workloads.CLIRUN, str(out), mode,
                               "index", "--h", "1", "--n", "8"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and workloads.stderr_verdict(proc.stderr)[0] == "json"
        docs[mode] = json.loads(out.read_text())
    del ballast
    assert 0 < docs["plain"]["peak_rss_mb"] < parent_mb - 100
    assert "spans" not in docs["plain"]
    tracer = Tracer()
    layers.merge(tracer, docs["trace"])
    assert any(s.name == "cli.dispatch" for s in tracer.spans)


def test_stderr_verdict_kinds():
    assert workloads.stderr_verdict('{"error": "GaplessPoint", "message": "m"}\n')[0] == "json"
    assert workloads.stderr_verdict(TRACEBACK) == (
        "traceback", "ValueError: loops wind the torus")
    assert workloads.stderr_verdict("usage error: x\n")[0] == "other"


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for name in run.WORKLOADS:
        wl = workloads.make(name, HERE, HERE)
        assert wl.blocks(3)[:5] == wl.blocks(3)[:5]
        assert wl.blocks(3)[:5] != wl.blocks(4)[:5]
    h = [b[0]["h"] for b in workloads.IndexSweep().blocks(0)]
    assert min(min(abs(abs(x) - 1), abs(abs(x) - 3)) for x in h) >= 0.2
    assert {invariants.chi_infinity(x) for x in h} == {-2, 0, 1}
    assert min(h) < 0 < max(h)


def test_known_defects_sit_in_the_probe_not_in_the_blocks():
    link = workloads.LinkSweep()
    for block in link.blocks(5)[:8]:
        assert sorted(inp["h"] for inp in block) == sorted(workloads.LINK_H_AXIS)
        assert all(inp["axis"] for inp in block)
    probe = link.probe(5)
    assert probe == link.probe(5) != link.probe(6)
    assert sorted(inp["h"] for inp in probe if not inp["axis"]) == sorted(workloads.LINK_H)
    assert [inp["h"] for inp in probe if inp["axis"]] == [-0.5]
    cli = workloads.CliMix(HERE, HERE)
    assert all(inp["args"] != workloads.ITEM4_LINK for inp in cli.blocks(5)[0])
    assert cli.probe(5) == [{"args": workloads.ITEM4_LINK, "expect": 1}]


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)

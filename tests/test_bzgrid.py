import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hopfsim import bzgrid
from hopfsim.bzgrid import (
    _SLAB_SITES,
    MeshSpec,
    StateField,
    _lanes,
    _map_lanes,
    field_from_dict,
    field_to_dict,
    sample_state_field,
    texture_rows,
)
from hopfsim.errors import GaplessPoint
from hopfsim.invariants import index_report
from hopfsim.model import HopfParams, ground_state


def test_mesh_spec():
    m = MeshSpec(10)
    pts = m.points()
    assert pts[1, 0, 0, 0] - pts[0, 0, 0, 0] == pytest.approx(2 * np.pi / 10)
    assert pts.shape == (10, 10, 10, 3)
    np.testing.assert_allclose(pts[1, 2, 3], 2 * np.pi * np.array([1, 2, 3]) / 10)
    with pytest.raises(ValueError):
        MeshSpec(3)
    assert MeshSpec(np.int64(10)).points().shape == (10, 10, 10, 3)


@pytest.mark.parametrize("n", [10.5, 10.0, np.float64(8.0), "10"])
def test_mesh_spec_refuses_non_integer_sizes(n):
    # MeshSpec(10.5) used to build an 11^3 grid; MeshSpec(10.0) sampled a field
    # whose hopf_index then ended in a TypeError
    with pytest.raises(ValueError, match=re.escape(f"mesh size n must be an integer, got {n!r}")):
        MeshSpec(n)


def test_sample_state_field_examples():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    assert f.kind == "spinor" and f.provenance == "analytic"
    norms = np.linalg.norm(f.data, axis=-1)
    assert np.abs(norms - 1).max() < 1e-12
    np.testing.assert_allclose(f.data[0, 0, 0], [1, 0], atol=1e-12)


def test_sample_state_field_gapless():
    with pytest.raises(GaplessPoint) as err:
        sample_state_field(HopfParams(1.0), MeshSpec(10))
    # u(k)=0 at h=1 forces sines to vanish and cos kx+cos ky+cos kz = -1
    assert err.value.site in {(0, 5, 5), (5, 0, 5), (5, 5, 0)}


def test_sample_state_field_gapless_names_the_first_closing_site():
    # three sites close the gap at h=1 on an n=8 mesh; the |u| of the gap check
    # must keep picking the first of them in row-major order
    with pytest.raises(GaplessPoint) as err:
        sample_state_field(HopfParams(1.0), MeshSpec(8))
    assert err.value.site == (0, 4, 4)
    np.testing.assert_array_equal(err.value.k, [0.0, np.pi, np.pi])


@pytest.mark.parametrize("h, site", [(1.0, (0, 16, 16)), (3.0, (16, 16, 16))])
def test_gapless_site_on_a_mesh_of_two_slabs(h, site):
    # n = 32 is sampled in two slabs of 16 x-planes; at h = 3 the closing
    # site lies in the second
    with pytest.raises(GaplessPoint) as err:
        sample_state_field(HopfParams(h), MeshSpec(32))
    assert err.value.site == site
    assert f"mesh site {site}, k/2pi=" in str(err.value)
    np.testing.assert_array_equal(err.value.k, 2 * np.pi * np.array(site) / 32)


@pytest.mark.parametrize("n", [6, 17, 26, 33, 64])
def test_slab_wise_sampler_is_bit_identical_to_one_ground_state_call(n):
    mesh, params = MeshSpec(n), HopfParams(-2.5)
    f = sample_state_field(params, mesh)
    ref = ground_state(mesh.points(), params)
    assert f.data.dtype == ref.dtype and f.data.tobytes() == ref.tobytes()


def test_sample_state_field_peak_memory_bound():
    # the 8 MiB field and one slab's ground-state temporaries per lane
    # (11.6 MiB with two lanes); the sampler that re-checked the field it had
    # sampled peaked at 16.1 MiB, the one that formed u(k) on the whole mesh
    # twice at 30.3 MiB
    mesh, params = MeshSpec(64), HopfParams(2.0)
    sample_state_field(params, mesh)
    tracemalloc.start()
    try:
        sample_state_field(params, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("change, match", [
    ({"n": 4.7}, "n must be an integer, got 4.7"), ({"n": 4.0}, "n must be an integer"),
    ({"n": True}, "n must be an integer, got True"), ({"n": "4"}, "n must be an integer"),
    ({"kind": "xml"}, "unknown field kind 'xml'"),
    # h = true used to load as the phase transition h = 1, and "2" as 2.0
    ({"h": True}, "h must be a real number, got True"),
    ({"h": "2"}, "h must be a real number, got '2'"),
    ({"h": None}, "h must be a real number, got None"),
    ({"h": 10**400}, "h is beyond the range of a float"),
    ({"h": float("nan")}, "h must be finite, got nan"),
    ({"provenance": 5}, "unknown field provenance 5"),
    ({"provenance": "measured"}, "unknown field provenance 'measured'"),
    ({"entries": [[1, 0, 0, 0]] * 63}, "entries must be 64 rows of 4 reals for n=4"),
    ({"entries": [[1, 0, 0, 0, 0]] * 64}, "entries must be 64 rows of 4 reals"),
    ({"entries": [[1, 0, 0, 0]] * 63 + [[1, 0]]}, "entries must be 64 rows of 4 reals"),
    ({"entries": {"0": [1, 0, 0, 0]}}, "entries must be 64 rows of 4 reals"),
    ({"entries": "rows"}, "entries must be 64 rows of 4 reals"),
    ({"kind": "rho"}, "entries must be 64 rows of 8 reals for n=4 and kind 'rho'"),
])
def test_field_from_dict_refuses_a_bad_n_or_kind(change, match):
    doc = field_to_dict(sample_state_field(HopfParams(2.0), MeshSpec(4)))
    assert field_from_dict(doc).n == 4
    with pytest.raises(ValueError, match=re.escape(match)):
        field_from_dict({**doc, **change})


@pytest.mark.parametrize("doc, match", [
    ([1], "a field document is a JSON object, got list"),
    ("field", "a field document is a JSON object, got str"),
    ({"h": 2.0}, "field document lacks n, entries"),
    ({"n": 4, "entries": []}, "field document lacks h"),
])
def test_field_from_dict_refuses_a_document_that_is_not_a_field(doc, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        field_from_dict(doc)


def test_rho_validation_rejects_unphysical():
    n = 4
    bad = np.zeros((n, n, n, 2, 2), dtype=complex)
    bad[..., 0, 0] = 1.2
    bad[..., 1, 1] = -0.2
    with pytest.raises(ValueError):
        StateField(MeshSpec(n), HopfParams(2.0), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("kind", ["spinor", "rho"])
def test_non_finite_state_data_rejected(kind, bad):
    # every comparison against a NaN is false, so the normalization and
    # density-matrix checks alone let such entries through
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    data = f.data if kind == "spinor" else np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    data = data.copy()
    data[1, 2, 3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        StateField(MeshSpec(4), f.params, data)


def test_rho_pure_states_dominant_eigenvector():
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    fr = StateField(MeshSpec(4), f.params, rho, provenance="simulated-experiment")
    pure = fr.pure_states()
    overlap = np.abs(np.sum(np.conj(pure) * f.data, axis=-1))
    assert np.abs(overlap - 1).max() < 1e-10


def test_apply_gauge_changes_phases_only():
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    rng = np.random.default_rng(2)
    g = f.apply_gauge(rng.uniform(0, 2 * np.pi, (4, 4, 4)))
    np.testing.assert_allclose(
        np.abs(g.data), np.abs(f.data), atol=1e-15
    )
    np.testing.assert_allclose(g.bloch_vectors(), f.bloch_vectors(), atol=1e-12)


def test_texture_csv():
    # the rows the texture CSV carries: site indices in row-major order, then
    # the Bloch vector of that site, bit for bit
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    rows = texture_rows(f)
    assert rows.shape == (64, 6)
    np.testing.assert_array_equal(rows[:, :3], np.indices((4, 4, 4)).reshape(3, -1).T)
    np.testing.assert_allclose(
        rows[:, 3:], f.bloch_vectors().reshape(-1, 3), rtol=0, atol=0
    )
    np.testing.assert_allclose(np.linalg.norm(rows[:, 3:], axis=1), 1, atol=1e-12)


def test_field_reload_is_exact_down_to_the_sign_of_zero():
    # re + 1j * im turned every -0.0 imaginary part into +0.0
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    doc = field_to_dict(f)
    doc = json.loads(json.dumps({**doc, "entries": doc["entries"].tolist()}))
    parts = f.data.view(np.float64)
    assert np.signbit(parts[parts == 0]).any()
    back = field_from_dict(doc)
    assert back.data.dtype == f.data.dtype and back.data.tobytes() == f.data.tobytes()
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    fr = StateField(MeshSpec(4), f.params, rho, provenance="simulated-experiment")
    assert field_from_dict(field_to_dict(fr)).data.tobytes() == rho.tobytes()


def test_field_reload_does_not_share_the_documents_array():
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    doc = field_to_dict(f)
    back = field_from_dict(doc)
    doc["entries"][:] = 0.0
    assert back.data.tobytes() == sample_state_field(HopfParams(2.0), MeshSpec(4)).data.tobytes()


def test_a_field_from_outside_is_still_checked():
    # sample_state_field skips the checks of its own ground states; every
    # other field keeps them
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    with pytest.raises(ValueError, match="normalized"):
        StateField(MeshSpec(4), f.params, 1.5 * f.data)
    data = f.data.copy()
    data[0, 1, 2, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        StateField(MeshSpec(4), f.params, data)


def test_lanes_follow_the_mesh_size_and_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(bzgrid, "_cpus", lambda: 2)
    assert (_lanes(_SLAB_SITES), _lanes(_SLAB_SITES + 1), _lanes(64**3)) == (1, 2, 2)
    monkeypatch.setattr(bzgrid, "_cpus", lambda: 1)
    assert _lanes(64**3) == 1


def test_map_lanes_keeps_the_order_and_uses_each_lanes_scratch():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lanes in (["caller", "a"], ["caller", "a", "b"], ["caller", "a", "b", "c"]):
            seen = []

            def square(x, lane):
                seen.append((lane, threading.get_ident()))
                return x * x

            assert _map_lanes(square, list(range(200)), lanes) == [x * x for x in range(200)]
            threads = dict(seen)  # lane -> the one thread that used its scratch
            assert set(threads) <= set(lanes) and len(threads) == len(set(seen))
            assert len(set(threads.values())) == len(threads)
            assert threads.get("caller", threading.get_ident()) == threading.get_ident()
            assert _map_lanes(square, [3], lanes) == [9]
        assert _map_lanes(square, [1, 2], ["caller"]) == [1, 4]
    finally:
        sys.setswitchinterval(old)


def test_map_lanes_starts_no_more_helpers_than_items_after_the_first(lane_starts):
    lanes = ["caller", "a", "b", "c", "d"]
    for items, helpers in (([1], 0), ([1, 2], 1), ([1, 2, 3], 2), (list(range(9)), 4)):
        lane_starts.clear()
        assert _map_lanes(lambda x, lane: -x, items, lanes) == [-x for x in items]
        assert lane_starts == ["hopfsim-lane"] * helpers


def test_map_lanes_raises_the_first_error_in_order_after_the_helper_is_done():
    done = []

    def item(x, lane):
        if x in (5, 9):
            raise GaplessPoint(f"item {x}")
        done.append(x)

    for lanes in (["caller"], ["caller", "a"], ["caller", "a", "b"], ["caller", "a", "b", "c"]):
        done.clear()
        with pytest.raises(GaplessPoint, match="item 5"):
            _map_lanes(item, list(range(40)), lanes)
        settled = list(done)
        assert set(range(5)) <= set(settled)
        time.sleep(0.05)
        assert done == settled  # every helper was done before the error propagated


def test_the_serial_path_never_starts_a_helper_thread(monkeypatch, lane_starts):
    # a mesh of one slab, or a process on one CPU, keeps the serial path
    for n, cpus in ((6, 2), (25, 2), (26, 1), (26, 2)):
        monkeypatch.setattr(bzgrid, "_cpus", lambda: cpus)
        index_report(sample_state_field(HopfParams(2.0), MeshSpec(n)))
        if n < 26 or cpus < 2:
            assert lane_starts == []
    # a helper for each pass of the sampler, for the links, the plaquettes,
    # the three stages of the connection solve and the re-centering
    assert lane_starts == ["hopfsim-lane"] * 8


def test_the_package_never_imports_concurrent_futures():
    # both threaded engines run on the plain threads of bzgrid._map_lanes
    script = """
import sys
from hopfsim import adiabatic, bzgrid, cli, invariants, model
bzgrid._cpus = lambda: 2
invariants.index_report(bzgrid.sample_state_field(model.HopfParams(2.0), bzgrid.MeshSpec(26)))
adiabatic.run_campaign(model.HopfParams(2.0), bzgrid.MeshSpec(6), photons_per_site=300, threads=2)
print("concurrent.futures" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(bzgrid.__file__))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"]

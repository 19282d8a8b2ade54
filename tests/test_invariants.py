import json
import tracemalloc

import numpy as np
import pytest

from hopfsim import bzgrid, invariants
from hopfsim.bzgrid import MeshSpec, StateField, pure_spinors, sample_state_field
from hopfsim.errors import GaplessPoint, NonIntegerFlux, NonzeroNetFlux, OrthogonalNeighbors
from hopfsim.invariants import (
    _CYCLIC,
    TOL_OVERLAP,
    _along,
    _grid_links,
    _site_products,
    berry_connection,
    berry_curvature,
    chern_number,
    chern_numbers,
    chi_infinity,
    hopf_index,
    index_report,
    scaling_study,
)
from hopfsim.model import HopfParams


def _constant_field(n=6):
    data = np.zeros((n, n, n, 2), dtype=complex)
    data[..., 0] = 1.0
    return StateField(MeshSpec(n), HopfParams(2.0), data)


def _chern_layer_field(n=10, m0=1.0, stack_axis=2):
    # two-band Chern-insulator layer (unit Chern number) stacked along one axis
    j = 2 * np.pi * np.arange(n) / n
    kx, ky = np.meshgrid(j, j, indexing="ij")
    d = np.stack([np.sin(kx), np.sin(ky), m0 - np.cos(kx) - np.cos(ky)], axis=-1)
    norm = np.linalg.norm(d, axis=-1)
    psi = np.empty(d.shape[:-1] + (2,), dtype=complex)
    lower = d[..., 2] <= 0
    psi[..., 0] = np.where(lower, norm - d[..., 2], -(d[..., 0] - 1j * d[..., 1]))
    psi[..., 1] = np.where(lower, -(d[..., 0] + 1j * d[..., 1]), norm + d[..., 2])
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    data = np.broadcast_to(
        np.expand_dims(psi, stack_axis), (n, n, n, 2)
    ).copy()
    return StateField(MeshSpec(n), HopfParams(2.0), data)


def _row_links(*states):
    # links of a periodic row of sites, each a spinor or a density matrix
    row = np.stack([pure_spinors(np.asarray(x, dtype=complex)) for x in states])
    return _grid_links(row, axes=(0,))[0]


def test_grid_links_examples():
    np.testing.assert_allclose(_row_links([1, 0], [1, 0]), [1, 1])
    np.testing.assert_allclose(_row_links([1, 0], np.array([1, 1j]) / np.sqrt(2)), [1, 1])
    phase = np.exp(0.7j)
    np.testing.assert_allclose(_row_links([1, 0], [phase, 0]), [phase, np.conj(phase)])
    with pytest.raises(OrthogonalNeighbors) as err:
        _row_links([1, 0], [0, 1])
    assert (err.value.site, err.value.axis) == ((0,), 0)


def test_grid_links_accepts_density_matrices():
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, np.conj(psi))
    val = _row_links(rho, psi)
    assert np.abs(np.abs(val) - 1).max() < 1e-12


def test_grid_links_match_the_summed_overlap():
    # reference: the overlap as a sum over the spinor axis, then normalized
    n = 7
    rng = np.random.default_rng(11)
    data = rng.normal(size=(n, n, n, 2)) + 1j * rng.normal(size=(n, n, n, 2))
    data /= np.linalg.norm(data, axis=-1, keepdims=True)
    f = StateField(MeshSpec(n), HopfParams(2.0), data)
    gauged = f.apply_gauge(rng.uniform(0, 2 * np.pi, (n,) * 3))
    rho = np.einsum("...i,...j->...ij", data, np.conj(data))
    as_rho = StateField(MeshSpec(n), HopfParams(2.0), rho)
    for field in (f, gauged, as_rho):
        s = field.pure_states()
        for ax, link in enumerate(_grid_links(s, axes=(0, 1, 2))):
            ov = np.sum(np.conj(s) * np.roll(s, -1, ax), -1)
            np.testing.assert_allclose(link, ov / np.abs(ov), rtol=0, atol=1e-15)


def test_curvature_constant_field_is_zero():
    curv = berry_curvature(_constant_field())
    assert np.abs(curv.values).max() == 0.0


def test_curvature_range_and_layer_integrality():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    curv = berry_curvature(f)
    assert curv.values.min() > -0.5 and curv.values.max() <= 0.5
    for axis in "xyz":
        sums = curv.layer_sums(axis)
        np.testing.assert_allclose(sums, np.rint(sums), atol=1e-9)


def test_curvature_gauge_invariant():
    f = sample_state_field(HopfParams(2.0), MeshSpec(8))
    rng = np.random.default_rng(3)
    scrambled = f.apply_gauge(rng.uniform(0, 2 * np.pi, (8, 8, 8)))
    f0 = berry_curvature(f).values
    f1 = berry_curvature(scrambled).values
    assert np.abs(f1 - f0).max() < 1e-12


@pytest.mark.parametrize("h", [0.0, 2.0])
def test_slice_chern_numbers_vanish(h):
    f = sample_state_field(HopfParams(h), MeshSpec(10))
    cn = chern_numbers(berry_curvature(f))
    assert all(c == 0 for axis in "xyz" for c in cn[axis])


def test_constant_slice_chern_zero():
    assert chern_number(berry_curvature(_constant_field()), "z", 0) == 0


def test_chern_number_refuses_unknown_axis_and_out_of_range_layer():
    curv = berry_curvature(sample_state_field(HopfParams(2.0), MeshSpec(6)))
    with pytest.raises(ValueError):
        chern_number(curv, "w", 0)
    for layer in (6, -1):
        with pytest.raises(IndexError):
            chern_number(curv, "z", layer)


def test_synthetic_chern_layer():
    f = _chern_layer_field()
    assert abs(chern_number(berry_curvature(f), "z", 0)) == 1
    with pytest.raises(NonzeroNetFlux) as err:
        berry_connection(berry_curvature(f))
    assert err.value.axis == "z"
    assert abs(err.value.flux) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("stack_axis,normal", [(0, "x"), (1, "y")])
def test_synthetic_chern_layer_other_axes(stack_axis, normal):
    # orientation bookkeeping must hold for every slice normal
    f = _chern_layer_field(stack_axis=stack_axis)
    curv = berry_curvature(f)
    assert abs(chern_number(curv, normal, 3)) == 1
    assert abs(curv.layer_sums(normal)[3]) == pytest.approx(1.0, abs=1e-9)


def test_random_field_chern_integrality():
    rng = np.random.default_rng(11)
    n = 8
    data = rng.normal(size=(n, n, n, 2)) + 1j * rng.normal(size=(n, n, n, 2))
    data /= np.linalg.norm(data, axis=-1, keepdims=True)
    curv = berry_curvature(StateField(MeshSpec(n), HopfParams(2.0), data))
    for axis in "xyz":
        for layer in range(n):
            assert isinstance(chern_number(curv, axis, layer), int)


def test_chern_number_non_integer_flux_is_typed():
    # a closed layer's flux sum is an integer up to rounding; break one
    # plaquette flux to reach the check
    curv = berry_curvature(_constant_field())
    curv.values[2, 0, 0, 0] = 0.3
    with pytest.raises(NonIntegerFlux):
        chern_number(curv, "z", 0)


def _projectors(f):
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    return StateField(f.mesh, f.params, rho, provenance="simulated-experiment")


def test_index_report_makes_one_curvature_pass(monkeypatch):
    # on a density-matrix field the one pass diagonalizes each site once
    f = sample_state_field(HopfParams(2.0), MeshSpec(6))
    fr = _projectors(f)
    seen, curvatures = [], []
    eigh, curvature = np.linalg.eigh, invariants.berry_curvature

    def counting_eigh(a):
        seen.append(a.size // 4)
        return eigh(a)

    def counting_curvature(field):
        curvatures.append(field)
        return curvature(field)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(invariants, "berry_curvature", counting_curvature)
    rep = index_report(fr)
    assert len(curvatures) == 1 and curvatures[0] is fr
    assert seen == [6 ** 3]
    assert rep["chern_numbers"] == chern_numbers(curvature(f))


def test_slice_chern_numbers_of_density_matrices():
    f = _chern_layer_field()
    cn = chern_numbers(berry_curvature(_projectors(f)))
    assert cn == chern_numbers(berry_curvature(f))
    assert all(abs(c) == 1 for c in cn["z"])


def test_slice_orthogonal_neighbors_name_field_site_and_axis():
    f = sample_state_field(HopfParams(0.5), MeshSpec(6))
    with pytest.raises(OrthogonalNeighbors) as err:
        chern_numbers(berry_curvature(f))
    site, axis = err.value.site, err.value.axis
    assert len(site) == 3 and axis in (0, 1, 2)
    nb = list(site)
    nb[axis] = (nb[axis] + 1) % 6
    assert abs(np.vdot(f.data[tuple(site)], f.data[tuple(nb)])) <= TOL_OVERLAP


def test_connection_zero_for_zero_curvature():
    conn = berry_connection(berry_curvature(_constant_field()))
    assert np.abs(conn.values).max() == 0.0


def _lattice_curl(conn):
    """Forward-difference curl of a connection, same layout as a curvature."""
    a = conn.values

    def dfwd(arr, ax):
        return np.roll(arr, -1, axis=ax) - arr

    out = np.empty_like(a)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        out[mu] = dfwd(a[tau], nu) - dfwd(a[nu], tau)
    return out


def _lattice_divergence(conn):
    """Adjoint (backward-difference) divergence; zero for the Coulomb gauge."""
    a = conn.values
    return sum(a[nu] - np.roll(a[nu], 1, axis=nu) for nu in range(3))


def test_connection_curl_and_divergence():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    curv = berry_curvature(f)
    conn = berry_connection(curv)
    assert np.abs(_lattice_curl(conn) - curv.values).max() < 1e-10
    assert np.abs(_lattice_divergence(conn)).max() < 1e-10


@pytest.mark.parametrize(
    "h,target,band",
    [(2.0, 1, 0.05), (0.0, -2, 0.10), (4.0, 0, 0.05)],
)
def test_hopf_index_quantization(h, target, band):
    res = hopf_index(sample_state_field(HopfParams(h), MeshSpec(10)))
    assert abs(res.chi - target) <= band
    assert res.nearest_integer == target
    assert res.deviation == pytest.approx(abs(res.chi - target))


# chi of the analytic field, recorded from the pipeline before its per-site
# arithmetic was rewritten; any later change to the pipeline shows up here
RECORDED_CHI = {
    (2.0, 10): 1.0204361690183925,
    (2.0, 17): 1.0081011194706968,
    (0.5, 10): -2.0079938858147415,
    (0.5, 17): -2.0243460608001786,
    (-2.0, 10): 1.0204361690183925,
    (-2.0, 17): 1.008098263827885,
    (3.5, 10): 0.0019593822977632693,
    (3.5, 17): 0.00017759623544055152,
}


@pytest.mark.parametrize("h,n", sorted(RECORDED_CHI))
def test_hopf_index_matches_recorded_values(h, n):
    chi = hopf_index(sample_state_field(HopfParams(h), MeshSpec(n))).chi
    assert abs(chi - RECORDED_CHI[h, n]) <= 1e-12


def test_hopf_index_from_density_matrices():
    f = sample_state_field(HopfParams(2.0), MeshSpec(8))
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    fr = StateField(MeshSpec(8), f.params, rho, provenance="simulated-experiment")
    assert hopf_index(fr).chi == pytest.approx(hopf_index(f).chi, abs=1e-10)


def test_chi_infinity():
    assert chi_infinity(0.5) == -2
    assert chi_infinity(-2.2) == 1
    assert chi_infinity(3.5) == 0
    with pytest.raises(ValueError):
        chi_infinity(1.0)
    with pytest.raises(ValueError):
        chi_infinity(-3.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), float("-inf")])
def test_chi_infinity_refuses_non_finite_h(h):
    with pytest.raises(ValueError):
        chi_infinity(h)


@pytest.mark.parametrize("h", [0.0, 2.0])
def test_scaling_monotone(h):
    rows = scaling_study(h, [10, 14])
    assert [r.n for r in rows] == [10, 14]
    assert rows[1].deviation < rows[0].deviation


def test_scaling_near_transition_larger_deviation_n20():
    # finite-size effects are stronger near the h=1 transition; the apparent
    # reversal at small n is coincidental, so only the n=20 ordering is stable
    d15 = scaling_study(1.5, [20])[0].deviation
    d20 = scaling_study(2.0, [20])[0].deviation
    assert d15 > d20


def test_index_report_schema():
    f = sample_state_field(HopfParams(2.0), MeshSpec(6))
    rep = index_report(f)
    assert set(rep) == {"h", "n", "chi", "nearest_integer", "deviation", "chern_numbers"}
    assert all(len(rep["chern_numbers"][ax]) == 6 for ax in "xyz")
    # the slice Chern numbers are the rounded layer sums of the curvature
    curv = berry_curvature(f)
    assert rep["chern_numbers"] == {
        ax: np.rint(curv.layer_sums(ax)).astype(int).tolist() for ax in "xyz"}


# ---------------------------------------------------------------------------
# the in-place pipeline against its allocating form


def _reference_links(states, axes):
    up, down = states[..., 0], states[..., 1]
    up_bar, down_bar = np.conj(up), np.conj(down)
    links = []
    for ax in axes:
        ov = up_bar * np.roll(up, -1, axis=ax)
        ov += down_bar * np.roll(down, -1, axis=ax)
        ov /= np.abs(ov)
        links.append(ov)
    return links


def _reference_curvature(f):
    # every link, plaquette and flux as a fresh array
    links = _reference_links(f.pure_states(), (0, 1, 2))
    values = np.empty((3,) + links[0].shape)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        u_nu, u_tau = links[nu], links[tau]
        plaq = (u_nu * np.roll(u_tau, -1, axis=nu) * np.conj(np.roll(u_nu, -1, axis=tau))
                * np.conj(u_tau))
        values[mu] = np.angle(plaq) / (2.0 * np.pi)
    return values


def _reference_connection(curv):
    n = curv.mesh.n
    fhat = [np.fft.fftn(curv.values[mu]) for mu in range(3)]
    m = np.fft.fftfreq(n, d=1.0 / n)
    d = np.exp(2j * np.pi * m / n) - 1.0
    dbar = [_along(np.conj(d), ax) for ax in range(3)]
    sq = np.abs(d) ** 2
    denom = _along(sq, 0) + _along(sq, 1) + _along(sq, 2)
    denom[0, 0, 0] = 1.0
    a = np.empty_like(curv.values)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        ahat = dbar[nu] * fhat[tau]
        ahat -= dbar[tau] * fhat[nu]
        np.negative(ahat, out=ahat)
        ahat /= denom
        ahat[0, 0, 0] = 0.0
        a[mu] = np.fft.ifftn(ahat).real
    return a


def _reference_recenter(curv, conn):
    n = curv.mesh.n
    half = np.exp(-1j * np.pi * np.fft.fftfreq(n, d=1.0 / n) / n)

    def shift(arr, axes):
        ah = np.fft.fftn(arr)
        for ax in axes:
            ah *= _along(half, ax)
        return np.fft.ifftn(ah).real

    f_sites = np.empty_like(curv.values)
    a_sites = np.empty_like(conn.values)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        f_sites[mu] = shift(curv.values[mu], (nu, tau))
        a_sites[mu] = shift(conn.values[mu], (mu,))
    return f_sites, a_sites


def _same_bits(a, b):
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _variant(kind, n):
    f = sample_state_field(HopfParams(2.0), MeshSpec(n))
    if kind == "rho":
        return _projectors(f)
    if kind == "gauge":
        return f.apply_gauge(np.random.default_rng(n).uniform(0, 2 * np.pi, (n,) * 3))
    return f


# n = 26 is the smallest mesh whose complex arrays reach numpy's 256 KiB
# temporary-elision size, where the allocating products swap their operands
# (its first slab of 24 x-planes stays below it); n = 33 is cut into slabs of
# 15, 15 and 3 planes, n = 40 into four of 10
@pytest.mark.parametrize("kind", ["spinor", "rho", "gauge"])
@pytest.mark.parametrize("n", [6, 10, 17, 26, 33, 40])
def test_in_place_pipeline_is_bit_identical_to_the_allocating_one(kind, n):
    f = _variant(kind, n)
    curv = berry_curvature(f)
    assert _same_bits(curv.values, _reference_curvature(f))
    conn = berry_connection(curv)
    assert _same_bits(conn.values, _reference_connection(curv))
    ref_f, ref_a = _reference_recenter(curv, conn)
    assert _same_bits(_site_products(curv, conn), ref_f * ref_a)
    assert hopf_index(f).chi == -float(np.sum(ref_f * ref_a))


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (5,), (2, 3), (130, 130)])
def test_links_are_bit_identical_to_the_allocating_ones_on_any_grid(shape):
    # one site is its own neighbour, where numpy's in-place complex product
    # rounds apart from the fresh one; 130 x 130 reaches the elision size
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    states = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    axes = tuple(range(len(shape)))
    for link, ref in zip(_grid_links(states, axes), _reference_links(states, axes)):
        assert _same_bits(link, ref)


def test_successive_calls_do_not_alias_earlier_results():
    fields = [sample_state_field(HopfParams(h), MeshSpec(10)) for h in (2.0, -2.6)]
    curvs = [berry_curvature(f) for f in fields]
    kept = [c.values.copy() for c in curvs]
    conns = [berry_connection(c) for c in curvs]
    first = conns[0].values.copy()
    berry_connection(curvs[1])
    hopf_index(fields[1])
    assert np.array_equal(conns[0].values, first)
    assert not np.array_equal(conns[0].values, conns[1].values)
    assert all(np.array_equal(c.values, k) for c, k in zip(curvs, kept))


def test_index_report_peak_memory_bound():
    # the allocating pipeline peaked at 9.5 complex n^3 arrays, the in-place
    # one at 8.8 and the slab-wise one at 7.3 (the spectral solve: three
    # transform buffers, the curvature and the connection); with two lanes,
    # each holding two slabs of half the mesh for the Coulomb modes, 8.0
    n = 32
    f = sample_state_field(HopfParams(2.0), MeshSpec(n))
    index_report(f)
    tracemalloc.start()
    try:
        index_report(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0 * n ** 3 * 16


def test_index_report_peak_memory_bound_n64():
    # above its field: two complex n^3 buffers for the solve beside the flux
    # and connection arrays, or one re-centering buffer per lane beside them
    # (21.5 MiB with two lanes); three buffers for the solve and 4 MiB of
    # links took 24.6 MiB, and the chain that kept both conjugate copies, a
    # full-size solve and a separate recentered A 34.1 MiB
    f = sample_state_field(HopfParams(2.0), MeshSpec(64))
    index_report(f)
    tracemalloc.start()
    try:
        index_report(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


# ---------------------------------------------------------------------------
# one lane or two: the same bytes


def _outputs(h, n):
    # every output, up to the first error, whose type, message and fields end the list
    f = sample_state_field(HopfParams(h), MeshSpec(n))
    curv = berry_curvature(f)
    out = [f.data.tobytes(), curv.values.tobytes()]
    try:
        out.append(berry_connection(curv).values.tobytes())
    except NonzeroNetFlux:
        return out + list(_raised(index_report, f))
    return out + [json.dumps(index_report(f), sort_keys=True)]


def _on_cpus(monkeypatch, cpus, fn, *args):
    monkeypatch.setattr(bzgrid, "_cpus", lambda: cpus)
    return fn(*args)


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    e = err.value
    return type(e), str(e), getattr(e, "site", None), getattr(e, "axis", None), \
        getattr(e, "layer", None), getattr(e, "flux", None)


@pytest.mark.parametrize("n", [26, 32, 33, 40, 64])
def test_thread_count_never_changes_an_output(monkeypatch, n):
    # the helper lane is forced on (and off) whatever the host's CPUs
    for h in (-3.5, -2.0, -0.5, 0.5, 2.0, 2.9):
        two = _on_cpus(monkeypatch, 2, _outputs, h, n)
        assert two == _on_cpus(monkeypatch, 1, _outputs, h, n), h


@pytest.mark.parametrize("h", [1.0, 3.0])
def test_thread_count_never_changes_a_gapless_point(monkeypatch, h):
    sample = lambda: sample_state_field(HopfParams(h), MeshSpec(32))  # noqa: E731
    two = _on_cpus(monkeypatch, 2, _raised, sample)
    assert two[0] is GaplessPoint
    assert two == _on_cpus(monkeypatch, 1, _raised, sample)


@pytest.mark.parametrize("stack_axis", [0, 2])
def test_thread_count_never_changes_a_net_flux_error(monkeypatch, stack_axis):
    curv = berry_curvature(_chern_layer_field(n=33, stack_axis=stack_axis))
    two = _on_cpus(monkeypatch, 2, _raised, berry_connection, curv)
    assert two[0] is NonzeroNetFlux
    assert two == _on_cpus(monkeypatch, 1, _raised, berry_connection, curv)


def test_thread_count_never_changes_which_neighbours_are_orthogonal(monkeypatch):
    # two orthogonal pairs along y, in different slabs: the first in
    # row-major order is named
    n = 33
    rng = np.random.default_rng(4)
    data = rng.normal(size=(n, n, n, 2)) + 1j * rng.normal(size=(n, n, n, 2))
    data /= np.linalg.norm(data, axis=-1, keepdims=True)
    for site in ((20, 3, 7), (5, 30, 1)):
        a = data[site]
        data[site[0], (site[1] + 1) % n, site[2]] = [-np.conj(a[1]), np.conj(a[0])]
    links = lambda: _grid_links(data, axes=(0, 1, 2))  # noqa: E731
    two = _on_cpus(monkeypatch, 2, _raised, links)
    assert two[:4] == (OrthogonalNeighbors, "orthogonal neighbors at site (5, 30, 1) along axis 1",
                       (5, 30, 1), 1)
    assert two == _on_cpus(monkeypatch, 1, _raised, links)

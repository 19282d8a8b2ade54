import numpy as np
import pytest

from hopfsim import invariants
from hopfsim.bzgrid import MeshSpec, StateField, pure_spinors, sample_state_field, slice_field
from hopfsim.errors import NonIntegerFlux, NonzeroNetFlux, OrthogonalNeighbors
from hopfsim.invariants import (
    TOL_OVERLAP,
    _grid_links,
    berry_connection,
    berry_curvature,
    chern_number,
    chern_numbers,
    chi_infinity,
    hopf_index,
    index_report,
    lattice_curl,
    lattice_divergence,
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
    cn = chern_numbers(f)
    assert all(c == 0 for axis in "xyz" for c in cn[axis])


def test_constant_slice_chern_zero():
    assert chern_number(slice_field(_constant_field(), "z", 0)) == 0


def test_synthetic_chern_layer():
    f = _chern_layer_field()
    assert abs(chern_number(slice_field(f, "z", 0))) == 1
    with pytest.raises(NonzeroNetFlux) as err:
        berry_connection(berry_curvature(f))
    assert err.value.axis == "z"
    assert abs(err.value.flux) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("stack_axis,normal", [(0, "x"), (1, "y")])
def test_synthetic_chern_layer_other_axes(stack_axis, normal):
    # orientation bookkeeping must hold for every slice normal
    f = _chern_layer_field(stack_axis=stack_axis)
    assert abs(chern_number(slice_field(f, normal, 3))) == 1
    curv = berry_curvature(f)
    assert abs(curv.layer_sums(normal)[3]) == pytest.approx(1.0, abs=1e-9)


def test_random_field_chern_integrality():
    rng = np.random.default_rng(11)
    n = 8
    data = rng.normal(size=(n, n, n, 2)) + 1j * rng.normal(size=(n, n, n, 2))
    data /= np.linalg.norm(data, axis=-1, keepdims=True)
    f = StateField(MeshSpec(n), HopfParams(2.0), data)
    for axis in "xyz":
        for layer in range(n):
            assert isinstance(chern_number(slice_field(f, axis, layer)), int)


def test_chern_number_non_integer_flux_is_typed(monkeypatch):
    # a closed layer's flux sum is an integer up to rounding; break the
    # plaquette product to reach the check
    plaquettes = invariants._plaquettes
    monkeypatch.setattr(invariants, "_plaquettes", lambda *a: plaquettes(*a) * np.exp(0.3j))
    with pytest.raises(NonIntegerFlux):
        chern_number(slice_field(_constant_field(), "z", 0))


def _projectors(f):
    rho = np.einsum("...i,...j->...ij", f.data, np.conj(f.data))
    return StateField(f.mesh, f.params, rho, provenance="simulated-experiment")


def test_slices_convert_only_their_own_sites(monkeypatch):
    f = sample_state_field(HopfParams(2.0), MeshSpec(6))
    fr = _projectors(f)
    pure = fr.pure_states()
    for axis, ax in (("x", 0), ("y", 1), ("z", 2)):
        for j in range(6):
            sl = slice_field(fr, axis, j).pure_states()
            assert sl.tobytes() == np.take(pure, j, axis=ax).tobytes()
    seen = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        seen.append(a.size // 4)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert chern_numbers(fr) == chern_numbers(f)
    assert seen == [6 * 6] * (3 * 6)


def test_slice_chern_numbers_of_density_matrices():
    f = _chern_layer_field()
    cn = chern_numbers(_projectors(f))
    assert cn == chern_numbers(f)
    assert all(abs(c) == 1 for c in cn["z"])


def test_slice_orthogonal_neighbors_name_field_site_and_axis():
    f = sample_state_field(HopfParams(0.5), MeshSpec(6))
    with pytest.raises(OrthogonalNeighbors) as err:
        chern_numbers(f)
    site, axis = err.value.site, err.value.axis
    assert len(site) == 3 and axis in (0, 1, 2)
    nb = list(site)
    nb[axis] = (nb[axis] + 1) % 6
    assert abs(np.vdot(f.data[tuple(site)], f.data[tuple(nb)])) <= TOL_OVERLAP


def test_connection_zero_for_zero_curvature():
    conn = berry_connection(berry_curvature(_constant_field()))
    assert np.abs(conn.values).max() == 0.0


def test_connection_curl_and_divergence():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    curv = berry_curvature(f)
    conn = berry_connection(curv)
    assert np.abs(lattice_curl(conn) - curv.values).max() < 1e-10
    assert np.abs(lattice_divergence(conn)).max() < 1e-10


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

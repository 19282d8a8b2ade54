import numpy as np
import pytest

from hopfsim.bzgrid import (
    MeshSpec,
    StateField,
    coverage_fraction,
    sample_state_field,
    texture_rows,
)
from hopfsim.errors import EmptyInput, GaplessPoint
from hopfsim.model import HopfParams


def test_mesh_spec():
    m = MeshSpec(10)
    assert m.spacing == pytest.approx(2 * np.pi / 10)
    pts = m.points()
    assert pts.shape == (10, 10, 10, 3)
    np.testing.assert_allclose(pts[1, 2, 3], 2 * np.pi * np.array([1, 2, 3]) / 10)
    with pytest.raises(ValueError):
        MeshSpec(3)


def test_sample_state_field_examples():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    assert f.kind == "spinor" and f.provenance == "analytic"
    norms = np.linalg.norm(f.data, axis=-1)
    assert np.abs(norms - 1).max() < 1e-12
    np.testing.assert_allclose(f.site_state((0, 0, 0)), [1, 0], atol=1e-12)


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


def test_coverage_single_cell():
    vecs = np.tile([0.0, 0.0, 1.0], (7, 1))
    assert coverage_fraction(vecs, 128) == pytest.approx(1 / 128)


def test_coverage_full_field_vs_slice():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    assert coverage_fraction(f.bloch_vectors(), 64) == 1.0
    assert coverage_fraction(f.bloch_vectors()[:, :, 0], 64) < 1.0


def test_coverage_trivial_phase_not_full():
    f = sample_state_field(HopfParams(4.0), MeshSpec(10))
    assert coverage_fraction(f.bloch_vectors(), 64) < 1.0


def test_coverage_permutation_invariant():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(300, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    perm = rng.permutation(300)
    assert coverage_fraction(v, 72) == coverage_fraction(v[perm], 72)


def test_coverage_input_validation():
    with pytest.raises(EmptyInput):
        coverage_fraction(np.empty((0, 3)), 64)
    with pytest.raises(ValueError):
        coverage_fraction([[0, 0, 1]], 4)
    with pytest.raises(ValueError):
        coverage_fraction([[0, 0, 2]], 64)


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

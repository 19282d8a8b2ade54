import numpy as np
import pytest

from hopfsim.errors import GaplessPoint
from hopfsim.model import (
    HopfParams,
    bloch_ground,
    eta_of_k,
    ground_state,
    hopf_f,
    map_g,
    norms,
    u_of_k,
)

PI = np.pi


def test_params_validation():
    HopfParams(2.0)
    with pytest.raises(ValueError):
        HopfParams(np.inf)
    HopfParams(-1e75)
    with pytest.raises(ValueError, match="must be <= 1e\\+75"):
        HopfParams(-1.01e75)


@pytest.mark.parametrize(
    "k,h,expected",
    [
        ((0, 0, 0), 2.0, (0, 0, -25)),
        ((PI, PI, PI), 0.0, (0, 0, -9)),
        ((PI / 2, PI / 2, 0), 2.0, (6, 6, -7)),
    ],
)
def test_u_of_k_examples(k, h, expected):
    np.testing.assert_allclose(u_of_k(k, HopfParams(h)), expected, atol=1e-12)


def test_u_periodicity_exact():
    rng = np.random.default_rng(0)
    k = rng.uniform(0, 2 * PI, (50, 3))
    p = HopfParams(1.7)
    base = u_of_k(k, p)
    for axis in range(3):
        shifted = k.copy()
        shifted[:, axis] += 2 * PI
        np.testing.assert_allclose(u_of_k(shifted, p), base, atol=1e-12)


def test_norms_equal_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(5, 6, 7, 3)) * np.exp(4 * rng.normal(size=(5, 6, 7, 3)))
    psi = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    for v in (u, psi, u[1, 2, 3], psi[0], u[:, ::2]):
        np.testing.assert_array_equal(norms(v), np.linalg.norm(v, axis=-1))


def test_ground_state_examples():
    psi = ground_state((0, 0, 0), HopfParams(2.0))
    np.testing.assert_allclose(psi, [1, 0], atol=1e-12)
    # u = (0, 0, +c): ground state of +sigma_z is spin-down
    # at h=-2, k=0: C=1, u=(0,0,-1)... build directly instead
    s = ground_state((PI / 2, PI / 2, 0), HopfParams(2.0))
    pauli = _pauli_expectations(s)
    np.testing.assert_allclose(pauli, [-6 / 11, -6 / 11, 7 / 11], atol=1e-12)


def _pauli_expectations(psi):
    a, b = psi[..., 0], psi[..., 1]
    c = np.conj(a) * b
    return np.stack([2 * c.real, 2 * c.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=-1)


def test_ground_state_spin_down_for_positive_uz():
    # k=(pi/2, 0, 0) at h=-2 gives C=0 and u=(0, 0, +1)
    p = HopfParams(-2.0)
    k = (PI / 2, 0, 0)
    np.testing.assert_allclose(u_of_k(k, p), [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(ground_state(k, p), [0, 1], atol=1e-12)


def test_ground_state_eigen_equation_and_gauge():
    rng = np.random.default_rng(1)
    k = rng.uniform(0, 2 * PI, (500, 3))
    p = HopfParams(2.0)
    psi = ground_state(k, p)
    u = u_of_k(k, p)
    norms = np.linalg.norm(u, axis=-1)
    # (u.sigma) psi = -|u| psi
    hpsi = np.empty_like(psi)
    hpsi[:, 0] = u[:, 2] * psi[:, 0] + (u[:, 0] - 1j * u[:, 1]) * psi[:, 1]
    hpsi[:, 1] = (u[:, 0] + 1j * u[:, 1]) * psi[:, 0] - u[:, 2] * psi[:, 1]
    assert np.abs(hpsi + norms[:, None] * psi).max() < 1e-10
    assert np.abs(np.linalg.norm(psi, axis=-1) - 1).max() < 1e-12
    # Pauli expectations reproduce the Bloch vector
    assert np.abs(_pauli_expectations(psi) - bloch_ground(k, p)).max() < 1e-10
    # gauge: dominant amplitude real positive, deterministic on repeat call
    mags = np.abs(psi)
    dom = np.where(mags[:, 0] >= mags[:, 1], psi[:, 0], psi[:, 1])
    assert np.abs(dom.imag).max() < 1e-12 and dom.real.min() > 0
    np.testing.assert_array_equal(psi, ground_state(k, p))


def test_ground_state_gapless_raises():
    with pytest.raises(GaplessPoint):
        ground_state((0, PI, PI), HopfParams(1.0))


@pytest.mark.parametrize(
    "k,h,expected",
    [
        ((0, 0, 0), 2.0, (0, 0, 1)),
        ((PI, PI, PI), 0.0, (0, 0, 1)),
        ((PI / 2, PI / 2, 0), 2.0, (-6 / 11, -6 / 11, 7 / 11)),
    ],
)
def test_bloch_ground_examples(k, h, expected):
    s = bloch_ground(k, HopfParams(h))
    np.testing.assert_allclose(s, expected, atol=1e-12)
    assert abs(np.linalg.norm(s) - 1) < 1e-12


@pytest.mark.parametrize(
    "k,h,expected",
    [
        ((0, 0, 0), 2.0, (0, 0, 0, -1)),
        ((PI / 2, 0, 0), 0.0, np.array([1, 0, 0, -2]) / np.sqrt(5)),
        ((0, PI / 2, 0), 0.0, np.array([0, -1, 0, -2]) / np.sqrt(5)),
    ],
)
def test_map_g_examples(k, h, expected):
    np.testing.assert_allclose(map_g(k, HopfParams(h)), expected, atol=1e-12)


def test_map_g_degenerate():
    with pytest.raises(GaplessPoint):
        map_g((0, PI, PI), HopfParams(1.0))


@pytest.mark.parametrize(
    "eta,expected",
    [
        ((1, 0), (0, 0, 1)),
        ((0, 1), (0, 0, -1)),
        ((1 / np.sqrt(2), 1 / np.sqrt(2)), (1, 0, 0)),
    ],
)
def test_hopf_f_examples(eta, expected):
    np.testing.assert_allclose(hopf_f(*eta), expected, atol=1e-12)


def test_composition_identity_random():
    # the Hopf map applied to the raw S3 components reproduces u(k)
    rng = np.random.default_rng(7)
    k = rng.uniform(0, 2 * PI, (10_000, 3))
    for h in (-3.5, -0.4, 0.0, 1.7, 2.0, 2.9, 4.2):
        p = HopfParams(h)
        eta_up, eta_down = eta_of_k(k, p)
        assert np.abs(hopf_f(eta_up, eta_down) - u_of_k(k, p)).max() < 1e-12


@pytest.mark.parametrize("h", [0.0, 2.0, 4.0])
def test_gap_positive_on_meshes(h):
    p = HopfParams(h)
    for n in (10, 25, 40):
        j = 2 * PI * np.arange(n) / n
        kx, ky, kz = np.meshgrid(j, j, j, indexing="ij")
        norms = np.linalg.norm(u_of_k(np.stack([kx, ky, kz], -1), p), axis=-1)
        assert norms.min() > 0

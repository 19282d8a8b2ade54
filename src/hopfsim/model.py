"""Closed-form two-band Hopf Hamiltonian.

Everything in this module is a pure function of the momentum k (radians,
periodic in 2*pi per axis) and the model parameters.  The Hamiltonian is
H_k = u(k) . sigma with dimensionless coefficients

    ux = 2 [ sin kx sin kz + C(k) sin ky ]
    uy = 2 [ C(k) sin kx  -  sin ky sin kz ]
    uz = sin^2 kx + sin^2 ky - sin^2 kz - C(k)^2
    C(k) = cos kx + cos ky + cos kz + h

The module also provides the factorisation of k -> u(k)/|u(k)| through the
3-sphere (map ``eta`` then the classic fibration ``hopf_f``), through which
``preimage.embed_r3`` draws preimage loops in R3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaplessPoint, UsageError

GAP_TOL = 1e-12
POLE_DELTA = 1e-9
H_MAX = 1e75  # |u(k)|^2 ~ h^4 overflows a float beyond about |h| = 1e77


@dataclass(frozen=True)
class HopfParams:
    """Model parameter: the dimensionless h."""

    h: float

    def __post_init__(self):
        if not np.isfinite(self.h):
            raise UsageError(f"h must be finite, got {self.h}")
        if abs(self.h) > H_MAX:
            raise UsageError(f"|h| must be <= {H_MAX:g}, got {self.h}")


def u_of_k(k, params):
    """Coefficient vector u(k) of the Hamiltonian.

    Parameters
    ----------
    k : array_like, shape (..., 3)
        Momenta in radians.
    params : HopfParams

    Returns
    -------
    ndarray, shape (..., 3)
    """
    k = np.asarray(k, dtype=float)
    sx, sy, sz = np.sin(k[..., 0]), np.sin(k[..., 1]), np.sin(k[..., 2])
    c = np.cos(k[..., 0]) + np.cos(k[..., 1]) + np.cos(k[..., 2]) + params.h
    return _fill_u(np.empty(k.shape, dtype=float), sx, sy, sz, c)


def _fill_u(u, sx, sy, sz, c):
    """Write u(k) into u[..., 0:3] from sin kx, sin ky, sin kz and C(k).

    The one place the Hamiltonian is written; the inputs may be any arrays
    that broadcast to u.shape[:-1]."""
    u[..., 0] = 2.0 * (sx * sz + c * sy)
    u[..., 1] = 2.0 * (c * sx - sy * sz)
    u[..., 2] = sx * sx + sy * sy - sz * sz - c * c
    return u


def norms(v):
    """|v| over the last axis, ``np.linalg.norm(v, axis=-1)`` bit for bit.

    The squares (conj(v_i) v_i).real are summed one component plane at a
    time, left to right as norm sums them, so no reduction runs over the
    short last axis and no temporary is larger than one plane; one vector
    gives a scalar.
    """
    square = (lambda c: (np.conj(c) * c).real) if np.iscomplexobj(v) else np.square
    total = square(v[..., 0])
    for i in range(1, v.shape[-1]):
        total += square(v[..., i])
    return np.sqrt(total)


def _check_gapped(mag, k):
    if np.any(mag < GAP_TOL):
        idx = np.unravel_index(int(np.argmin(mag)), mag.shape)
        bad_k = np.asarray(k, dtype=float)[idx] if np.ndim(k) > 1 else np.asarray(k)
        raise GaplessPoint(
            f"|u(k)| < {GAP_TOL:g} at k={np.round(bad_k, 12).tolist()}; "
            "parameter h sits at (or too close to) a phase transition",
            k=bad_k,
        )


def ground_state(k, params):
    """Normalized lower-band eigenvector of u(k).sigma, fixed gauge.

    The gauge makes the larger-magnitude amplitude real positive (ties toward
    the spin-up amplitude), so repeated calls are bit-reproducible.

    Raises
    ------
    GaplessPoint
        If |u(k)| < 1e-12 anywhere in the batch.
    """
    u = u_of_k(k, params)
    n = norms(u)
    _check_gapped(n, k)
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    psi = np.empty(u.shape[:-1] + (2,), dtype=complex)
    # Lower-band eigenvector, branch chosen away from its vanishing pole:
    #   uz <= 0:  (n - uz, -(ux + i uy))     uz > 0:  (-(ux - i uy), n + uz)
    # Either branch already has its dominant amplitude real positive, which is
    # exactly the documented gauge.  Each amplitude is np.where of the two
    # branches, formed in its own plane of psi: one branch everywhere, then
    # the other copied over it where it applies.
    lower = uz <= 0
    up, down = psi[..., 0], psi[..., 1]
    np.negative(np.subtract(ux, np.multiply(1j, uy, out=up), out=up), out=up)
    np.copyto(up, n - uz, where=lower)
    np.negative(np.add(ux, np.multiply(1j, uy, out=down), out=down), out=down)
    np.copyto(down, n + uz, where=~lower)
    psi /= norms(psi)[..., None]
    return psi


def bloch_ground(k, params):
    """Ground-state Bloch vector S(k) = -u(k)/|u(k)| (lower-band convention)."""
    u = u_of_k(k, params)
    n = norms(u)
    _check_gapped(n, k)
    return -u / n[..., None]


def bloch_grid(res, params, lo=0, hi=None, out=None):
    """Ground-state Bloch vectors on the x-planes lo..hi-1 (all by default) of
    the grid k = 2*pi*(i, j, l)/res: shape (hi - lo, res, res, 3).

    Equal bit for bit to ``bloch_ground`` on the meshgrid of those momenta
    (``indexing="ij"``), but sampled from 1-D sin/cos tables by broadcasting
    into three contiguous component planes, the (3, hi - lo, res, res)
    buffer ``out`` (or a new one); the result is its view, so
    ``bloch[..., e]`` is a C-contiguous plane.  C(k) is formed once, and its
    buffer then holds |u|^2 summed one plane at a time, as ``norms`` sums
    it, and |u|.

    Raises
    ------
    GaplessPoint
        If |u(k)| < 1e-12 at a point of the planes; the error names its k.
    """
    hi = res if hi is None else hi
    grid = 2.0 * np.pi * np.arange(res) / res
    sin, cos = np.sin(grid), np.cos(grid)
    x, y, z = (slice(lo, hi), None, None), (None, slice(None), None), (None, None, slice(None))
    c = cos[x] + cos[y] + cos[z]
    c += params.h
    planes = np.empty((3, hi - lo, res, res)) if out is None else out
    _fill_u(np.moveaxis(planes, 0, -1), sin[x], sin[y], sin[z], c)
    n = np.square(planes[0], out=c)
    for plane in planes[1:]:
        n += np.square(plane)
    np.sqrt(n, out=n)
    if np.any(n < GAP_TOL):
        i, j, l = np.unravel_index(int(np.argmin(n)), n.shape)
        _check_gapped(n[i, j, l], grid[[lo + i, j, l]])
    np.negative(planes, out=planes)
    planes /= n
    return np.moveaxis(planes, 0, -1)


def eta_of_k(k, params):
    """Unnormalized components (eta_up, eta_down) of the torus -> S3 map.

    eta_up = sin kx - i sin ky,  eta_down = sin kz - i C(k).
    """
    k = np.asarray(k, dtype=float)
    c = np.cos(k[..., 0]) + np.cos(k[..., 1]) + np.cos(k[..., 2]) + params.h
    eta_up = np.sin(k[..., 0]) - 1j * np.sin(k[..., 1])
    eta_down = np.sin(k[..., 2]) - 1j * c
    return eta_up, eta_down


def map_g(k, params):
    """Torus point -> unit 4-vector on S3.

    Components are (Re eta_up, Im eta_up, Re eta_down, Im eta_down) after
    normalization.

    Raises
    ------
    GaplessPoint
        If |eta|^2 = |u(k)| < 1e-12 anywhere in the batch.
    """
    eta_up, eta_down = eta_of_k(k, params)
    eta = np.stack(
        [eta_up.real, eta_up.imag, eta_down.real, eta_down.imag], axis=-1
    )
    norm = np.linalg.norm(eta, axis=-1)
    _check_gapped(norm * norm, k)
    return eta / norm[..., None]


def hopf_f(eta_up, eta_down):
    """Hopf map S3 -> S2: (eta_up, eta_down) -> u.

    ux + i uy = 2 eta_up conj(eta_down),  uz = |eta_up|^2 - |eta_down|^2.
    For unit-norm input the image lies on the unit sphere; for the raw
    (unnormalized) output of ``eta_of_k`` the image is exactly u(k).
    """
    eta_up = np.asarray(eta_up, dtype=complex)
    eta_down = np.asarray(eta_down, dtype=complex)
    w = 2.0 * eta_up * np.conj(eta_down)
    u = np.stack(
        [w.real, w.imag, np.abs(eta_up) ** 2 - np.abs(eta_down) ** 2], axis=-1
    )
    return u


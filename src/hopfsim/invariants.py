"""Gauge-invariant lattice topology on sampled state fields.

The chain is: unit-modulus overlaps between neighboring sites (U(1) links),
principal-branch plaquette fluxes (lattice Berry curvature, in units of
flux/2pi per plaquette), a spectral solve for the Coulomb-gauge Berry
connection, and finally the Hopf index as minus the lattice sum of F . A.
All quantities are independent of per-site state phases by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bzgrid import MeshSpec, StateField, sample_state_field
from .errors import NonIntegerFlux, NonzeroNetFlux, OrthogonalNeighbors
from .model import HopfParams

TOL_OVERLAP = 1e-8

AXES = {"x": 0, "y": 1, "z": 2}  # field axis of each slice-normal name

_CYCLIC = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def _grid_links(states, axes):
    """U(1) links <a|b> / |<a|b>| along the given axes of a periodic grid of
    spinors, states of shape grid + (2,); one complex array per axis.

    Raises OrthogonalNeighbors at the first site with |<a|b>| <= TOL_OVERLAP.
    """
    # two component planes, not a sum over the length-2 spinor axis: numpy
    # runs such a reduction as one inner-loop call per site
    up, down = states[..., 0], states[..., 1]
    up_bar, down_bar = np.conj(up), np.conj(down)
    links = []
    for ax in axes:
        ov = up_bar * np.roll(up, -1, axis=ax)
        ov += down_bar * np.roll(down, -1, axis=ax)
        mag = np.abs(ov)
        if mag.min() <= TOL_OVERLAP:
            site = tuple(int(x) for x in np.unravel_index(int(np.argmin(mag)), mag.shape))
            raise OrthogonalNeighbors(
                f"orthogonal neighbors at site {site} along axis {ax}", site=site, axis=ax
            )
        ov /= mag
        links.append(ov)
    return links


def _plaquettes(u_nu, u_tau, nu, tau):
    """U_nu(k) U_tau(k+nu) U_nu(k+tau)^-1 U_tau(k)^-1 on every (nu, tau)
    plaquette of a periodic grid of links."""
    return (
        u_nu
        * np.roll(u_tau, -1, axis=nu)
        * np.conj(np.roll(u_nu, -1, axis=tau))
        * np.conj(u_tau)
    )


@dataclass
class CurvatureField:
    """Plaquette Berry fluxes F_mu(k_J) in flux/2pi units, shape (3, n, n, n).

    values[mu][J] is the principal-branch flux through the (nu, tau) plaquette
    with corner J, (mu, nu, tau) cyclic; every entry lies in (-1/2, 1/2].
    """

    mesh: MeshSpec
    values: np.ndarray

    def layer_sums(self, axis):
        """Total flux per layer normal to ``axis``; integers up to rounding."""
        mu = AXES[axis]
        other = tuple(a for a in range(3) if a != mu)
        return self.values[mu].sum(axis=other)


@dataclass
class ConnectionField:
    """Coulomb-gauge lattice Berry connection, shape (3, n, n, n)."""

    mesh: MeshSpec
    values: np.ndarray


def berry_curvature(f: StateField):
    """Principal-branch plaquette fluxes of a sampled field.

    F_mu = Im ln [ U_nu(k) U_tau(k+nu) U_nu(k+tau)^-1 U_tau(k)^-1 ] / 2pi
    with (mu, nu, tau) cyclic.  Gauge-invariant: per-site phases cancel in
    the closed plaquette product.
    """
    states = f.pure_states()
    links = _grid_links(states, axes=(0, 1, 2))
    n = f.n
    values = np.empty((3, n, n, n))
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        values[mu] = np.angle(_plaquettes(links[nu], links[tau], nu, tau)) / (2.0 * np.pi)
    return CurvatureField(f.mesh, values)


def chern_number(curv: CurvatureField, axis, layer):
    """Chern number of the layer normal to ``axis`` at ``layer``: its integer
    total plaquette flux, the layer sum of the matching curvature component.

    Raises ValueError for an axis other than x, y, z, IndexError for a layer
    outside [0, n), and NonIntegerFlux for a sum off an integer by more than
    1e-6.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= layer < curv.mesh.n:
        raise IndexError(f"layer {layer} out of range for n={curv.mesh.n}")
    mu = AXES[axis]
    total = np.take(curv.values[mu], layer, axis=mu).sum()
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise NonIntegerFlux(
            f"slice flux sum {total!r} is not an integer; numerical breakdown"
        )
    return c


def chern_numbers(curv: CurvatureField):
    """All 3n slice Chern numbers, {'x': [...], 'y': [...], 'z': [...]}."""
    return {
        axis: [chern_number(curv, axis, j) for j in range(curv.mesh.n)]
        for axis in "xyz"
    }


def _along(vec, ax):
    """A 1-D array over mode numbers, shaped to broadcast along grid axis ``ax``."""
    return vec.reshape([-1 if a == ax else 1 for a in range(3)])


def berry_connection(curv: CurvatureField):
    """Solve the lattice curl(A) = F in the Coulomb gauge.

    Uses the exact forward-difference symbols d_nu = exp(2pi i m_nu/n) - 1 so
    the forward-difference curl of the result reproduces F to rounding.  The
    gauge condition is the adjoint (backward-difference) divergence, which is
    the choice that keeps the spectral solve well-posed at every nonzero mode
    for every n; the zero mode of A is set to zero.

    Raises
    ------
    NonzeroNetFlux
        If any layer carries nonzero total flux (nonzero slice Chern number),
        which obstructs any global connection.
    """
    n = curv.mesh.n
    for axis in "xyz":
        sums = curv.layer_sums(axis)
        worst = int(np.argmax(np.abs(sums)))
        if abs(sums[worst]) > 1e-6:
            raise NonzeroNetFlux(
                f"layer {worst} normal to {axis} carries net flux "
                f"{sums[worst]:.3f}; slice Chern numbers must vanish",
                axis=axis,
                layer=worst,
                flux=float(sums[worst]),
            )

    fhat = [np.fft.fftn(curv.values[mu]) for mu in range(3)]
    m = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    d = np.exp(2j * np.pi * m / n) - 1.0
    dbar = [_along(np.conj(d), ax) for ax in range(3)]
    sq = np.abs(d) ** 2
    denom = _along(sq, 0) + _along(sq, 1) + _along(sq, 2)
    denom[0, 0, 0] = 1.0  # zero mode handled below
    a = np.empty_like(curv.values)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        ahat = dbar[nu] * fhat[tau]
        ahat -= dbar[tau] * fhat[nu]
        np.negative(ahat, out=ahat)
        ahat /= denom
        ahat[0, 0, 0] = 0.0
        a[mu] = np.fft.ifftn(ahat).real
    return ConnectionField(curv.mesh, a)


def lattice_curl(conn: ConnectionField):
    """Forward-difference curl of a connection, same layout as a curvature."""
    a = conn.values

    def dfwd(arr, ax):
        return np.roll(arr, -1, axis=ax) - arr

    out = np.empty_like(a)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        out[mu] = dfwd(a[tau], nu) - dfwd(a[nu], tau)
    return out


def lattice_divergence(conn: ConnectionField):
    """Adjoint (backward-difference) divergence; zero for the Coulomb gauge."""
    a = conn.values
    return sum(a[nu] - np.roll(a[nu], 1, axis=nu) for nu in range(3))


@dataclass
class HopfIndexResult:
    chi: float
    n: int
    h: float
    nearest_integer: int
    deviation: float
    chern_numbers: dict


def _recenter_to_sites(curv, conn):
    """Fourier half-cell shifts moving F (plaquette centers) and A (edge
    midpoints) onto mesh sites, so the F . A integrand pairs values at the
    same point.  Contracting the raw staggered fields instead costs roughly
    a factor 2.5 in the discretization error of the index."""
    n = curv.mesh.n
    m = np.fft.fftfreq(n, d=1.0 / n)
    half = np.exp(-1j * np.pi * m / n)

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


def hopf_index(f: StateField):
    """Hopf index chi = -sum_J F(k_J) . A(k_J) of a sampled field.

    With F in flux/2pi units and A from the lattice solve, the plain lattice
    sum needs no extra volume factor; the quantized values of the phase
    diagram fix the normalization.  F and A are spectrally re-centered onto
    the mesh sites before contraction (see _recenter_to_sites).  The slice
    Chern numbers come from the same curvature, once berry_connection has
    found them all zero.
    """
    curv = berry_curvature(f)
    conn = berry_connection(curv)
    cherns = chern_numbers(curv)
    f_sites, a_sites = _recenter_to_sites(curv, conn)
    chi = -float(np.sum(f_sites * a_sites))
    nearest = int(np.rint(chi))
    return HopfIndexResult(
        chi=chi,
        n=f.n,
        h=f.params.h,
        nearest_integer=nearest,
        deviation=abs(chi - nearest),
        chern_numbers=cherns,
    )


def chi_infinity(h):
    """Ideal Hopf index of the model: 1 for 1<|h|<3, -2 for |h|<1, 0 for |h|>3."""
    ah = abs(h)
    if not np.isfinite(ah):
        raise ValueError(f"h={h} is not finite; the index is undefined")
    if ah in (1.0, 3.0):
        raise ValueError(f"h={h} is a phase transition; the index is undefined")
    if ah < 1.0:
        return -2
    if ah < 3.0:
        return 1
    return 0


@dataclass
class ScalingRow:
    n: int
    chi: float
    deviation: float


def scaling_study(h, ns, omega=1.0):
    """Hopf index vs mesh size, with deviations from the ideal value.

    Returns rows sorted by n; the reference value comes from the phase
    diagram, not from extrapolation.
    """
    params = HopfParams(h, omega)
    target = chi_infinity(h)
    rows = []
    for n in sorted(ns):
        res = hopf_index(sample_state_field(params, MeshSpec(n)))
        rows.append(ScalingRow(n=n, chi=res.chi, deviation=abs(res.chi - target)))
    return rows


def index_report(f: StateField):
    """JSON-ready Hopf-index report including all slice Chern numbers."""
    res = hopf_index(f)
    return {
        "h": f.params.h,
        "n": f.n,
        "chi": res.chi,
        "nearest_integer": res.nearest_integer,
        "deviation": res.deviation,
        "chern_numbers": res.chern_numbers,
    }

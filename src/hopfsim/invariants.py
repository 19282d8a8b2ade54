"""Gauge-invariant lattice topology on sampled state fields.

The chain is: unit-modulus overlaps between neighboring sites (U(1) links),
principal-branch plaquette fluxes (lattice Berry curvature, in units of
flux/2pi per plaquette), a spectral solve for the Coulomb-gauge Berry
connection, and finally the Hopf index as minus the lattice sum of F . A.
All quantities are independent of per-site state phases by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bzgrid import MeshSpec, StateField, _x_slabs, sample_state_field
from .errors import NonIntegerFlux, NonzeroNetFlux, OrthogonalNeighbors, UsageError
from .model import HopfParams

TOL_OVERLAP = 1e-8

AXES = {"x": 0, "y": 1, "z": 2}  # field axis of each slice-normal name

_CYCLIC = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


# numpy evaluates ``a * tmp`` as ``tmp *= a`` when tmp is a fresh temporary
# (a np.roll result, say) of at least this many bytes: temporary elision.
_ELIDE_BYTES = 256 * 1024


def _times_temp(a, tmp, nbytes):
    """``a * tmp`` for a scratch array ``tmp`` that stands for a temporary of
    ``nbytes`` bytes (its own size, or that of the whole grid when ``tmp`` is
    one slab of it), evaluated as numpy evaluates the expression on that
    temporary: in place in ``tmp`` from _ELIDE_BYTES up, into a fresh array
    below.  numpy's complex product rounds differently in those two forms
    (its vectorized kernel is not bitwise commutative, and an in-place
    product of one element takes another kernel), so links and fluxes stay
    bit for bit those of ``a * np.roll(...)`` at every size."""
    if nbytes >= _ELIDE_BYTES:
        return np.multiply(tmp, a, out=tmp)
    return a * tmp


def _roll_into(out, a, ax):
    """out = np.roll(a, -1, axis=ax), written as two slice copies into a
    preallocated array instead of a fresh one."""
    lead = (slice(None),) * ax
    out[lead + (slice(None, -1),)] = a[lead + (slice(1, None),)]
    out[lead + (slice(-1, None),)] = a[lead + (slice(None, 1),)]
    return out


def _roll_planes(out, a, ax, planes):
    """out = np.roll(a, -1, axis=ax)[planes] for a slice of x-planes."""
    if ax == 0:
        rows = np.arange(planes.start + 1, planes.stop + 1)
        return np.take(a, rows, axis=0, out=out, mode="wrap")
    return _roll_into(out, a[planes], ax)


def _grid_links(states, axes):
    """U(1) links <a|b> / |<a|b>| along the given axes of a periodic grid of
    spinors, states of shape grid + (2,); one complex array per axis.

    Raises OrthogonalNeighbors at the first site with |<a|b>| <= TOL_OVERLAP.
    """
    # two component planes, not a sum over the length-2 spinor axis: numpy
    # runs such a reduction as one inner-loop call per site
    up, down = states[..., 0], states[..., 1]
    bar, shifted = np.empty_like(up), np.empty_like(up)  # bar: conj(up), then conj(down)
    mag, size = np.empty(up.shape), bar.nbytes
    links = []
    for ax in axes:
        ov = _times_temp(np.conjugate(up, out=bar), _roll_into(np.empty_like(up), up, ax), size)
        ov += _times_temp(np.conjugate(down, out=bar), _roll_into(shifted, down, ax), size)
        np.abs(ov, out=mag)
        if mag.min() <= TOL_OVERLAP:
            site = tuple(int(x) for x in np.unravel_index(int(np.argmin(mag)), mag.shape))
            raise OrthogonalNeighbors(
                f"orthogonal neighbors at site {site} along axis {ax}", site=site, axis=ax
            )
        ov /= mag
        links.append(ov)
    return links


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
    the closed plaquette product.  The plaquettes are formed one slab of
    x-planes at a time, straight into the flux array.
    """
    links = _grid_links(f.pure_states(), axes=(0, 1, 2))
    n = f.n
    values = np.empty((3, n, n, n))
    buf, work = (np.empty_like(links[0][_x_slabs(n)[0]]) for _ in range(2))
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        u_nu, u_tau = links[nu], links[tau]
        for planes in _x_slabs(n):
            b, w = buf[: planes.stop - planes.start], work[: planes.stop - planes.start]
            # U_nu(k) U_tau(k+nu), in the operand order of the whole grid's product
            plaq = _times_temp(u_nu[planes], _roll_planes(b, u_tau, nu, planes),
                               u_tau.nbytes)
            plaq *= np.conjugate(_roll_planes(w, u_nu, tau, planes), out=w)
            plaq *= np.conjugate(u_tau[planes], out=w)
            layer = values[mu, planes]
            np.arctan2(plaq.imag, plaq.real, out=layer)  # np.angle, in place
            layer /= 2.0 * np.pi
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


def _fftn_real(arr, out):
    """np.fft.fftn of a real array, into the complex array ``out``.

    Copying the input into ``out`` first and transforming there spares the
    complex copy of the whole input that fftn makes for a real argument; the
    transform sees the same values, so the result is the same bit for bit.
    """
    out[...] = arr
    return np.fft.fftn(out, out=out)


def berry_connection(curv: CurvatureField):
    """Solve the lattice curl(A) = F in the Coulomb gauge.

    Uses the exact forward-difference symbols d_nu = exp(2pi i m_nu/n) - 1 so
    the forward-difference curl of the result reproduces F to rounding.  The
    gauge condition is the adjoint (backward-difference) divergence, which is
    the choice that keeps the spectral solve well-posed at every nonzero mode
    for every n; the zero mode of A is set to zero.

    Three complex n^3 buffers: the transforms of F_0 and F_1, then the modes
    of A_2 in the third, which after its inverse transform takes that of F_2;
    the modes of A_0 then overwrite F_1's, and those of A_1 F_0's.

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

    m = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    d = np.exp(2j * np.pi * m / n) - 1.0
    a = np.empty_like(curv.values)
    fhat = [_fftn_real(curv.values[mu], np.empty((n, n, n), dtype=complex))
            for mu in (0, 1)] + [np.empty((n, n, n), dtype=complex)]
    a[2] = np.fft.ifftn(_coulomb_modes(2, fhat, d, out=fhat[2]), out=fhat[2]).real
    _fftn_real(curv.values[2], fhat[2])
    a[0] = np.fft.ifftn(_coulomb_modes(0, fhat, d, out=fhat[1]), out=fhat[1]).real
    a[1] = np.fft.ifftn(_coulomb_modes(1, fhat, d, out=fhat[0]), out=fhat[0]).real
    return ConnectionField(curv.mesh, a)


def _coulomb_modes(mu, fhat, d, out):
    """Modes -(conj(d_nu) F_tau - conj(d_tau) F_nu) / |d|^2 of A_mu, (mu, nu,
    tau) cyclic, zero at the zero mode, from the transforms ``fhat`` of F.
    Written one slab of x-planes at a time, each slab's F_nu read before it
    is written, so ``out`` may be fhat[nu] or fhat[tau]."""
    nu, tau = _CYCLIC[mu]
    dbar, sq = np.conj(d), np.abs(d) ** 2
    work = np.empty_like(out[_x_slabs(len(d))[0]])
    for s in _x_slabs(len(d)):
        dbar_s, sq_s = ([vec[s, None, None], vec[:, None], vec] for vec in (dbar, sq))
        term = np.multiply(dbar_s[tau], fhat[nu][s], out=work[: s.stop - s.start])
        ahat = np.multiply(dbar_s[nu], fhat[tau][s], out=out[s])
        ahat -= term
        np.negative(ahat, out=ahat)
        denom = sq_s[0] + sq_s[1] + sq_s[2]
        if s.start == 0:
            denom[0, 0, 0] = 1.0  # the zero mode, set to 0 below
        ahat /= denom
    out[0, 0, 0] = 0.0
    return out


@dataclass
class HopfIndexResult:
    chi: float
    n: int
    h: float
    nearest_integer: int
    deviation: float
    chern_numbers: dict


def _site_products(curv, conn):
    """F_mu A_mu at the mesh sites, shape (3, n, n, n); minus their sum is
    the Hopf index.

    Fourier half-cell shifts move F (plaquette centers) and A (edge
    midpoints) onto mesh sites, so the F . A integrand pairs values at the
    same point; each shifted A component is multiplied into the shifted F
    component that the result holds.  Contracting the raw staggered fields
    instead costs roughly a factor 2.5 in the discretization error of the
    index."""
    n = curv.mesh.n
    m = np.fft.fftfreq(n, d=1.0 / n)
    half = np.exp(-1j * np.pi * m / n)

    buf = np.empty((n, n, n), dtype=complex)

    def shifted(arr, axes):
        ah = _fftn_real(arr, buf)
        for ax in axes:
            ah *= _along(half, ax)
        return np.fft.ifftn(ah, out=ah).real

    prod = np.empty_like(curv.values)
    for mu in range(3):
        nu, tau = _CYCLIC[mu]
        prod[mu] = shifted(curv.values[mu], (nu, tau))
        prod[mu] *= shifted(conn.values[mu], (mu,))
    return prod


def hopf_index(f: StateField):
    """Hopf index chi = -sum_J F(k_J) . A(k_J) of a sampled field.

    With F in flux/2pi units and A from the lattice solve, the plain lattice
    sum needs no extra volume factor; the quantized values of the phase
    diagram fix the normalization.  F and A are spectrally re-centered onto
    the mesh sites and multiplied there in one pass (see _site_products),
    which holds one real (3, n, n, n) product array and one complex n^3
    transform buffer.  The slice Chern numbers come from the same
    curvature, once berry_connection has found them all zero.
    """
    curv = berry_curvature(f)
    conn = berry_connection(curv)
    cherns = chern_numbers(curv)
    chi = -float(np.sum(_site_products(curv, conn)))
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
        raise UsageError(f"h={h} is not finite; the index is undefined")
    if ah in (1.0, 3.0):
        raise UsageError(f"h={h} is a phase transition; the index is undefined")
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


def scaling_study(h, ns):
    """Hopf index vs mesh size, with deviations from the ideal value.

    Returns rows sorted by n; the reference value comes from the phase
    diagram, not from extrapolation.
    """
    params = HopfParams(h)
    target = chi_infinity(h)
    meshes = [MeshSpec(n) for n in sorted(ns)]  # every n is refused before any sampling
    rows = []
    for mesh in meshes:
        res = hopf_index(sample_state_field(params, mesh))
        rows.append(ScalingRow(n=mesh.n, chi=res.chi, deviation=abs(res.chi - target)))
    return rows


def index_report(f: StateField):
    """JSON-ready Hopf-index report including all slice Chern numbers."""
    return asdict(hopf_index(f))

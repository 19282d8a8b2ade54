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

from .bzgrid import MeshSpec, StateField, _lanes, _map_lanes, _x_slabs, sample_state_field
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
    """out = np.roll(a, -1, axis=ax)[planes] for a slice of x-planes.  Along
    x it is two slice copies: np.take(..., mode="wrap") would first copy all
    of a strided ``a``, such as one component of a grid of spinors."""
    if ax:
        return _roll_into(out, a[planes], ax)
    if planes.stop < len(a):
        out[...] = a[planes.start + 1 : planes.stop + 1]
    else:
        out[:-1] = a[planes.start + 1 :]
        out[-1] = a[0]
    return out


def _grid_links(states, axes):
    """U(1) links <a|b> / |<a|b>| along the given axes of a periodic grid of
    spinors, states of shape grid + (2,); one complex array per axis.

    Each (axis, slab of x-planes) is one item for the lanes of ``_lanes``.  A
    slab is divided by |<a|b>| only once its own smallest |<a|b>| is above
    TOL_OVERLAP.

    Raises OrthogonalNeighbors at the first site with |<a|b>| <= TOL_OVERLAP.
    """
    # two component planes, not a sum over the length-2 spinor axis: numpy
    # runs such a reduction as one inner-loop call per site
    up, down = states[..., 0], states[..., 1]
    links = [np.empty(up.shape, up.dtype) for _ in axes]
    plane_sites, size = up[:1].size, up.size * up.itemsize
    slabs = _x_slabs(len(up), plane_sites)
    slab = up[slabs[0]]
    # per lane: bar (conj(up), then conj(down)), the rolled down spinors, |<a|b>|
    lanes = [(np.empty_like(slab), np.empty_like(slab), np.empty(slab.shape))
             for _ in range(_lanes(up.size))]

    def link_slab(item, work):
        i, planes = item
        bar, shifted, mag = (w[: planes.stop - planes.start] for w in work)
        ov = links[i][planes]
        prod = _times_temp(np.conjugate(up[planes], out=bar),
                           _roll_planes(ov, up, axes[i], planes), size)
        if prod is not ov:  # a fresh product below the elision size
            ov[...] = prod
        ov += _times_temp(np.conjugate(down[planes], out=bar),
                          _roll_planes(shifted, down, axes[i], planes), size)
        np.abs(ov, out=mag)
        j = int(np.argmin(mag))
        if not mag.flat[j] <= TOL_OVERLAP:
            ov /= mag
        return mag.flat[j], planes.start * plane_sites + j

    least = _map_lanes(link_slab, [(i, s) for i in range(len(axes)) for s in slabs], lanes)
    for i, ax in enumerate(axes):
        axis_least = least[i * len(slabs) : (i + 1) * len(slabs)]
        k = int(np.argmin([value for value, _ in axis_least]))  # np.argmin's first minimum
        if axis_least[k][0] <= TOL_OVERLAP:
            site = tuple(int(x) for x in np.unravel_index(axis_least[k][1], up.shape))
            raise OrthogonalNeighbors(
                f"orthogonal neighbors at site {site} along axis {ax}", site=site, axis=ax
            )
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
    x-planes at a time, straight into the flux array, each (component,
    slab) one item for the lanes of ``_lanes``.
    """
    links = _grid_links(f.pure_states(), axes=(0, 1, 2))
    n, slabs = f.n, _x_slabs(f.n)
    values = np.empty((3, n, n, n))
    lanes = [tuple(np.empty_like(links[0][slabs[0]]) for _ in range(2))
             for _ in range(_lanes(n**3))]

    def plaquettes(item, work):
        mu, planes = item
        nu, tau = _CYCLIC[mu]
        u_nu, u_tau = links[nu], links[tau]
        b, w = (x[: planes.stop - planes.start] for x in work)
        # U_nu(k) U_tau(k+nu), in the operand order of the whole grid's product
        plaq = _times_temp(u_nu[planes], _roll_planes(b, u_tau, nu, planes), u_tau.nbytes)
        plaq *= np.conjugate(_roll_planes(w, u_nu, tau, planes), out=w)
        plaq *= np.conjugate(u_tau[planes], out=w)
        layer = values[mu, planes]
        np.arctan2(plaq.imag, plaq.real, out=layer)  # np.angle, in place
        layer /= 2.0 * np.pi

    _map_lanes(plaquettes, [(mu, s) for mu in range(3) for s in slabs], lanes)
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

    Two complex n^3 buffers beside A, and the complex view of A_0 and A_1's
    storage as the third: the transforms of F_0, F_1 and F_2 fill them, the
    modes of A_0, A_1 and A_2 then replace them slab by slab, and their
    inverse transforms are copied into A (A_2 first, from the view).  Each
    of the three stages shares its pieces between the lanes of ``_lanes``.

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
    view = a[:2].reshape(-1).view(complex).reshape(n, n, n)
    fhat = [np.empty((n, n, n), dtype=complex) for _ in range(2)] + [view]
    slabs = _x_slabs(n)
    lanes = [np.empty((2,) + view[slabs[0]].shape, dtype=complex) for _ in range(_lanes(n**3))]
    dbar, sq = np.conj(d), np.abs(d) ** 2

    def modes(s, work):
        """-(conj(d_nu) F_tau - conj(d_tau) F_nu) / |d|^2 of each A_mu, (mu, nu,
        tau) cyclic, zero at the zero mode, over the F of the slab ``s``.  A_0
        and A_1 wait in ``work``; a term whose F is read for the last time is
        formed over that F, and A_2 over F_2."""
        f = [fh[s] for fh in fhat]
        a0, a1 = work[0, : s.stop - s.start], work[1, : s.stop - s.start]
        dbar_s = [dbar[s, None, None], dbar[:, None], dbar]
        denom = sq[s, None, None] + sq[:, None] + sq
        if s.start == 0:
            denom[0, 0, 0] = 1.0  # the zero mode, set to 0 below
        for mu, out, term in ((0, a0, a1), (1, a1, f[2]), (2, f[2], f[0])):
            nu, tau = _CYCLIC[mu]
            np.multiply(dbar_s[tau], f[nu], out=term)
            ahat = np.multiply(dbar_s[nu], f[tau], out=out)
            ahat -= term
            np.negative(ahat, out=ahat)
            ahat /= denom
            if s.start == 0:
                ahat[0, 0, 0] = 0.0
        f[0][...], f[1][...] = a0, a1

    _map_lanes(lambda mu, work: _fftn_real(curv.values[mu], fhat[mu]), range(3), lanes)
    _map_lanes(modes, slabs, lanes)
    _map_lanes(lambda mu, work: np.fft.ifftn(fhat[mu], out=fhat[mu]), range(3), lanes)
    a[2] = view.real
    a[0], a[1] = fhat[0].real, fhat[1].real
    return ConnectionField(curv.mesh, a)


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
    same point.  Each of the six components is re-centered in place, one
    item for the lanes of ``_lanes`` with a complex n^3 buffer per lane, and
    the re-centered A is then multiplied by the re-centered F: so curv and
    conn are overwritten, and the products are conn's values.  Contracting
    the raw staggered fields instead costs roughly a factor 2.5 in the
    discretization error of the index."""
    n = curv.mesh.n
    m = np.fft.fftfreq(n, d=1.0 / n)
    half = np.exp(-1j * np.pi * m / n)

    def recenter(item, buf):
        arr, axes = item
        ah = _fftn_real(arr, buf)
        for ax in axes:
            ah *= _along(half, ax)
        arr[...] = np.fft.ifftn(ah, out=ah).real

    shifts = ([(curv.values[mu], _CYCLIC[mu]) for mu in range(3)]
              + [(conn.values[mu], (mu,)) for mu in range(3)])
    _map_lanes(recenter, shifts, [np.empty((n, n, n), dtype=complex)
                                  for _ in range(_lanes(n**3))])
    conn.values *= curv.values
    return conn.values


def hopf_index(f: StateField):
    """Hopf index chi = -sum_J F(k_J) . A(k_J) of a sampled field.

    With F in flux/2pi units and A from the lattice solve, the plain lattice
    sum needs no extra volume factor; the quantized values of the phase
    diagram fix the normalization.  F and A are spectrally re-centered onto
    the mesh sites in place and multiplied there (see _site_products), with
    one complex n^3 transform buffer per lane.  The slice Chern numbers come
    from the same curvature, once berry_connection has found them all zero
    and before it is re-centered.
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

"""Spin-preimage loops in the Brillouin zone and their linking numbers.

The preimage of a target Bloch orientation s is the closed curve where the
ground-state spin field equals s.  It is extracted as the intersection of
the two level sets {S_e1(k) = s_e1} and {S_e2(k) = s_e2} (e1, e2 the two
coordinate axes other than the dominant component of s), marching over a
tetrahedral decomposition of an auxiliary fine grid, with the dominant
component's sign disambiguating the antipodal solution.  The marching is one
array pass over every straddling cell x 6 Kuhn tetrahedra, driven by a
16-row table of cut edges keyed by a tetrahedron's sign pattern; the grid of
Bloch vectors is sampled once for all targets of a link matrix, from
separable sin/cos tables (``model.bloch_grid``).  Segments stay arrays up to
the loops: one sort of the face ids pairs the two segment ends on each face
(``ResolutionTooCoarse`` if a face holds another number), and the loops are
the cycles of that pairing.  Loops are embedded in R3 through the S3 map and
a stereographic chart, where pairwise Gauss linking numbers are evaluated
segment-pair exactly; on the torus they are lifted to the universal cover and
linked against periodic images, which needs loops that do not wind the torus
(``WindingLoops`` otherwise).  Every Gauss sum is one fused array pass over
the chords between the two curves; the chord lengths are the vertex
distances, so the same pass gives the separation check (``CurvesTooClose``)
and the separation margin of a link matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from . import model
from .errors import (
    ChartExhausted,
    CurvesTooClose,
    NotClosed,
    ResolutionTooCoarse,
    WindingLoops,
)

TOL_SEP = 1e-3
_GAUSS_ROWS = 64  # vertices of the first curve per block of pair arrays
_LEVEL_NUDGE = (1.0e-9, 1.37e-9)  # dodges exact-zero grid values on symmetry planes

TWO_PI = 2.0 * np.pi


@dataclass
class Polyline:
    """Oriented curve; closed polylines do not repeat the first vertex."""

    vertices: np.ndarray
    coords: str = "T3"  # one of T3, S3, R3
    closed: bool = True
    target: tuple | None = None
    h: float | None = None
    chart: str | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (m, 3), got {self.vertices.shape}")
        if self.coords not in ("T3", "S3", "R3"):
            raise ValueError(f"unknown coordinate system {self.coords!r}")
        if self.closed and len(self.vertices) < 3:
            raise ValueError("closed polylines need at least 3 vertices")
        if self.coords == "T3":
            self.vertices = np.mod(self.vertices, TWO_PI)
        d = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        if len(d) and d.min() == 0.0:
            raise ValueError("consecutive vertices must be distinct")

    def __len__(self):
        return len(self.vertices)

    def reversed(self):
        return Polyline(
            self.vertices[::-1].copy(), self.coords, self.closed,
            self.target, self.h, self.chart,
        )

    def subdivided(self):
        """Insert the midpoint of every edge (wrap-aware on the torus)."""
        v = self.vertices
        nxt = np.roll(v, -1, axis=0) if self.closed else v[1:]
        cur = v if self.closed else v[:-1]
        delta = nxt - cur
        if self.coords == "T3":
            delta = (delta + np.pi) % TWO_PI - np.pi
        mids = cur + 0.5 * delta
        out = np.empty((len(cur) + len(v), 3))
        out[0::2] = v
        out[1::2] = mids
        return Polyline(out, self.coords, self.closed, self.target, self.h, self.chart)


def polyline_to_dict(c):
    d = {
        "coords": c.coords,
        "closed": c.closed,
        "vertices": c.vertices.tolist(),
    }
    if c.target is not None:
        d["target"] = list(c.target)
    if c.h is not None:
        d["h"] = c.h
    if c.chart is not None:
        d["chart"] = c.chart
    return d


def polyline_from_dict(d):
    return Polyline(
        np.asarray(d["vertices"], dtype=float),
        coords=d["coords"],
        closed=bool(d["closed"]),
        target=tuple(d["target"]) if "target" in d else None,
        h=d.get("h"),
        chart=d.get("chart"),
    )


def _unit_target(s):
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError(f"spin target must be finite, got {s.tolist()}")
    norm = np.linalg.norm(s)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"spin target must be a unit vector, |s|={norm}")
    return s / norm


# ---------------------------------------------------------------------------
# contour extraction

def _kuhn_tets():
    # six tetrahedra around the cube's main diagonal; the induced face
    # diagonals match between neighboring cells, which keeps chained curve
    # segments consistent across cell boundaries
    eye = np.eye(3, dtype=int)
    tets = []
    for p in permutations(range(3)):
        corners = [(0, 0, 0),
                   tuple(int(x) for x in eye[p[0]]),
                   tuple(int(x) for x in eye[p[0]] + eye[p[1]]),
                   (1, 1, 1)]
        tets.append(corners)
    return tets


_KUHN_TETS = _kuhn_tets()
_TET_OFFSETS = np.array(_KUHN_TETS)  # (6 tets, 4 corners, 3)
_TET_CORNERS = _TET_OFFSETS @ (4, 2, 1)  # cube corner of each: dx * 4 + dy * 2 + dz


def _tet_edge_table():
    # for each sign pattern of f > 0 over a tet's corners (bit i = corner i):
    # the edges {f = 0} cuts, in cycle order around the cut polygon, and the
    # corners of the face between consecutive cut edges.  One or three
    # positive corners cut the lone corner's edges (others ascending), padded
    # to four sides by repeating the first edge; two cut (a,c),(a,d),(b,d),(b,c)
    # for a < b positive and c < d not.
    edges = np.zeros((16, 4, 2), dtype=int)
    faces = np.zeros((16, 4, 3), dtype=int)
    for key in range(1, 15):
        up = [i for i in range(4) if key >> i & 1]
        down = [i for i in range(4) if not key >> i & 1]
        if len(up) == 2:
            (a, b), (c, d) = up, down
            sides = [(a, c), (a, d), (b, d), (b, c)]
        else:
            (lone,) = up if len(up) == 1 else down
            sides = [(lone, o) for o in range(4) if o != lone]
            sides.append(sides[0])
        edges[key] = sides
        for k in range(4):
            corners = sorted(set(sides[k]) | set(sides[(k + 1) % 4]))
            if len(corners) == 3:  # the padded side joins an edge to itself
                faces[key, k] = corners
    return edges, faces


_TET_EDGES, _TET_FACES = _tet_edge_table()


def preimage_contours(params, target, res=64, refine=1):
    """Closed preimage loops of a spin target, as T3 polylines.

    Parameters
    ----------
    params : model.HopfParams
    target : unit 3-vector
    res : int
        Cells per axis of the marching grid, 16 to 256 (about 0.8 GB at 256).
    refine : int
        Newton projection passes pulling the vertices onto the exact curve.

    Returns
    -------
    list of Polyline (possibly empty)

    Raises
    ------
    ResolutionTooCoarse
        If extracted curve segments cannot be chained into closed loops.
    """
    if not 16 <= res <= 256:
        raise ValueError(f"res must be in [16, 256], got {res}")
    s = _unit_target(target)
    axis = int(np.argmax(np.abs(s)))
    e1, e2 = (axis + 1) % 3, (axis + 2) % 3

    bloch = _bloch_grid(params, res)
    phi1 = bloch[..., e1] - (s[e1] + _LEVEL_NUDGE[0])
    phi2 = bloch[..., e2] - (s[e2] + _LEVEL_NUDGE[1])

    points, faces = _march_segments(phi1, phi2, res)
    loops = _chain_segments(points, faces)

    out = []
    for loop in loops:
        kverts = np.mod(loop * (TWO_PI / res), TWO_PI)
        n_here = model.bloch_ground(kverts, params)
        # keep the hemisphere that agrees with the target's dominant component
        if np.median(n_here[:, axis]) * s[axis] <= 0:
            continue
        for _ in range(max(0, refine)):
            kverts = _project_to_curve(kverts, s, params)
        kverts = _dedupe(np.mod(kverts, TWO_PI))
        if len(kverts) < 3:
            continue
        out.append(
            _orient(Polyline(kverts, "T3", True, tuple(s), params.h), s, params)
        )
    out.sort(key=lambda c: c.vertices[:, 0].min())
    return out


@lru_cache(maxsize=1)
def _bloch_grid(params, res):
    """Ground-state Bloch vectors on the res^3 marching grid (read-only).

    Cached for the last (params, res), so the targets of one link_matrix
    call share one sampling."""
    bloch = model.bloch_grid(res, params)
    bloch.flags.writeable = False
    return bloch


def _march_segments(phi1, phi2, res):
    """Per-tetrahedron intersection segments of the two level sets.

    Returns ``(points, faces)``: ``points[i, side]`` is an end of segment i
    in grid units, shape (m, 2, 3), and ``faces[i, side]`` the sorted global
    ids of the three grid vertices spanning the tetrahedron face holding
    that end, shape (m, 2, 3).  Segments come in cell-major order (cells as
    ``np.argwhere`` lists them), Kuhn tetrahedra in ``_KUHN_TETS`` order
    within a cell.

    All straddling cells x 6 tetrahedra are marched as one array pass.  A
    tetrahedron's sign pattern of ``phi1 > 0`` (4 bits) picks its row of
    ``_TET_EDGES``: the edges cut by {phi1 = 0}, in cycle order around the
    cut polygon (a triangle padded by repeating its first edge, or a
    quadrilateral).  ``phi2`` is interpolated at the cut points; a segment
    joins the two crossings of {phi2 = 0} along the polygon's sides, each on
    the face spanned by the corners of its side's two edges.
    """
    # a cell straddles both level sets when each field has a corner below 0
    # and one above 0
    straddle = np.ones(phi1.shape, dtype=bool)
    for phi in (phi1, phi2):
        for side in (phi < 0, phi > 0):
            for ax in range(3):  # any over the 2x2x2 corners, one axis at a time
                side |= np.roll(side, -1, axis=ax)
            straddle &= side
    cells = np.argwhere(straddle)

    # grid ids of each cell's 8 corners (dx slowest), then the corner values
    # of every (cell, tet) row, cell-major
    cube = np.array([(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
    wrapped = (cells[:, None, :] + cube) % res
    ids = (wrapped[..., 0] * res + wrapped[..., 1]) * res + wrapped[..., 2]
    f = phi1.ravel()[ids][:, _TET_CORNERS].reshape(-1, 4)
    g = phi2.ravel()[ids][:, _TET_CORNERS].reshape(-1, 4)

    key = (f > 0) @ (1 << np.arange(4))
    rows = np.nonzero((key > 0) & (key < 15))[0]
    key = key[rows]
    cell, tet = rows // 6, rows % 6
    edges = _TET_EDGES[key]  # (m tets, 4 sides, 2 ends)
    pick = rows[:, None, None], edges
    fe, ge = f[pick], g[pick]
    pe = (cells[cell, None, None, :] + _TET_OFFSETS[tet[:, None, None], edges]).astype(float)
    t = fe[..., 0] / (fe[..., 0] - fe[..., 1])  # ends differ in sign: no 0/0
    pts = pe[..., 0, :] + t[..., None] * (pe[..., 1, :] - pe[..., 0, :])
    gv = ge[..., 0] + t * (ge[..., 1] - ge[..., 0])

    # side k of the cut polygon runs from cut edge k to cut edge k + 1
    above = gv > 0
    crosses = above != np.roll(above, -1, axis=1)
    kept = np.nonzero(crosses.sum(axis=1) == 2)[0]
    j, side = np.nonzero(crosses[kept])  # two sides per kept tet, ascending
    j = kept[j]
    nxt = (side + 1) % 4
    g0, g1 = gv[j, side], gv[j, nxt]
    u = g0 / (g0 - g1)
    p0 = pts[j, side]
    point = (p0 + u[:, None] * (pts[j, nxt] - p0)).reshape(-1, 2, 3)
    corners = _TET_CORNERS[tet[j, None], _TET_FACES[key[j], side]]
    faces = np.sort(ids[cell[j, None], corners], axis=1).reshape(-1, 2, 3)
    return point, faces


def _chain_segments(points, faces):
    """Join segments that share a face into closed vertex loops (grid units).

    End e = 2 * segment + side lies on ``faces[segment, side]``; each face
    must hold two ends, each the other's mate.  A loop enters a segment at
    end e, leaves at e ^ 1 and enters the next segment at mate[e ^ 1]."""
    ids = faces.reshape(-1, 3)
    order = np.lexsort(ids.T[::-1])  # ends sorted by face, stable
    srt = ids[order]
    first = np.ones(len(order), dtype=bool)  # an end opening a face's run
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    count = np.diff(np.flatnonzero(first), append=len(order))
    face = np.empty_like(order)
    face[order] = np.cumsum(first) - 1
    odd = np.nonzero(count[face] != 2)[0]
    if len(odd):
        e = odd[0]
        raise ResolutionTooCoarse(
            f"face {tuple(faces[e >> 1, e & 1].tolist())} bounds {count[face[e]]} "
            "curve segments; increase the marching resolution"
        )
    mate = np.empty_like(order)
    mate[order[0::2]], mate[order[1::2]] = order[1::2], order[0::2]
    mate = mate.tolist()

    # the two crossing sides of a cut polygon lie on different faces, and with
    # two ends per face e -> mate[e ^ 1] is a permutation: every walk closes
    # at its start end, having entered each of its segments once
    loops, seen = [], bytearray(len(points))
    for start in range(len(points)):
        if seen[start]:
            continue
        walk, e = [2 * start], mate[2 * start + 1]
        while e >> 1 != start:
            seen[e >> 1] = 1
            walk.append(e)
            e = mate[e ^ 1]
        if len(walk) >= 3:
            loops.append(points.reshape(-1, 3)[walk])
    return loops


def _dedupe(verts, tol=1e-9):
    # drop each vertex within tol of the last one kept, then the closing
    # vertices within tol of the first
    rows = verts.tolist()
    keep = [0]
    for i in range(1, len(rows)):
        if math.dist(rows[i], rows[keep[-1]]) > tol:
            keep.append(i)
    while len(keep) > 1 and math.dist(rows[keep[-1]], rows[0]) <= tol:
        keep.pop()
    return verts[keep]


def _spin_jacobian(k, params, step=1e-6):
    """d(bloch)/dk by central differences, batched over vertices: (m, 3, 3)."""
    m = len(k)
    jac = np.empty((m, 3, 3))
    for ax in range(3):
        dk = np.zeros(3)
        dk[ax] = step
        jac[:, :, ax] = (
            model.bloch_ground(k + dk, params) - model.bloch_ground(k - dk, params)
        ) / (2 * step)
    return jac


def _project_to_curve(k, s, params):
    jac = _spin_jacobian(k, params)
    resid = s[None, :] - model.bloch_ground(k, params)
    dk = np.einsum("mij,mj->mi", np.linalg.pinv(jac, rcond=1e-8), resid)
    return k + dk


def _orient(c, s, params):
    """Fix loop orientation from the pullback of a tangent frame at the target.

    e1', e2' span the tangent plane at s (azimuthal rotation from e1' toward
    e2'); the curve tangent is aligned with grad(S.e1') x grad(S.e2')."""
    w = np.zeros(3)
    w[int(np.argmin(np.abs(s)))] = 1.0
    e1p = w - np.dot(w, s) * s
    e1p /= np.linalg.norm(e1p)
    e2p = np.cross(s, e1p)

    jac = _spin_jacobian(c.vertices, params)
    g1 = np.einsum("mij,i->mj", jac, e1p)
    g2 = np.einsum("mij,i->mj", jac, e2p)
    t_ref = np.cross(g1, g2)
    delta = np.roll(c.vertices, -1, axis=0) - c.vertices
    delta = (delta + np.pi) % TWO_PI - np.pi
    if np.sum(delta * t_ref) < 0:
        return c.reversed()
    return c


# ---------------------------------------------------------------------------
# epsilon-neighborhood of a spin orientation on a sampled field

def epsilon_neighborhood(f, target, epsilon):
    """Mesh sites whose Bloch vector lies within epsilon of the target.

    Returns [(site, bloch_vector), ...] in row-major site order; an empty
    list is a valid result.
    """
    if not 0 < epsilon <= 2:
        raise ValueError(f"epsilon must be in (0, 2], got {epsilon}")
    s = _unit_target(target)
    bloch = f.bloch_vectors()
    dist = np.linalg.norm(bloch - s, axis=-1)
    sites = np.argwhere(dist <= epsilon)
    return [(tuple(int(x) for x in j), bloch[tuple(j)]) for j in sites]


# ---------------------------------------------------------------------------
# embedding T3 -> S3 -> R3

def embed_r3(c, params, chart="auto", delta_pole=model.POLE_DELTA):
    """Embed a closed T3 polyline in R3 via the S3 map and a stereographic chart.

    With ``chart="auto"`` the chart with the larger pole clearance is used;
    vertex count, closure and orientation are preserved.  The S3 map is
    2*pi-periodic, so curves crossing the zone boundary need no unwrapping.

    Raises
    ------
    ChartExhausted
        If the curve passes within delta_pole of the given chart's pole, or
        of both poles for ``chart="auto"``.
    ValueError
        If ``chart`` is not "auto", "plus" or "minus".
    """
    if c.coords != "T3":
        raise ValueError(f"embed_r3 expects a T3 polyline, got {c.coords}")
    if not c.closed:
        raise NotClosed("embed_r3 requires a closed polyline")
    if chart not in ("auto", "plus", "minus"):
        raise ValueError(f"unknown chart {chart!r}; expected 'auto', 'plus' or 'minus'")

    eta = model.map_g(c.vertices, params)
    clearance = {"plus": 1.0 + eta[:, 3].min(), "minus": 1.0 - eta[:, 3].max()}
    use = max(clearance, key=clearance.get) if chart == "auto" else chart
    if clearance[use] <= delta_pole:
        poles = "both stereographic poles" if chart == "auto" else f"the {use} chart pole"
        raise ChartExhausted(f"curve passes within {delta_pole:g} of {poles}")
    verts = model.stereographic_embed(eta, chart=use, delta_pole=delta_pole)
    return Polyline(verts, "R3", True, c.target, c.h, chart=use)


# ---------------------------------------------------------------------------
# Gauss linking number

class LinkingNumber(NamedTuple):
    value: int
    residual: float
    separation: float  # smallest vertex distance over the Gauss sums taken


def _closed_r3(c, name):
    if c.coords != "R3":
        raise ValueError(
            f"{name} must be in R3 coordinates (embed T3 curves first), got {c.coords}"
        )
    if not c.closed:
        raise NotClosed(f"{name} is not closed")


def _spherical_quad_area(c1, c2, c3, c4):
    """Signed solid angle of the geodesic quadrilateral c1 c2 c3 c4."""

    def tri(a, b, c):
        num = np.einsum("...i,...i->...", a, np.cross(b, c))
        den = (
            1.0
            + np.einsum("...i,...i->...", a, b)
            + np.einsum("...i,...i->...", b, c)
            + np.einsum("...i,...i->...", c, a)
        )
        return 2.0 * np.arctan2(num, den)

    return tri(c1, c2, c3) + tri(c1, c3, c4)


class GaussSum(float):
    """A raw Gauss double sum that also carries ``separation``, the smallest
    vertex distance between the two curves."""

    def __new__(cls, value, separation):
        self = super().__new__(cls, value)
        self.separation = separation
        return self


def gauss_linking_sum(a, b, tol_sep=0.0):
    """Raw Gauss double sum over segment pairs (the pre-rounding real value).

    Each segment pair contributes the exact signed area its chord-direction
    map sweeps on the unit sphere; the total divided by 4*pi is the linking
    number for disjoint closed curves.  The chord lengths are the vertex
    distances, so the same pass returns the smallest of them as the
    ``separation`` of the returned ``GaussSum``.

    Raises
    ------
    CurvesTooClose
        If a vertex of a lies within tol_sep of a vertex of b.
    """
    # chords from vertices of a to every vertex of b, with the first vertex of
    # each repeated at its end, as three contiguous component arrays.  The
    # corners of the quadrilateral of segment pair (i, j) are the unit chords
    # c1 = [i, j], c2 = [i+1, j], c3 = [i+1, j+1] and c4 = [i, j+1], so the
    # dot products of neighbouring chords along a (c1.c2, c4.c3) and along b
    # (c1.c4, c2.c3) are each one array shared by adjacent quads.  One cross
    # product X = c1 x c3 gives both triple products: c1.(c2 x c3) = -c2.X and
    # c1.(c3 x c4) = c4.X.  Rows of a go in blocks, which bounds the
    # temporaries; the block sums are added in one fixed order.
    p = np.vstack([a.vertices, a.vertices[:1]])
    q = np.vstack([b.vertices, b.vertices[:1]]).T.copy()
    total, dmin = 0.0, np.inf
    for i in range(0, len(a), _GAUSS_ROWS):
        rows = p[i:i + _GAUSS_ROWS + 1, :, None]
        cx, cy, cz = q[0] - rows[:, 0], q[1] - rows[:, 1], q[2] - rows[:, 2]
        dist = np.sqrt(cx * cx + cy * cy + cz * cz)
        dmin = min(dmin, float(dist.min()))
        if dmin < tol_sep:
            continue  # the call raises; only the global minimum is still needed
        cx /= dist
        cy /= dist
        cz /= dist
        along_a = cx[:-1] * cx[1:] + cy[:-1] * cy[1:] + cz[:-1] * cz[1:]
        along_b = cx[:, :-1] * cx[:, 1:] + cy[:, :-1] * cy[:, 1:] + cz[:, :-1] * cz[:, 1:]
        x1, y1, z1 = cx[:-1, :-1], cy[:-1, :-1], cz[:-1, :-1]
        x3, y3, z3 = cx[1:, 1:], cy[1:, 1:], cz[1:, 1:]
        d13 = x1 * x3 + y1 * y3 + z1 * z3
        xx, xy, xz = y1 * z3 - z1 * y3, z1 * x3 - x1 * z3, x1 * y3 - y1 * x3
        num1 = -(cx[1:, :-1] * xx + cy[1:, :-1] * xy + cz[1:, :-1] * xz)
        num2 = cx[:-1, 1:] * xx + cy[:-1, 1:] * xy + cz[:-1, 1:] * xz
        den1 = 1.0 + along_a[:, :-1] + along_b[1:] + d13
        den2 = 1.0 + d13 + along_a[:, 1:] + along_b[:-1]
        total += float((np.arctan2(num1, den1) + np.arctan2(num2, den2)).sum())
    if dmin < tol_sep:
        raise CurvesTooClose(f"curves approach to {dmin:.2e} < tol_sep={tol_sep:g}")
    # each triangle's solid angle is twice its arctan2
    return GaussSum(total / TWO_PI, dmin)


def gauss_linking_number(a, b, tol_sep=TOL_SEP):
    """Integer Gauss linking number of two disjoint closed R3 polylines.

    Returns (value, residual, separation): residual is the distance of the
    raw Gauss sum from the returned integer, separation the smallest vertex
    distance between the curves.

    Raises
    ------
    CurvesTooClose
        If the minimum inter-curve vertex distance is below tol_sep.
    NotClosed
        If either polyline is open.
    """
    _closed_r3(a, "first curve")
    _closed_r3(b, "second curve")
    raw = gauss_linking_sum(a, b, tol_sep)
    value = int(np.rint(raw))
    return LinkingNumber(value, raw - value, raw.separation)


def linking_number(a, b, tol_sep=TOL_SEP):
    """Integer Gauss linking number (see gauss_linking_number)."""
    return gauss_linking_number(a, b, tol_sep).value


def unwrap_t3(c):
    """Lift a closed T3 polyline to the universal cover R3.

    Returns (vertices, winding); winding is the integer vector of times the
    loop wraps each axis.  Only zero-winding loops lift to closed curves.
    """
    if c.coords != "T3":
        raise ValueError("unwrap_t3 expects a T3 polyline")
    v = c.vertices
    delta = np.diff(np.vstack([v, v[:1]]), axis=0)
    delta = (delta + np.pi) % TWO_PI - np.pi
    lifted = v[0] + np.vstack([np.zeros(3), np.cumsum(delta[:-1], axis=0)])
    winding = np.rint(np.sum(delta, axis=0) / TWO_PI).astype(int)
    return lifted, winding


def _image_translates(lo_a, hi_a, lo_b, hi_b):
    """Translates t, ascending in (tx, ty, tz), for which box b + 2*pi*t meets
    box a on every axis; other images are cut off by a coordinate plane, so
    unlinked.  Each axis range, one wider than the divided bounds, is cut by
    the comparisons themselves: rounding cannot drop or add a touching image."""
    spans = []
    for ax in range(3):
        t = np.arange(math.floor((lo_a[ax] - hi_b[ax]) / TWO_PI) - 1,
                      math.ceil((hi_a[ax] - lo_b[ax]) / TWO_PI) + 2)
        meets = (hi_b[ax] + TWO_PI * t >= lo_a[ax]) & (lo_b[ax] + TWO_PI * t <= hi_a[ax])
        spans.append(t[meets].tolist())
    return product(*spans)


def linking_number_t3(a, b, tol_sep=TOL_SEP):
    """Intrinsic linking number of two zero-winding closed loops on the torus.

    Both loops are lifted to the universal cover and the Gauss sum is taken
    against every periodic image of the second loop that is not separated
    from the first by a coordinate plane (separated images contribute an
    exact zero).  This is the linking number that stays meaningful when the
    S3 map is not injective (|h| < 1, where it is a double cover and the
    stereographic route overcounts by the covering degree squared).

    The separation of the result is the smallest vertex distance over the
    images summed (inf when every image is separated by a plane);
    ``CurvesTooClose`` is raised when one image comes within tol_sep.
    """
    va, wa = unwrap_t3(a)
    vb, wb = unwrap_t3(b)
    if wa.any() or wb.any():
        raise WindingLoops(
            f"loops wind the torus (windings {wa.tolist()}, {wb.tolist()}); "
            "intrinsic linking needs zero-winding loops",
            windings=(wa.tolist(), wb.tolist()),
        )
    la = Polyline(va, "R3", True)
    raw, separation = 0.0, np.inf
    for t in _image_translates(va.min(axis=0), va.max(axis=0), vb.min(axis=0), vb.max(axis=0)):
        shift = TWO_PI * np.array(t, float)
        part = gauss_linking_sum(la, Polyline(vb + shift, "R3", True), tol_sep)
        raw += part
        separation = min(separation, part.separation)
    value = int(np.rint(raw))
    return LinkingNumber(value, raw - value, separation)


# ---------------------------------------------------------------------------
# pairwise link matrix across spin targets

@dataclass
class LinkMatrix:
    """Pairwise linking numbers between the preimages of several targets.

    values[i][j] is None on the diagonal and wherever a preimage is empty
    (absent targets listed in ``absent``).  A preimage may consist of more
    than one loop (it does in the |h| < 1 phase); the matrix entry is then
    the total linking between the two loop families and ``loops`` keeps the
    per-target breakdown.

    The margins say how close the entries came to being wrong:
    ``min_separation_cells`` is the smallest vertex distance between linked
    loops over every Gauss sum, in cells of the marching grid (None when no
    Gauss sum was taken); ``max_residual`` the largest distance of a loop
    pair's raw linking sum from its integer (None when no pair was linked)."""

    targets: list
    values: list
    absent: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    min_separation_cells: float | None = None
    max_residual: float | None = None

    @property
    def loop_counts(self):
        return [len(l) for l in self.loops]

    def to_dict(self):
        return {
            "targets": [list(t) for t in self.targets],
            "linking": self.values,
            "absent": self.absent,
            "loop_counts": self.loop_counts,
            "min_separation_cells": self.min_separation_cells,
            "max_residual": self.max_residual,
        }


def link_matrix(params, targets, res=64):
    """Extract the preimage of every target and link them pairwise.

    Entries are intrinsic torus linking numbers (see linking_number_t3),
    summed over loop pairs when a preimage has several components; empty
    preimages are marked absent rather than silently skipped."""
    targets = [tuple(_unit_target(t)) for t in targets]
    loops_t3 = [preimage_contours(params, t, res=res) for t in targets]
    absent = [i for i, loops in enumerate(loops_t3) if not loops]

    m = len(targets)
    values = [[None] * m for _ in range(m)]
    separation, residuals = np.inf, []
    for i in range(m):
        for j in range(i + 1, m):
            if not loops_t3[i] or not loops_t3[j]:
                continue
            pairs = [linking_number_t3(a, b) for a in loops_t3[i] for b in loops_t3[j]]
            values[i][j] = values[j][i] = sum(lk.value for lk in pairs)
            separation = min([separation] + [lk.separation for lk in pairs])
            residuals += [abs(lk.residual) for lk in pairs]
    return LinkMatrix(
        targets=targets, values=values, absent=absent, loops=loops_t3,
        min_separation_cells=separation * res / TWO_PI if np.isfinite(separation) else None,
        max_residual=max(residuals, default=None),
    )

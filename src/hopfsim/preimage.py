"""Spin-preimage loops in the Brillouin zone and their linking numbers.

The preimage of a target Bloch orientation s is the closed curve where the
ground-state spin field equals s.  On a grid of Bloch vectors, sampled
(``model.bloch_grid``) or given, it is marched as a loop set of the
piecewise-linear interpolant b on 6 Kuhn tetrahedra per cell:
the zero set of (b.t1, b.t2), (t1, t2) an orthonormal frame of s-perp, is
the preimage of the line through s, which meets that of -s only where
b = 0, and a loop belongs to s where b.s > 0.  One pass over slabs of
x-planes serves every target: each packs the signs of b.t1 and b.t2 into
one byte per vertex, ORed over each cell's corners to find the straddling
cells, whose corner vectors are gathered; no array of the whole grid is
formed (at res 256 a link matrix of three targets peaks at 20 MiB of
traced allocations, where the grid alone is 384 MiB).  The cells are
marched in array passes driven by a 16-row table of cut edges; each
segment points along the pullback of the frame.  One sort of the face ids
pairs each segment's head with the next one's tail (``ResolutionTooCoarse``
if a face holds another number of ends, or two heads or two tails), and the
loops are the cycles of that pairing.
Loops are linked on the torus, lifted to the universal cover and summed
against periodic images (``WindingLoops`` for loops that wind it), or in R3
through the S3 map and a stereographic chart.  A Gauss sum cuts both curves
into blocks: a touching block pair is one fused pass over its chords, a
separated one is summed by Stokes' theorem from the boundary of its
rectangle of chords, and the smallest vertex distance comes out exact
(``CurvesTooClose``, and the separation margin of a link matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import model
from .errors import (
    ChartExhausted,
    CurvesTooClose,
    InconsistentLinks,
    ResolutionTooCoarse,
    UsageError,
    WindingLoops,
)
from .invariants import _roll_into

TOL_SEP = 1e-3
_GAUSS_BLOCK = 64  # segments of either curve per block of a Gauss sum
_MARCH_BLOCK = 512  # straddling cells per block of the march
_SLAB = 4  # x-planes per slab of the march
_LEVEL_NUDGE = (1.0e-9, 1.37e-9)  # dodges exact-zero grid values on symmetry planes

TWO_PI = 2.0 * np.pi


@dataclass
class Polyline:
    """Oriented closed curve; the first vertex is not repeated at the end."""

    vertices: np.ndarray
    coords: str = "T3"  # T3 or R3
    target: tuple | None = None
    h: float | None = None
    chart: str | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (m, 3), got {self.vertices.shape}")
        if self.coords not in ("T3", "R3"):
            raise ValueError(f"unknown coordinate system {self.coords!r}")
        if len(self.vertices) < 3:
            raise ValueError("closed polylines need at least 3 vertices")
        if self.coords == "T3":
            self.vertices = np.mod(self.vertices, TWO_PI)
        d = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        if len(d) and d.min() == 0.0:
            raise ValueError("consecutive vertices must be distinct")

    def __len__(self):
        return len(self.vertices)


def polyline_to_dict(c):
    d = {
        "coords": c.coords,
        "closed": True,
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
    """Polyline of a ``polyline_to_dict`` document; ValueError, naming the
    key, for a missing or malformed key."""
    for key in ("closed", "vertices", "coords"):
        if key not in d:
            raise ValueError(f"polyline document lacks {key!r}")
    if d["closed"] is not True:
        raise ValueError(f"polylines are closed loops; got closed={d['closed']!r}")
    target = d.get("target")
    if "target" in d:
        if not (isinstance(target, (list, tuple)) and len(target) == 3
                and all(isinstance(x, Real) and not isinstance(x, bool) for x in target)):
            raise ValueError(f"polyline target must be a sequence of 3 numbers, got {target!r}")
        target = tuple(target)
    return Polyline(
        np.asarray(d["vertices"], dtype=float),
        coords=d["coords"],
        target=target,
        h=d.get("h"),
        chart=d.get("chart"),
    )


def _unit_target(s):
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise UsageError(f"spin target must be a 3-vector, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise UsageError(f"spin target must be finite, got {s.tolist()}")
    norm = np.linalg.norm(s)
    if abs(norm - 1.0) > 1e-9:
        raise UsageError(f"spin target must be a unit vector, |s|={norm}")
    return s / norm


# ---------------------------------------------------------------------------
# contour extraction

# six tetrahedra around the cube's main diagonal, one per permutation p of the
# axes, stepping from (0, 0, 0) along e_p[0], e_p[1] and e_p[2] to (1, 1, 1);
# the induced face diagonals match between neighboring cells, which keeps
# chained curve segments consistent across cell boundaries
_TET_STEPS = np.eye(3, dtype=int)[list(permutations(range(3)))]  # (6 tets, 3 steps, 3)
_TET_OFFSETS = np.insert(_TET_STEPS, 0, 0, axis=1).cumsum(axis=1)  # (6 tets, 4 corners, 3)
_TET_CORNERS = _TET_OFFSETS @ (4, 2, 1)  # cube corner of each: dx * 4 + dy * 2 + dz
_CUBE = np.array(list(product((0, 1), repeat=3)))  # the 8 corners of a cell, dx slowest


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


def preimage_contours(bloch, target):
    """Closed loops of the piecewise-linear preimage of a spin target, as T3
    polylines (possibly none), on ``bloch``: Bloch vectors at
    k = 2*pi*(i, j, l)/res, shape (res, res, res, 3), sampled
    (``model.bloch_grid``) or measured, and marched slab by slab as
    ``link_matrix`` marches the model, which at res 256 allocates at most
    20 MiB for three targets.  A loop is kept when b.s > 0 at its first
    vertex: while no tetrahedron's corner vectors hold the origin in their
    hull, the whole loop then lies on the side of s.  The loops are not
    pulled onto the analytic curve (``refined_preimage`` does that).
    ``ResolutionTooCoarse`` if the segments cannot be chained into loops;
    ``ValueError`` for a grid of another shape, ``UsageError`` for a res
    outside [16, 512]."""
    target = _unit_target(target)  # a bad target is refused before the grid is read
    bloch = np.asarray(bloch)
    res = bloch.shape[0] if bloch.ndim == 4 else 0
    if bloch.shape != (res, res, res, 3):
        raise ValueError(f"Bloch grid must have shape (res, res, res, 3), got {bloch.shape}")
    _check_res(res)
    planes = np.moveaxis(bloch, -1, 0)
    return _preimages(lambda lo, hi, out: np.copyto(out, planes[:, lo:hi]), res, [target])[0]


def refined_preimage(params, targets, res=64):
    """The loops of every target, marched in one pass over the grid of
    ``params`` at ``res``, each pulled onto the analytic curve by one Newton
    pass: a list of loops per target, the geometry of ``hopf preimage``.  At
    res 64 the largest |S(k) - s| over the marched vertices is 0.0985, 0.0085
    and 0.0052 at h = 2.9, 2 and 0, and 0.0028, under 1e-4 and 0.0006 after
    the pass."""
    targets = [_unit_target(t) for t in targets]
    _check_res(res)
    out = []
    for s, loops in zip(targets, _preimages(partial(model.bloch_grid, res, params), res, targets)):
        refined = []
        for c in loops:
            n_here = model.bloch_ground(c.vertices, params)
            inverse = np.linalg.pinv(_spin_jacobian(c.vertices, params), rcond=1e-8)
            kverts = _dedupe(np.mod(c.vertices + np.einsum("mij,mj->mi", inverse, s - n_here), TWO_PI))
            if len(kverts) >= 3:
                refined.append(Polyline(kverts, "T3", tuple(s), params.h))
        out.append(sorted(refined, key=lambda c: c.vertices[:, 0].min()))
    return out


def _check_res(res):
    if not isinstance(res, (int, np.integer)):
        raise UsageError(f"res must be an integer, got {res!r}")
    if not 16 <= res <= 512:
        raise UsageError(f"res must be in [16, 512], got {res}")


def _preimages(sample, res, targets):
    """The kept loops of each target, from one march (``_straddling`` takes
    ``sample``); the zero set of (b.t1, b.t2) is marched (``_frame``).  The
    targets are unit 3-vectors that the caller has checked."""
    marches = [(*_frame(s), s) for s in targets]
    out = []
    for s, (points, faces) in zip(targets, _march_segments(sample, res, marches)):
        loops = []
        for loop in _chain_segments(points, faces):
            verts = np.mod(loop[:, :3] * (TWO_PI / res), TWO_PI)
            verts = verts[(verts != np.roll(verts, 1, axis=0)).any(axis=1)]
            if loop[0, 3] > 0 and len(verts) >= 3:  # b.s <= 0 is a loop of -s
                loops.append(Polyline(verts, "T3", tuple(s)))
        out.append(loops)
    return out


def _frame(s):
    """((t1, level1), (t2, level2)) and sign(s . (t1 x t2)): t1, t2 by
    Gram-Schmidt of the two axes after s's dominant one (cyclically) against
    s, the levels ``_LEVEL_NUDGE``.  An axis that s has no component along
    stays exact, so an axis target marches two planes."""
    axis = int(np.argmax(np.abs(s)))
    frame = []
    for e in ((axis + 1) % 3, (axis + 2) % 3):
        t = np.eye(3)[e]
        for u in (s, *frame):
            t = t - (t @ u) * u
        frame.append(t / np.linalg.norm(t))
    return tuple(zip(frame, _LEVEL_NUDGE)), np.sign(s @ np.cross(*frame))


def _along(b, t):
    """b . t over the first axis of b, one elementwise product and sum per
    component, so the sign bytes and the march's corner values agree bit for
    bit; for a coordinate axis t it equals that component plane up to the
    sign of a zero."""
    return b[0] * t[0] + b[1] * t[1] + b[2] * t[2]


def _march_segments(sample, res, marches):
    """Per-tetrahedron intersection segments of the two level sets
    phi = b.t - level, for the (t, level) pairs of each (frame, sign, s) of
    ``marches``, oriented: a (points, faces) pair per march, yielded one
    march at a time, so that each one's arrays can go before the next.

    ``points[i, side]`` is an end of segment i in grid units, then b.s
    there, shape (m, 2, 4), and ``faces[i, side]`` the sorted ids of the
    three grid vertices spanning the tetrahedron face holding it, shape
    (m, 2, 3), in row-major cell, then ``_TET_STEPS`` order; side 0 to
    side 1 runs along sign * grad(phi1) x grad(phi2) of the linear
    interpolants.  ``_MARCH_BLOCK`` cells x 6 tetrahedra make one array pass."""
    found = _straddling(sample, res, marches)
    for frame, sign, s in marches:
        cells, corners = found.pop(0)
        cells, corners = np.concatenate(cells), np.concatenate(corners, axis=1)
        blocks = [_march_cells(cells[i:i + _MARCH_BLOCK], corners[:, i:i + _MARCH_BLOCK],
                               res, frame, sign, s)
                  for i in range(0, max(len(cells), 1), _MARCH_BLOCK)]
        del cells, corners
        yield tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _straddling(sample, res, marches):
    """The cells (m, 3) that straddle both level sets of each march, in
    row-major order, and their corner vectors (3, m, 8), as lists of the
    arrays of each slab (joined one march at a time), from one pass over
    ``_SLAB`` x-planes at a time; ``sample(lo, hi, out)`` writes planes
    lo..hi-1 into ``out`` (3, hi - lo, res, res).  A slab's cells need the
    next plane too, which is carried into the next slab (plane 0 follows
    plane res - 1).  fl(v - level) has the sign of v - level, so a vertex
    packs phi1 < 0, phi1 > 0, phi2 < 0, phi2 > 0 into one byte per march,
    and a cell straddles when its corners' bytes OR to 15."""
    step = min(_SLAB, res)
    planes = np.empty((3, step + 1, res, res))
    codes = np.empty((len(marches), step + 1, res, res), dtype=np.uint8)
    work = np.empty((2, step + 1, res, res), dtype=np.uint8)
    found = [([], []) for _ in marches]
    for lo in range(0, res, step):
        n = min(step, res - lo)  # cells lo..lo+n-1 need planes lo..lo+n
        new = slice(min(lo, 1), min(n, res - 1 - lo) + 1)  # plane lo is carried after slab 0
        sample(lo + new.start, lo + new.stop, planes[:, new])
        flags = work[0, new]
        for code, (frame, _, _) in zip(codes[:, new], marches):
            code.fill(0)
            for k, (t, level) in enumerate(frame):
                v = _along(planes[:, new], t)
                for bit, op in ((2 * k, np.less), (2 * k + 1, np.greater)):
                    op(v, level, out=flags.view(bool))
                    code |= np.left_shift(flags, bit, out=flags)
        if lo == 0:
            wrap = planes[:, 0].copy(), codes[:, 0].copy()
        if new.stop == n:
            planes[:, n], codes[:, n] = wrap
        flat = planes[:, :n + 1].reshape(3, -1)
        cell, shifted = work[0, :n], work[1, :n]
        for code, (cells, corners) in zip(codes, found):
            np.bitwise_or(code[:n], code[1:n + 1], out=cell)  # OR over the 2x2x2 corners
            for ax in (1, 2):
                cell |= _roll_into(shifted, cell, ax)
            straddle = np.flatnonzero(np.equal(cell, 15, out=shifted.view(bool)))
            cells.append(np.stack(np.unravel_index(straddle, cell.shape), axis=1) + (lo, 0, 0))
            ids = ((cells[-1][:, None, :] + _CUBE) % res) @ (res * res, res, 1)
            corners.append(flat[:, (ids - lo * res * res) % res**3])
        planes[:, 0], codes[:, 0] = planes[:, n], codes[:, n]
    return found


def _march_cells(cells, b, res, frame, sign, s):
    """The march on a block of straddling cells and their corner vectors b:
    every (cell, tet) row's values, then phi1 > 0 picks a row of
    ``_TET_EDGES`` (the edges {phi1 = 0} cuts, in cycle order around the cut
    polygon), and a segment joins the two crossings of {phi2 = 0} along the
    polygon's sides, each on the face of its side's two edges; b.s is
    interpolated as the coordinates are."""
    ids = ((cells[:, None, :] + _CUBE) % res) @ (res * res, res, 1)
    f, g = ((_along(b, t) - level)[:, _TET_CORNERS].reshape(-1, 4) for t, level in frame)
    w = _along(b, s)[:, _TET_CORNERS].reshape(-1, 4)

    key = (f > 0) @ (1 << np.arange(4))
    rows = np.nonzero((key > 0) & (key < 15))[0]
    key = key[rows]
    cell, tet = rows // 6, rows % 6
    edges = _TET_EDGES[key]  # (m tets, 4 sides, 2 ends)
    pick = rows[:, None, None], edges
    fe = f[pick]
    t = fe[..., 0] / (fe[..., 0] - fe[..., 1])  # ends differ in sign: no 0/0
    ge = g[pick]
    gv = ge[..., 0] + t * (ge[..., 1] - ge[..., 0])
    del fe, ge  # so they do not add to the peak of the points below

    # side k of the cut polygon runs from cut edge k to cut edge k + 1
    above = gv > 0
    crosses = above != np.roll(above, -1, axis=1)
    kept = np.nonzero(crosses.sum(axis=1) == 2)[0]
    pe = cells[cell[kept], None, None, :] + _TET_OFFSETS[tet[kept, None, None], edges[kept]]
    pts = pe[..., 0, :] + t[kept, :, None] * (pe[..., 1, :] - pe[..., 0, :])
    i, side = np.nonzero(crosses[kept])  # two sides per kept tet, ascending
    j = kept[i]
    nxt = (side + 1) % 4
    g0, g1 = gv[j, side], gv[j, nxt]
    u = g0 / (g0 - g1)
    p0 = pts[i, side]
    # b.s where the cut edges of both sides cross phi1 = 0, then at the point
    w0, w1 = (w[rows[j, None], edges[j, k]] for k in (side, nxt))
    w0 = w0[:, 0] + t[j, side] * (w0[:, 1] - w0[:, 0])
    w1 = w1[:, 0] + t[j, nxt] * (w1[:, 1] - w1[:, 0])
    point = np.column_stack([p0 + u[:, None] * (pts[i, nxt] - p0), w0 + u * (w1 - w0)])
    point = point.reshape(-1, 2, 4)
    corners = _TET_CORNERS[tet[j, None], _TET_FACES[key[j], side]]
    faces = np.sort(ids[cell[j, None], corners], axis=1).reshape(-1, 2, 3)
    del pick, edges, t, gv, pe, pts, w, w0, w1  # so they do not add to the peak below

    # corner i + 1 of a tetrahedron is corner i + e_p[i], so a linear
    # interpolant's gradient has component p[i] equal to their difference
    steps, r = _TET_STEPS[tet[j[0::2]]], rows[j[0::2]]
    grad_f, grad_g = (np.einsum("mi,mij->mj", np.diff(v[r]), steps) for v in (f, g))
    ahead = np.einsum("mi,mi->m", point[:, 1, :3] - point[:, 0, :3], np.cross(grad_f, grad_g))
    flip = sign * ahead < 0
    point[flip], faces[flip] = point[flip, ::-1], faces[flip, ::-1]
    return point, faces


def _chain_segments(points, faces):
    """Join oriented segments that share a face into closed loops of their
    tail ends (the rows of ``points``), in the segments' direction.

    End e = 2 * segment + side lies on ``faces[segment, side]``; each face
    must hold two ends, each the other's mate: a head (side 1) and a tail.
    A loop enters a segment at its tail e, leaves at its head e ^ 1 and
    enters the next segment at mate[e ^ 1]."""
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
    clash = np.nonzero((order[0::2] & 1) == (order[1::2] & 1))[0]
    if len(clash):
        e = order[2 * clash[0]]
        raise ResolutionTooCoarse(
            f"face {tuple(faces[e >> 1, e & 1].tolist())} holds two segment "
            f"{'heads' if e & 1 else 'tails'}; increase the marching resolution"
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
            loops.append(points.reshape(2 * len(points), -1)[walk])
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


# ---------------------------------------------------------------------------
# epsilon-neighborhood of a spin orientation on a sampled field

def _check_neighborhood(target, epsilon):
    """The unit target of an epsilon-neighborhood, or ``UsageError``."""
    if not 0 < epsilon <= 2:
        raise UsageError(f"epsilon must be in (0, 2], got {epsilon}")
    return _unit_target(target)


def epsilon_neighborhood(f, target, epsilon):
    """Mesh sites whose Bloch vector lies within epsilon of the target.

    Returns [(site, bloch_vector), ...] in row-major site order; an empty
    list is a valid result.
    """
    s = _check_neighborhood(target, epsilon)
    bloch = f.bloch_vectors()
    dist = np.linalg.norm(bloch - s, axis=-1)
    sites = np.argwhere(dist <= epsilon)
    return [(tuple(int(x) for x in j), bloch[tuple(j)]) for j in sites]


# ---------------------------------------------------------------------------
# embedding T3 -> S3 -> R3

def embed_r3(c, params, chart="auto"):
    """Embed a T3 polyline in R3 via the S3 map and a stereographic chart.

    Chart "plus" maps (e1, e2, e3, e4) -> (e1, e2, e3) / (1 + e4), chart
    "minus" -> (e1, e2, -e3) / (1 - e4), so both induce the same
    orientation; with ``chart="auto"`` the chart with the larger pole
    clearance is used.  Vertex count and orientation are preserved.  The S3
    map is 2*pi-periodic, so curves crossing the zone boundary need no
    unwrapping.

    Raises
    ------
    ChartExhausted
        If the curve passes within ``model.POLE_DELTA`` of the given chart's
        pole, or of both poles for ``chart="auto"``.
    ValueError
        If ``chart`` is not "auto", "plus" or "minus".
    """
    if c.coords != "T3":
        raise ValueError(f"embed_r3 expects a T3 polyline, got {c.coords}")
    if chart not in ("auto", "plus", "minus"):
        raise ValueError(f"unknown chart {chart!r}; expected 'auto', 'plus' or 'minus'")

    eta = model.map_g(c.vertices, params)
    clearance = {"plus": 1.0 + eta[:, 3].min(), "minus": 1.0 - eta[:, 3].max()}
    use = max(clearance, key=clearance.get) if chart == "auto" else chart
    if clearance[use] <= model.POLE_DELTA:
        poles = "both stereographic poles" if chart == "auto" else f"the {use} chart pole"
        raise ChartExhausted(f"curve passes within {model.POLE_DELTA:g} of {poles}")
    if use == "minus":
        eta[:, 2:] = -eta[:, 2:]  # -e3, and 1 - e4 below
    verts = eta[:, :3] / (1.0 + eta[:, 3:])
    return Polyline(verts, "R3", c.target, c.h, chart=use)


# ---------------------------------------------------------------------------
# Gauss linking number

class LinkingNumber(NamedTuple):
    value: int
    residual: float
    separation: float  # smallest vertex distance over the Gauss sums taken


def _check_r3(c, name):
    if c.coords != "R3":
        raise ValueError(
            f"{name} must be in R3 coordinates (embed T3 curves first), got {c.coords}"
        )


class GaussSum(float):
    """A raw Gauss double sum that also carries ``separation``, the smallest
    vertex distance between the two curves."""

    def __new__(cls, value, separation):
        self = super().__new__(cls, value)
        self.separation = separation
        return self


def _block_boxes(v, starts):
    """Bounding boxes of the blocks of a closed vertex array (its first vertex
    repeated at the end): block k holds vertices starts[k] to
    starts[k] + _GAUSS_BLOCK, both ends included, as its segments need."""
    ends = np.minimum(starts + _GAUSS_BLOCK, len(v) - 1)
    lo = np.minimum(np.minimum.reduceat(v[:-1], starts), v[ends])
    hi = np.maximum(np.maximum.reduceat(v[:-1], starts), v[ends])
    return lo, hi


def _chords(rows, cols):
    """Chord components from every row vertex (m, 3) to every column vertex
    (3, k), each an (m, k) array, and the chord lengths."""
    cx = cols[0] - rows[:, 0, None]
    cy = cols[1] - rows[:, 1, None]
    cz = cols[2] - rows[:, 2, None]
    return cx, cy, cz, np.sqrt(cx * cx + cy * cy + cz * cz)


def _quad_sum(cx, cy, cz, dist):
    """Sum of the arctan2 halves of the solid angles of every quadrilateral of
    a chord grid: rows follow a, columns follow b.

    The corners of the quadrilateral of segment pair (i, j) are the unit
    chords c1 = [i, j], c2 = [i+1, j], c3 = [i+1, j+1] and c4 = [i, j+1], so
    the dot products of neighbouring chords along a (c1.c2, c4.c3) and along
    b (c1.c4, c2.c3) are each one array shared by adjacent quads.  One cross
    product X = c1 x c3 gives both triple products: c1.(c2 x c3) = -c2.X and
    c1.(c3 x c4) = c4.X."""
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
    return float((np.arctan2(num1, den1) + np.arctan2(num2, den2)).sum())


def _fan_terms(c, axis, sign):
    """arctan2 halves of the solid angles of the fan triangles (n, u, v), for
    n = sign * e_axis and consecutive unit chords u, v along the first axis of
    the component arrays c (3, m + 1, lines): an (m, lines) array."""
    u, v = c[:, :-1], c[:, 1:]
    k1, k2 = (axis + 1) % 3, (axis + 2) % 3
    num = u[k1] * v[k2] - u[k2] * v[k1]
    den = u[axis] + v[axis]
    if sign < 0:
        num, den = -num, -den
    den += 1.0
    den += u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return np.arctan2(num, den)


def _separated_sum(p, qt, sa, sb, pairs, axis, sign):
    """Gauss sum, as arctan2 halves, of the block pairs whose boxes are
    separated along an axis, from the boundaries of their (i, j) rectangles.

    Every chord of pair (I, J) has n.c > 0 for n = sign * e_axis, so its
    quadrilaterals lie in the open hemisphere around n, where each one's solid
    angle is the sum of the fan triangles (n, u, v) along its boundary
    (Stokes' theorem on the sphere).  Inside the rectangle the fan terms
    cancel in pairs, which leaves its boundary: along a at the first and last
    columns of block J, along b at the first and last rows of block I.  Those
    lines are the block bounds, so each line's terms are summed per block of
    the curve it follows and every pair gathers four block sums."""
    row_bounds = np.append(sa, len(p) - 1)  # first vertex of each block of a, and the last
    col_bounds = np.append(sb, qt.shape[1] - 1)
    cx, cy, cz, dist = _chords(p, qt[:, col_bounds])  # along a at every column bound
    on_a = np.stack([cx, cy, cz]) / dist
    cx, cy, cz, dist = _chords(p[row_bounds], qt)  # along b at every row bound
    on_b = (np.stack([cx, cy, cz]) / dist).transpose(0, 2, 1)
    i, j = pairs
    total = 0.0
    for k, s in sorted(set(zip(axis.tolist(), sign.tolist()))):
        sel = (axis == k) & (sign == s)
        fa = np.add.reduceat(_fan_terms(on_a, k, s), sa, axis=0)  # (blocks of a, column bounds)
        fb = np.add.reduceat(_fan_terms(on_b, k, s), sb, axis=0)  # (blocks of b, row bounds)
        ii, jj = i[sel], j[sel]
        total += float((fa[ii, jj] + fb[jj, ii + 1] - fa[ii, jj + 1] - fb[jj, ii]).sum())
    return total


def gauss_linking_sum(a, b, tol_sep=0.0):
    """Raw Gauss double sum over segment pairs (the pre-rounding real value).

    Each segment pair contributes the exact signed area its chord-direction
    map sweeps on the unit sphere; the total divided by 4*pi is the linking
    number for disjoint closed curves.  Both curves are cut into blocks of
    ``_GAUSS_BLOCK`` segments.  A block pair whose bounding boxes touch on
    every axis is summed in one fused array pass over its chords, two
    triangles per segment pair.  A block pair whose boxes are strictly
    separated along an axis is summed from the boundary of its rectangle of
    chords, one fan triangle per boundary segment (``_separated_sum``): the
    same sum from 2(|R| + |C|) terms in place of 2|R||C|.

    The fused passes measure their chord lengths, which are the vertex
    distances.  A separated pair is measured only when its box distance, a
    lower bound of each of its vertex distances as computed, lies below the
    smallest distance found so far, so the ``separation`` of the returned
    ``GaussSum`` is the exact smallest vertex distance.

    Raises
    ------
    CurvesTooClose
        If a vertex of a lies within tol_sep of a vertex of b, or on one.
    """
    p = np.vstack([a.vertices, a.vertices[:1]])
    qt = np.vstack([b.vertices, b.vertices[:1]]).T.copy()
    sa = np.arange(0, len(a), _GAUSS_BLOCK)
    sb = np.arange(0, len(b), _GAUSS_BLOCK)
    lo_a, hi_a = _block_boxes(p, sa)
    lo_b, hi_b = _block_boxes(qt.T, sb)
    # (blocks of a, blocks of b, 3): chord components exceed `up`, or lie
    # below -`down`; a positive gap on some axis separates the two boxes
    up = lo_b - hi_a[:, None]
    down = lo_a[:, None] - hi_b
    gap = np.maximum(up, down)
    separated = gap.max(axis=-1) > 0

    rows = [p[s:s + _GAUSS_BLOCK + 1] for s in sa]
    cols = [qt[:, s:s + _GAUSS_BLOCK + 1] for s in sb]

    total, dmin = 0.0, np.inf
    for i, j in zip(*np.nonzero(~separated)):
        cx, cy, cz, dist = _chords(rows[i], cols[j])
        dmin = min(dmin, float(dist.min()))
        if dmin < tol_sep or dmin == 0.0:
            continue  # the call raises; only the global minimum is still needed
        total += _quad_sum(cx, cy, cz, dist)

    # a separated pair's box distance, rounded as a chord length is, bounds
    # each of its chord lengths from below (every step rounds monotonically),
    # so pairs are measured in the order of that bound until it reaches dmin
    pairs = np.nonzero(separated)
    g = np.maximum(gap[pairs], 0.0)
    bound = np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2])
    for k in np.argsort(bound, kind="stable"):
        if bound[k] >= dmin:
            break
        *_, dist = _chords(rows[pairs[0][k]], cols[pairs[1][k]])
        dmin = min(dmin, float(dist.min()))
    if dmin < tol_sep:
        raise CurvesTooClose(f"curves approach to {dmin:.2e} < tol_sep={tol_sep:g}")
    if dmin == 0.0:
        raise CurvesTooClose("the curves share a vertex")
    if len(bound):
        axis = gap[pairs].argmax(axis=-1)  # the widest gap picks the hemisphere
        sign = np.where(up[(*pairs, axis)] > 0, 1, -1)
        total += _separated_sum(p, qt, sa, sb, pairs, axis, sign)
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
    ValueError
        If either polyline is not in R3 coordinates.
    """
    _check_r3(a, "first curve")
    _check_r3(b, "second curve")
    raw = gauss_linking_sum(a, b, tol_sep)
    value = int(np.rint(raw))
    return LinkingNumber(value, raw - value, raw.separation)


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
    la = Polyline(va, "R3")
    raw, separation = 0.0, np.inf
    for t in _image_translates(va.min(axis=0), va.max(axis=0), vb.min(axis=0), vb.max(axis=0)):
        shift = TWO_PI * np.array(t, float)
        part = gauss_linking_sum(la, Polyline(vb + shift, "R3"), tol_sep)
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

    The Hopf invariant does not depend on the targets, and a map that misses
    a point of the sphere has none, so unequal present entries, or an absent
    target beside a nonzero entry, raise ``InconsistentLinks``.

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

    def __post_init__(self):
        present = {v for i, row in enumerate(self.values) for j, v in enumerate(row)
                   if i != j and v is not None}
        if len(present) > 1 or (self.absent and present - {0}):
            raise InconsistentLinks(f"link matrix {self.values} with absent targets "
                                    f"{self.absent} is inconsistent; increase the resolution")

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

    After the targets and res are checked, the Bloch grid is sampled and
    every target marched on it in one pass over slabs of x-planes, with no
    array of the whole grid, and the loops are linked as marched, with no
    further model call.  Entries are intrinsic torus linking numbers (see
    linking_number_t3), summed over loop pairs when a preimage has several
    components; empty preimages are marked absent rather than silently
    skipped."""
    targets = [_unit_target(t) for t in targets]
    _check_res(res)
    loops_t3 = _preimages(partial(model.bloch_grid, res, params), res, targets)
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
        targets=[tuple(s) for s in targets], values=values, absent=absent, loops=loops_t3,
        min_separation_cells=separation * res / TWO_PI if np.isfinite(separation) else None,
        max_residual=max(residuals, default=None),
    )

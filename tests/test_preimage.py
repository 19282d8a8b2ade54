import itertools
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsim import model, preimage
from hopfsim.bzgrid import MeshSpec, sample_state_field
from hopfsim.errors import (
    ChartExhausted,
    CurvesTooClose,
    GaplessPoint,
    HopfError,
    InconsistentLinks,
    ResolutionTooCoarse,
    WindingLoops,
)
from hopfsim.model import HopfParams, bloch_ground
from hopfsim.preimage import (
    _GAUSS_BLOCK,
    _LEVEL_NUDGE,
    LinkMatrix,
    Polyline,
    _chain_segments,
    _dedupe,
    _frame,
    _image_translates,
    _march_segments,
    embed_r3,
    epsilon_neighborhood,
    gauss_linking_number,
    gauss_linking_sum,
    link_matrix,
    linking_number_t3,
    polyline_from_dict,
    polyline_to_dict,
    preimage_contours,
    refined_preimage,
    unwrap_t3,
)
from hopfsim.invariants import chi_infinity

TWO_PI = 2 * np.pi


def circle(radius=1.0, center=(0, 0, 0), normal="z", m=120, phase=0.0):
    t = np.linspace(0, TWO_PI, m, endpoint=False) + phase
    if normal == "z":
        v = np.stack([radius * np.cos(t), radius * np.sin(t), np.zeros(m)], axis=1)
    else:  # normal y: circle in the xz-plane
        v = np.stack([radius * np.cos(t), np.zeros(m), radius * np.sin(t)], axis=1)
    return Polyline(np.asarray(center, float) + v, "R3")


def hopf_link_pair():
    a = circle()
    b = circle(center=(1, 0, 0), normal="y")
    return a, b


def subdivided(c):
    """The closed R3 polyline with the midpoint of every edge inserted."""
    v = c.vertices
    return Polyline(np.stack([v, (v + np.roll(v, -1, axis=0)) / 2], axis=1).reshape(-1, 3), "R3")


def reverse(c):
    return Polyline(c.vertices[::-1], c.coords)


# ---------------------------------------------------------------------------
# polyline container

def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(np.zeros((2, 3)), "R3")
    with pytest.raises(ValueError):
        Polyline([[0, 0, 0], [0, 0, 0], [1, 1, 1]], "R3")
    with pytest.raises(ValueError):
        Polyline(np.zeros((4, 2)), "R3")
    with pytest.raises(ValueError, match="unknown coordinate system 'S3'"):
        Polyline([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "S3")
    c = Polyline([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "T3")
    assert len(c) == 3


def test_polyline_t3_reduced_mod_2pi():
    c = Polyline([[TWO_PI + 0.1, 0.2, 0.3], [1, 1, 1], [2, 2, 2]], "T3")
    assert c.vertices.max() < TWO_PI


def test_polyline_json_roundtrip():
    a = circle(m=16)
    a.target = (1.0, 0.0, 0.0)
    a.h = 2.9
    d = polyline_to_dict(a)
    b = polyline_from_dict(d)
    assert np.array_equal(a.vertices, b.vertices)
    assert d["closed"] is True
    assert b.coords == "R3" and b.target == (1.0, 0.0, 0.0) and b.h == 2.9
    # every polyline is a closed loop: a file saying otherwise is refused
    for closed in (False, 1, None):
        with pytest.raises(ValueError, match="polylines are closed loops"):
            polyline_from_dict({**d, "closed": closed})


@pytest.mark.parametrize("change, key", [
    ({"closed": "drop"}, "closed"), ({"vertices": "drop"}, "vertices"),
    ({"coords": "drop"}, "coords"), ({"target": 5}, "target"),
    ({"target": [1.0, 0.0]}, "target"), ({"target": "abc"}, "target"),
    ({"target": [1.0, "0", 0.0]}, "target"), ({"target": [True, 0, 0]}, "target"),
    ({"target": None}, "target"),
])
def test_polyline_from_dict_refuses_a_malformed_document(change, key):
    # a document read from a file ends in ValueError naming its bad key, not
    # in a bare KeyError or TypeError
    d = {**polyline_to_dict(circle(m=16)), "target": [1.0, 0.0, 0.0]}
    d.update(change)
    d = {k: v for k, v in d.items() if v != "drop"}
    with pytest.raises(ValueError, match=key):
        polyline_from_dict(d)


# ---------------------------------------------------------------------------
# contour extraction

def test_preimage_single_loops_at_h29():
    p = HopfParams(2.9)
    for target in ((1, 0, 0), (0, 1, 0), (0, 0, -1)):
        (loops,) = refined_preimage(p, [target], 64)
        assert len(loops) == 1
        c = loops[0]
        assert c.coords == "T3" and len(c) >= 3
        dev = np.linalg.norm(
            bloch_ground(c.vertices, p) - np.asarray(target, float), axis=1
        )
        assert dev.max() <= 0.05  # curve_tol after one refinement pass


def test_preimage_vanishes_at_h31():
    p = HopfParams(3.1)
    assert refined_preimage(p, [(0, 0, -1)], 64) == [[]]
    assert preimage_contours(model.bloch_grid(64, p), (0, 0, -1)) == []


def test_preimage_diagonal_target():
    p = HopfParams(2.0)
    (loops,) = refined_preimage(p, [np.array([-1, -1, 0]) / np.sqrt(2)], 64)
    assert len(loops) == 1
    dev = np.linalg.norm(
        bloch_ground(loops[0].vertices, p) - np.array([-1, -1, 0]) / np.sqrt(2), axis=1
    )
    assert dev.max() <= 0.05


def test_preimage_closure_mod_2pi():
    p = HopfParams(2.9)
    ((c,),) = refined_preimage(p, [(1, 0, 0)], 32)
    gap = c.vertices[0] - c.vertices[-1]
    gap = (gap + np.pi) % TWO_PI - np.pi
    cell = TWO_PI / 32 * np.sqrt(3)
    assert np.linalg.norm(gap) <= cell


def _reference_tet_segment(pos, ids, f, g, w, sign):
    # scalar marching of one tetrahedron: cut the edges {f = 0} crosses, in
    # cycle order around the cut polygon, then join the polygon's two
    # crossings of {g = 0}, pointing along sign * grad(f) x grad(g) of the
    # linear interpolants, each solved from the tetrahedron's edge vectors;
    # w is interpolated to the crossings as a fourth coordinate
    edge_vectors = pos[1:] - pos[0]
    pos = np.column_stack([pos, w])
    pos_mask = f > 0
    npos = int(pos_mask.sum())
    if npos in (0, 4):
        return None
    if npos in (1, 3):
        lone = int(np.argmax(pos_mask)) if npos == 1 else int(np.argmin(pos_mask))
        order = [(lone, o) for o in range(4) if o != lone]
    else:
        a, b = [int(i) for i in np.nonzero(pos_mask)[0]]
        c, d = [int(i) for i in np.nonzero(~pos_mask)[0]]
        order = [(a, c), (a, d), (b, d), (b, c)]
    pts, gvals, edges = [], [], []
    for i, j in order:
        t = f[i] / (f[i] - f[j])
        pts.append(pos[i] + t * (pos[j] - pos[i]))
        gvals.append(g[i] + t * (g[j] - g[i]))
        edges.append((ids[i], ids[j]))
    crossings = []
    for i in range(len(pts)):
        j = (i + 1) % len(pts)
        if (gvals[i] > 0) == (gvals[j] > 0):
            continue
        t = gvals[i] / (gvals[i] - gvals[j])
        fkey = tuple(sorted(set(edges[i]) | set(edges[j])))
        if len(fkey) != 3:
            return None
        crossings.append((pts[i] + t * (pts[j] - pts[i]), fkey))
    if len(crossings) != 2:
        return None
    (p1, f1), (p2, f2) = crossings
    if f1 == f2:
        return None
    grad_f = np.linalg.solve(edge_vectors, f[1:] - f[0])
    grad_g = np.linalg.solve(edge_vectors, g[1:] - g[0])
    if sign * np.dot((p2 - p1)[:3], np.cross(grad_f, grad_g)) < 0:
        return (p2, f2, p1, f1)
    return (p1, f1, p2, f2)


def _kuhn_tets():
    # the six tetrahedra of a cube around its main diagonal, one per
    # permutation p of the axes in itertools order: corners 0, e_p0,
    # e_p0 + e_p1 and (1, 1, 1)
    e = np.eye(3, dtype=int)
    return [[(0, 0, 0), e[p[0]], e[p[0]] + e[p[1]], (1, 1, 1)]
            for p in itertools.permutations(range(3))]


def _reference_march(phi1, phi2, w, res, sign):
    offsets = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    c1, c2, c3 = (np.stack([np.roll(a, (-dx, -dy, -dz), axis=(0, 1, 2)) for dx, dy, dz in offsets])
                  for a in (phi1, phi2, w))
    straddle = (c1.min(0) < 0) & (c1.max(0) > 0) & (c2.min(0) < 0) & (c2.max(0) > 0)
    segments = []
    for cell in np.argwhere(straddle):
        for tet in _kuhn_tets():
            cidx = [offsets.index(tuple(o)) for o in tet]
            corners = cell + np.array(tet)
            pos = corners.astype(float)
            ids = [int((x % res * res + y % res) * res + z % res) for x, y, z in corners]
            seg = _reference_tet_segment(
                pos, ids, *(c[cidx, cell[0], cell[1], cell[2]] for c in (c1, c2, c3)), sign)
            if seg is not None:
                segments.append(seg)
    return segments


def _march_inputs(h, target, res):
    """The Bloch planes, the two (t, level) pairs of the target's frame, the
    orientation sign and the unit target."""
    s = np.asarray(target, float) / np.linalg.norm(target)
    planes = np.moveaxis(model.bloch_grid(res, HopfParams(h)), -1, 0)
    return (planes, *_frame(s), s)


def _march(planes, frame, sign, s):
    """The march of one target on a (3, res, res, res) array of planes."""
    def copy(lo, hi, out):
        np.copyto(out, planes[:, lo:hi])

    (segments,) = _march_segments(copy, planes.shape[1], [(frame, sign, s)])
    return segments


def _dot(planes, t):
    # b . t term by term, as the march forms it; for a coordinate axis t
    # this equals the component plane up to the sign of a zero
    return planes[0] * t[0] + planes[1] * t[1] + planes[2] * t[2]


def _assert_same_segments(h, target, res):
    # the march compares b.t with each level slab by slab; the reference
    # marches phi = b.t - level and carries b.s on full-grid arrays
    planes, frame, sign, s = _march_inputs(h, target, res)
    points, faces = _march(planes, frame, sign, s)
    (t1, level1), (t2, level2) = frame
    want = _reference_march(_dot(planes, t1) - level1, _dot(planes, t2) - level2,
                            _dot(planes, s), res, sign)
    assert points.shape == (len(want), 2, 4) and faces.shape == (len(want), 2, 3)
    for p, f, (q1, g1, q2, g2) in zip(points, faces, want):
        assert np.array_equal(p[0], q1) and np.array_equal(p[1], q2)
        assert tuple(f[0].tolist()) == g1 and tuple(f[1].tolist()) == g2


@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([0.5, -0.5, 2.0, -2.0, 2.9, 0.0]),
    res=st.integers(16, 24),
    v=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)
def test_march_matches_scalar_reference(h, res, v):
    _assert_same_segments(h, v, res)


@pytest.mark.parametrize("h", [2.0, 0.0])
@pytest.mark.parametrize(
    "target", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
)
def test_march_matches_scalar_reference_on_axis_targets(h, target):
    # axis targets put both level sets on symmetry planes of the model
    _assert_same_segments(h, target, 16)


def _assert_march_allocates_less_than_one_float_grid(h, target):
    # slabs of sampled planes, of sign bytes and of b.t, and arrays over the
    # straddling cells: no Bloch grid, phi grid or other res^3 array of
    # floats, and on a caller's grid no copy of it
    res = 64
    planes, frame, sign, s = _march_inputs(h, target, res)
    for march in (lambda: _march(planes, frame, sign, s),
                  lambda: next(_march_segments(partial(model.bloch_grid, res, HopfParams(h)),
                                               res, [(frame, sign, s)]))):
        tracemalloc.start()
        try:
            points, _ = march()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) and peak < res**3 * np.dtype(float).itemsize


@pytest.mark.parametrize("h", [0.0, 2.0, 2.9])
def test_march_allocates_less_than_one_float_grid(h):
    _assert_march_allocates_less_than_one_float_grid(h, (0, 1, 0))


def test_march_allocates_less_than_one_float_grid_off_axis():
    # no frame vector of this target lies on an axis, so both b.t are formed
    # slab by slab
    ((t1, _), (t2, _)), _ = _frame(np.array([0.48, -0.6, 0.64]))
    assert np.count_nonzero(t1) > 1 and np.count_nonzero(t2) > 1
    _assert_march_allocates_less_than_one_float_grid(2.0, (0.48, -0.6, 0.64))


@pytest.mark.parametrize("res", [33, 48])
def test_slab_height_changes_nothing(monkeypatch, res):
    # slabs of 1 plane, of 5 (no divisor of res) and one slab of the whole
    # grid give the same segments and loops bit for bit, from the sampler and
    # from a caller's grid: the carried boundary plane and the wrap from plane
    # res - 1 to plane 0 join the slabs as the grid joins its cells
    targets = [np.array(t, float) for t in ((1, 0, 0), (0, -1, 0), (0.48, -0.6, 0.64))]
    marches = [(*_frame(s), s) for s in targets]

    def run(h):
        params = HopfParams(h)
        segments = list(_march_segments(partial(model.bloch_grid, res, params), res, marches))
        loops = preimage._preimages(partial(model.bloch_grid, res, params), res, targets)
        bloch = model.bloch_grid(res, params)
        return segments, loops, [preimage_contours(bloch, s) for s in targets]

    wrapped = False  # a segment in a cell between plane res - 1 and plane 0
    for h in (2.0, 0.0):
        want = run(h)
        assert sum(len(loops) for loops in want[1]) >= 3
        wrapped |= any((p[..., 0] > res - 1).any() for p, _ in want[0])
        for height in (1, 5, res, res + 7):
            monkeypatch.setattr(preimage, "_SLAB", height)
            segments, *loops = run(h)
            for (p, f), (q, g) in zip(segments, want[0]):
                assert np.array_equal(p.view(np.int64), q.view(np.int64))
                assert np.array_equal(f, g)
            for got, ref in zip(loops, want[1:]):
                assert [[c.vertices.tobytes() for c in ls] for ls in got] == \
                    [[c.vertices.tobytes() for c in ls] for ls in ref]
            monkeypatch.undo()
    assert wrapped


def _frame_vote(verts, s, params):
    """Terms of a per-loop orientation vote that does not use the march:
    each step of the loop against grad(S.e1') x grad(S.e2') at its start,
    from finite differences, for a tangent frame (e1', e2' = s x e1') at s."""
    w = np.zeros(3)
    w[int(np.argmin(np.abs(s)))] = 1.0
    e1p = w - np.dot(w, s) * s
    e1p /= np.linalg.norm(e1p)
    e2p = np.cross(s, e1p)
    jac = preimage._spin_jacobian(verts, params)
    t_ref = np.cross(np.einsum("mij,i->mj", jac, e1p), np.einsum("mij,i->mj", jac, e2p))
    delta = np.roll(verts, -1, axis=0) - verts
    delta = (delta + np.pi) % TWO_PI - np.pi
    return np.sum(delta * t_ref, axis=1)


@pytest.mark.parametrize("res", [32, 64])
@pytest.mark.parametrize("h", [2.9, 2.0, 0.5, -0.5, -2.0])
def test_loops_run_the_way_a_decisive_frame_vote_points(h, res):
    # the march orients each segment by the level sets' gradients; wherever
    # the loop's steps vote clearly (|sum| >= half the sum of |terms|), the
    # pullback of the tangent frame must agree with it
    params = HopfParams(h)
    rng = np.random.default_rng([res, int(10 * h) % 64])
    random = rng.normal(size=(6, 3))
    targets = np.vstack([np.eye(3), -np.eye(3), random / np.linalg.norm(random, axis=1)[:, None]])
    votes = []
    for s, loops in zip(targets, refined_preimage(params, targets, res)):
        votes += [_frame_vote(c.vertices, s, params) for c in loops]
    decisive = [v.sum() for v in votes if abs(v.sum()) >= 0.5 * np.abs(v).sum()]
    assert len(decisive) >= 0.9 * len(votes) and min(decisive) > 0


# faces 0-3 hold the corners of a square, face 4 a point off it
_FACES = np.array([(0, 1, 17), (1, 2, 18), (2, 3, 19), (3, 4, 20), (5, 6, 7)])
_CORNERS = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 2, 0]], float)
_SQUARE_CORNERS = _CORNERS[:4]


def _segments(ends):
    """(points, faces) arrays of segments given as (face index, face index)."""
    return _CORNERS[ends], _FACES[ends]


# the oriented square 0 -> 1 -> 2 -> 3 -> 0, its segments in scrambled order
_SCRAMBLED_SQUARE = [(2, 3), (0, 1), (3, 0), (1, 2)]


def test_chain_segments_walks_scrambled_segments_into_one_loop():
    # the walk starts at segment 0, enters each segment at its tail, where
    # its predecessor's head lies, and records the corner where it enters
    points, faces = _segments(_SCRAMBLED_SQUARE)
    (loop,) = _chain_segments(points, faces)
    assert np.array_equal(loop, _SQUARE_CORNERS[[2, 3, 0, 1]])
    assert _chain_segments(np.empty((0, 2, 3)), np.empty((0, 2, 3), int)) == []


@pytest.mark.parametrize("ends, face, count", [
    ([(2, 3), (0, 1), (1, 2)], (3, 4, 20), 1),  # the segment 3 -> 0 is missing
    ([(2, 3), (0, 1), (3, 0), (1, 2), (4, 1)], (1, 2, 18), 3),
])
def test_chain_segments_refuses_a_face_without_two_ends(ends, face, count):
    with pytest.raises(ResolutionTooCoarse, match=re.escape(
            f"face {face} bounds {count} curve segments; increase the marching resolution")):
        _chain_segments(*_segments(ends))


@pytest.mark.parametrize("ends, face, kind", [
    ([(2, 3), (1, 0), (3, 0), (1, 2)], (0, 1, 17), "heads"),  # 0 -> 1 reversed
    ([(2, 3), (0, 1), (0, 3), (1, 2)], (0, 1, 17), "tails"),  # 3 -> 0 reversed
])
def test_chain_segments_refuses_a_face_with_two_heads_or_two_tails(ends, face, kind):
    # a reversed segment leaves a face holding two heads and one holding two
    # tails; the first in face order is named
    with pytest.raises(ResolutionTooCoarse, match=re.escape(
            f"face {face} holds two segment {kind}; increase the marching resolution")):
        _chain_segments(*_segments(ends))


def test_chain_segments_with_grid_ids_beyond_res_128():
    # face ids of a res > 128 grid pass 2**21 and pair up as small ones do
    points, faces = _segments(_SCRAMBLED_SQUARE)
    (loop,) = _chain_segments(points, faces * 2**40 + 7)
    assert np.array_equal(loop, _SQUARE_CORNERS[[2, 3, 0, 1]])


def test_dedupe_measures_from_the_last_kept_vertex():
    # 0.6e-9 lies within tol of 0 and is dropped; 1.2e-9 lies within tol of
    # its input predecessor but not of 0, the vertex kept before it
    verts = np.array([[0.0, 0, 0], [0.6e-9, 0, 0], [1.2e-9, 0, 0]])
    assert np.array_equal(_dedupe(verts), verts[[0, 2]])


def test_dedupe_drops_closing_vertices_near_the_first():
    square = np.vstack([_SQUARE_CORNERS, [[0, 0, 0.9e-9], [0, 0, -0.95e-9]]])
    assert np.array_equal(_dedupe(square), _SQUARE_CORNERS)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from([0.0, 0.3e-9, -0.7e-9, 1e-3])] * 3),
                min_size=3, max_size=40))
def test_dedupe_leaves_no_cyclic_neighbours_within_tol(steps):
    verts = np.cumsum(np.array(steps), axis=0)
    out = _dedupe(verts)
    assert np.array_equal(out[0], verts[0])
    if len(out) > 1:
        rows = out.tolist()
        assert min(math.dist(a, b) for a, b in zip(rows, rows[1:] + rows[:1])) > 1e-9


def _counting_planes(monkeypatch):
    """Record every x-plane the sampler writes, in call order; each call
    must ask for a slab of planes into a buffer of the march, not a grid."""
    planes = []
    original = model.bloch_grid

    def counting(res, params, lo=0, hi=None, out=None):
        assert hi is not None and out is not None and hi - lo <= preimage._SLAB + 1
        planes.extend(range(lo, hi))
        return original(res, params, lo, hi, out)

    monkeypatch.setattr(model, "bloch_grid", counting)
    return planes


def test_bloch_grid_sampled_once_per_link_matrix(monkeypatch):
    # every plane once per call, for all targets, and none kept between calls
    bloch = model.bloch_grid(16, HopfParams(2.0))
    planes = _counting_planes(monkeypatch)
    targets = [(1, 0, 0), (0, 1, 0), (0, 0, -1)]
    first = link_matrix(HopfParams(2.0), targets, res=16)
    assert planes == list(range(16))
    second = link_matrix(HopfParams(2.0), targets, res=16)
    assert planes == list(range(16)) * 2
    assert first.to_dict() == second.to_dict() and first.values[0][1] == -1
    # a refused call samples every plane once too: 16 cells per axis do not
    # resolve the texture at h=2.9, where the marched loop of (0, 0, -1)
    # winds the torus and (1, 0, 0) has none, so the call ends in a typed error
    with pytest.raises(WindingLoops):
        link_matrix(HopfParams(2.9), targets, res=16)
    assert planes == list(range(16)) * 3
    # a caller's grid is only read
    bloch.flags.writeable = False
    assert [len(preimage_contours(bloch, t)) for t in targets] == first.loop_counts


def test_bloch_grid_component_planes_are_contiguous():
    bloch = model.bloch_grid(16, HopfParams(2.0))
    assert bloch.shape == (16, 16, 16, 3)
    assert all(bloch[..., e].flags.c_contiguous for e in range(3))
    # the (3, res^3) view of the planes is the buffer itself, and a range of
    # planes written into a slab buffer of the march is a view of that
    # buffer, equal bit for bit to those planes of the whole grid
    planes = np.moveaxis(bloch, -1, 0)
    assert planes.flags.c_contiguous
    assert np.shares_memory(planes.reshape(3, -1), bloch)
    out = np.empty((3, 6, 16, 16))
    slab = model.bloch_grid(16, HopfParams(2.0), 5, 9, out[:, 1:5])
    assert np.shares_memory(slab, out)
    assert np.array_equal(slab.view(np.int64), bloch[5:9].view(np.int64))
    bloch.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        bloch[..., 0][0, 0, 0] = 0.0


@pytest.mark.parametrize("res", [16, 24, 64])
def test_bloch_grid_equals_bloch_ground_on_the_meshgrid(res):
    grid = TWO_PI * np.arange(res) / res
    k = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    for h in (-3.5, -2.0, -0.5, 0.0, 0.5, 2.0, 2.9, 3.5):
        want = bloch_ground(k, HopfParams(h))
        got = model.bloch_grid(res, HopfParams(h))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bloch_grid_raises_gapless_point_with_its_k():
    # at h=-1 the gap closes at k = (0, 0, pi) and its permutations: the whole
    # grid, and each slab of planes holding one of them, names a closing k
    for lo, hi in ((0, 16), (0, 1), (8, 9), (5, 9), (8, 16)):
        with pytest.raises(GaplessPoint) as exc:
            model.bloch_grid(16, HopfParams(-1.0), lo, hi)
        assert np.linalg.norm(model.u_of_k(exc.value.k, HopfParams(-1.0))) < model.GAP_TOL
    assert model.bloch_grid(16, HopfParams(-1.0), 1, 8).shape == (7, 16, 16, 3)


def test_link_matrix_on_a_gapless_grid_raises_gapless_point():
    with pytest.raises(GaplessPoint) as exc:
        link_matrix(HopfParams(-1.0), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=16)
    assert np.linalg.norm(model.u_of_k(exc.value.k, HopfParams(-1.0))) < model.GAP_TOL


def test_preimage_res_validation(monkeypatch):
    with pytest.raises(ValueError, match=re.escape("res must be in [16, 512], got 8")):
        preimage_contours(np.zeros((8, 8, 8, 3)), (1, 0, 0))
    with pytest.raises(ValueError, match="unit vector"):
        preimage_contours(np.zeros((32, 32, 32, 3)), (1, 0, 2))
    # a grid of 513^3 points is refused from its shape alone (a view, no memory)
    with pytest.raises(ValueError, match=re.escape("res must be in [16, 512], got 513")):
        preimage_contours(np.broadcast_to(np.zeros(3), (513, 513, 513, 3)), (1, 0, 0))

    def no_grid(*args):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(model, "bloch_grid", no_grid)
    for refused in (link_matrix, refined_preimage):
        with pytest.raises(ValueError, match=re.escape("res must be in [16, 512], got 513")):
            refused(HopfParams(2.1), [(1, 0, 0), (0, 1, 0)], res=513)


@pytest.mark.parametrize("target, shape", [([1, 0, 0, 0], (4,)), ([[1, 0, 0]], (1, 3))])
def test_targets_that_are_not_3_vectors_are_refused_before_sampling(monkeypatch, target, shape):
    # a unit 4-vector used to pass the norm check, sample the whole grid and
    # end in a broadcasting error
    def no_grid(*args):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(model, "bloch_grid", no_grid)
    message = re.escape(f"spin target must be a 3-vector, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        refined_preimage(HopfParams(2.0), [(0, 1, 0), target], 16)
    with pytest.raises(ValueError, match=message):
        preimage_contours(np.zeros((16, 16, 16, 3)), target)
    with pytest.raises(ValueError, match=message):
        link_matrix(HopfParams(2.0), [(0, 1, 0), target], res=16)


@pytest.mark.parametrize("res", [64.0, 32.5, np.float64(32.0), "32"])
def test_preimage_contours_refuses_non_integer_res(res):
    # a float res used to end in a TypeError inside the marching; the march
    # now takes its res from the grid's shape, so a res given as a number
    # reaches it only through link_matrix, which refuses it before sampling
    with pytest.raises(ValueError, match=re.escape(f"res must be an integer, got {res!r}")):
        link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0)], res=res)


@pytest.mark.parametrize("shape", [(32, 16, 16, 3), (16, 16, 32, 3), (16, 16, 16), (16, 16, 16, 4),
                                   (16, 16, 16, 16, 3)])
def test_preimage_contours_refuses_grids_that_are_not_res_cubes(shape):
    # corner ids are formed modulo res on every axis, so a grid of another
    # shape would march wrong cells
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        preimage_contours(np.zeros(shape), (1, 0, 0))


@pytest.mark.parametrize("res", [32.5, 32.0])
def test_link_matrix_refuses_non_integer_res(res):
    with pytest.raises(ValueError, match=re.escape(f"res must be an integer, got {res!r}")):
        link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0)], res=res)


def test_numpy_integer_res_is_accepted():
    lm = link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0)], res=np.int64(32))
    assert lm.to_dict() == link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0)], res=32).to_dict()


@pytest.mark.parametrize("h, target", [(2.9, (1, 0, 0)), (0.0, (0, 1, 0)), (-2.0, (0, 0, 1))])
def test_preimage_contours_samples_each_vertex_array_once(monkeypatch, h, target):
    # the march samples no vertex; the Newton pass of refined_preimage takes
    # seven batches per loop, none of them twice
    batches = []
    original = model.bloch_ground

    def recording(k, params):
        k = np.asarray(k)
        batches.append((k.shape, k.tobytes()))
        return original(k, params)

    monkeypatch.setattr(model, "bloch_ground", recording)
    bloch = model.bloch_grid(32, HopfParams(h))
    assert preimage_contours(bloch, target) and not batches
    (loops,) = refined_preimage(HopfParams(h), [target], 32)
    assert loops and len(batches) >= 7 * len(loops)
    repeated = len(batches) - len(set(batches))
    assert repeated == 0


@pytest.mark.parametrize("target", [(np.nan, 0, 0), (0, np.inf, 0), (np.nan,) * 3])
def test_non_finite_targets_are_refused(target):
    # a NaN fails the unit-norm comparison too, so only a finiteness check
    # stops it from giving an empty preimage
    bloch = model.bloch_grid(16, HopfParams(2.0))
    with pytest.raises(ValueError, match="finite"):
        refined_preimage(HopfParams(2.0), [target], 16)
    with pytest.raises(ValueError, match="finite"):
        preimage_contours(bloch, target)
    with pytest.raises(ValueError, match="finite"):
        link_matrix(HopfParams(2.0), [target, (0, 1, 0)], res=16)
    f = sample_state_field(HopfParams(2.0), MeshSpec(4))
    with pytest.raises(ValueError, match="finite"):
        epsilon_neighborhood(f, target, 2.0)


# ---------------------------------------------------------------------------
# epsilon neighborhoods

def test_epsilon_neighborhood_all_sites_at_eps_2():
    f = sample_state_field(HopfParams(2.0), MeshSpec(6))
    sites = epsilon_neighborhood(f, (0, 0, 1), 2.0)
    assert len(sites) == 6**3


def test_epsilon_neighborhood_monotone_and_nonempty():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    for sign in (+1, -1):
        target = np.array([sign, sign, 0]) / np.sqrt(2)
        small = {s for s, _ in epsilon_neighborhood(f, target, 0.30)}
        large = {s for s, _ in epsilon_neighborhood(f, target, 0.35)}
        assert small and small <= large and len(large) > len(small)


def test_epsilon_neighborhood_empty_for_tiny_eps():
    f = sample_state_field(HopfParams(2.0), MeshSpec(10))
    target = np.array([0.3, -0.5, 0.8])
    target /= np.linalg.norm(target)
    assert epsilon_neighborhood(f, target, 1e-9) == []


def test_epsilon_neighborhood_validation():
    f = sample_state_field(HopfParams(2.0), MeshSpec(6))
    with pytest.raises(ValueError):
        epsilon_neighborhood(f, (0, 0, 1), 2.5)


# ---------------------------------------------------------------------------
# embedding

def test_embed_preserves_count_and_closure():
    p = HopfParams(2.9)
    ((c,),) = refined_preimage(p, [(1, 0, 0)], 32)
    r3 = embed_r3(c, p)
    assert len(r3) == len(c) and r3.coords == "R3"
    assert np.isfinite(r3.vertices).all()
    assert r3.chart in ("plus", "minus")


def test_embed_requires_t3():
    with pytest.raises(ValueError, match="expects a T3 polyline"):
        embed_r3(circle(), HopfParams(2.9))  # already R3


def test_embed_degenerate_two_vertex_closed_is_rejected():
    with pytest.raises(ValueError):
        Polyline([[0, 0, 0], [1, 1, 1]], "T3")


def test_embed_chart_exhausted_on_double_pole_curve():
    # at h=2 the S3 image of k=(0,0,0) is exactly one pole and k=(pi,pi,pi)
    # the other, so a curve through both defeats both charts
    p = HopfParams(2.0)
    c = Polyline([[0, 0, 0], [np.pi, np.pi, np.pi], [np.pi / 2, 0.1, 0.2]], "T3")
    with pytest.raises(ChartExhausted):
        embed_r3(c, p)


def test_embed_explicit_chart_checks_its_own_pole():
    # at h=2 the S3 image of k=0 is the plus chart's pole e4=-1, and that of
    # k=(pi,pi,pi) the minus chart's pole e4=+1; the other chart maps each
    # to the origin
    p = HopfParams(2.0)
    near = np.array([[0, 0, 0], [0.3, 0.1, 0.2], [0.1, 0.4, 0.2]])
    c = Polyline(near, "T3")
    assert embed_r3(c, p).chart == "minus"
    r3 = embed_r3(c, p, chart="minus")
    assert r3.chart == "minus"
    np.testing.assert_allclose(r3.vertices[0], [0, 0, 0], atol=1e-12)
    with pytest.raises(ChartExhausted, match="of the plus chart pole"):
        embed_r3(c, p, chart="plus")
    with pytest.raises(ValueError, match="unknown chart"):
        embed_r3(c, p, chart="north")
    c = Polyline(near + np.pi, "T3")
    assert embed_r3(c, p).chart == "plus"
    np.testing.assert_allclose(embed_r3(c, p, chart="plus").vertices[0], [0, 0, 0], atol=1e-12)
    with pytest.raises(ChartExhausted, match="of the minus chart pole"):
        embed_r3(c, p, chart="minus")


@pytest.mark.parametrize("h, k, plus, minus", [
    # map_g(k) = (0, 0, 0.6, -0.8): minus negates the third coordinate
    (-2 / 3, (0, 0, np.pi / 2), (0, 0, 3), (0, 0, -1 / 3)),
    # map_g(k) = (1, 0, 0, 0), on the equator of both charts
    (0.0, (np.pi / 2, 0, np.pi), (1, 0, 0), (1, 0, 0)),
])
def test_embed_charts_on_known_s3_points(h, k, plus, minus):
    p = HopfParams(h)
    c = Polyline([k, np.add(k, (0.3, 0.1, 0.2)), np.add(k, (0.1, 0.4, 0.2))], "T3")
    a, b = embed_r3(c, p, chart="plus"), embed_r3(c, p, chart="minus")
    np.testing.assert_allclose(a.vertices[0], plus, atol=1e-12)
    np.testing.assert_allclose(b.vertices[0], minus, atol=1e-12)
    # the charts differ by an inversion in the unit sphere and a reflection
    # of z, which together keep the orientation
    inverted = a.vertices * (1, 1, -1) / (a.vertices**2).sum(axis=1)[:, None]
    np.testing.assert_allclose(b.vertices, inverted, rtol=1e-12)


# ---------------------------------------------------------------------------
# linking numbers

def test_canonical_hopf_link():
    a, b = hopf_link_pair()
    lk, residual, separation = gauss_linking_number(a, b)
    assert abs(lk) == 1
    assert abs(residual) < 1e-9
    assert 0 < separation < 1


def test_side_by_side_circles_unlinked():
    a = circle()
    b = circle(center=(3, 0, 0))
    assert gauss_linking_number(a, b).value == 0


def test_linking_against_numerical_gauss_integral():
    a = circle(m=400)
    b = circle(center=(1, 0, 0), normal="y", m=400)
    pa, pb = a.vertices, b.vertices
    da = np.roll(pa, -1, axis=0) - pa
    db = np.roll(pb, -1, axis=0) - pb
    r = (pa + da / 2)[:, None, :] - (pb + db / 2)[None, :, :]
    num = np.einsum("ijk,ijk->ij", r, np.cross(da[:, None, :], db[None, :, :]))
    brute = (num / np.linalg.norm(r, axis=-1) ** 3).sum() / (4 * np.pi)
    assert gauss_linking_sum(a, b) == pytest.approx(brute, abs=1e-3)


def test_linking_invariances():
    a, b = hopf_link_pair()
    base = gauss_linking_number(a, b).value
    # subdivision
    assert gauss_linking_number(subdivided(a), subdivided(b)).value == base
    # rigid rotation
    th = 0.7
    rot = np.array(
        [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]]
    )
    ra = Polyline(a.vertices @ rot.T, "R3")
    rb = Polyline(b.vertices @ rot.T, "R3")
    assert gauss_linking_number(ra, rb).value == base
    # double reversal keeps the sign, single reversal flips it
    assert gauss_linking_number(reverse(a), reverse(b)).value == base
    assert gauss_linking_number(reverse(a), b).value == -base


def test_linking_rejects_bad_inputs():
    a, _ = hopf_link_pair()
    with pytest.raises(CurvesTooClose):
        gauss_linking_number(a, Polyline(a.vertices + 1e-5, "R3"))
    t3 = Polyline([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "T3")
    with pytest.raises(ValueError):
        gauss_linking_number(a, t3)


def test_unwrap_t3_windings():
    # a straight line winding once around x closes only through the boundary
    t = np.linspace(0, TWO_PI, 40, endpoint=False)
    winding = Polyline(np.stack([t, 0.5 + 0 * t, 1 + 0 * t], axis=1), "T3")
    _, w = unwrap_t3(winding)
    assert w.tolist() == [1, 0, 0]
    small = Polyline(
        np.stack([0.3 * np.cos(t) + 1, 0.3 * np.sin(t) + 1, 1 + 0 * t], axis=1), "T3"
    )
    _, w = unwrap_t3(small)
    assert w.tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        linking_number_t3(winding, small)


def test_linking_t3_refuses_winding_loops_with_a_typed_error():
    t = np.linspace(0, TWO_PI, 40, endpoint=False)
    winding = Polyline(np.stack([1 + 0 * t, 0.5 + 0 * t, t], axis=1), "T3")
    small = Polyline(
        np.stack([0.3 * np.cos(t) + 1, 0.3 * np.sin(t) + 1, 1 + 0 * t], axis=1), "T3"
    )
    with pytest.raises(WindingLoops) as exc:
        linking_number_t3(small, winding)
    assert exc.value.windings == ([0, 0, 0], [0, 0, 1])


def _brute_image_translates(lo_a, hi_a, lo_b, hi_b, reach=6):
    # every translate in a wide cube, kept unless a coordinate plane
    # separates the shifted box b from box a
    out = []
    for tx in range(-reach, reach + 1):
        for ty in range(-reach, reach + 1):
            for tz in range(-reach, reach + 1):
                shift = TWO_PI * np.array([tx, ty, tz], float)
                if not (np.any(hi_b + shift < lo_a) or np.any(lo_b + shift > hi_a)):
                    out.append((tx, ty, tz))
    return out


def _boxes(seed):
    rng = np.random.default_rng(seed)
    lo_a, lo_b = rng.uniform(-3, 9, 3), rng.uniform(-3, 9, 3)
    return lo_a, lo_a + rng.uniform(0, 9, 3), lo_b, lo_b + rng.uniform(0, 9, 3)


def _touching_boxes(seed, ulps):
    # b + 2*pi*t ends where a starts on x (t = 1) and starts where a ends on y
    # (t = -2): exactly for ulps = 0, else that many ulps apart
    lo_a, hi_a, lo_b, hi_b = _boxes(seed)
    lo_a[0] = hi_b[0] + TWO_PI * 1
    hi_a[1] = lo_b[1] + TWO_PI * -2
    for _ in range(abs(ulps)):
        lo_a[0] = np.nextafter(lo_a[0], np.sign(ulps) * np.inf)
        hi_a[1] = np.nextafter(hi_a[1], -np.sign(ulps) * np.inf)
    hi_a[0], lo_a[1] = lo_a[0] + 1.0, hi_a[1] - 1.0
    return lo_a, hi_a, lo_b, hi_b


@pytest.mark.parametrize("ulps", [None, 0, 1, -1])
@pytest.mark.parametrize("seed", range(10))
def test_image_translates_match_a_brute_force_scan(ulps, seed):
    lo_a, hi_a, lo_b, hi_b = _boxes(seed) if ulps is None else _touching_boxes(seed, ulps)
    assert list(_image_translates(lo_a, hi_a, lo_b, hi_b)) == _brute_image_translates(
        lo_a, hi_a, lo_b, hi_b)


def test_image_translates_of_a_disjoint_box():
    # box b lies between two images of a on z: no translate meets it
    lo_a, hi_a = np.zeros(3), np.array([1.0, 1.0, 1.0])
    lo_b, hi_b = np.array([0.0, 0.0, 2.0]), np.array([1.0, 1.0, 3.0])
    assert list(_image_translates(lo_a, hi_a, lo_b, hi_b)) == []
    assert _brute_image_translates(lo_a, hi_a, lo_b, hi_b) == []


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


def _four_chord_gauss_sum(a, b):
    # the Gauss sum with each quadrilateral corner's chords normalized apart
    p1, q1 = a.vertices, b.vertices
    p2, q2 = np.roll(p1, -1, axis=0), np.roll(q1, -1, axis=0)

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    c1 = unit(q1[None, :, :] - p1[:, None, :])
    c2 = unit(q1[None, :, :] - p2[:, None, :])
    c3 = unit(q2[None, :, :] - p2[:, None, :])
    c4 = unit(q2[None, :, :] - p1[:, None, :])
    return float(_spherical_quad_area(c1, c2, c3, c4).sum()) / (4.0 * np.pi)


@pytest.mark.parametrize("seed", range(6))
def test_gauss_sum_matches_four_chord_formula(seed):
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(3, 40, size=2)
    a = Polyline(np.cumsum(rng.normal(size=(na, 3)), axis=0), "R3")
    b = Polyline(np.cumsum(rng.normal(size=(nb, 3)), axis=0) + rng.normal(size=3), "R3")
    assert abs(gauss_linking_sum(a, b) - _four_chord_gauss_sum(a, b)) <= 1e-12


def _random_closed_pair(seed, na, nb):
    rng = np.random.default_rng(seed)
    a = Polyline(np.cumsum(rng.normal(size=(na, 3)), axis=0), "R3")
    b = Polyline(np.cumsum(rng.normal(size=(nb, 3)), axis=0) + rng.normal(size=3), "R3")
    return a, b


# 3 to 200 vertices puts up to four _GAUSS_BLOCK blocks on each curve, so the
# random walks mix block pairs summed as quadrilaterals and as separated pairs
_polyline_pairs = dict(
    seed=st.integers(0, 2**32 - 1), na=st.integers(3, 200), nb=st.integers(3, 200)
)


@settings(max_examples=40, deadline=None)
@given(**_polyline_pairs)
def test_fused_gauss_sum_matches_four_chord_formula(seed, na, nb):
    a, b = _random_closed_pair(seed, na, nb)
    assert abs(gauss_linking_sum(a, b) - _four_chord_gauss_sum(a, b)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(scale=st.sampled_from([0.0, 0.5, 1.0, "next", 2.0]), **_polyline_pairs)
def test_curves_too_close_exactly_below_tol_sep(seed, na, nb, scale):
    a, b = _random_closed_pair(seed, na, nb)
    brute = np.sqrt(((a.vertices[:, None, :] - b.vertices[None, :, :]) ** 2).sum(-1)).min()
    tol = np.nextafter(brute, np.inf) if scale == "next" else scale * brute
    if brute < tol:
        message = f"curves approach to {brute:.2e} < tol_sep={tol:g}"
        with pytest.raises(CurvesTooClose, match=re.escape(message)):
            gauss_linking_number(a, b, tol_sep=tol)
    else:
        assert gauss_linking_number(a, b, tol_sep=tol).separation == brute


def _torus_knot(p, q, m, big=2.0, small=0.8):
    t = np.linspace(0, TWO_PI, m, endpoint=False)
    r = big + small * np.cos(q * t)
    return np.stack([r * np.cos(p * t), r * np.sin(p * t), small * np.sin(q * t)], axis=1)


def _ring(m, radius=1.0, center=(0, 0, 0), normal="z"):
    return circle(radius, center, normal, m).vertices


# long smooth closed curves, each of at least two _GAUSS_BLOCK blocks, and
# their linking numbers
_SMOOTH_PAIRS = {
    "hopf link": (_ring(150), _ring(170, center=(1, 0, 0), normal="y"), 1),
    "trefoil and its core": (_torus_knot(2, 3, 300), _ring(140, radius=2.0), 3),
    "unlinked rings": (_ring(160), _ring(130, center=(2.5, 0, 0), normal="y"), 0),
    "distant rings": (_ring(140), _ring(180, center=(0, 5, 0), normal="y"), 0),
}


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def test_separated_block_pairs_match_four_chord_formula(monkeypatch):
    normals, quad_calls = set(), []
    fan_terms, quad_sum = preimage._fan_terms, preimage._quad_sum

    def spy_fan(c, axis, sign):
        normals.add((axis, sign))
        return fan_terms(c, axis, sign)

    def spy_quad(*args):
        quad_calls.append(args[0].shape)
        return quad_sum(*args)

    monkeypatch.setattr(preimage, "_fan_terms", spy_fan)
    monkeypatch.setattr(preimage, "_quad_sum", spy_quad)
    rng = np.random.default_rng(17)
    for name, (va, vb, lk) in _SMOOTH_PAIRS.items():
        assert min(len(va), len(vb)) > _GAUSS_BLOCK
        for _ in range(8):
            rot = _rotation(rng)
            shift = rng.normal(size=3)
            a = Polyline(va @ rot.T + shift, "R3")
            b = Polyline(vb @ rot.T + shift, "R3")
            quad_calls.clear()
            raw = gauss_linking_sum(a, b)
            assert abs(raw - _four_chord_gauss_sum(a, b)) <= 1e-12, name
            assert abs(round(raw)) == lk, name
            brute = np.sqrt(((a.vertices[:, None, :] - b.vertices[None, :, :]) ** 2).sum(-1)).min()
            assert raw.separation == brute, name
            if name == "distant rings":
                assert quad_calls == []  # every block pair is separated
    # random rotations reach both hemispheres of every axis
    assert normals == {(k, s) for k in range(3) for s in (1, -1)}


def test_curves_sharing_a_vertex_are_too_close_at_any_tol_sep():
    square = Polyline([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "R3")
    triangle = Polyline([[1, 0, 0], [2, 0, 1], [2, 0, -1]], "R3")
    for tol_sep in (0.0, -1.0, preimage.TOL_SEP):
        with pytest.raises(CurvesTooClose):
            gauss_linking_number(square, triangle, tol_sep=tol_sep)
        with pytest.raises(CurvesTooClose):
            gauss_linking_sum(triangle, square, tol_sep)


@pytest.mark.parametrize("chart", ["plus", "minus"])
def test_linking_t3_matches_r3_route_in_single_cover_phase(chart):
    p = HopfParams(2.9)
    # the marched loops, as link_matrix links them
    bloch = model.bloch_grid(48, p)
    (a,) = preimage_contours(bloch, (1, 0, 0))
    (b,) = preimage_contours(bloch, (0, 1, 0))
    t3 = linking_number_t3(a, b)
    r3 = gauss_linking_number(embed_r3(a, p, chart=chart), embed_r3(b, p, chart=chart))
    assert t3.value == r3.value == -1
    assert abs(t3.residual) < 1e-6


# ---------------------------------------------------------------------------
# link matrices across the phase transition

def test_link_matrix_h29():
    lm = link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=48)
    assert lm.absent == []
    assert lm.loop_counts == [1, 1, 1]
    offdiag = [lm.values[i][j] for i in range(3) for j in range(3) if i != j]
    assert all(abs(v) == 1 for v in offdiag)
    assert len(set(offdiag)) == 1  # signs agree within one phase
    assert lm.values[0][0] is None


def test_link_matrix_h31_unlinked_and_absent():
    lm = link_matrix(HopfParams(3.1), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=48)
    assert lm.absent == [2]
    assert lm.values[0][1] == 0 and lm.values[1][0] == 0
    assert lm.values[0][2] is None and lm.values[2][1] is None
    lone = link_matrix(HopfParams(3.1), [(1, 0, 0), (0, 0, -1)], res=48)
    assert lone.loop_counts == [1, 0]
    assert lone.min_separation_cells is None and lone.max_residual is None
    empty = link_matrix(HopfParams(3.1), [(0, 0, -1), (0.6, 0, -0.8)], res=32)
    assert empty.absent == [0, 1] and empty.values == [[None, None], [None, None]]


def test_link_matrix_at_res_160_keeps_near_zero_length_segments():
    # at res=160 grid vertex (60, 134, 106) lies on the (0, +-1, 0) preimages,
    # so the segments of the tetrahedra around it are about 5e-13 cells long;
    # each still joins two faces that neighbouring tetrahedra share
    lm = link_matrix(HopfParams(0.0), [(0, 1, 0), (0, -1, 0)], res=160)
    assert lm.loop_counts == [2, 2]
    assert lm.values[0][1] == lm.values[1][0] == 2


def test_link_matrix_h0_total_linking_two():
    lm = link_matrix(HopfParams(0.0), [(1, 0, 0), (0, 1, 0)], res=48)
    assert lm.absent == []
    assert all(count == 2 for count in lm.loop_counts)
    assert abs(lm.values[0][1]) == 2
    assert lm.values[0][1] == lm.values[1][0]
    d = lm.to_dict()
    assert d["linking"][0][1] == lm.values[0][1]
    assert d["loop_counts"] == [2, 2]
    # the margins are the extremes over the four loop pairs
    pairs = [linking_number_t3(a, b) for a in lm.loops[0] for b in lm.loops[1]]
    assert d["min_separation_cells"] == min(lk.separation for lk in pairs) * 48 / TWO_PI
    assert d["max_residual"] == max(abs(lk.residual) for lk in pairs) < 1e-6
    # the loops linked are the marched ones, with no Newton pass
    assert set(d) == {"targets", "linking", "absent", "loop_counts",
                      "min_separation_cells", "max_residual"}
    bloch = model.bloch_grid(48, HopfParams(0.0))
    for t, loops in zip(lm.targets, lm.loops):
        marched = preimage_contours(bloch, t)
        assert len(loops) == len(marched) and all(np.array_equal(a.vertices, b.vertices) for a, b in zip(loops, marched))


# ---------------------------------------------------------------------------
# the line through s: frames, sides and consistency


@pytest.mark.parametrize("target", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                                    (0, 0, -1)])
def test_axis_targets_march_the_two_other_component_planes(target):
    # the frame of an axis target is the next two axes in cyclic order and
    # its sign that of the target, and b.t equals those component planes (up
    # to the sign of a zero): the march before the frame, bit for bit
    s = np.array(target, float)
    axis = int(np.argmax(np.abs(s)))
    ((t1, level1), (t2, level2)), sign = _frame(s)
    assert (level1, level2) == _LEVEL_NUDGE
    assert np.array_equal(t1, np.eye(3)[(axis + 1) % 3])
    assert np.array_equal(t2, np.eye(3)[(axis + 2) % 3])
    assert sign == s[axis]
    planes = np.random.default_rng(7).normal(size=(3, 64))
    planes[:, ::5] = 0.0
    planes[:, 1::7] = -0.0
    for t, e in ((t1, (axis + 1) % 3), (t2, (axis + 2) % 3)):
        assert np.array_equal(preimage._along(planes, t), planes[e])


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1))
def test_frame_is_an_oriented_orthonormal_frame_of_s_perp(v):
    s = np.asarray(v) / np.linalg.norm(v)
    ((t1, _), (t2, _)), sign = _frame(s)
    frame = np.array([t1, t2, s])
    assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
    assert np.allclose(sign * np.cross(t1, t2), s, atol=1e-12)


def _seeded_pairs():
    """The seeded sweep of random target pairs: default_rng(0), 8 pairs per h."""
    rng = np.random.default_rng(0)
    for h in (2.9, 2.0, 1.2, 0.5, -0.5, -2.0, -2.9):
        for _ in range(8):
            pair = rng.normal(size=(2, 3))
            yield h, pair / np.linalg.norm(pair, axis=1)[:, None]


def _assert_right_or_refused(h, targets, res):
    """lk = -chi_inf, or a typed refusal; never another integer, and never
    an absent target where chi_inf != 0."""
    want = -chi_infinity(h)
    try:
        lm = link_matrix(HopfParams(h), targets, res=res)
    except HopfError:
        return None
    assert lm.absent == [] or want == 0, (h, res, targets, lm.absent)
    assert lm.values[0][1] == want, (h, res, targets, lm.values)
    return lm


def test_seeded_random_pairs_link_right_or_are_refused():
    # the level sets of the two components other than the dominant one joined
    # the preimages of s and of its mirror here: 9 wrong integers and 6
    # absent targets over these 112 inputs
    answered = 0
    for h, pair in _seeded_pairs():
        for res in (32, 64):
            answered += _assert_right_or_refused(h, pair, res) is not None
    assert answered >= 56  # half the inputs; the rest wind the torus (ROADMAP item 4)


def test_marched_loops_stay_on_the_target_side():
    # b.s > 0 at a loop's first vertex keeps it; every vertex of every kept
    # loop of the seeded targets then has S(k).s > 0.38 at res 32, where the
    # corner vectors of a cell spread widest (0.89 at res 64)
    pairs = list(_seeded_pairs())
    for h in {h for h, _ in pairs}:
        bloch = model.bloch_grid(32, HopfParams(h))
        for s in np.vstack([pair for g, pair in pairs if g == h]):
            for c in preimage_contours(bloch, s):
                assert (bloch_ground(c.vertices, HopfParams(h)) @ s).min() > 0.38


@settings(max_examples=10, deadline=None)
@given(
    h=st.sampled_from([0.5, -0.5, 1.2, -1.2, 2.0, -2.0, 2.9, -2.9]),
    res=st.sampled_from([32, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_unit_targets_link_right_or_are_refused(h, res, seed):
    # |h| >= 2.95 at res 16 and |h| = 2.99 at res 32 stay out: there the
    # piecewise-linear map is in the trivial class (ROADMAP item 14's margin)
    pair = np.random.default_rng(seed).normal(size=(2, 3))
    _assert_right_or_refused(h, pair / np.linalg.norm(pair, axis=1)[:, None], res)


def test_link_matrix_makes_no_model_call_after_sampling(monkeypatch):
    def no_call(*args):
        raise AssertionError("the model was called")

    planes = _counting_planes(monkeypatch)
    monkeypatch.setattr(model, "bloch_ground", no_call)
    monkeypatch.setattr(model, "u_of_k", no_call)
    lm = link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=32)
    assert lm.values[0][1] == lm.values[0][2] == lm.values[1][2] == -1
    assert planes == list(range(32))
    lm = link_matrix(HopfParams(0.0), [(1, 0, 0), (0, 1, 0)], res=48)
    assert lm.values[0][1] == 2
    assert planes == list(range(32)) + list(range(48))


def test_link_matrix_at_res_256_stays_under_64_mb():
    # near the transition the texture needs a fine grid (res 32 misses it at
    # h = 2.99), and the march holds slabs of planes, never the 400 MB grid
    rng = np.random.default_rng(0)
    pairs = rng.normal(size=(2, 2, 3))
    inputs = [(h, [(1, 0, 0), (0, 1, 0), (0, 0, -1)]) for h in (2.99, -2.99)]
    inputs += [(2.99, pair / np.linalg.norm(pair, axis=1)[:, None]) for pair in pairs]
    answered = 0
    for h, targets in inputs:
        tracemalloc.start()
        try:
            answered += _assert_right_or_refused(h, targets, 256) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, (h, peak)
    assert answered >= 2


_TARGETS3 = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]


@pytest.mark.parametrize("values, absent", [
    ([[None, -1, -1], [-1, None, 0], [-1, 0, None]], []),  # two present entries differ
    ([[None, 2, -2], [2, None, 2], [-2, 2, None]], []),
    ([[None, -1, None], [-1, None, None], [None, None, None]], [2]),  # absent, lk != 0
])
def test_inconsistent_link_matrices_are_refused(values, absent):
    with pytest.raises(InconsistentLinks, match="inconsistent"):
        LinkMatrix(_TARGETS3, values, absent)


@pytest.mark.parametrize("values, absent", [
    ([[None, -1, -1], [-1, None, -1], [-1, -1, None]], []),
    ([[None, 0, None], [0, None, None], [None, None, None]], [2]),  # the trivial phase
    ([[None, None, None], [None, None, None], [None, None, None]], [0, 1, 2]),
])
def test_consistent_link_matrices_are_kept(values, absent):
    assert LinkMatrix(_TARGETS3, values, absent).values == values

import math
import re

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
    NotClosed,
    ResolutionTooCoarse,
    WindingLoops,
)
from hopfsim.model import HopfParams, bloch_ground
from hopfsim.preimage import (
    _LEVEL_NUDGE,
    Polyline,
    _bloch_grid,
    _chain_segments,
    _dedupe,
    _image_translates,
    _march_segments,
    _spherical_quad_area,
    embed_r3,
    epsilon_neighborhood,
    gauss_linking_number,
    gauss_linking_sum,
    link_matrix,
    linking_number,
    linking_number_t3,
    polyline_from_dict,
    polyline_to_dict,
    preimage_contours,
    unwrap_t3,
)

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


# ---------------------------------------------------------------------------
# polyline container

def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(np.zeros((2, 3)), "R3", closed=True)
    with pytest.raises(ValueError):
        Polyline([[0, 0, 0], [0, 0, 0], [1, 1, 1]], "R3")
    with pytest.raises(ValueError):
        Polyline(np.zeros((4, 2)), "R3")
    c = Polyline([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "T3")
    assert len(c) == 3 and c.closed


def test_polyline_t3_reduced_mod_2pi():
    c = Polyline([[TWO_PI + 0.1, 0.2, 0.3], [1, 1, 1], [2, 2, 2]], "T3")
    assert c.vertices.max() < TWO_PI


def test_polyline_json_roundtrip():
    a = circle(m=16)
    a.target = (1.0, 0.0, 0.0)
    a.h = 2.9
    b = polyline_from_dict(polyline_to_dict(a))
    assert np.array_equal(a.vertices, b.vertices)
    assert b.coords == "R3" and b.closed and b.target == (1.0, 0.0, 0.0) and b.h == 2.9


def test_subdivided_preserves_shape():
    a = circle(m=20)
    s = a.subdivided()
    assert len(s) == 40
    np.testing.assert_array_equal(s.vertices[0::2], a.vertices)


# ---------------------------------------------------------------------------
# contour extraction

def test_preimage_single_loops_at_h29():
    p = HopfParams(2.9)
    for target in ((1, 0, 0), (0, 1, 0), (0, 0, -1)):
        loops = preimage_contours(p, target, res=64)
        assert len(loops) == 1
        c = loops[0]
        assert c.closed and c.coords == "T3" and len(c) >= 3
        dev = np.linalg.norm(
            bloch_ground(c.vertices, p) - np.asarray(target, float), axis=1
        )
        assert dev.max() <= 0.05  # curve_tol after one refinement pass


def test_preimage_vanishes_at_h31():
    assert preimage_contours(HopfParams(3.1), (0, 0, -1), res=64) == []


def test_preimage_diagonal_target():
    p = HopfParams(2.0)
    loops = preimage_contours(p, np.array([-1, -1, 0]) / np.sqrt(2), res=64)
    assert len(loops) == 1
    dev = np.linalg.norm(
        bloch_ground(loops[0].vertices, p) - np.array([-1, -1, 0]) / np.sqrt(2), axis=1
    )
    assert dev.max() <= 0.05


def test_preimage_closure_mod_2pi():
    p = HopfParams(2.9)
    (c,) = preimage_contours(p, (1, 0, 0), res=32)
    gap = c.vertices[0] - c.vertices[-1]
    gap = (gap + np.pi) % TWO_PI - np.pi
    cell = TWO_PI / 32 * np.sqrt(3)
    assert np.linalg.norm(gap) <= cell


def _reference_tet_segment(pos, ids, f, g):
    # scalar marching of one tetrahedron: cut the edges {f = 0} crosses, in
    # cycle order around the cut polygon, then join the polygon's two
    # crossings of {g = 0}
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
    return (p1, f1, p2, f2)


def _reference_march(phi1, phi2, res):
    offsets = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    c1 = np.stack([np.roll(phi1, (-dx, -dy, -dz), axis=(0, 1, 2)) for dx, dy, dz in offsets])
    c2 = np.stack([np.roll(phi2, (-dx, -dy, -dz), axis=(0, 1, 2)) for dx, dy, dz in offsets])
    straddle = (c1.min(0) < 0) & (c1.max(0) > 0) & (c2.min(0) < 0) & (c2.max(0) > 0)
    segments = []
    for cell in np.argwhere(straddle):
        for tet in preimage._KUHN_TETS:
            cidx = [offsets.index(o) for o in tet]
            corners = cell + np.array(tet)
            pos = corners.astype(float)
            ids = [int((x % res * res + y % res) * res + z % res) for x, y, z in corners]
            seg = _reference_tet_segment(
                pos, ids, c1[cidx, cell[0], cell[1], cell[2]], c2[cidx, cell[0], cell[1], cell[2]]
            )
            if seg is not None:
                segments.append(seg)
    return segments


def _level_sets(h, target, res):
    s = np.asarray(target, float) / np.linalg.norm(target)
    axis = int(np.argmax(np.abs(s)))
    e1, e2 = (axis + 1) % 3, (axis + 2) % 3
    bloch = _bloch_grid(HopfParams(h), res)
    return bloch[..., e1] - (s[e1] + _LEVEL_NUDGE[0]), bloch[..., e2] - (s[e2] + _LEVEL_NUDGE[1])


def _assert_same_segments(h, target, res):
    phi1, phi2 = _level_sets(h, target, res)
    points, faces = _march_segments(phi1, phi2, res)
    want = _reference_march(phi1, phi2, res)
    assert points.shape == faces.shape == (len(want), 2, 3)
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


# faces 0-3 hold the corners of a square, face 4 a point off it
_FACES = np.array([(0, 1, 17), (1, 2, 18), (2, 3, 19), (3, 4, 20), (5, 6, 7)])
_CORNERS = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 2, 0]], float)
_SQUARE_CORNERS = _CORNERS[:4]


def _segments(ends):
    """(points, faces) arrays of segments given as (face index, face index)."""
    return _CORNERS[ends], _FACES[ends]


def test_chain_segments_walks_scrambled_segments_into_one_loop():
    # segments in scrambled order, two of them stored end-first: the walk
    # starts at segment 0, enters each segment at the end its predecessor
    # left through, and records the corner where it enters
    points, faces = _segments([(2, 3), (1, 0), (3, 0), (2, 1)])
    (loop,) = _chain_segments(points, faces)
    assert np.array_equal(loop, _SQUARE_CORNERS[[2, 3, 0, 1]])
    assert _chain_segments(np.empty((0, 2, 3)), np.empty((0, 2, 3), int)) == []


@pytest.mark.parametrize("ends, face, count", [
    ([(2, 3), (1, 0), (2, 1)], (3, 4, 20), 1),  # the segment 3 -> 0 is missing
    ([(2, 3), (1, 0), (3, 0), (2, 1), (4, 1)], (1, 2, 18), 3),
])
def test_chain_segments_refuses_a_face_without_two_ends(ends, face, count):
    with pytest.raises(ResolutionTooCoarse, match=re.escape(
            f"face {face} bounds {count} curve segments; increase the marching resolution")):
        _chain_segments(*_segments(ends))


def test_chain_segments_with_grid_ids_beyond_res_128():
    # face ids of a res > 128 grid pass 2**21 and pair up as small ones do
    points, faces = _segments([(2, 3), (1, 0), (3, 0), (2, 1)])
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


def test_bloch_grid_sampled_once_per_link_matrix(monkeypatch):
    grids = []
    original = model.bloch_grid

    def counting(res, params):
        out = original(res, params)
        grids.append(out.shape)
        return out

    monkeypatch.setattr(model, "bloch_grid", counting)
    _bloch_grid.cache_clear()
    link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=16)
    assert grids == [(16, 16, 16, 3)]
    assert not _bloch_grid(HopfParams(2.9), 16).flags.writeable


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
    with pytest.raises(GaplessPoint) as exc:
        model.bloch_grid(16, HopfParams(-1.0))
    assert np.linalg.norm(model.u_of_k(exc.value.k, HopfParams(-1.0))) < model.GAP_TOL


def test_preimage_res_validation(monkeypatch):
    with pytest.raises(ValueError):
        preimage_contours(HopfParams(2.9), (1, 0, 0), res=8)
    with pytest.raises(ValueError):
        preimage_contours(HopfParams(2.9), (1, 0, 2), res=32)

    def no_grid(*args):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(model, "bloch_grid", no_grid)
    with pytest.raises(ValueError, match=re.escape("res must be in [16, 256], got 257")):
        preimage_contours(HopfParams(2.1), (1, 0, 0), res=257)


@pytest.mark.parametrize("target", [(np.nan, 0, 0), (0, np.inf, 0), (np.nan,) * 3])
def test_non_finite_targets_are_refused(target):
    # a NaN fails the unit-norm comparison too, so only a finiteness check
    # stops it from giving an empty preimage
    with pytest.raises(ValueError, match="finite"):
        preimage_contours(HopfParams(2.0), target, res=16)
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
    (c,) = preimage_contours(p, (1, 0, 0), res=32)
    r3 = embed_r3(c, p)
    assert len(r3) == len(c) and r3.closed and r3.coords == "R3"
    assert np.isfinite(r3.vertices).all()
    assert r3.chart in ("plus", "minus")


def test_embed_requires_closed_t3():
    p = HopfParams(2.9)
    open_line = Polyline([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], "T3", closed=False)
    with pytest.raises(NotClosed):
        embed_r3(open_line, p)
    with pytest.raises(ValueError):
        embed_r3(circle(), p)  # already R3


def test_embed_degenerate_two_vertex_closed_is_rejected():
    with pytest.raises(ValueError):
        Polyline([[0, 0, 0], [1, 1, 1]], "T3", closed=True)


def test_embed_chart_exhausted_on_double_pole_curve():
    # at h=2 the S3 image of k=(0,0,0) is exactly one pole and k=(pi,pi,pi)
    # the other, so a curve through both defeats both charts
    p = HopfParams(2.0)
    c = Polyline(
        [[0, 0, 0], [np.pi, np.pi, np.pi], [np.pi / 2, 0.1, 0.2]], "T3", closed=True
    )
    with pytest.raises(ChartExhausted):
        embed_r3(c, p)


def test_embed_explicit_chart_checks_its_own_pole():
    # at h=2 the curve through k=0 touches the plus chart's pole only
    p = HopfParams(2.0)
    c = Polyline([[0, 0, 0], [0.3, 0.1, 0.2], [0.1, 0.4, 0.2]], "T3", closed=True)
    assert embed_r3(c, p).chart == "minus"
    assert embed_r3(c, p, chart="minus").chart == "minus"
    with pytest.raises(ChartExhausted, match="of the plus chart pole"):
        embed_r3(c, p, chart="plus")
    with pytest.raises(ValueError, match="unknown chart"):
        embed_r3(c, p, chart="north")


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
    assert linking_number(a, b) == 0


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
    base = linking_number(a, b)
    # subdivision
    assert linking_number(a.subdivided(), b.subdivided()) == base
    # rigid rotation
    th = 0.7
    rot = np.array(
        [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]]
    )
    ra = Polyline(a.vertices @ rot.T, "R3")
    rb = Polyline(b.vertices @ rot.T, "R3")
    assert linking_number(ra, rb) == base
    # double reversal keeps the sign, single reversal flips it
    assert linking_number(a.reversed(), b.reversed()) == base
    assert linking_number(a.reversed(), b) == -base


def test_linking_rejects_bad_inputs():
    a, b = hopf_link_pair()
    with pytest.raises(CurvesTooClose):
        gauss_linking_number(a, Polyline(a.vertices + 1e-5, "R3"))
    with pytest.raises(NotClosed):
        gauss_linking_number(a, Polyline(b.vertices, "R3", closed=False))
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


# 3 to 200 vertices crosses the _GAUSS_ROWS block boundary of the first curve
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


def test_linking_t3_matches_r3_route_in_single_cover_phase():
    p = HopfParams(2.9)
    (a,) = preimage_contours(p, (1, 0, 0), res=48)
    (b,) = preimage_contours(p, (0, 1, 0), res=48)
    t3 = linking_number_t3(a, b)
    r3 = gauss_linking_number(embed_r3(a, p, chart="plus"), embed_r3(b, p, chart="plus"))
    assert t3.value == r3.value
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
    lone = link_matrix(HopfParams(3.1), [(1, 0, 0), (0, 0, -1)], res=48).to_dict()
    assert lone["min_separation_cells"] is None and lone["max_residual"] is None


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

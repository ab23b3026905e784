import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx import _geom

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def test_segment_disk_length_diameter():
    L = _geom.segment_disk_length([[-2, 0]], [[2, 0]], (0, 0), 1.0)
    assert L[0] == pytest.approx(2.0, abs=1e-12)


def test_segment_disk_length_outside():
    L = _geom.segment_disk_length([[2, 2]], [[3, 2]], (0, 0), 1.0)
    assert L[0] == 0.0


def test_segment_disk_length_partial():
    # chord entering at x = sqrt(1 - 0.25) from y = 0.5 line
    L = _geom.segment_disk_length([[-2, 0.5]], [[2, 0.5]], (0, 0), 1.0)
    assert L[0] == pytest.approx(2 * np.sqrt(0.75), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(coords, coords, coords, coords, st.floats(min_value=0.1, max_value=2.0))
def test_segment_disk_length_bounded(ax, ay, bx, by, r):
    L = _geom.segment_disk_length([[ax, ay]], [[bx, by]], (0, 0), r)[0]
    full = np.hypot(bx - ax, by - ay)
    assert -1e-12 <= L <= full + 1e-12
    assert L <= 2 * r + 1e-12


def test_clip_inside_outside_partition():
    a = np.array([[-2.0, 0.3], [0.1, 0.1], [5.0, 5.0]])
    b = np.array([[2.0, 0.3], [0.2, 0.15], [6.0, 5.0]])
    (ain, bin_, src_in), (aout, bout, src_out) = _geom.split_segments_at_circle(a, b, (0, 0), 1.0)
    total = _geom.seg_lengths(a, b).sum()
    got = _geom.seg_lengths(ain, bin_).sum() + _geom.seg_lengths(aout, bout).sum()
    assert got == pytest.approx(total, rel=1e-9)
    assert src_in.tolist() == [0, 1] and src_out.tolist() == [0, 0, 2]
    # an uncut segment comes out whole, endpoints unchanged
    assert np.array_equal(aout[2], a[2]) and np.array_equal(bout[2], b[2])


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
)
def test_split_at_circle_pieces_partition_each_segment(log_scale, seed, n):
    # segments and disks from 1e-3 to 1e3: a segment's inside and outside
    # pieces add up to its length, and each piece keeps to its side
    scale = 10.0**log_scale
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0, 2) * scale
    r = float(rng.uniform(0.05, 2.0)) * scale
    a = c + rng.uniform(-3.0, 3.0, (n, 2)) * scale
    t = rng.uniform(0, 2 * np.pi, (n, 1))
    b = a + np.hstack([np.cos(t), np.sin(t)]) * scale * 10.0 ** rng.uniform(-2.0, 0.5, (n, 1))
    if rng.random() < 0.3:  # a segment starting on the circle, another tangent to it
        t = rng.uniform(0, 2 * np.pi, 2)
        a[0] = c + r * np.array([np.cos(t[0]), np.sin(t[0])])
        tangent = np.array([-np.sin(t[1]), np.cos(t[1])])
        a[-1] = c + r * np.array([np.cos(t[1]), np.sin(t[1])]) - scale * tangent
        b[-1] = a[-1] + 2 * scale * tangent
    (ai, bi, si), (ao, bo, so) = _geom.split_segments_at_circle(a, b, c, r)
    tol = 1e-9 * scale + 4 * _geom.EPS  # pieces no longer than EPS are dropped
    L = _geom.seg_lengths(a, b)
    got = np.bincount(si, _geom.seg_lengths(ai, bi), n) + np.bincount(so, _geom.seg_lengths(ao, bo), n)
    assert np.allclose(got, L, rtol=0, atol=tol)
    assert np.all(np.diff(si) > 0) and np.all(np.diff(so) >= 0)
    assert np.all(np.linalg.norm(np.concatenate([ai, bi]) - c, axis=1) <= r + tol)
    if len(ao):
        assert np.all(_geom.point_segment_distance(c, ao, bo)[0] >= r - tol)
    # the inside pieces measure what segment_disk_length measures
    inside = np.bincount(si, _geom.seg_lengths(ai, bi), n)
    assert np.allclose(inside, _geom.segment_disk_length(a, b, c, r), rtol=0, atol=tol)


def test_tri_disk_area_quarter():
    A = _geom.tri_disk_area([0, 0], [2, 0], [0, 2], (0, 0), 1.0)
    assert A == pytest.approx(np.pi / 4, rel=1e-12)


def test_tri_disk_area_containments():
    # triangle fully inside
    A = _geom.tri_disk_area([0, 0], [0.2, 0], [0, 0.2], (0, 0), 1.0)
    assert A == pytest.approx(0.02, rel=1e-12)
    # disk fully inside triangle
    A2 = _geom.tri_disk_area([-5, -5], [5, -5], [0, 8], (0, 0), 0.5)
    assert A2 == pytest.approx(np.pi * 0.25, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tri_disk_area_vs_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    tri = rng.uniform(-1.5, 1.5, (3, 2))
    r = rng.uniform(0.3, 1.2)
    area = _geom.tri_disk_area(tri[0], tri[1], tri[2], (0, 0), r)
    tri_area = float(_geom.triangle_areas(tri[0][None], tri[1][None], tri[2][None])[0])
    assert -1e-12 <= area <= min(tri_area, np.pi * r * r) + 1e-12
    if tri_area < 1e-3:
        return
    n = 40_000
    u, v = rng.random(n), rng.random(n)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    pts = tri[0] + np.outer(u, tri[1] - tri[0]) + np.outer(v, tri[2] - tri[0])
    frac = np.mean(np.linalg.norm(pts, axis=1) <= r)
    mc = tri_area * frac
    assert area == pytest.approx(mc, abs=4 * tri_area / np.sqrt(n) + 1e-9)


def _loop_polygon_disk_area(pts, center, radius):
    """Edge-by-edge reference for polygons_disk_area (ccw pieces, Green)."""
    p = np.asarray(pts, dtype=float) - np.asarray(center, dtype=float)
    if np.dot(p[:, 0], np.roll(p[:, 1], -1)) < np.dot(p[:, 1], np.roll(p[:, 0], -1)):
        p = p[::-1]
    r2 = radius * radius
    total = 0.0
    for i in range(len(p)):
        A, d = p[i], p[(i + 1) % len(p)] - p[i]
        dd = float(d @ d)
        if dd <= _geom.EPS**2:
            continue
        bq, cq = 2.0 * float(A @ d), float(A @ A) - r2
        disc = bq * bq - 4.0 * dd * cq
        ts = [0.0, 1.0]
        if disc > 0:
            roots = ((-bq - np.sqrt(disc)) / (2 * dd), (-bq + np.sqrt(disc)) / (2 * dd))
            ts += [t for t in roots if 0.0 < t < 1.0]
        ts.sort()
        for t0, t1 in zip(ts[:-1], ts[1:]):
            P, Q, mid = A + t0 * d, A + t1 * d, A + 0.5 * (t0 + t1) * d
            if disc > 0 and t1 - t0 > _geom.EPS and float(mid @ mid) <= r2:
                total += 0.5 * (P[0] * Q[1] - P[1] * Q[0])
            else:
                da = np.arctan2(Q[1], Q[0]) - np.arctan2(P[1], P[0])
                da = da - 2 * np.pi if da > np.pi else (da + 2 * np.pi if da < -np.pi else da)
                total += 0.5 * r2 * da
    return abs(total)


def test_polygons_disk_area_closed_forms():
    tris = np.array([
        [[0, 0], [2, 0], [0, 2]],  # quarter disk
        [[0, 0], [0.2, 0], [0, 0.2]],  # fully inside
        [[-5, -5], [5, -5], [0, 8]],  # disk inside the triangle
        [[2, 2], [3, 2], [2, 3]],  # fully outside
        [[-1, 1], [1, 1], [0, 2]],  # tangent to the circle from outside
        [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]],  # a point (arc sample)
    ], dtype=float)
    got = _geom.polygons_disk_area(tris, (0, 0), 1.0)
    expect = [np.pi / 4, 0.02, np.pi, 0.0, 0.0, 0.0]
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)
    # the batch agrees with the scalar entry points on each triangle
    for tri, a in zip(tris, got):
        assert _geom.tri_disk_area(tri[0], tri[1], tri[2], (0, 0), 1.0) == pytest.approx(
            a, rel=1e-14, abs=1e-16)
        assert _geom.polygon_disk_area(tri[::-1], (0, 0), 1.0) == pytest.approx(a, rel=1e-14)


def test_polygons_disk_area_keeps_thin_triangles_on_the_circle():
    """Thin triangles with their base on the circle, each base end on it to
    the round-off of cos and sin, lie in the disk: each keeps its own area
    to 1e-11. Green's theorem about the centre rounds each piece to eps of
    r times its length, about 1e-12 of these areas; a piece shorter than EPS
    dropped, where a base end lies an ulp outside, lost up to 2e-9."""
    rng = np.random.default_rng(5)
    n = 400
    phi, half = rng.uniform(0, 2 * np.pi, n), rng.uniform(0.005, 0.05, n)
    a = np.stack([np.cos(phi - half), np.sin(phi - half)], axis=1)
    b = np.stack([np.cos(phi + half), np.sin(phi + half)], axis=1)
    apex = 0.5 * (a + b) * (1 - rng.uniform(1e-4, 1e-2, (n, 1)))
    tris = np.stack([a, b, apex], axis=1)
    local = tris - tris[:, :1]  # exact: the corners are close
    own = 0.5 * np.abs(local[:, 1, 0] * local[:, 2, 1] - local[:, 1, 1] * local[:, 2, 0])
    got = _geom.polygons_disk_area(tris, (0.0, 0.0), 1.0)
    assert np.all(np.abs(got - own) <= 1e-11 * own)


def test_polygons_disk_area_square_and_empty():
    sq = np.array([[[-2, -2], [2, -2], [2, 2], [-2, 2]], [[0, 0], [1, 0], [1, 1], [0, 1]]], float)
    got = _geom.polygons_disk_area(sq, (0, 0), 1.0)
    assert got == pytest.approx([np.pi, np.pi / 4], rel=1e-12)
    assert _geom.polygons_disk_area(np.zeros((0, 3, 2)), (0, 0), 1.0).shape == (0,)


def test_polygons_disk_area_matches_loop_on_random_triangles():
    rng = np.random.default_rng(11)
    c, r = np.array([0.2, -0.1]), 0.7
    n = 50
    th = rng.uniform(0, 2 * np.pi, (n, 1))
    u = np.concatenate([np.cos(th), np.sin(th)], axis=1)
    t = np.stack([-u[:, 1], u[:, 0]], axis=1)
    thirds = th[:, :, None] + 2 * np.pi / 3 * np.arange(3)[None, None, :]
    equi = np.stack([np.cos(thirds[:, 0]), np.sin(thirds[:, 0])], axis=-1)  # (n, 3, 2)
    tang = c + r * u
    p = c + rng.uniform(-1, 1, (n, 1, 2))
    groups = {
        "random": c + rng.uniform(-1.5, 1.5, (400, 3, 2)),
        "inside": c + 0.3 * r * rng.uniform(-1, 1, (n, 3, 2)),
        "outside": c + (1.5 * r + rng.uniform(0, 0.5, (n, 1, 1))) * u[:, None, :]
        + 0.2 * r * rng.uniform(-1, 1, (n, 3, 2)),
        "centre_cut": c + 1.0 * equi,  # inradius 0.5 < r < circumradius 1
        "centre_all": c + 2.0 * equi,  # inradius 1 > r: the whole disk
        "tangent": np.stack([tang - 0.5 * t, tang + 0.5 * t, tang + u], axis=1),
        "flat": np.concatenate([p, p + rng.uniform(-0.5, 0.5, (n, 1, 2)), p], axis=1),
        "point": np.repeat(c + r * u[:, None, :], 3, axis=1),
    }
    tris = np.concatenate(list(groups.values()))
    got = _geom.polygons_disk_area(tris, c, r)
    ref = np.array([_loop_polygon_disk_area(tri, c, r) for tri in tris])
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)
    per_tri = np.array([_geom.tri_disk_area(tri[0], tri[1], tri[2], c, r) for tri in tris])
    assert np.allclose(got, per_tri, rtol=1e-14, atol=1e-16)
    tri_area = _geom.triangle_areas(tris[:, 0], tris[:, 1], tris[:, 2])
    assert np.all(got <= np.minimum(tri_area, np.pi * r * r) + 1e-12)
    by = dict(zip(groups, np.split(got, np.cumsum([len(g) for g in groups.values()])[:-1])))
    assert by["inside"] == pytest.approx(
        _geom.triangle_areas(*groups["inside"].transpose(1, 0, 2)), rel=1e-12)
    assert np.all(by["outside"] <= 1e-14)
    assert np.all((by["centre_cut"] > 0) & (by["centre_cut"] < np.pi * r * r))
    assert by["centre_all"] == pytest.approx(np.full(n, np.pi * r * r), rel=1e-12)
    assert np.all(by["tangent"] <= 1e-14)
    assert np.all(by["flat"] <= 1e-14)
    assert np.all(by["point"] == 0.0)


def test_segments_intersect_basic():
    hit = _geom.segments_intersect([0, 0], [1, 1], [[0, 1]], [[1, 0]])
    assert hit[0]
    miss = _geom.segments_intersect([0, 0], [1, 1], [[2, 2.5]], [[3, 2.5]])
    assert not miss[0]
    # collinear overlap counts
    coll = _geom.segments_intersect([0, 0], [2, 0], [[1, 0]], [[3, 0]])
    assert coll[0]


def test_segments_intersect_small_disjoint_segments_do_not_cross():
    # their cross product is 0.5 lam^2: under the absolute EPS from about
    # lam = 1.4e-6, but never under EPS |r| |s|
    p0, p1, q0, q1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]])
    for lam in (1e-7, 1e-5, 1.0, 1e3):
        assert not _geom.segments_intersect(lam * p0, lam * p1, [lam * q0], [lam * q1])[0]
        # the same pair made to cross, and touching at an end
        assert _geom.segments_intersect(lam * p0, lam * q1, [lam * p1], [lam * q0])[0]
        assert _geom.segments_intersect(lam * p0, lam * p1, [lam * p1], [lam * q1])[0]


def test_segments_intersect_parallel_and_point_segments():
    cases = [
        (([0, 0], [2, 0]), ([1, 0], [3, 0]), True),  # collinear overlap
        (([0, 0], [2, 0]), ([3, 0], [4, 0]), False),  # collinear, apart
        (([0, 0], [2, 0]), ([0, 1], [2, 1]), False),  # parallel, apart
        (([1, 0], [1, 0]), ([0, 0], [2, 0]), True),  # a point on the segment
        (([3, 0], [3, 0]), ([0, 0], [2, 0]), False),  # a point on its line, beyond it
        (([1, 1], [1, 1]), ([0, 0], [2, 0]), False),  # a point off it
        (([1, 1], [1, 1]), ([1, 1], [1, 1]), True),  # the same point
        (([0, 0], [2, 0]), ([1, 0], [1, 0]), True),  # the other one a point
    ]
    for lam in (1e-7, 1.0, 1e3):
        for (p0, p1), (q0, q1), want in cases:
            p0, p1, q0, q1 = (lam * np.asarray(x, dtype=float) for x in (p0, p1, q0, q1))
            assert _geom.segments_intersect(p0, p1, [q0], [q1])[0] == want


def _segments_intersect_single(p0, p1, q0, q1, tol=_geom.EPS):
    """One segment p0->p1 against many: the unbatched form of the predicate."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    q0, q1 = np.atleast_2d(q0).astype(float), np.atleast_2d(q1).astype(float)
    r = p1 - p0
    s = q1 - q0
    rn, sn = np.hypot(r[0], r[1]), np.hypot(s[:, 0], s[:, 1])
    denom = r[0] * s[:, 1] - r[1] * s[:, 0]
    qp = q0 - p0
    t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    u_num = qp[:, 0] * r[1] - qp[:, 1] * r[0]
    out = np.zeros(len(q0), dtype=bool)
    nonpar = np.abs(denom) > tol * rn * sn
    t = t_num[nonpar] / denom[nonpar]
    u = u_num[nonpar] / denom[nonpar]
    out[nonpar] = (t >= -tol) & (t <= 1 + tol) & (u >= -tol) & (u <= 1 + tol)
    qpn = np.hypot(qp[:, 0], qp[:, 1])
    size = tol * (rn + sn + qpn)
    coll = ~nonpar & (np.abs(t_num) <= size * sn) & (np.abs(u_num) <= size * rn)
    for j in np.flatnonzero(coll):
        rr = float(r @ r)
        if rr > 0:
            t0 = (qp[j] @ r) / rr
            t1 = t0 + (s[j] @ r) / rr
            out[j] = max(t0, t1) >= -tol and min(t0, t1) <= 1 + tol
        elif s[j] @ s[j] > 0:
            tau = -(qp[j] @ s[j]) / (s[j] @ s[j])
            out[j] = -tol <= tau <= 1 + tol
        else:
            out[j] = qpn[j] == 0
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_segments_intersect_batched_rows_match_single(seed):
    rng = np.random.default_rng(seed)
    # small integer lattice: parallel, collinear, touching and point segments
    # occur often next to general positions
    lattice = rng.random() < 0.5
    draw = (lambda *sh: rng.integers(-3, 4, sh).astype(float)) if lattice else (
        lambda *sh: rng.uniform(-3, 3, sh)
    )
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    p0, p1, q0, q1 = draw(m, 2), draw(m, 2), draw(n, 2), draw(n, 2)
    single = np.array([_segments_intersect_single(p0[i], p1[i], q0, q1) for i in range(m)])
    assert np.array_equal(_geom.segments_intersect(p0, p1, q0, q1), single)
    for i in range(m):
        assert np.array_equal(_geom.segments_intersect(p0[i], p1[i], q0, q1), single[i])
    # a single end point broadcasts against a stack
    assert np.array_equal(
        _geom.segments_intersect(p0, p1[0], q0, q1),
        np.array([_segments_intersect_single(p0[i], p1[0], q0, q1) for i in range(m)]),
    )
    d = _geom.point_segment_distance(p0, q0, q1)
    for i in range(m):
        assert np.array_equal(_geom.point_segment_distance(p0[i][None], q0, q1), d[i : i + 1])


def test_point_segment_distance():
    d = _geom.point_segment_distance([[0, 1]], [[-1, 0]], [[1, 0]])
    assert d[0, 0] == pytest.approx(1.0, abs=1e-12)
    d2 = _geom.point_segment_distance([[2, 0]], [[-1, 0]], [[1, 0]])
    assert d2[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_convex_hull_and_membership():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    hull = _geom.convex_hull(pts)
    assert len(hull) == 4
    assert _geom.polygon_area(hull) == pytest.approx(1.0, abs=1e-12)
    inside = _geom.points_in_convex_polygon(np.array([[0.5, 0.5], [1.5, 0.5]]), hull)
    assert inside.tolist() == [True, False]


def _halfplanes_of(poly):
    """(k, 3) half-planes (ax, ay, b) of a ccw convex polygon: its inside."""
    d = np.roll(poly, -1, axis=0) - poly
    normal = np.stack([-d[:, 1], d[:, 0]], axis=1)
    return np.column_stack([normal, np.sum(normal * poly, axis=1)])


def test_clip_halfplanes_square_overlap():
    """The unit square clipped by the half-planes of its copy shifted by 0.5
    keeps the overlap, area 0.25; in one batch, a half-plane holding the
    square returns its vertices as they were, and one missing it leaves a
    single point."""
    sq1 = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    inter = _geom.clip_halfplanes(sq1[None], _halfplanes_of(sq1 + 0.5))[0]
    assert _geom.polygon_area(inter) == pytest.approx(0.25, abs=1e-12)
    out = _geom.clip_halfplanes(np.stack([sq1, sq1]), np.array([[[1.0, 0.0, -1.0]], [[1.0, 0.0, 2.0]]]))
    assert np.array_equal(out[0], sq1)
    assert np.all(out[1] == out[1, 0]) and _geom.polygon_area(out[1]) == 0.0


def _lens(c1, r1, c2, r2):
    """Closed-form area of the intersection of two disks."""
    d = float(np.hypot(*np.subtract(c2, c1)))
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return np.pi * min(r1, r2) ** 2
    a1 = np.arccos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    a2 = np.arccos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    return r1 * r1 * (a1 - np.sin(a1) * np.cos(a1)) + r2 * r2 * (a2 - np.sin(a2) * np.cos(a2))


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("c2, r2", [
    ((0.9, 0.4), 0.7),  # a lens
    ((0.0, 0.0), 0.5),  # concentric
    ((0.0, 0.0), 1.0),  # identical
    ((2.0, 0.0), 1.0),  # tangent from outside
    ((0.5, 0.0), 0.5),  # tangent from inside
    ((0.3, -0.2), 0.4),  # inside
    ((3.0, 1.0), 0.5),  # apart
], ids=["lens", "concentric", "identical", "outer_tangent", "inner_tangent", "inside", "apart"])
def test_polygons_disks_area_closed_form_lenses(scale, c2, r2):
    """A square holding two disks, cut by both, reads their lens; cut by the
    first less the second, the first disk's area less the lens; less the
    union of both, the square less the disks' union: each to 1e-12 of the
    scale's area, at every scale."""
    c1, r1 = np.array([0.2, -0.1]) * scale, 1.0 * scale
    c2, r2 = np.asarray(c2) * scale + c1, r2 * scale
    square = (np.array([[-5, -5], [5, -5], [5, 5], [-5, 5]]) * scale + c1)[None]
    area = np.array([100.0 * scale**2])
    d1, d2, none = np.array([[[*c1, r1]]]), np.array([[[*c2, r2]]]), np.zeros((1, 0, 3))
    lens = _lens(c1, r1, c2, r2)
    tol = 1e-12 * scale**2
    assert abs(_geom.polygons_disks_area(square, area, np.concatenate([d1, d2], axis=1), none)[0] - lens) <= tol
    assert abs(_geom.polygons_disks_area(square, area, d1, d2)[0] - (np.pi * r1 * r1 - lens)) <= tol
    union = np.pi * (r1 * r1 + r2 * r2) - lens
    assert abs(_geom.polygons_disks_area(square, area, none, np.concatenate([d1, d2], axis=1))[0]
               - (area[0] - union)) <= tol


def test_polygons_disks_area_rows_are_their_own_calls():
    """Rows of mixed kinds in one call, padded with empty slots (NaN radius),
    give each row the bits of its own call; a polygon against one disk gives
    the bits of polygons_disk_area; an out-disk holding an in-disk gives
    exactly 0; half-planes clip first."""
    rng = np.random.default_rng(3)
    n = 40
    tris = rng.uniform(-1, 1, (n, 3, 2))
    polys = np.concatenate([tris, tris[:, -1:]], axis=1)
    area = _geom.triangle_areas(tris[:, 0], tris[:, 1], tris[:, 2])
    disks = np.concatenate([rng.uniform(-0.5, 0.5, (n, 3, 2)), rng.uniform(0.2, 1.0, (n, 3, 1))], axis=2)
    ins, outs = disks[:, :2].copy(), disks[:, 2:].copy()
    ins[::3, 1, 2] = np.nan
    ins[1::3, :, 2] = np.nan
    outs[2::4, 0, 2] = np.nan
    got = _geom.polygons_disks_area(polys, area, ins, outs)
    for i in range(n):
        one = _geom.polygons_disks_area(polys[i : i + 1], area[i : i + 1], ins[i : i + 1], outs[i : i + 1])
        assert got[i] == one[0]
    single = _geom.polygons_disks_area(polys, area, disks[:, :1], np.zeros((n, 0, 3)))
    assert np.array_equal(single, _geom.polygons_disk_area(tris, disks[:, 0, :2], disks[:, 0, 2]))
    held = _geom.polygons_disks_area(polys, area, disks[:, :1], disks[:, :1] * [1, 1, 1 + 1e-9])
    assert np.all(held == 0.0)
    planes = [(1.0, 0.0, 0.0)]  # x >= 0
    half = _geom.polygons_disks_area(polys, area, np.zeros((n, 0, 3)), np.zeros((n, 0, 3)), planes)
    right = _geom.clip_halfplanes(polys, planes)
    assert np.allclose(half, [_geom.polygon_area(p) for p in right], rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_polygons_disks_area_is_exactly_zero_inside_an_out_disk(scale):
    """A polygon that one of its out-disks holds has area exactly 0, not the
    round-off of area - |polygon ∩ disk|: triangles inside an out-disk, with
    or without an in-disk, a second out-disk or a half-plane that holds
    them, away from the origin."""
    rng = np.random.default_rng(int(-np.log10(scale)) + 7)
    n = 200
    c = scale * rng.uniform(-3, 3, (n, 2))
    r = scale * rng.uniform(0.1, 1.0, n)
    rad, ang = np.sqrt(rng.uniform(0, 1, (n, 3))) * 0.999 * r[:, None], rng.uniform(0, 2 * np.pi, (n, 3))
    tris = c[:, None] + rad[..., None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    polys = np.concatenate([tris, tris[:, -1:]], axis=1)
    area = _geom.triangle_areas(tris[:, 0], tris[:, 1], tris[:, 2])
    held = np.column_stack([c, r])[:, None]
    far = np.column_stack([c + 10 * scale, np.full(n, scale)])[:, None]
    none = np.zeros((n, 0, 3))
    assert np.all(_geom.polygons_disks_area(polys, area, none, held) == 0.0)
    assert np.all(_geom.polygons_disks_area(polys, area, none, np.concatenate([far, held], axis=1)) == 0.0)
    assert np.all(_geom.polygons_disks_area(polys, area, held * [1, 1, 2], held) == 0.0)
    planes = [(1.0, 0.0, -10 * scale)]  # x >= -10 scale holds every triangle
    assert np.all(_geom.polygons_disks_area(polys, area, none, held, planes) == 0.0)


def test_stadium_polygon_area():
    poly = _geom.stadium_polygon([0, 0], [2, 0], 0.3, narc=256)
    expect = 2 * 2 * 0.3 + np.pi * 0.09
    assert _geom.polygon_area(poly) == pytest.approx(expect, rel=1e-3)


def test_hull_of_disks_two_radii():
    hull = _geom.hull_of_disks(np.array([[0, 0], [2, 0]]), np.array([0.5, 0.2]), narc=128)
    # convex hull of two disks contains both and is convex
    assert _geom.points_in_convex_polygon(np.array([[0, 0.49], [2, -0.19]]), hull).all()
    area = _geom.polygon_area(hull)
    assert area > np.pi * 0.25  # at least the bigger disk


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=70),
)
def test_segment_disk_length_radius_rows_equal_scalar_calls(seed, n, k):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 2)
    a = c + rng.normal(scale=float(rng.uniform(0.01, 2.0)), size=(n, 2))
    b = a + rng.normal(scale=float(rng.uniform(1e-4, 1.0)), size=(n, 2))
    if n and rng.random() < 0.3:
        b[0] = a[0]  # a zero-length segment
        b[-1] = c + (a[-1] - c) * 1.5  # a radial segment through the circle
    # dyadic radii as the density window asks for them, then arbitrary ones
    lam = float(rng.uniform(0.05, 2.0))
    radii = [lam / 2.0**j for j in range(1, k + 1)] if rng.random() < 0.5 else list(
        rng.uniform(0.0, 3.0, k)
    )
    rows = _geom.segment_disk_length(a, b, c, np.array(radii))
    assert rows.shape == (k, n) and rows.flags.c_contiguous
    for r, row, total in zip(radii, rows, rows.sum(axis=1)):
        one = _geom.segment_disk_length(a, b, c, float(r))
        assert np.array_equal(row, one)
        # row sums equal the 1-D sums JumpSet.length_in takes
        assert float(np.sum(one)) == total
    # a stack of centres, each with its own radii
    cs = c + rng.normal(size=(3, 1, 2))
    rr = np.outer(rng.uniform(0.1, 2.0, 3), 0.5 ** np.arange(k))
    grid = _geom.segment_disk_length(a, b, cs, rr)
    assert grid.shape == (3, k, n) and grid.flags.c_contiguous
    for ci, ri, rows_i, sums_i in zip(cs, rr, grid, grid.sum(axis=-1)):
        for r, row, total in zip(ri, rows_i, sums_i):
            one = _geom.segment_disk_length(a, b, ci[0], float(r))
            assert np.array_equal(row, one)
            assert float(np.sum(one)) == total


def test_segment_disk_length_rows_square_radii_as_scalar_calls_do():
    # radii whose float square (pow) and array square (r * r) differ in the
    # last bit; the chords' lengths see the difference
    rs = [float(r) for r in np.random.default_rng(1).uniform(0.01, 1.0, 20000)]
    radii = [r for r in rs if r**2 != r * r][:8]
    assert len(radii) == 8
    y = np.linspace(-0.95, 0.95, 60)
    a = np.stack([np.full(60, -2.0), y], axis=1)
    b = np.stack([np.full(60, 2.0), y], axis=1)
    rows = _geom.segment_disk_length(a, b, (0.0, 0.0), np.array(radii))
    for r, row in zip(radii, rows):
        assert np.array_equal(row, _geom.segment_disk_length(a, b, (0.0, 0.0), r))


@pytest.mark.parametrize("factor", [0.46, 16.8, 383.0])
def test_polygons_disk_area_is_exactly_zero_wholly_outside_the_disk(factor):
    """Subcells of a triangle, against a disk touching the triangle's bounding
    circle from outside, lie wholly outside the disk: each area is exactly 0,
    not the round-off of its cancelling sectors (about 1e-19 of the scale
    squared). A disk a subcell holds still gets its full area."""
    from sbvx.quadrature import tri_subcentroids, subdivision_lattice

    rng = np.random.default_rng(int(factor * 10))
    _, lattice = subdivision_lattice(2)
    for _ in range(200):
        v = factor * (np.array([0.3, -0.2]) + rng.uniform(-1, 1, (3, 2)))
        corners = v[0] + (lattice[..., :1] * (v[1] - v[0]) + lattice[..., 1:] * (v[2] - v[0])) / 4
        bary = v.mean(axis=0)
        reach = np.max(np.linalg.norm(corners - bary, axis=2))
        t = rng.uniform(0, 2 * np.pi)
        r = factor * rng.uniform(0.01, 0.5)
        centre = bary + (reach + r) * np.array([np.cos(t), np.sin(t)])
        assert np.all(_geom.polygons_disk_area(corners, centre, r) == 0.0)
        assert np.all(_geom.polygons_disk_area(corners, np.repeat(centre[None], len(corners), 0),
                                               np.full(len(corners), r)) == 0.0)
        cents, _ = tri_subcentroids(v[0], v[1], v[2], 2)
        sub = corners[0]
        perimeter = np.sum(np.linalg.norm(sub - np.roll(sub, 1, axis=0), axis=1))
        inner = 0.5 * _geom.triangle_areas(*sub)[0] / perimeter  # a quarter of the inradius
        got = _geom.polygons_disk_area(corners[:1], cents[0], inner)
        assert got[0] == pytest.approx(np.pi * inner**2, rel=1e-12)

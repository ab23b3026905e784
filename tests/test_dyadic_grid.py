from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx import _geom, dyadic_grid
from sbvx._geom import segments_intersect, triangle_areas
from sbvx.dyadic_grid import LEBESGUE_CLEARANCE, adapt_to_jump, build_grid, select_good_radius
from sbvx.errors import AdaptationError, JumpBudgetError, SearchExhaustedError, ToolkitError
from sbvx.quadrature import Disk
from sbvx.sbv2d import CellPatch, DiscreteSbvMap, JumpSet, fan_mesh, synthesize


def test_ring_structure_h2():
    g = build_grid(1.0, 2)
    for h, (size, radius) in enumerate([(1, 0.0), (2, 0.5), (4, 0.75)]):
        idx = np.nonzero((g.ring_of == h) & ~g.on_boundary)[0]
        assert len(idx) == size
        r = np.linalg.norm(g.verts[idx], axis=1)
        assert np.max(np.abs(r - radius)) < 1e-12


def test_ring_cardinality_and_radii_exact():
    g = build_grid(2.3, 7)
    for h in range(8):
        idx = np.nonzero((g.ring_of == h) & ~g.on_boundary)[0]
        assert len(idx) == 2**h
        r = np.linalg.norm(g.verts[idx], axis=1)
        assert np.max(np.abs(r - 2.3 * (1 - 2.0**-h))) < 1e-12


def test_vertex_formula():
    g = build_grid(1.0, 4)
    v = g.vertex(3, 8)
    assert v == pytest.approx([7 / 8, 0.0], abs=1e-12)


def test_triangles_tile_boundary_polygon():
    g = build_grid(1.0, 6)
    v = g.verts[g.tris]
    total = triangle_areas(v[:, 0], v[:, 1], v[:, 2]).sum()
    nb = 2**6
    assert total == pytest.approx(0.5 * nb * np.sin(2 * np.pi / nb), rel=1e-12)


def test_grid_determinism_and_constants():
    g1 = build_grid(1.0, 10)
    g2 = build_grid(1.0, 10)
    assert g1.c1_hat == g2.c1_hat and g1.c2_hat == g2.c2_hat
    assert np.array_equal(g1.verts, g2.verts)
    assert g1.alpha == g1.c1_hat / (8 * g1.c2_hat)


@pytest.mark.parametrize("h_max", [2, 5, 8, 11, 14])
def test_c1_hat_lower_bound(h_max):
    g = build_grid(1.0, h_max)
    assert g.c1_hat > 0.05
    assert g.min_angle > 0.05
    assert g.max_angle < np.pi - 0.05


def test_h_max_range():
    with pytest.raises(ToolkitError):
        build_grid(1.0, 1)
    with pytest.raises(ToolkitError):
        build_grid(1.0, 15)


# ---------------------------------------------------------------------------
# good radius
# ---------------------------------------------------------------------------


def test_good_radius_empty_jump_first_sample():
    J = JumpSet.empty(2)
    rng = np.random.default_rng(5)
    first = float(rng.uniform(0.5, 1.0))
    assert select_good_radius(J, 0.5, 0.05, seed=5) == pytest.approx(first)


def test_good_radius_budget_violation():
    # a radial segment of length 2r saturates the budget
    J = JumpSet.from_segments([[0, 0]], [[1.0, 0]], [[1.0, 0]], [[0.0, 0]])
    with pytest.raises(JumpBudgetError):
        select_good_radius(J, 0.5, 0.05, seed=0)


def test_good_radius_vs_grid_oracle():
    # short chord of length eta*r/2 at distance 1.2 r from the centre
    eta, r = 0.05, 0.5
    L = eta * r / 2
    J = JumpSet.from_segments(
        [[1.2 * r, -L / 2]], [[1.2 * r, L / 2]], [[1.0, 0]], [[0.0, 0]]
    )
    R = select_good_radius(J, r, eta, seed=3, h_max=8)
    assert r < R < 2 * r

    def ok(Rc):
        din = np.linalg.norm(J.a[0])
        dout = np.linalg.norm(J.b[0])
        if min(din, dout) < Rc < max(din, dout):
            return False
        for h in range(9):
            delta = Rc * 2.0**-h
            ann = J.length_in(Disk((0, 0), Rc)) - J.length_in(Disk((0, 0), Rc - delta))
            if ann >= 10 * eta * delta:
                return False
        return True

    assert ok(R)
    grid = np.linspace(r + 1e-6, 2 * r - 1e-6, 512)
    oks = [ok(Rc) for Rc in grid]
    assert any(oks)  # the sampler had something to find
    # circles just beyond the chord distance catch it in a fine annulus
    bad = [Rc for Rc in np.linspace(1.2 * r + 2e-4, 1.2 * r + 1.5e-3, 16)]
    assert not any(ok(Rc) for Rc in bad)


def _good_radius_oracle(J, r, eta, seed, center, h_max, trials=64):
    """select_good_radius replayed draw by draw with the crossing test and
    one pair of length_in calls per dyadic annulus; (R, None) for the first
    draw that passes, else (None, h of the last annulus violation)."""
    c = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    worst_h = None
    for _ in range(trials):
        R = float(rng.uniform(r, 2 * r))
        din = np.linalg.norm(J.a - c, axis=1)
        dout = np.linalg.norm(J.b - c, axis=1)
        close = _geom.point_segment_distance(c[None, :], J.a, J.b)[0]
        if np.any(((din - R) * (dout - R) < 0) | ((close < R) & ((din > R) | (dout > R)))):
            continue
        for h in range(h_max + 1):
            delta = R * 2.0**-h
            ann = J.length_in(Disk(tuple(c), R)) - J.length_in(Disk(tuple(c), R - delta))
            if ann >= 10 * eta * delta:
                worst_h = h
                break
        else:
            return R, None
    return None, worst_h


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=3, max_value=8),
)
def test_good_radius_is_first_draw_passing_the_length_in_oracle(seed, m, h_max):
    # a short tangential chord just inside each of the first m circles the
    # search will draw, at a depth inside a random dyadic annulus: those
    # draws fail on an annulus, or on a crossing when the chord pokes out
    rng = np.random.default_rng(seed)
    r, eta = float(rng.uniform(0.1, 2.0)), 0.05
    c = rng.uniform(-1.0, 1.0, 2)
    draws = np.random.default_rng(seed).uniform(r, 2 * r, m)
    depth = draws * 2.0 ** -rng.integers(3, 9, m) * rng.uniform(0.05, 0.95, m)
    th = rng.uniform(0, 2 * np.pi, m)
    radial = np.stack([np.cos(th), np.sin(th)], axis=1)
    tangent = radial[:, ::-1] * [-1, 1]
    half = 0.45 * eta * r / m * rng.uniform(0.3, 1.0, (m, 1))
    mid = c + (draws - depth)[:, None] * radial
    J = JumpSet.from_segments(mid - half * tangent, mid + half * tangent, np.ones((m, 1)), np.zeros((m, 1)))
    want, worst_h = _good_radius_oracle(J, r, eta, seed, c, h_max)
    if want is None:
        with pytest.raises(SearchExhaustedError) as err:
            select_good_radius(J, r, eta, seed=seed, center=c, h_max=h_max)
        assert err.value.violating_h == worst_h
    else:
        assert select_good_radius(J, r, eta, seed=seed, center=c, h_max=h_max) == want


def test_good_radius_exhaustion_reports_h():
    # jump hugging every circle in (r, 2r): a long radial segment within budget
    J = JumpSet.from_segments([[0.5, 0]], [[0.99, 0]], [[1.0, 0]], [[0.0, 0]])
    eta = 0.5  # budget bound 0.5 * 1 = 0.5 > 0.49, precondition passes
    with pytest.raises(SearchExhaustedError):
        select_good_radius(J, 0.5, eta, trials=16, seed=1)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------


def test_adapt_empty_jump_zero_perturbation(unit_disk):
    g = build_grid(1.0, 5)
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    ad = adapt_to_jump(g, u, seed=2)
    assert np.array_equal(ad.verts, g.verts)
    assert ad.perturbation_ratio_max == 0.0


def test_adapt_avoids_chord_exhaustively(unit_disk):
    g = build_grid(1.0, 5)
    u = synthesize(
        "piecewise-constant-with-arc-jump",
        {"budget": 0.05, "loop_center": (0.43, 0.21), "k": 2},
        seed=9,
    )
    ad = adapt_to_jump(g, u, seed=4)
    for e in g.edges:
        hit = segments_intersect(ad.verts[e[0]], ad.verts[e[1]], u.jump.a, u.jump.b)
        assert not hit.any()
    assert ad.perturbation_ratio_max <= 1.0
    # every perturbed vertex stays in its ball
    delta = g.vertex_delta()
    dist = np.linalg.norm(ad.verts - g.verts, axis=1)
    assert np.all(dist <= g.alpha * delta + 1e-12)


def _flat_map_with_jump(a, b):
    """A constant map on the unit disk whose jump is the segments a -> b."""
    n = len(a)
    jump = JumpSet.from_segments(a, b, np.ones((n, 1)), np.zeros((n, 1)))
    verts, tris, arc = fan_mesh(Disk((0, 0), 1.0), 8)
    vals = np.zeros((len(tris), 1))
    grads = np.zeros((len(tris), 1, 2))
    return DiscreteSbvMap(
        Disk((0, 0), 1.0),
        (CellPatch(verts, tris, vals, grads, Disk((0, 0), 1.0), arc),),
        jump,
    )


def test_adapt_failure_names_vertex(unit_disk):
    # a dense star of segments through the centre defeats the sampler
    th = np.linspace(0, np.pi, 12, endpoint=False)
    a = np.stack([-0.2 * np.cos(th), -0.2 * np.sin(th)], axis=1)
    b = -a
    u = _flat_map_with_jump(a, b)
    g = build_grid(1.0, 4)
    with pytest.raises(AdaptationError) as exc:
        adapt_to_jump(g, u, samples_per_vertex=40, seed=3)
    assert exc.value.vertex is not None


def test_adapt_determinism(unit_disk):
    g = build_grid(1.0, 5)
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.08, "k": 2}, seed=21)
    a1 = adapt_to_jump(g, u, seed=7)
    a2 = adapt_to_jump(g, u, seed=7)
    assert np.array_equal(a1.verts, a2.verts)
    assert a1.kappa_hat == a2.kappa_hat


def test_envelopes_and_kappa(unit_disk):
    g = build_grid(1.0, 5)
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    ad = adapt_to_jump(g, u, seed=2)
    assert len(ad.envelopes) == len(g.tris)
    assert ad.kappa_hat >= 1
    assert np.isfinite(ad.lambda_stats["lambda1_hat"])
    assert ad.lambda_stats["lambda2_hat"] < 1e4


KAPPA_CORPUS_MAX = 8  # frozen regression constant, measured over the corpus below


def test_kappa_regression_bound(unit_disk):
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    worst = 0
    for hm in (4, 5, 6):
        for seed in range(5):
            g = build_grid(1.0, hm, rotation=seed * 0.3)
            ad = adapt_to_jump(g, u, seed=seed)
            worst = max(worst, ad.kappa_hat)
    assert worst <= KAPPA_CORPUS_MAX


@pytest.mark.parametrize("h_max", [4, 5, 6])
def test_envelope_counts_equal_unfiltered_loop(h_max):
    g = build_grid(1.0, h_max, rotation=0.3)
    tol = 1e-12
    pts = [np.random.default_rng(h_max).uniform(-1.05, 1.05, (1000, 2))]
    # the corners of the region each tolerance admits: where the tests of the
    # edges into and out of a vertex both read -f * tol
    for poly in g.envelopes[::8]:
        d = np.roll(poly, -1, axis=0) - poly
        rows = np.stack([-d[:, 1], d[:, 0]], axis=1)  # rows @ (x - e0) is the cross product
        A = np.stack([np.roll(rows, 1, axis=0), rows], axis=1)
        rhs = np.sum(rows * poly, axis=1)
        b = np.stack([np.roll(rhs, 1), rhs], axis=1)
        for f in (0.999, 1.001):
            pts.append(np.linalg.solve(A, (b - f * tol)[..., None])[..., 0])
    pts = np.concatenate(pts)
    want = sum(_geom.points_in_convex_polygon(pts, poly, tol) for poly in g.envelopes)
    assert np.array_equal(_geom.convex_polygon_counts(pts, g.envelopes, tol), want)


def test_lambda_stats_independent_of_adapt_seed(unit_disk):
    # envelope ratios are a property of the base grid: identical across seeds
    g = build_grid(1.0, 5)
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.05, "k": 2}, seed=3)
    a1 = adapt_to_jump(g, u, seed=1)
    a2 = adapt_to_jump(g, u, seed=99)
    assert a1.lambda_stats["lambda1_hat"] == a2.lambda_stats["lambda1_hat"]
    assert a1.lambda_stats["lambda2_hat"] == a2.lambda_stats["lambda2_hat"]


def test_stats_build_envelopes_once(monkeypatch):
    g = build_grid(1.0, 5)
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.05, "k": 2}, seed=3)
    ad = adapt_to_jump(g, u, seed=1)
    calls = []
    hull = _geom.hull_of_disks

    def counted(centers, radii, narc=48):
        calls.append(narc)
        return hull(centers, radii, narc=narc)

    monkeypatch.setattr(_geom, "hull_of_disks", counted)
    assert len(ad.envelopes) == len(g.tris)
    assert len(ad.to_json()["envelopes"]) == len(g.tris)
    assert calls.count(24) == 0


# ---------------------------------------------------------------------------
# adaptation against a scalar loop of the farthest-candidate rule
# ---------------------------------------------------------------------------


def _adapt_farthest_scalar(grid, u, samples_per_vertex, seed, kappa_samples=2000):
    """adapt_to_jump one vertex and one candidate at a time. A vertex keeps
    its zero perturbation if that is admissible; otherwise it draws its other
    samples_per_vertex - 1 candidates and goes to the admissible one farthest
    from J, the first of equals. Returns (verts, perturbation_ratio_max,
    kappa_hat), or raises AdaptationError naming the first vertex that no
    candidate places."""
    J = u.jump
    rng = np.random.default_rng(seed)
    verts = grid.verts.copy()
    delta_v = grid.vertex_delta()
    alpha = grid.alpha
    n = len(verts)
    nbrs = [[] for _ in range(n)]
    for e in grid.edges:
        nbrs[e[0]].append(e[1])
        nbrs[e[1]].append(e[0])
    order = np.lexsort((np.arange(n), grid.on_boundary.astype(int), grid.ring_of))
    committed = np.zeros(n, dtype=bool)
    max_ratio = 0.0
    for vi in order if len(J) else ():
        base_pt = grid.verts[vi]
        rad = alpha * delta_v[vi]
        clearance = LEBESGUE_CLEARANCE * delta_v[vi]
        committed_nbr_pts = [verts[w] for w in nbrs[vi] if committed[w]]
        best, best_dist = None, -np.inf
        for trial in range(samples_per_vertex):
            if trial == 0:
                cand = base_pt.copy()
            elif grid.on_boundary[vi]:
                dtheta = rng.uniform(-rad, rad) / grid.R
                rel = base_pt - grid.center
                ca, sa = np.cos(dtheta), np.sin(dtheta)
                cand = grid.center + np.array(
                    [ca * rel[0] - sa * rel[1], sa * rel[0] + ca * rel[1]]
                )
            else:
                rr = rad * np.sqrt(rng.random())
                tt = 2 * np.pi * rng.random()
                cand = base_pt + rr * np.array([np.cos(tt), np.sin(tt)])
            dist = np.min(_geom.point_segment_distance(cand[None, :], J.a, J.b))
            if dist < clearance:
                continue
            if any(np.any(segments_intersect(cand, q, J.a, J.b)) for q in committed_nbr_pts):
                continue
            if trial == 0:
                best = cand
                break
            if dist > best_dist:
                best, best_dist = cand, dist
        if best is None:
            raise AdaptationError(f"vertex {vi}", vertex=int(vi))
        verts[vi] = best
        committed[vi] = True
        max_ratio = max(max_ratio, float(np.linalg.norm(best - base_pt) / rad))
    r = grid.R * np.sqrt(rng.random(kappa_samples))
    t = 2 * np.pi * rng.random(kappa_samples)
    pts = grid.center + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
    counts = np.zeros(kappa_samples, dtype=int)
    for poly in grid.envelopes:
        counts += _geom.points_in_convex_polygon(pts, poly)
    return verts, max_ratio, int(counts.max())


def _assert_adapted_grid_keeps_its_bounds(g, u, verts):
    """Each vertex stays in its alpha * delta_h disk, boundary-ring vertices
    stay on the circle, every vertex keeps its clearance from J, and no grid
    edge meets J."""
    delta_v = g.vertex_delta()
    moved = np.linalg.norm(verts - g.verts, axis=1)
    assert np.all(moved <= g.alpha * delta_v + 1e-12 * g.R)
    on_circle = np.linalg.norm(verts[g.on_boundary] - g.center, axis=1)
    assert np.all(np.abs(on_circle - g.R) <= 1e-12 * g.R)
    J = u.jump
    if len(J):
        clearance = np.min(_geom.point_segment_distance(verts, J.a, J.b), axis=1)
        assert np.all(clearance >= LEBESGUE_CLEARANCE * delta_v)
        assert not segments_intersect(verts[g.edges[:, 0]], verts[g.edges[:, 1]], J.a, J.b).any()


def _assert_adapt_matches_farthest_oracle(g, u, samples, seed):
    """adapt_to_jump fails at the oracle's vertex, or places every vertex
    where the oracle does, bounds kept; returns the oracle's failing vertex
    or None."""
    try:
        expected = _adapt_farthest_scalar(g, u, samples, seed, kappa_samples=500)
    except AdaptationError as err:
        with pytest.raises(AdaptationError) as exc:
            adapt_to_jump(g, u, samples_per_vertex=samples, seed=seed, compute_stats=False)
        assert exc.value.vertex == err.vertex
        return err.vertex
    # the lambda statistics draw no random numbers; skip their cost
    with mock.patch.object(dyadic_grid, "_lambda_ratios", lambda *a: {}):
        ad = adapt_to_jump(g, u, samples_per_vertex=samples, seed=seed, kappa_samples=500)
    verts, ratio, kappa = expected
    assert np.array_equal(ad.verts, verts)
    assert ad.perturbation_ratio_max == ratio <= 1.0
    assert ad.kappa_hat == kappa
    _assert_adapted_grid_keeps_its_bounds(g, u, ad.verts)
    return None


def _unit(v):
    return v / np.linalg.norm(v)


def _cut_to_earlier_neighbour(g, vi, rng):
    """A short cut across the edge from vertex vi to a neighbour committed
    before it, within vi's alpha * delta_h: the zero perturbation fails,
    and a candidate may clear the cut."""
    rad = g.alpha * g.vertex_delta()[vi]
    n = len(g.verts)
    rank = np.empty(n, dtype=int)
    rank[np.lexsort((np.arange(n), g.on_boundary, g.ring_of))] = np.arange(n)
    e = g.edges[(g.edges == vi).any(axis=1)]
    nbrs = e[e != vi]
    q = g.verts[rng.choice(nbrs[rank[nbrs] < rank[vi]])]
    along = _unit(q - g.verts[vi])
    mid = g.verts[vi] + rng.uniform(0.05, 1.0) * rad * along
    across = _unit(np.array([-along[1], along[0]]) + rng.normal(scale=0.3, size=2))
    half = rng.uniform(0.05, 0.8) * rad * across
    return mid - half, mid + half


def _polyline_through_centre(g, rng):
    """Vertices of a polyline of 2-4 segments that crosses the grid's disk
    close to its centre, with small kinks."""
    k = int(rng.integers(2, 5))
    along = _unit(rng.normal(size=2))
    t = np.sort(np.concatenate([[-1.0, 1.0] * rng.uniform(0.3, 1.2, 2), rng.uniform(-1, 1, k - 1)]))
    off = rng.normal(scale=0.05, size=k + 1)
    return g.center + g.R * (t[:, None] * along + off[:, None] * np.array([-along[1], along[0]]))


def _in_unit_disk(p):
    """p pulled radially into the disk of radius 0.95, the map's domain."""
    return p / np.maximum(1.0, np.linalg.norm(p, axis=1) / 0.95)[:, None]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([3, 4, 5]),
    st.sampled_from([1, 2, 40, 200]),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_adaptation_places_the_farthest_admissible_candidate(jump_seed, seed, h_max, samples, rotation):
    rng = np.random.default_rng(jump_seed)
    R = float(rng.uniform(0.4, 1.0))
    center = rng.uniform(-0.1, 0.1, 2)
    g = build_grid(R, h_max, center=center, rotation=rotation)
    a, b = [np.zeros((0, 2))], [np.zeros((0, 2))]
    for vi in rng.choice(np.arange(1, len(g.verts)), size=int(rng.integers(0, 5)), replace=False):
        p, q = _cut_to_earlier_neighbour(g, vi, rng)
        a.append(p[None])
        b.append(q[None])
    # a short polyline through the centre, as in a covering ball: a ring-1
    # vertex behind it, seen from the centre, often fails before any draw
    for _ in range(int(rng.random() < 0.3)):
        pts = _polyline_through_centre(g, rng)
        a.append(pts[:-1])
        b.append(pts[1:])
    # a random walk, long enough to defeat the sampler now and then
    for _ in range(int(rng.random() < 0.3)):
        k = int(rng.integers(2, 9))
        steps = rng.normal(scale=float(rng.uniform(0.02, 0.3)) * R, size=(k, 2))
        pts = center + rng.uniform(-0.8, 0.8, 2) * R + np.cumsum(steps, axis=0)
        a.append(pts[:-1])
        b.append(pts[1:])
    u = _flat_map_with_jump(_in_unit_disk(np.concatenate(a)), _in_unit_disk(np.concatenate(b)))
    _assert_adapt_matches_farthest_oracle(g, u, samples, seed)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([4, 5, 6]),
    st.sampled_from([2, 40, 200]),
)
def test_adaptation_places_the_farthest_admissible_candidate_past_ring_two(jump_seed, seed, h_max, samples):
    # cuts that move vertices of ring 3 and beyond (graft ring included),
    # and short cuts in their balls, where a moved vertex may land: the edges
    # from later vertices of the ring into it are tested again
    rng = np.random.default_rng(jump_seed)
    R = float(rng.uniform(0.3, 0.85))  # the cuts stay inside the unit disk
    g = build_grid(R, h_max, center=rng.uniform(-0.1, 0.1, 2), rotation=float(rng.uniform(0, 2 * np.pi)))
    rad = g.alpha * g.vertex_delta()
    a, b = [], []
    for vi in rng.choice(np.flatnonzero(g.ring_of >= 3), size=int(rng.integers(1, 9)), replace=False):
        p, q = _cut_to_earlier_neighbour(g, vi, rng)
        a.append(p)
        b.append(q)
        if rng.random() < 0.7:
            p = g.verts[vi] + rad[vi] * np.sqrt(rng.random()) * _unit(rng.normal(size=2))
            half = rng.uniform(0.05, 0.6) * rad[vi] * _unit(rng.normal(size=2))
            a.append(p - half)
            b.append(p + half)
    _assert_adapt_matches_farthest_oracle(g, _flat_map_with_jump(np.array(a), np.array(b)), samples, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([3, 4, 5]),
    st.sampled_from([40, 200]),
)
def test_shadow_rule_fails_exactly_the_vertices_the_oracle_fails(jump_seed, seed, h_max, samples):
    # a short polyline near the centre, as a covering ball sees the jump: the
    # vertex the shadow rule fails without a draw is the one the oracle
    # fails after rejecting every candidate
    rng = np.random.default_rng(jump_seed)
    R = float(rng.uniform(0.2, 0.9))
    g = build_grid(R, h_max, center=rng.uniform(-0.1, 0.1, 2), rotation=float(rng.uniform(0, 2 * np.pi)))
    pts = g.center + rng.uniform(0.02, 0.2) * (_polyline_through_centre(g, rng) - g.center)
    pts = _in_unit_disk(pts + rng.normal(scale=0.15, size=2) * R)
    u = _flat_map_with_jump(pts[:-1], pts[1:])
    real, fired = dyadic_grid._shadowed, []

    def spy(v, *args):
        fired.append((v.copy(), real(v, *args)))
        return fired[-1][1]

    with mock.patch.object(dyadic_grid, "_shadowed", spy):
        failed = _assert_adapt_matches_farthest_oracle(g, u, samples, seed)
    for k, (v, shadowed) in enumerate(fired):
        if shadowed:  # it ends the walk, at the oracle's vertex
            assert k == len(fired) - 1 and failed is not None
            assert np.array_equal(v, g.verts[failed])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2, 5, 8]),
    st.sampled_from([1, 200]),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_jump_free_map_keeps_the_base_grid(seed, h_max, samples, rotation):
    g = build_grid(0.7, h_max, center=(0.1, -0.05), rotation=rotation)
    u = _flat_map_with_jump(np.zeros((0, 2)), np.zeros((0, 2)))
    ad = adapt_to_jump(g, u, samples_per_vertex=samples, seed=seed, compute_stats=False)
    assert np.array_equal(ad.verts, g.verts)
    assert ad.perturbation_ratio_max == 0.0


@pytest.mark.parametrize("samples", [40, 200])
def test_shadowed_vertex_fails_early_as_the_farthest_oracle_fails(samples):
    g = build_grid(0.5, 4, rotation=0.3)
    along = np.array([np.cos(1.1), np.sin(1.1)])
    t = np.array([-0.45, -0.1, 0.12, 0.5])
    off = np.array([0.02, -0.01, 0.015, -0.02])
    pts = g.center + g.R * (t[:, None] * along + off[:, None] * np.array([-along[1], along[0]]))
    u = _flat_map_with_jump(pts[:-1], pts[1:])
    with pytest.raises(AdaptationError) as expected:
        _adapt_farthest_scalar(g, u, samples, seed=5)
    real, shadowed = dyadic_grid._shadowed, []

    def spy(*args):
        shadowed.append(real(*args))
        return shadowed[-1]

    with mock.patch.object(dyadic_grid, "_shadowed", spy), mock.patch.object(
        dyadic_grid, "_draw_candidates", wraps=dyadic_grid._draw_candidates
    ) as draws:
        with pytest.raises(AdaptationError) as exc:
            adapt_to_jump(g, u, samples_per_vertex=samples, seed=5, compute_stats=False)
    assert exc.value.vertex == expected.value.vertex == 1
    assert str(exc.value) == (
        f"vertex 1 (ring 1) could not be placed in {samples} samples; jump budget too large here"
    )
    # vertex 1 is the first that the walk stops at, and fails without a draw
    assert shadowed == [True]
    assert draws.call_count == 0


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _shadow_case(rng):
    """A jump segment [a, b], a neighbour n off its line, and a point v in
    the shadow of n behind [a, b], with the distances from v to the lines
    ab, na and nb and their segments' lengths."""
    a = rng.uniform(-1, 1, 2)
    b = a + rng.uniform(0.2, 2.0) * _unit(rng.normal(size=2))
    s = b - a
    n = a + rng.uniform(-0.5, 1.5) * s + rng.uniform(0.05, 1.0) * np.linalg.norm(s) * _unit(
        np.array([-s[1], s[0]])
    )
    v = n + rng.uniform(1.1, 4.0) * (a + rng.uniform(0.1, 0.9) * s - n)
    lines = [(a, b), (n, a), (n, b)]
    dist = np.array([abs(_cross(q - p, v - p)) / np.linalg.norm(q - p) for p, q in lines])
    length = np.array([np.linalg.norm(q - p) for p, q in lines])
    return a, b, n, v, dist, length


def _jump(a, b):
    return JumpSet.from_segments(a, b, np.ones((len(a), 1)), np.zeros((len(a), 1)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(["inside", "within_margin", "poking_out"]),
)
def test_shadow_rule_fires_only_where_every_candidate_is_rejected(seed, log_dilation, kind):
    rng = np.random.default_rng(seed)
    a, b, n, v, dist, length = _shadow_case(rng)
    # a boundary-ring arc through v: the circle about o of radius R
    R = 10 ** rng.uniform(0.3, 2.0) * dist.min()
    o = v - R * _unit(rng.normal(size=2))
    span = np.linalg.norm(o) + R
    i = int(np.argmin(dist))
    L = max(span, np.linalg.norm(n), np.linalg.norm(a), np.linalg.norm(b)) + dist[i]
    margin = dyadic_grid.SHADOW_MARGIN * L**2 / length[i]  # as a distance from line i
    A, B, N = a[None], b[None], n[None]
    if kind == "inside":
        rad = rng.uniform(0.05, 0.9) * dist[i]
        # further neighbours and segments only add ways to reject
        N = np.concatenate([N, rng.uniform(-2, 2, (int(rng.integers(0, 3)), 2))])
        extra = rng.uniform(-2, 2, (int(rng.integers(0, 3)), 2))
        A = np.concatenate([A, extra])
        B = np.concatenate([B, extra + rng.uniform(0.1, 0.5) * _unit(rng.normal(size=2))])
    elif kind == "within_margin":  # in the shadow, but closer to its edge than the margin
        rad = dist[i] - 0.5 * margin
    else:  # a sliver of the disk, just over the margin wide, is out of the shadow
        rad = dist[i] + rng.uniform(1.01, 2.0) * margin
    lam = 10.0**log_dilation
    v, o, N, A, B = lam * v, lam * o, lam * N, lam * A, lam * B
    rad, R, span = lam * rad, lam * R, lam * span
    J = _jump(A, B)

    fired = dyadic_grid._shadowed(v, rad, N, J, span)
    assert fired == (kind == "inside")
    if fired:
        th = 2 * np.pi * np.arange(64) / 64
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        interior = rad * np.sqrt(rng.random(64))[:, None] * ring[rng.permutation(64)]
        dt = np.linspace(-rad, rad, 33) / R
        rel = v - o
        arc = o + np.stack(
            [np.cos(dt) * rel[0] - np.sin(dt) * rel[1], np.sin(dt) * rel[0] + np.cos(dt) * rel[1]], axis=1
        )
        pts = np.concatenate([v[None], v + rad * ring, v + interior, arc])
        assert not dyadic_grid._admissible(pts, N, J, 0.0)[0].any()
    elif kind == "poking_out":
        # the point of the disk furthest out of the shadow is admissible
        p, q = [(A[0], B[0]), (N[0], A[0]), (N[0], B[0])][i]
        side = np.sign(_cross(q - p, v - p))
        out = v - rad * side * np.array([-(q - p)[1], (q - p)[0]]) / np.linalg.norm(q - p)
        assert dyadic_grid._admissible(out[None], N, J, 0.0)[0].all()


def test_shadow_rule_fires_at_every_scale():
    # segments_intersect's parallel test is relative, so the edge from the
    # disk to n is not parallel to [a, b] at any scale, and the rule fires
    # where the draws would all be rejected; at 2^-22 of the unit case the
    # cross product falls under the absolute EPS
    a, b, n, v = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -2.0]])
    for lam in (1e3, 1.0, 2.0**-22, 1e-7):
        J = _jump(lam * a[None], lam * b[None])
        assert dyadic_grid._shadowed(lam * v, lam * 0.5, lam * n[None], J, lam * 2.0)
        assert not dyadic_grid._admissible(lam * v[None], lam * n[None], J, 0.0)[0].any()
    assert abs(_cross(2.0**-22 * (n - v), 2.0**-22 * (b - a))) < _geom.EPS


def _build_grid_reference(R, h_max, center=(0.0, 0.0), rotation=0.0):
    """Ring-by-ring construction of every grid array, with no shared cache."""
    center = np.asarray(center, dtype=float)
    verts = [center.copy()]
    ring_of = [0]
    ring_index = [np.array([0])]
    for h in range(1, h_max + 1):
        n = 2**h
        ang = 2 * np.pi * np.arange(1, n + 1) / n + rotation
        pts = center + R * (1.0 - 2.0**-h) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ring_index.append(np.arange(len(verts), len(verts) + n))
        verts.extend(pts)
        ring_of.extend([h] * n)
    n_b = 2**h_max
    ang = 2 * np.pi * np.arange(1, n_b + 1) / n_b + rotation
    bpts = center + R * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    boundary_index = np.arange(len(verts), len(verts) + n_b)
    verts.extend(bpts)
    ring_of.extend([h_max] * n_b)
    verts, ring_of = np.asarray(verts), np.asarray(ring_of)
    on_boundary = np.zeros(len(verts), dtype=bool)
    on_boundary[boundary_index] = True
    p1, p2 = ring_index[1]
    q1, q2, q3, q4 = ring_index[2]
    tris = [
        (q1, q2, p1), (q1, p1, 0), (q1, 0, p2), (q1, p2, q4),
        (q3, p1, q2), (q3, 0, p1), (q3, p2, 0), (q3, q4, p2),
    ]
    for h in range(2, h_max):
        tris += dyadic_grid._stitch_doubling(ring_index[h], ring_index[h + 1])
    tris += dyadic_grid._stitch_graft(ring_index[h_max], boundary_index)
    tris = np.asarray(tris, dtype=int)
    edges = np.unique(np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1), axis=0)
    elen = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    h_edge = np.maximum(ring_of[edges[:, 0]], ring_of[edges[:, 1]])
    ratios = elen / (R * 2.0 ** (-h_edge.astype(float)))
    v = verts[tris]
    angs = []
    for i in range(3):
        e1 = v[:, (i + 1) % 3] - v[:, i]
        e2 = v[:, (i + 2) % 3] - v[:, i]
        cosang = np.einsum("ij,ij->i", e1, e2) / (np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1))
        angs.append(np.arccos(np.clip(cosang, -1, 1)))
    return dict(
        verts=verts, ring_of=ring_of, on_boundary=on_boundary, tris=tris, edges=edges,
        c1_hat=float(ratios.min()), c2_hat=float(ratios.max()),
        alpha=float(ratios.min()) / (8.0 * float(ratios.max())),
        min_angle=float(np.min(angs)), max_angle=float(np.max(angs)),
    )


@pytest.mark.parametrize(
    "R,h_max,center,rotation",
    [(1.0, 2, (0.0, 0.0), 0.0), (0.37, 5, (0.1, -0.2), 1.234), (2.5, 8, (-1.0, 3.0), 5.9),
     (0.61, 5, (0.0, 0.0), 0.0625 * np.pi), (1e-3, 4, (0.3, 0.3), 2.0)],
)
def test_cached_topology_grid_equals_full_construction(R, h_max, center, rotation):
    g = build_grid(R, h_max, center=center, rotation=rotation)
    ref = _build_grid_reference(R, h_max, center=center, rotation=rotation)
    for name in ("verts", "ring_of", "on_boundary", "tris", "edges"):
        assert np.array_equal(getattr(g, name), ref[name]), name
    for name in ("c1_hat", "c2_hat", "alpha", "min_angle", "max_angle"):
        assert getattr(g, name) == ref[name], name
    # topology arrays are shared between grids and cannot be written
    g2 = build_grid(2 * R, h_max, rotation=rotation + 1.0)
    for name in ("ring_of", "on_boundary", "tris", "edges"):
        arr = getattr(g, name)
        assert arr is getattr(g2, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert g.verts.flags.writeable and g.verts is not g2.verts

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sbvx.cellsplit import _tri_samples
from sbvx.errors import ConstructionError, DegenerateInputError, ToolkitError
from sbvx.quadrature import Annulus, Disk, Rect
from sbvx.sbv2d import (
    CellPatch,
    DiscreteSbvMap,
    JumpSet,
    bv_poincare_check,
    delaunay_disk_mesh,
    dilate_map,
    fan_mesh,
    jump_length,
    synthesize,
    total_variation_parts,
    transform_map,
    two_constant_map,
    value_gap,
)


def _table(patch):
    """The sample table of every triangle of the patch (see _tri_samples)."""
    return _tri_samples(patch, np.arange(len(patch.tris)))


def _sampled(u, region):
    """(pts, w, cell, gmag): the sampled view of u's memoised split of the
    region (see CellSplit.samples)."""
    return u._split([region]).samples[:4]


def step_map(disk, n_rings=12):
    """u = 0 left / 1 right of the vertical diameter."""
    verts, tris, arc = fan_mesh(disk, n_rings)
    bc = verts[tris].mean(axis=1)
    vals = (bc[:, 0] > 0).astype(float)[:, None]
    grads = np.zeros((len(tris), 1, 2))
    patch = CellPatch(verts, tris, vals, grads, disk, arc)
    jump = JumpSet.from_segments([[0, -disk.radius]], [[0, disk.radius]], [[1.0]], [[0.0]])
    return DiscreteSbvMap(disk, (patch,), jump)


# ---------------------------------------------------------------------------
# jump sets and measures
# ---------------------------------------------------------------------------


def test_jump_length_empty(unit_disk):
    u = synthesize("affine", {"G": np.eye(2)}, seed=0)
    assert jump_length(u, unit_disk) == 0.0


def test_jump_length_diameter(unit_disk):
    u = step_map(unit_disk)
    assert jump_length(u, unit_disk) == pytest.approx(2.0, abs=1e-12)


def test_jump_length_annulus_vs_monte_carlo(unit_disk):
    # one slanted chord against 1e6-point line sampling
    a, b = np.array([-0.9, -0.35]), np.array([0.8, 0.6])
    u = two_constant_map(unit_disk, np.stack([a * 2, b * 2]), [1.0, 0.0], [0.0, 1.0])
    ann = Annulus((0, 0), 0.55, 0.85)
    got = u.jump.length_in(ann)
    n = 10**6
    t = (np.arange(n) + 0.5) / n
    pts = (a * 2)[None, :] + t[:, None] * ((b - a) * 2)[None, :]
    r = np.linalg.norm(pts, axis=1)
    frac = np.mean((r >= 0.55) & (r <= 0.85))
    mc = frac * np.linalg.norm((b - a) * 2)
    assert got == pytest.approx(mc, rel=0.005)


def test_jumpset_validation():
    with pytest.raises(ToolkitError):
        JumpSet.from_segments([[0, 0]], [[0, 0]], [[1.0]], [[0.0]])  # zero length
    with pytest.raises(ToolkitError):
        JumpSet.from_segments([[0, 0]], [[1, 0]], [[1.0]], [[1.0]])  # equal traces
    with pytest.raises(ToolkitError):
        JumpSet(
            np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
            np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0, 0.0]]),
        )  # normal parallel to segment


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
def test_clip_outside_disk_carries_source_traces_and_normal(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, 2))
    b = a + rng.normal(scale=0.5, size=(n, 2))
    tp = rng.normal(size=(n, 3))
    J = JumpSet.from_segments(a, b, tp, tp + 1.0 + rng.random((n, 3)))
    disk = Disk(tuple(rng.uniform(-0.5, 0.5, 2)), float(rng.uniform(0.05, 1.0)))
    out = J.clip_outside_disk(disk)
    # each segment alone gives the same pieces, all carrying its own data
    rows = []
    for i in range(n):
        one = JumpSet(J.a[i : i + 1], J.b[i : i + 1], J.trace_plus[i : i + 1],
                      J.trace_minus[i : i + 1], J.normal[i : i + 1]).clip_outside_disk(disk)
        rows.append((one, i))
    assert len(out) == sum(len(one) for one, _ in rows)
    k = 0
    for one, i in rows:
        for j in range(len(one)):
            assert np.array_equal(out.a[k], one.a[j]) and np.array_equal(out.b[k], one.b[j])
            assert np.array_equal(out.trace_plus[k], J.trace_plus[i])
            assert np.array_equal(out.trace_minus[k], J.trace_minus[i])
            assert np.array_equal(out.normal[k], J.normal[i])
            # the piece lies on its source segment
            e, ends = J.b[i] - J.a[i], np.stack([out.a[k], out.b[k]]) - J.a[i]
            assert np.all(np.abs(e[0] * ends[:, 1] - e[1] * ends[:, 0]) <= 1e-12 * (1 + e @ e))
            k += 1
    assert out.length_in(disk) <= 1e-9
    assert out.total_length == pytest.approx(J.total_length - J.length_in(disk), abs=1e-9)


def test_total_variation_constant(unit_disk):
    u = synthesize("affine", {"G": np.zeros((2, 2)), "u0": np.array([1.0, 2.0])}, seed=0)
    bulk, jmp = total_variation_parts(u, unit_disk)
    assert bulk == 0.0 and jmp == 0.0


def test_total_variation_piecewise_constant(unit_disk):
    # jump of vector norm 3 across a unit segment
    u = two_constant_map(
        unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]), [3.0, 0.0], [0.0, 0.0]
    )
    seg = Disk((0.0, 0.0), 0.5)  # captures exactly length-1 piece of the jump
    bulk, jmp = total_variation_parts(u, seg)
    assert bulk == 0.0
    assert jmp == pytest.approx(3.0 * 1.0, rel=1e-12)


def test_total_variation_affine(unit_disk):
    G = np.array([[0.7, 0.1], [0.0, -0.4]])
    u = synthesize("affine", {"G": G}, seed=1)
    rho = 0.8
    bulk, jmp = total_variation_parts(u, Disk((0, 0), rho))
    assert jmp == 0.0
    assert bulk == pytest.approx(np.linalg.norm(G) * np.pi * rho**2, rel=1e-3)


def test_total_variation_additive(unit_disk):
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.4, "k": 2}, seed=5)
    inner = Disk((0, 0), 0.5)
    ring = Annulus((0, 0), 0.5, 1.0)
    bi, ji = total_variation_parts(u, inner)
    br, jr = total_variation_parts(u, ring)
    bt, jt = total_variation_parts(u, unit_disk)
    assert bi + br == pytest.approx(bt, rel=1e-9)
    assert ji + jr == pytest.approx(jt, rel=1e-9)


# ---------------------------------------------------------------------------
# Poincare
# ---------------------------------------------------------------------------


def test_poincare_constant(unit_disk):
    u = synthesize("affine", {"G": np.zeros((2, 2)), "u0": np.array([2.0, -1.0])}, seed=0)
    lhs, ratio = bv_poincare_check(u, unit_disk)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert ratio == 0.0


def test_poincare_step_closed_form(unit_disk):
    u = step_map(unit_disk, n_rings=16)
    lhs, ratio = bv_poincare_check(u, unit_disk)
    assert lhs == pytest.approx(np.pi / 2, rel=1e-4)
    assert ratio == pytest.approx(np.pi / 8, rel=1e-4)


def test_poincare_affine_square_vs_quadrature():
    dom = Disk((0.5, 0.5), 0.9)
    G = np.array([[1.0, 0.5]])
    verts, tris, arc = fan_mesh(dom, 14)
    bc = verts[tris].mean(axis=1)
    vals = (bc - np.array([0.5, 0.5])) @ G.T
    grads = np.repeat(G[None, :, :], len(tris), axis=0)
    u = DiscreteSbvMap(dom, (CellPatch(verts, tris, vals, grads, dom, arc),), JumpSet.empty(1))
    square = Rect(0.0, 1.0, 0.0, 1.0)
    lhs, ratio = bv_poincare_check(u, square)
    mean = G @ np.array([0.0, 0.0])  # centred affine over the symmetric square
    val, _ = integrate.dblquad(
        lambda y, x: abs(G[0, 0] * (x - 0.5) + G[0, 1] * (y - 0.5)), 0, 1, 0, 1,
        epsabs=1e-12,
    )
    assert lhs == pytest.approx(val, rel=1e-3)
    du = np.linalg.norm(G) * 1.0
    assert ratio == pytest.approx(val / (np.sqrt(2) * du), rel=1e-3)


def test_poincare_inconsistency_error(unit_disk):
    # nonconstant values with zero declared |Du|
    verts, tris, arc = fan_mesh(unit_disk, 6)
    bc = verts[tris].mean(axis=1)
    vals = (bc[:, 0] > 0).astype(float)[:, None]
    grads = np.zeros((len(tris), 1, 2))
    u = DiscreteSbvMap(unit_disk, (CellPatch(verts, tris, vals, grads, unit_disk, arc),), JumpSet.empty(1))
    with pytest.raises(DegenerateInputError):
        bv_poincare_check(u, unit_disk)


EMPIRICAL_POINCARE_BOUND = 0.30  # recorded C(2, k) surrogate of the corpus


def test_poincare_ratio_bounded_over_corpus(unit_disk):
    ratios = []
    for seed in range(100):
        u = synthesize(
            "random-cells-with-random-polyline", {"budget": 0.3, "k": 2, "n_points": 90}, seed=seed
        )
        _, ratio = bv_poincare_check(u, Disk((0, 0), 0.7))
        ratios.append(ratio)
    # the empirical Poincare constant of the corpus stays bounded
    assert max(ratios) <= EMPIRICAL_POINCARE_BOUND


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_affine_exact(unit_disk):
    G = np.array([[0.3, -0.2], [0.5, 0.1]])
    u = synthesize("affine", {"G": G}, seed=3)
    assert jump_length(u, unit_disk) == 0.0
    assert np.allclose(u.patches[0].grads, G[None, :, :])


def test_synthesize_arc_budget(unit_disk):
    for seed in (0, 5, 9):
        u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.37, "k": 2}, seed=seed)
        assert jump_length(u, unit_disk) == pytest.approx(0.37, rel=0.01)


def test_synthesize_vortex_sphere_values(unit_disk):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=4)
    norms = np.linalg.norm(u.patches[0].values, axis=1)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert u.target == {"kind": "sphere", "radius": 1.0}
    assert jump_length(u, unit_disk) == pytest.approx(0.05, rel=0.01)


def test_synthesize_budget_errors(unit_disk):
    with pytest.raises(ConstructionError):
        synthesize("piecewise-constant-with-arc-jump", {"budget": 50.0, "k": 2}, seed=0)
    with pytest.raises(ConstructionError):
        synthesize("sphere-vortex-with-slit", {"budget": 0.9}, seed=0)


def test_synthesize_deterministic(unit_disk):
    u1 = synthesize("random-cells-with-random-polyline", {"budget": 0.2, "k": 3}, seed=11)
    u2 = synthesize("random-cells-with-random-polyline", {"budget": 0.2, "k": 3}, seed=11)
    assert np.array_equal(u1.patches[0].values, u2.patches[0].values)
    assert np.array_equal(u1.jump.a, u2.jump.a)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_cells_partition_domain(unit_disk):
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.3, "k": 2}, seed=2)
    total = u.patches[0].cell_areas.sum()
    assert total == pytest.approx(np.pi, rel=1e-9)


def test_dilation_covariance(unit_disk):
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.5, "k": 2}, seed=7)
    sigma = 2.0
    v = dilate_map(u, sigma, new_center=(0.3, -0.4))
    big = Disk((0.3, -0.4), sigma)
    assert jump_length(v, big) == pytest.approx(sigma * jump_length(u, unit_disk), rel=1e-12)
    assert v.patches[0].cell_areas.sum() == pytest.approx(
        sigma**2 * u.patches[0].cell_areas.sum(), rel=1e-12
    )


def _stitch_by_walk(verts, inner_idx, outer_idx):
    """Triangles of the annulus between two rings by the advancing-front walk."""
    tris = []
    if len(inner_idx) == 1:
        cidx = inner_idx[0]
        n = len(outer_idx)
        for i in range(n):
            tris.append((cidx, outer_idx[i], outer_idx[(i + 1) % n]))
        return tris
    ang_i = np.arctan2(*(verts[inner_idx] - verts[inner_idx].mean(axis=0)).T[::-1])
    ang_o = np.arctan2(*(verts[outer_idx] - verts[inner_idx].mean(axis=0)).T[::-1])
    oi = inner_idx[np.argsort(ang_i)]
    oo = outer_idx[np.argsort(ang_o)]
    ni, no = len(oi), len(oo)
    i = j = 0
    while i < ni or j < no:
        fi = (i + 0.5) / ni
        fj = (j + 0.5) / no
        if j >= no or (i < ni and fi <= fj):
            tris.append((oi[i % ni], oo[j % no], oi[(i + 1) % ni]))
            i += 1
        else:
            tris.append((oi[i % ni], oo[j % no], oo[(j + 1) % no]))
            j += 1
    return tris


def _fan_mesh_by_walk(disk, n_rings):
    """fan_mesh as it was built ring by ring, each annulus by the walk."""
    c = np.asarray(disk.center, dtype=float)
    verts, ring_start = [c.copy()], [0]
    for j in range(1, n_rings + 1):
        th = 2 * np.pi * np.arange(6 * j) / (6 * j)
        ring_start.append(len(verts))
        verts.extend(c + (disk.radius * j / n_rings) * np.stack([np.cos(th), np.sin(th)], axis=1))
    verts = np.asarray(verts)
    tris = np.array([t for j in range(n_rings) for t in _stitch_by_walk(
        verts, np.arange(6 * j) + ring_start[j] if j > 0 else np.array([0]),
        np.arange(6 * (j + 1)) + ring_start[j + 1])])
    return verts, tris, (tris >= ring_start[-1]).sum(axis=1) == 2


@pytest.mark.parametrize("center", [(0.0, 0.0), (1e3, -1e3)])
@pytest.mark.parametrize("radius", [1e-6, 1.0, 1e3])
def test_fan_mesh_stitches_rings_as_the_walk_did(center, radius):
    disk = Disk(center, radius)
    for n in range(1, 21):
        verts, tris, arc = fan_mesh(disk, n)
        want_verts, want_tris, want_arc = _fan_mesh_by_walk(disk, n)
        assert np.array_equal(verts, want_verts)
        assert tris.dtype == want_tris.dtype and np.array_equal(tris, want_tris)
        assert np.array_equal(arc, want_arc)


def _reference_dilate(u, factor, new_center):
    """The former stand-alone dilate_map body."""
    oc = np.asarray(u.domain.center, dtype=float)
    nc = np.asarray(new_center, dtype=float)
    patches = []
    for p in u.patches:
        circle = Disk(tuple(nc + factor * (np.asarray(p.circle.center) - oc)), p.circle.radius * factor)
        patches.append(
            CellPatch(nc + factor * (p.verts - oc), p.tris, p.values, p.grads / factor, circle, p.arc_cells)
        )
    jump = u.jump.transformed(oc, factor, nc)
    return DiscreteSbvMap(Disk(tuple(nc), u.domain.radius * factor), tuple(patches), jump, u.target)


@pytest.mark.parametrize("factor", [0.05, 0.37, 1.0, 2.0, 1e3])
def test_dilate_is_transform_about_domain_center(factor):
    from sbvx import energy

    assert energy.transform_map is transform_map
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5)
    u = transform_map(u, (0.0, 0.0), 1.0, (0.25, -0.5))  # off-origin domain centre
    got = dilate_map(u, factor, new_center=(-1.5, 0.75))
    ref = _reference_dilate(u, factor, (-1.5, 0.75))
    assert got.to_json() == ref.to_json()


def test_map_json_roundtrip(unit_disk):
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.3, "k": 2}, seed=8)
    back = DiscreteSbvMap.from_json(u.to_json())
    pts = np.random.default_rng(0).random((40, 2)) * 0.8 - 0.4
    assert np.allclose(back.value_at(pts), u.value_at(pts))
    assert back.jump.total_length == pytest.approx(u.jump.total_length, rel=1e-12)


def test_empty_jump_keeps_the_trace_width_through_json():
    """A jump set of zero segments takes k from its traces' last axis, as
    the JSON round trip does from the map's values."""
    u = synthesize("sphere-vortex-with-slit", {"twist": 0.0, "budget": 0.05}, seed=1)
    back = DiscreteSbvMap.from_json(json.loads(json.dumps(u.to_json())))
    assert len(u.jump) == 0 and u.k == 2
    for jump in (u.jump, back.jump):
        assert jump.trace_plus.shape == jump.trace_minus.shape == (0, 2)
    empty = JumpSet.from_segments(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)))
    assert empty.trace_plus.shape == (0, 3)


def test_sphere_target_validation(unit_disk):
    verts, tris, arc = fan_mesh(unit_disk, 4)
    vals = np.full((len(tris), 2), [0.5, 0.0])
    grads = np.zeros((len(tris), 2, 2))
    patch = CellPatch(verts, tris, vals, grads, unit_disk, arc)
    with pytest.raises(ToolkitError):
        DiscreteSbvMap(unit_disk, (patch,), JumpSet.empty(2), {"kind": "sphere", "radius": 1.0})


# ---------------------------------------------------------------------------
# sample decomposition
# ---------------------------------------------------------------------------


def _inner_patch(u, center, radius, n_rings=4):
    disk = Disk(center, radius)
    verts, tris, arc = fan_mesh(disk, n_rings)
    grads = np.repeat(np.array([[[3.0, 0.0], [0.0, 3.0]]]), len(tris), axis=0)
    return CellPatch(verts, tris, np.zeros((len(tris), 2)), grads, disk, arc)


def test_bulk_samples_memo_is_per_map_and_read_only(unit_disk):
    u = synthesize("affine", {"G": [[1.0, 0.0], [0.0, 1.0]], "u0": [0.0, 0.0]}, seed=0)
    ball = Disk((0.1, 0.0), 0.6)
    first = u.bulk_samples(ball)
    assert all(a is b for a, b in zip(first, u.bulk_samples(Disk((0.1, 0.0), 0.6))))
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    phi = u.with_patch(_inner_patch(u, (0.2, 0.1), 0.3))
    got = phi.bulk_samples(ball)
    fresh = DiscreteSbvMap(phi.domain, phi.patches, phi.jump, phi.target).bulk_samples(ball)
    assert not any(a is b for a, b in zip(got, first))
    assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
    assert np.max(got[2]) > np.max(first[2])  # the inner patch's steeper gradient shows
    # the parent still answers from its own samples, the other region afresh
    assert all(a is b for a, b in zip(u.bulk_samples(ball), first))
    other = u.bulk_samples(Disk((0.1, 0.0), 0.5))
    assert np.sum(other[1]) < np.sum(first[1])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_cell_samples_is_the_per_cell_view_of_bulk_samples(global_map, cutting_regions, which):
    region = cutting_regions[which]
    pts, w, g = global_map.bulk_samples(region)
    values, grads, cell, cpts, cw = global_map.cell_samples(region)
    assert len(values) == len(grads) == sum(len(q.tris) for q in global_map.patches)
    assert np.array_equal(cpts, pts) and np.array_equal(cw, w)
    assert np.array_equal(g, np.linalg.norm(grads[cell].reshape(len(cell), -1), axis=1))
    # the later patch's cells are among the samples
    assert np.any(cell >= len(global_map.patches[0].tris))


def test_bulk_samples_weights_sum_to_exact_area(unit_disk):
    u = synthesize("affine", {"G": [[1.0, 2.0], [0.0, 1.0]], "u0": [0.0, 0.0]}, seed=0)
    rng = np.random.default_rng(5)
    # disks clear of the arc bulges (outer-ring sagitta 1 - cos(pi / 60) < 0.002)
    for _ in range(12):
        r = rng.uniform(0.05, 0.6)
        rho = rng.uniform(0.0, 0.99 - r)
        ang = rng.uniform(0, 2 * np.pi)
        disk = Disk((rho * np.cos(ang), rho * np.sin(ang)), r)
        _, w, _ = u.bulk_samples(disk)
        assert np.sum(w) == pytest.approx(np.pi * r * r, rel=1e-12)
    _, w, _ = u.bulk_samples(Disk((0.2, -0.1), 1.5))
    assert np.sum(w) == pytest.approx(np.pi, rel=1e-12)


@pytest.fixture(scope="module")
def sample_maps(global_map, affine_field):
    """Synthesized maps, a global_approx and a local_phi output, and a fan
    stack in which the third patch lies inside the second."""
    from sbvx import local_phi

    affine = synthesize("affine", {"G": [[1.0, 2.0], [0.0, 1.0]], "u0": [0.0, 0.0]}, seed=0)
    _, phi, _ = local_phi(affine, affine_field, 0.5, seed=3, center=(0.1, 0.05), r=0.3)
    stack = affine.with_patch(_inner_patch(affine, (0.2, 0.1), 0.4))
    stack = stack.with_patch(_inner_patch(stack, (0.3, 0.2), 0.15, n_rings=3))
    stack = stack.with_patch(_inner_patch(stack, (-0.35, -0.3), 0.3, n_rings=5))
    return [
        affine,
        synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5),
        synthesize("sphere-vortex-with-slit", {"budget": 0.05, "k": 3}, seed=2),
        global_map,
        phi,
        stack,
    ]


def test_subcell_bounds_hold_the_per_sample_corner_rebuild(sample_maps, rad_by_rebuild):
    """rad, in closed form, is the rebuilt corners' largest distance, and
    reach is at least the largest |pt - barycentre| + rad of the rebuilt
    subcells, for every patch, graded top patches included. The rebuilt
    corners carry the round-off of the patch's coordinates, tol below,
    which on a small triangle far from the origin exceeds 1e-13 of rad."""
    for u in sample_maps:
        for patch in u.patches:
            pts, _, cell_id, rad = _table(patch)
            reach = patch._reach
            want_rad, want_reach = rad_by_rebuild(patch, pts, cell_id)
            tol = 8 * np.finfo(float).eps * np.max(np.abs(patch.verts))
            assert np.all(np.abs(rad - want_rad) <= 1e-13 * want_rad + tol)
            assert np.all((rad == 0) == (want_rad == 0))  # arc samples
            assert np.all(reach >= want_reach - tol)


_REGION_KINDS = (
    "circle", "larger", "smaller", "corner", "tangent", "bound", "disk", "annulus",
    "ring", "inner_bound", "domain",
)


def _probe_region(u, kind, rng):
    """A region of the given kind for the map u: a patch circle itself or
    dilated by a relative 1e-15 to 1e-3 either way, a tiny disk at a cell
    corner, a disk tangent to a later circle from either side, a disk
    tangent from outside to a triangle's bounding circle in the direction of
    its farthest sample, random disks and annuli, an annulus with a patch
    circle for a ring, one whose inner circle a triangle's bounding circle
    touches from inside, and the domain."""
    scale = u.domain.radius
    c0 = np.asarray(u.domain.center)
    i = int(rng.integers(len(u.patches)))
    circle = u.patches[i].circle
    eps = 10.0 ** rng.integers(-15, -2)
    if kind == "circle":
        return circle
    if kind in ("larger", "smaller"):
        return Disk(circle.center, circle.radius * (1 + eps if kind == "larger" else 1 - eps))
    if kind == "corner":
        patch = u.patches[i]
        return Disk(tuple(patch.verts[rng.integers(len(patch.verts))]), scale * 10.0 ** rng.uniform(-12, -2))
    if kind == "tangent":
        later = u.patches[-1].circle
        r = later.radius * rng.uniform(0.05, 0.95)
        off = later.radius + (r if rng.random() < 0.5 else -r)
        t = rng.uniform(0, 2 * np.pi)
        return Disk(tuple(np.asarray(later.center) + off * np.array([np.cos(t), np.sin(t)])), r)
    if kind == "bound":
        patch = u.patches[i]
        return _touching_bound(patch, int(rng.integers(len(patch.tris))), scale * rng.uniform(0.01, 0.5))
    if kind == "inner_bound":
        patch = u.patches[i]
        t = int(rng.integers(len(patch.tris)))
        r = scale * rng.uniform(0.01, 0.5)
        outside = _touching_bound(patch, t, r)
        # the same touching point, with the disk on the triangle's side
        center = 2 * patch.barycenters[t] - np.asarray(outside.center)
        r_in = float(np.linalg.norm(np.asarray(outside.center) - center)) - r
        return Annulus(tuple(center), r_in, r_in + scale * rng.uniform(0.01, 0.5))
    if kind == "disk":
        return Disk(tuple(c0 + scale * rng.uniform(-0.9, 0.9, 2)), scale * rng.uniform(0.005, 0.8))
    if kind == "annulus":
        r_in = scale * rng.uniform(0.0, 0.6)
        return Annulus(tuple(c0 + scale * rng.uniform(-0.5, 0.5, 2)), r_in, r_in + scale * rng.uniform(0.01, 0.6))
    if kind == "ring":
        if rng.random() < 0.5:
            return Annulus(circle.center, circle.radius * rng.uniform(0.0, 0.9), circle.radius)
        return Annulus(circle.center, circle.radius, circle.radius * rng.uniform(1.01, 3.0))
    return u.domain


def _touching_bound(patch, t, r):
    """The disk of radius r touching triangle t's bounding circle
    (barycentre, CellPatch._reach) from outside, where the sample that sets
    it points from the barycentre."""
    pts, _, cid, rad = _table(patch)
    reach = patch._reach
    own = np.flatnonzero(cid == t)
    far = own[np.argmax(np.linalg.norm(pts[own] - patch.barycenters[t], axis=1) + rad[own])]
    direction = (pts[far] - patch.barycenters[t]) / np.linalg.norm(pts[far] - patch.barycenters[t])
    return Disk(tuple(patch.barycenters[t] + (reach[t] + r) * direction), r)


def _patch_inside(circle, region):
    """Whether the patch circle lies in the Disk or Annulus region."""
    if isinstance(region, Disk):
        r_in, r_out = -np.inf, region.radius
    else:
        r_in, r_out = region.r_inner, region.r_outer
    d = float(np.linalg.norm(np.asarray(circle.center) - np.asarray(region.center)))
    return d + circle.radius <= r_out and d - circle.radius >= r_in


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(_REGION_KINDS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_classified_samples_equal_full_scan(sample_maps, full_scan, which, log_factor, kind, seed):
    """Per patch, the classified build keeps exactly the samples the full
    scan keeps. A patch inside the region is sampled without the clip: its
    Σw and Σw·g^q agree with the full scan's to 1e-12, the round-off of the
    full scan's exact clip of the straddlers (up to 1.9e-13 relative at a
    dilation by 1e-3), and with no later circle over it its Σw is its cell
    areas' sum to 1e-14."""
    rng = np.random.default_rng(seed)
    u = dilate_map(sample_maps[which], 10.0**log_factor, new_center=(0.3, -0.2))
    region = _probe_region(u, kind, rng)
    pts, w, cell, g = _sampled(u, region)
    gmag = np.concatenate([q.gmag for q in u.patches])
    offsets = np.cumsum([0] + [len(q.tris) for q in u.patches])
    for i, (rp, rw, rc) in enumerate(full_scan(u, region)):
        sel = (cell >= offsets[i]) & (cell < offsets[i + 1])
        if _patch_inside(u.patches[i].circle, region):
            for q in (0.0, 1.0, 1.6):
                got, ref = np.sum(w[sel] * g[sel] ** q), np.sum(rw * gmag[rc] ** q)
                assert abs(got - ref) <= 1e-12 * ref
            circle = u.patches[i].circle
            if all(
                np.linalg.norm(np.subtract(q.circle.center, circle.center)) > q.circle.radius + circle.radius
                for q in u.patches[i + 1 :]
            ):
                area = u.patches[i].cell_areas.sum()
                assert abs(np.sum(w[sel]) - area) <= 1e-14 * area
        else:
            for a, b in ((pts[sel], rp), (w[sel], rw), (cell[sel], rc), (g[sel], gmag[rc])):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("which, factor", [(0, 1.0), (1, 1e-3), (2, 1e3)])
def test_disks_touching_bounding_circles_keep_the_full_scan(sample_maps, full_scan, which, factor):
    """A disk touching a triangle's bounding circle keeps exactly the full
    scan's samples, on every triangle of a one-patch map: the cull margin
    covers the round-off of the touching. (At the touching point the full
    scan keeps, now and then, a subcell whose exact clip rounds to about
    1e-19 of the scale squared; a cull without margin drops it.)"""
    u = dilate_map(sample_maps[which], factor, new_center=(0.3, -0.2))
    rng = np.random.default_rng(which)
    for t in range(len(u.base.tris)):
        region = _touching_bound(u.base, t, factor * rng.uniform(0.01, 0.5))
        pts, w, cell, _ = _sampled(u, region)
        (rp, rw, rc), = full_scan(u, region)
        assert np.array_equal(pts, rp) and np.array_equal(w, rw) and np.array_equal(cell, rc)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
)
def test_disk_holding_every_patch_samples_as_none(sample_maps, which, log_factor, shift, angle, slack):
    """A disk containing every patch circle gives the decomposition of the
    whole map, bitwise: the domain disk and disks around it alike."""
    scale = 10.0**log_factor
    u = dilate_map(sample_maps[which], scale, new_center=(0.3, -0.2))
    c = np.asarray(u.domain.center) + shift * scale * np.array([np.cos(angle), np.sin(angle)])
    r = max(np.linalg.norm(np.asarray(q.circle.center) - c) + q.circle.radius for q in u.patches)
    for disk in (u.domain, Disk(tuple(c), r * (1 + slack))):
        got = u.bulk_samples(disk)
        whole = u.bulk_samples(None)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole))


# ---------------------------------------------------------------------------
# point location: triangles and arc bulges
# ---------------------------------------------------------------------------


def _points_in_tris(pts, tri_verts, tol=1e-9):
    """pts (m,2) vs matching tri_verts (m,3,2): barycentric membership."""
    v0 = tri_verts[:, 0]
    d1 = tri_verts[:, 1] - v0
    d2 = tri_verts[:, 2] - v0
    w = pts - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    l1 = (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * w[:, 1] - d1[:, 1] * w[:, 0]) / det
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1 + tol)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _in_bulges(patch, pts, cells):
    """(m, len(cells)): whether arc cell cells[j]'s bulge holds pts[i], as
    the disk part beyond the chord (its two vertices nearest the circle) and
    within the chord's angular span seen from the centre."""
    c, R = np.asarray(patch.circle.center), patch.circle.radius
    v = patch.verts[patch.tris[cells]]
    near = np.argsort(np.abs(np.linalg.norm(v - c, axis=2) - R), axis=1)
    a, b, o = (np.take_along_axis(v, near[:, i, None, None], axis=1)[:, 0] for i in range(3))
    x = pts[:, None, :]
    beyond = _cross(b - a, x - a) * _cross(b - a, o - a) <= 0
    span = np.sign(_cross(a - c, b - c))
    between = (_cross(a - c, x - c) * span >= 0) & (_cross(x - c, b - c) * span >= 0)
    in_disk = np.linalg.norm(x - c, axis=2) <= R * (1 + 1e-9)
    return patch.arc_cells[cells] & beyond & between & in_disk


def _locate_oracle(patch, pts, block=128):
    """locate's rule, checked against every cell: of the cells whose
    triangle or arc bulge holds a point, the nearest barycentre, the lowest
    cell id on a tie; the nearest barycentre of all when no cell holds it."""
    nt = len(patch.tris)
    best = np.full(len(pts), np.inf)
    out = np.full(len(pts), -1)
    for lo in range(0, nt, block):
        cells = np.arange(lo, min(lo + block, nt))
        tri = patch.verts[patch.tris[cells]]
        holds = _points_in_tris(
            np.repeat(pts, len(cells), axis=0), np.tile(tri, (len(pts), 1, 1))
        ).reshape(len(pts), len(cells))
        holds |= _in_bulges(patch, pts, cells)
        d = np.sum((pts[:, None] - patch.barycenters[cells]) ** 2, axis=2)
        d = np.where(holds, d, np.inf)
        j = np.argmin(d, axis=1)  # the first of equal distances: the lowest id
        dj = d[np.arange(len(pts)), j]
        better = dj < best  # a later block wins only by a strictly nearer barycentre
        best[better], out[better] = dj[better], cells[j[better]]
    lost = out < 0
    out[lost] = np.argmin(np.sum((pts[lost, None] - patch.barycenters) ** 2, axis=2), axis=1)
    return out


def _test_mesh(mesh, disk, n_rings, rng):
    """(verts, tris, arc_cells) of a fan, Delaunay or dyadic mesh of disk."""
    if mesh == "fan":
        return fan_mesh(disk, n_rings)
    if mesh == "delaunay":
        return delaunay_disk_mesh(disk, 5 * n_rings + 3, rng)
    from sbvx.dyadic_grid import build_grid

    g = build_grid(disk.radius, min(max(n_rings, 2), 6), center=disk.center,
                   rotation=float(rng.uniform(0, 2 * np.pi)))
    return g.verts, g.tris, g.on_boundary[g.tris].sum(axis=1) == 2


def _zero_patch(verts, tris, disk, arc):
    nt = len(tris)
    return CellPatch(verts, tris, np.zeros((nt, 1)), np.zeros((nt, 1, 2)), disk, arc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["fan", "delaunay", "dyadic"]),
    st.integers(min_value=1, max_value=12),
    st.one_of(st.integers(-10, 10).map(lambda k: 2.0**k), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_locate_follows_the_nearest_holding_cell_rule(seed, mesh, n_rings, factor, shift):
    """locate equals the rule checked against every cell, triangle or arc
    bulge: the nearest barycentre among the cells holding a point, the
    lowest id on a tie, the nearest of all for a point no cell holds. It
    does so on vertices, edge midpoints (tied barycentres), points on shared
    edges, barycentres and points in and around the disk, after a dilation
    by 2**k or 10**[-6, 6] and a translation by a multiple of it. A
    dilation by 2**k alone moves no located cell."""
    rng = np.random.default_rng(seed)
    disk = Disk(tuple(rng.uniform(-1, 1, 2)), float(rng.uniform(0.05, 3.0)))
    verts, tris, arc = _test_mesh(mesh, disk, n_rings, rng)
    patch = _zero_patch(verts, tris, disk, arc)
    c = np.asarray(disk.center)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    s = rng.random((len(e), 1))
    pts = np.concatenate([
        verts,  # mesh vertices, the centre among them
        c[None, :],
        0.5 * (verts[e[:, 0]] + verts[e[:, 1]]),  # edge midpoints: tied barycentres
        verts[e[:, 0]] + s * (verts[e[:, 1]] - verts[e[:, 0]]),  # points on shared edges
        patch.barycenters,
        c + disk.radius * rng.uniform(-1.1, 1.1, (300, 2)),  # arc bulges and outside too
    ])
    got = patch.locate(pts)
    assert np.array_equal(got, _locate_oracle(patch, pts))
    t = factor * np.asarray(shift)
    moved = _zero_patch(factor * verts + t, tris, Disk(tuple(factor * c + t), factor * disk.radius), arc)
    assert np.array_equal(moved.locate(factor * pts + t), _locate_oracle(moved, factor * pts + t))
    if np.log2(factor).is_integer():
        scaled = _zero_patch(factor * verts, tris, Disk(tuple(factor * c), factor * disk.radius), arc)
        assert np.array_equal(scaled.locate(factor * pts), got)


def test_trace_band_points_land_in_their_arc_cell():
    """local_phi's 64 trace_band points, just inside the circle, each land
    in the arc cell whose bulge holds it, on dyadic, fan and Delaunay
    patches; and every quadrature sample locates to its own cell, so point
    evaluation and quadrature agree."""
    from sbvx.dyadic_grid import build_grid

    R = 0.3
    disk = Disk((0.0, 0.0), R)
    th = 2 * np.pi * (np.arange(64) + 0.5) / 64
    band = R * np.stack([np.cos(th), np.sin(th)], axis=1) * (1 - 1e-12)
    meshes = [build_grid(R, 5, rotation=rot) for rot in (0.0, 0.4, 1.3)]
    meshes = [(g.verts, g.tris, g.on_boundary[g.tris].sum(axis=1) == 2) for g in meshes]
    meshes += [fan_mesh(disk, 10), delaunay_disk_mesh(disk, 60, np.random.default_rng(4))]
    for verts, tris, arc in meshes:
        patch = _zero_patch(verts, tris, disk, arc)
        holds = _in_bulges(patch, band, np.flatnonzero(arc))
        assert np.all(holds.sum(axis=1) == 1)
        assert np.array_equal(patch.locate(band), np.flatnonzero(arc)[np.argmax(holds, axis=1)])
        pts, _, cell_id, _ = _table(patch)
        assert np.array_equal(patch.locate(pts), cell_id)


def test_disk_rule_points_are_located_in_containing_cells_of_a_graded_patch():
    """_measure's disk rule on a build_grid(R, 5) patch: every point lands in
    a cell that contains it, the coarse cells of the graded mesh included."""
    from sbvx.dyadic_grid import build_grid

    for center, R, rotation in (((0.0, 0.0), 0.3, 0.0), ((0.1, 0.05), 0.5, 1.0), ((-0.2, 0.3), 0.05, 2.5)):
        g = build_grid(R, 5, center=center, rotation=rotation)
        patch = _zero_patch(g.verts, g.tris, Disk(center, R), g.on_boundary[g.tris].sum(axis=1) == 2)
        pts, _ = Disk(center, R).rule(10, order=4)
        assert len(pts) == 3200
        assert np.all(_points_in_tris(pts, patch.verts[patch.tris][patch.locate(pts)]))


def _square_fan_patch(n=4):
    """n x n unit squares, each cut into 4 triangles at its centre: dyadic
    coordinates, so mirror-image barycentres are at exactly equal distances."""
    h = 1.0 / n
    ij = np.array([(i, j) for j in range(n + 1) for i in range(n + 1)], dtype=float) * h
    cen = np.array([(i + 0.5, j + 0.5) for j in range(n) for i in range(n)]) * h
    verts = np.concatenate([ij, cen])
    tris = []
    for j in range(n):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = a + n + 1, b + n + 1
            m = (n + 1) ** 2 + j * n + i
            tris += [(a, b, m), (b, d, m), (d, c, m), (c, a, m)]
    tris = np.asarray(tris)
    nt = len(tris)
    return CellPatch(verts, tris, np.zeros((nt, 1)), np.zeros((nt, 1, 2)), Disk((0.5, 0.5), 0.75))


def test_locate_exact_ties_go_to_the_lowest_cell_id():
    """On shared edges and vertices at exactly equal barycentre distances,
    locate takes the lowest id among the nearest holding cells."""
    patch = _square_fan_patch()
    v, t = patch.verts, patch.tris
    s = np.array([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])[:, None, None]
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    pts = np.concatenate([v, (v[e[:, 0]] + s * (v[e[:, 1]] - v[e[:, 0]])).reshape(-1, 2)])
    holds = _points_in_tris(np.repeat(pts, len(t), axis=0), np.tile(v[t], (len(pts), 1, 1)))
    d = np.sum((pts[:, None] - patch.barycenters) ** 2, axis=2)
    d = np.where(holds.reshape(len(pts), len(t)), d, np.inf)
    tied = np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1
    assert tied.mean() > 1 / 3
    got = patch.locate(pts)
    assert np.array_equal(got, np.argmin(d, axis=1))
    assert np.array_equal(got, _locate_oracle(patch, pts))


# ---------------------------------------------------------------------------
# jump normal check at small scales
# ---------------------------------------------------------------------------


def test_jumpset_normal_check_scales_with_endpoint_round_off():
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5)
    v = dilate_map(u, 1e-3, new_center=(-1.5, 0.75))
    assert jump_length(v, v.domain) == pytest.approx(1e-3 * jump_length(u, u.domain), rel=1e-9)
    assert np.array_equal(v.jump.normal, u.jump.normal)


def _tilted(normal, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * normal[:, 0] - s * normal[:, 1], s * normal[:, 0] + c * normal[:, 1]], axis=1)


@pytest.mark.parametrize("factor, center", [(1.0, (0.0, 0.0)), (1e-3, (-1.5, 0.75))])
def test_jumpset_normal_tilted_by_1e9_raises(factor, center):
    u = dilate_map(
        synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5),
        factor, new_center=center,
    )
    J = u.jump
    JumpSet(J.a, J.b, J.trace_plus, J.trace_minus, _tilted(J.normal, 0.0))
    with pytest.raises(ToolkitError, match="perpendicular"):
        JumpSet(J.a, J.b, J.trace_plus, J.trace_minus, _tilted(J.normal, 1e-9))


def test_value_gap_equals_both_evaluations(unit_disk):
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5)
    w = u.with_patch(_inner_patch(u, (0.2, -0.1), 0.3)).with_patch(_inner_patch(u, (-0.3, 0.3), 0.2))
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (2000, 2))
    pts = np.concatenate([pts, [[0.2, -0.1], [0.5, -0.1], [-0.3, 0.5]]])  # centres, on circles
    full = np.linalg.norm(u.value_at(pts) - w.value_at(pts), axis=1)
    assert np.array_equal(value_gap(u, w, pts), full)
    assert np.count_nonzero(full) > 100
    # stacks that do not extend each other are evaluated point by point
    v = w.with_patch(_inner_patch(w, (0.0, 0.0), 0.5))
    other = DiscreteSbvMap(u.domain, v.patches[:1] + v.patches[2:], u.jump)
    assert np.array_equal(
        value_gap(w, other, pts), np.linalg.norm(w.value_at(pts) - other.value_at(pts), axis=1)
    )


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("center", [(0.0, 0.0), (1.5, -1.5), (1e3, 2e3)])
def test_bulge_samples_lie_inside_their_circle(factor, center):
    """Each bulge sample sits inside its patch circle, by 1e-12 of the radius
    or by the round-off of the coordinates where that is larger, so a clip
    at the circle itself keeps every bulge sample, far from the origin too."""
    u = dilate_map(synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=2), factor, new_center=center)
    q = u.base
    pts, _, cid, _ = _table(q)
    bulge = np.arange(len(cid)) - np.searchsorted(cid, cid) == 16  # the slot after a triangle's 4^2 subcells
    assert bulge.sum() == q._bulged.sum() > 0
    assert np.all(q.circle.contains(pts[bulge], tol=0.0))
    ring = Annulus(q.circle.center, 0.5 * q.circle.radius, q.circle.radius)  # clips at the circle
    _, _, cell, _ = _sampled(u, ring)
    assert np.all(np.isin(np.flatnonzero(q._bulged), cell))

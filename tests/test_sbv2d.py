import numpy as np
import pytest
from scipy import integrate

from sbvx.errors import ConstructionError, DegenerateInputError, ToolkitError
from sbvx.quadrature import Annulus, Disk, Rect
from sbvx.sbv2d import (
    CellPatch,
    DiscreteSbvMap,
    JumpSet,
    bv_poincare_check,
    dilate_map,
    fan_mesh,
    jump_length,
    synthesize,
    total_variation_parts,
    transform_map,
    two_constant_map,
)


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
    lhs, ratio = bv_poincare_check(u, square, level=3)
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
        _, ratio = bv_poincare_check(u, Disk((0, 0), 0.7), level=2)
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
    first = u.bulk_samples(ball, 2)
    assert all(a is b for a, b in zip(first, u.bulk_samples(Disk((0.1, 0.0), 0.6), 2)))
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    phi = u.with_patch(_inner_patch(u, (0.2, 0.1), 0.3))
    got = phi.bulk_samples(ball, 2)
    fresh = DiscreteSbvMap(phi.domain, phi.patches, phi.jump, phi.target).bulk_samples(ball, 2)
    assert not any(a is b for a, b in zip(got, first))
    assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
    assert np.max(got[2]) > np.max(first[2])  # the inner patch's steeper gradient shows
    # the parent still answers from its own samples, the other region afresh
    assert all(a is b for a, b in zip(u.bulk_samples(ball, 2), first))
    other = u.bulk_samples(Disk((0.1, 0.0), 0.5), 2)
    assert np.sum(other[1]) < np.sum(first[1])


def test_bulk_samples_weights_sum_to_exact_area(unit_disk):
    u = synthesize("affine", {"G": [[1.0, 2.0], [0.0, 1.0]], "u0": [0.0, 0.0]}, seed=0)
    rng = np.random.default_rng(5)
    # disks clear of the arc bulges (outer-ring sagitta 1 - cos(pi / 60) < 0.002)
    for _ in range(12):
        r = rng.uniform(0.05, 0.6)
        rho = rng.uniform(0.0, 0.99 - r)
        ang = rng.uniform(0, 2 * np.pi)
        disk = Disk((rho * np.cos(ang), rho * np.sin(ang)), r)
        _, w, _ = u.bulk_samples(disk, 2)
        assert np.sum(w) == pytest.approx(np.pi * r * r, rel=1e-12)
    _, w, _ = u.bulk_samples(Disk((0.2, -0.1), 1.5), 2)
    assert np.sum(w) == pytest.approx(np.pi, rel=1e-12)

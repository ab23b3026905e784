import numpy as np
import pytest
from scipy import integrate

from sbvx.cellsplit import CellSplit
from sbvx.errors import DegenerateInputError, ToolkitError
from sbvx.quadrature import Disk
from sbvx.retract import (
    RetractionConfig,
    _composed_gmags,
    _lift_jets,
    choose_shift,
    invert_shifted_retraction,
    project_w,
    retraction_jacobian,
    sphere_retraction_gradient,
)
from sbvx.sbv2d import CellPatch, DiscreteSbvMap, synthesize
from sbvx.vexp import ExponentField


def scaled_sphere_map(scale, seed=21, budget=0.01):
    u = synthesize("sphere-vortex-with-slit", {"budget": budget}, seed=seed)
    pch = u.patches[0]
    patch = CellPatch(
        pch.verts, pch.tris, scale * pch.values, scale * pch.grads, pch.circle, pch.arc_cells
    )
    return DiscreteSbvMap(u.domain, (patch,), u.jump.scaled_traces(scale))


def wobble_map(seed=3, lo=0.5, hi=1.5):
    """|w| varies in [lo, hi]; gradients consistent with the closed form."""
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.01}, seed=seed)
    pch = u.patches[0]
    bc = pch.barycenters
    amp = lo + (hi - lo) * (0.5 + 0.5 * np.sin(3 * bc[:, 0]))
    damp = np.stack([(hi - lo) * 0.5 * 3 * np.cos(3 * bc[:, 0]), np.zeros(len(bc))], axis=1)
    vals = amp[:, None] * pch.values
    grads = amp[:, None, None] * pch.grads + pch.values[:, :, None] * damp[:, None, :]
    patch = CellPatch(pch.verts, pch.tris, vals, grads, pch.circle, pch.arc_cells)
    return DiscreteSbvMap(u.domain, (patch,), u.jump.scaled_traces(1.0))


# ---------------------------------------------------------------------------
# gradient of the retraction
# ---------------------------------------------------------------------------


def test_gradient_unit_and_half():
    assert sphere_retraction_gradient([1.0, 0.0]) == pytest.approx(1.0)
    assert sphere_retraction_gradient([0.5, 0.0]) == pytest.approx(2.0)
    assert sphere_retraction_gradient([0.0, 0.25, 0.0]) == pytest.approx(4.0)


def test_gradient_singularity():
    with pytest.raises(DegenerateInputError):
        sphere_retraction_gradient([0.0, 0.0])


def test_gradient_is_operator_norm_of_jacobian():
    y = np.array([0.3, -0.7])
    J = retraction_jacobian(y)
    op = np.linalg.svd(J, compute_uv=False)[0]
    assert sphere_retraction_gradient(y) == pytest.approx(op, rel=1e-12)


def test_gradient_integrability_closed_form():
    # int_{B_R in R^2} |grad P|^p dy = 2 pi R^(2-p) / (2 - p) for p < 2
    R, p = 1.3, 1.9
    val, _ = integrate.quad(lambda r: r ** (1 - p), 0, R, epsabs=1e-13, epsrel=1e-13)
    got = 2 * np.pi * val
    assert got == pytest.approx(2 * np.pi * R ** (2 - p) / (2 - p), rel=1e-9)


# ---------------------------------------------------------------------------
# shift choice
# ---------------------------------------------------------------------------


def test_choose_shift_no_singular_hits(unit_disk, affine_field):
    w = scaled_sphere_map(1.0)
    cfg = RetractionConfig(k=2, sigma=0.1, shift_samples=32)
    a, rep = choose_shift(w, affine_field, cfg, seed=5)
    assert rep["n_admissible"] == rep["n_samples"]
    a2, _ = choose_shift(w, affine_field, cfg, seed=5)
    assert np.array_equal(a, a2)


def test_choose_shift_zero_is_identity_on_sphere(unit_disk, affine_field):
    # for a sphere-valued map with tangent gradients, the composed modular
    # at a = 0 equals the plain gradient modular
    w = scaled_sphere_map(1.0)
    values = np.concatenate([q.values for q in w.patches])
    grads = np.concatenate([q.grads for q in w.patches])
    gm0, dmin = _composed_gmags(values, grads, np.zeros(2))
    gplain = np.linalg.norm(grads.reshape(len(values), -1), axis=1)
    assert dmin > 0.5
    assert np.allclose(gm0, gplain, rtol=1e-12)
    cfg = RetractionConfig(k=2, sigma=0.05, shift_samples=64)
    _, rep = choose_shift(w, affine_field, cfg, seed=3)
    assert rep["modular_min"] <= w.modular_of_gradient(affine_field, None) * (1 + 1e-6)


def test_composed_gmags_block_matches_single_shifts():
    # the blocked chain rule of choose_shift against one shift at a time, bitwise
    w = wobble_map()
    values, grads = w.patches[0].values, w.patches[0].grads
    shifts = 0.05 * np.random.default_rng(4).standard_normal((8, 2))
    gm, dmin = _composed_gmags(values, grads, shifts)
    for a, g, d in zip(shifts, gm, dmin):
        g1, d1 = _composed_gmags(values, grads, a)
        assert np.array_equal(g, g1) and d == d1


def test_choose_shift_min_below_mean(unit_disk, affine_field):
    w = wobble_map()
    cfg = RetractionConfig(k=2, sigma=0.1, shift_samples=64)
    _, rep = choose_shift(w, affine_field, cfg, seed=9)
    assert rep["modular_min"] <= rep["modular_mean"] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# inversion of the shifted retraction and its 1-jet
# ---------------------------------------------------------------------------


def _random_shift(k, rng, r_max=0.5):
    a = rng.standard_normal(k)
    return r_max * rng.random() * a / np.linalg.norm(a)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_invert_shifted_retraction(k):
    # the definition, on stacked targets: P_a(z) = target and |z| = 1
    rng = np.random.default_rng(k)
    for _ in range(20):
        a = _random_shift(k, rng)
        target = rng.standard_normal((50, k))
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        z = invert_shifted_retraction(target, a)
        assert z.shape == (50, k)
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1)) < 4e-15
        back = (z - a) / np.linalg.norm(z - a, axis=1, keepdims=True)
        assert np.max(np.abs(back - target)) < 4e-15
        assert np.allclose(invert_shifted_retraction(target[0], a), z[0], rtol=0, atol=4e-15)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lift_jet_vs_finite_differences(k):
    # d/dx of (P_a|_S)^{-1} o P_a (v + G x) at x = 0, column by column
    rng = np.random.default_rng(40 + k)
    h = 1e-6

    def lift(y, a):
        return invert_shifted_retraction((y - a) / np.linalg.norm(y - a), a)

    for _ in range(30):
        a = _random_shift(k, rng)
        v = rng.standard_normal(k)
        v *= rng.uniform(0.2, 2.0) / np.linalg.norm(v)
        G = rng.standard_normal((k, 2))
        z, new_grad = _lift_jets(v[None], G[None], a)
        assert np.allclose(z[0], lift(v, a), rtol=0, atol=4e-15)
        fd = np.stack(
            [(lift(v + h * G[:, j], a) - lift(v - h * G[:, j], a)) / (2 * h) for j in range(2)],
            axis=1,
        )
        scale = np.linalg.norm(G) / np.linalg.norm(v - a)
        assert np.max(np.abs(new_grad[0] - fd)) < 1e-7 * scale
        assert np.max(np.abs(z[0] @ new_grad[0])) < 4e-15 * scale  # tangent at z


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_sphere_valued_fixed_point(affine_field):
    w = scaled_sphere_map(1.0)
    cfg = RetractionConfig(k=2, sigma=0.05)
    wt, rep = project_w(w, affine_field, cfg, seed=1)
    assert np.array_equal(wt.patches[0].values, w.patches[0].values)
    assert np.array_equal(wt.patches[0].grads, w.patches[0].grads)
    assert rep["energy_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_project_forced_zero_shift_is_normalization(affine_field):
    w = scaled_sphere_map(0.9)
    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=1.0)
    wt, _ = project_w(w, affine_field, cfg, seed=1, force_shift=np.zeros(2))
    expect = w.patches[0].values / np.linalg.norm(w.patches[0].values, axis=1, keepdims=True)
    assert np.allclose(wt.patches[0].values, expect, atol=1e-11)


def test_project_forced_shift_inside_unit_sphere(affine_field):
    # every ray from a meets the sphere only for |a| < 1
    w = scaled_sphere_map(0.9)
    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=1.0)
    with pytest.raises(ToolkitError):
        project_w(w, affine_field, cfg, force_shift=np.array([0.6, -0.8]))


def test_project_output_unit_and_ratio(affine_field):
    w = wobble_map()
    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=2.0)
    wt, rep = project_w(w, affine_field, cfg, seed=2)
    for q in wt.patches:
        assert np.max(np.abs(np.linalg.norm(q.values, axis=1) - 1)) < 1e-9
    assert rep["energy_ratio"] < 8.0


def test_project_energy_ratio_stability(affine_field):
    w = wobble_map()
    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=2.0)
    ratios = []
    for seed in range(20):
        _, rep = project_w(w, affine_field, cfg, seed=seed)
        ratios.append(rep["energy_ratio"])
    ratios = np.asarray(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() < 0.25


def test_project_requires_pplus_below_two(unit_disk):
    p2 = ExponentField.constant(2.0, unit_disk)
    w = scaled_sphere_map(1.0)
    with pytest.raises(ToolkitError):
        project_w(w, p2, RetractionConfig(k=2), seed=0)


def test_chain_rule_vs_finite_differences(affine_field):
    # composed-map gradients at 100 points against central differences
    w = wobble_map()
    rng = np.random.default_rng(11)
    a = np.array([0.02, -0.015])
    values = w.patches[0].values
    grads = w.patches[0].grads
    gm, _ = _composed_gmags(values, grads, a)
    idx = rng.choice(len(values), size=100, replace=False)
    h = 1e-6
    for c in idx:
        z, G = values[c], grads[c]

        def comp(x):
            y = z + G @ x - a
            return y / np.linalg.norm(y)

        cols = []
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            cols.append((comp(e) - comp(-e)) / (2 * h))
        fd = np.linalg.norm(np.stack(cols, axis=1))
        assert gm[c] == pytest.approx(fd, rel=1e-4)


def test_fubini_shift_averaging(affine_field):
    # mean over shifts of int g(x) f(w(x) - a) dx <= int g * int_{B_{sigma+Lam}} f
    w = wobble_map()
    p_plus = affine_field.p_plus
    sigma = 0.05
    values, grads, cell_id, pts, wq = w.cell_samples(None)
    gvals = np.linalg.norm(grads.reshape(len(values), -1), axis=1)[cell_id] ** (
        affine_field(pts)
    )
    rng = np.random.default_rng(17)
    n_shift = 4000
    dirs = rng.standard_normal((n_shift, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    shifts = sigma * dirs * (rng.random(n_shift) ** 0.5)[:, None]
    vals_at = values[cell_id]
    lhs_terms = np.empty(n_shift)
    for i, a in enumerate(shifts):
        d = np.linalg.norm(vals_at - a, axis=1)
        lhs_terms[i] = np.sum(wq * gvals * d**-p_plus)
    lhs = lhs_terms.mean()
    lam = float(np.max(np.linalg.norm(values, axis=1)))
    r_out = sigma + lam
    # closed form of int_{B^2_{r}} |z|^(-p+) dz
    f_int = 2 * np.pi * r_out ** (2 - p_plus) / (2 - p_plus)
    rhs = float(np.sum(wq * gvals)) / (np.pi * sigma**2) * f_int
    assert lhs <= rhs * 1.03


def _stage_config(w):
    sup = max(float(np.linalg.norm(q.values, axis=1).max()) for q in w.patches)
    return RetractionConfig(k=w.k, M_bound=max(1.0, sup * (1 + 1e-9)))


@pytest.mark.parametrize("which", [1, 2])
def test_choose_shift_minimises_the_bulk_samples_modular(global_map, cutting_regions, which,
                                                          affine_field):
    region = cutting_regions[which]
    a, rep = choose_shift(global_map, affine_field, _stage_config(global_map), seed=3,
                          region=region)
    # a map whose cells carry |grad(P_a o w)| as their gradient norm, on w's cells
    patches = []
    for q in global_map.patches:
        gm, _ = _composed_gmags(q.values, q.grads, a)
        grads = np.zeros_like(q.grads)
        grads[:, 0, 0] = gm
        patches.append(CellPatch(q.verts, q.tris, q.values, grads, q.circle, q.arc_cells))
    composed = DiscreteSbvMap(global_map.domain, tuple(patches), global_map.jump)
    pts, wq, g = composed.bulk_samples(region)
    assert rep["modular_min"] == pytest.approx(np.sum(wq * g ** affine_field(pts)), rel=1e-12)


def test_project_w_builds_each_decomposition_once(global_map, cutting_regions, affine_field,
                                                  monkeypatch):
    """One cell split per map: the shift choice samples w's split, and the
    report's two modulars read w's split and w_tilde's."""
    builds = []
    build = CellSplit.__init__

    def counting(self, patches, *args):
        builds.append(patches)
        build(self, patches, *args)

    monkeypatch.setattr(CellSplit, "__init__", counting)
    w = DiscreteSbvMap(global_map.domain, global_map.patches, global_map.jump, global_map.target)
    for region in cutting_regions:
        builds.clear()
        wt, _ = project_w(w, affine_field, _stage_config(w), seed=2, region=region)
        assert len(builds) == 2 and builds[0] is w.patches and builds[1] is wt.patches


def test_config_validation():
    with pytest.raises(ToolkitError):
        RetractionConfig(k=1)
    with pytest.raises(ToolkitError):
        RetractionConfig(k=2, sigma=0.9)
    cfg = RetractionConfig(k=3, sigma=0.05)
    assert np.isfinite(cfg.lambda_lip) and cfg.lambda_lip > 0

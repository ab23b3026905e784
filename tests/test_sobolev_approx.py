import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx import _geom, sobolev_approx
from sbvx.errors import AdaptationError, JumpBudgetError, ToolkitError
from sbvx.quadrature import Disk
from sbvx.sbv2d import JumpSet, jump_length, synthesize, value_gap
from sbvx.sobolev_approx import (
    BallFamily,
    _free_endpoints,
    _measure,
    _new_jump_length,
    _replace_in_ball,
    _sample_outside,
    _window_radii,
    cover_jump,
    global_approx,
    local_phi,
    project_to_sphere_stage,
)


# ---------------------------------------------------------------------------
# local step
# ---------------------------------------------------------------------------


def test_local_phi_affine_exactness(affine_field):
    G = np.array([[0.5, 0.2], [0.1, -0.3]])
    u = synthesize("affine", {"G": G}, seed=1)
    R, phi, rep = local_phi(u, affine_field, eta=0.05, seed=2)
    assert 0.5 < R < 1.0
    assert rep["max_pointwise_distance"] < 1e-10
    assert rep["trace_band"] < 1e-12
    assert rep["c_hat_q1"] == pytest.approx(1.0, rel=5e-3)


def test_local_phi_budget_precondition(affine_field):
    u = synthesize("piecewise-constant-with-arc-jump", {"budget": 0.2, "k": 2}, seed=1)
    with pytest.raises(JumpBudgetError):
        local_phi(u, affine_field, eta=0.05, seed=0)


def test_local_phi_exhaustion_names_its_search(affine_field, monkeypatch):
    tried = []

    def never_adapts(grid, u, **kw):
        tried.append(grid.rotation)
        raise AdaptationError(
            "vertex 2 (ring 1) could not be placed in 200 samples; jump budget too large here",
            vertex=2,
        )

    monkeypatch.setattr(sobolev_approx, "adapt_to_jump", never_adapts)
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    with pytest.raises(AdaptationError) as exc:
        local_phi(u, affine_field, eta=0.05, seed=7, center=(0.1, -0.05), r=0.3, radius_retries=3)
    assert len(tried) == 3 * 16
    msg = str(exc.value)
    for part in ("seed=7", "center=[0.1, -0.05]", "r=0.3", "3 radii", "16 rotations"):
        assert part in msg
    assert exc.value.vertex == 2
    assert isinstance(exc.value.__cause__, AdaptationError)
    assert str(exc.value.__cause__).startswith("vertex 2 (ring 1)")


def test_local_phi_needs_a_radius_draw(affine_field, monkeypatch):
    drawn = []
    monkeypatch.setattr(sobolev_approx, "select_good_radius", lambda *a, **kw: drawn.append(a))
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    with pytest.raises(ToolkitError, match="radius_retries = 0; it must be >= 1"):
        local_phi(u, affine_field, eta=0.05, radius_retries=0)
    assert drawn == []


def test_local_phi_builds_what_the_construction_builds(affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.02}, seed=5)
    center, r = np.array([0.05, -0.1]), 0.4
    R, phi, rep = local_phi(u, affine_field, eta=0.05, seed=6, center=center, r=r, h_max=4)
    R2, phi2, jump_in_2r = _replace_in_ball(u, 0.05, 6, center, r, h_max=4)
    assert R == R2
    assert rep["jump_in_2r"] == jump_in_2r
    _assert_maps_equal(phi, phi2)


def test_local_phi_piecewise_constant_collapse(affine_field):
    # loop placed away from the base grid's unperturbed edges
    u = synthesize(
        "piecewise-constant-with-arc-jump",
        {"budget": 0.04, "loop_center": (0.31, 0.17), "k": 2},
        seed=3,
    )
    R, phi, rep = local_phi(u, affine_field, eta=0.05, seed=4)
    interp = phi.patches[-1]
    assert np.max(np.abs(interp.grads)) < 1e-10
    outside_const = u.patches[0].values[np.argmax(u.patches[0].barycenters[:, 0])]
    assert np.allclose(interp.values, outside_const[None, :])
    assert rep["jump_out_2r"] == pytest.approx(0.0, abs=1e-12)


def test_local_phi_linf_and_l1(affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.02}, seed=5)
    R, phi, rep = local_phi(u, affine_field, eta=0.05, seed=6)
    assert rep["linf_out"] <= rep["linf_in"] + 1e-9
    assert rep["l1_distance"] <= rep["l1_C_hat"] * R * (
        rep["l1_distance"] / max(rep["l1_C_hat"] * R, 1e-300)
    ) + 1e-12  # definitionally consistent
    assert np.isfinite(rep["modular_bound_const"])
    assert rep["jump_new"] == 0.0


def test_local_phi_report_inequalities_multiseed(affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.03, "slit_angle": 1.1}, seed=7)
    consts = []
    for seed in range(8):
        R, phi, rep = local_phi(u, affine_field, eta=0.05, seed=seed)
        assert rep["linf_out"] <= rep["linf_in"] + 1e-9
        assert rep["jump_new"] == 0.0
        consts.append(rep["c_hat_q1"])
    consts = np.asarray(consts)
    # measured interpolation constant is stable across seeds
    assert consts.std() / consts.mean() < 0.20


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------


def test_cover_empty_jump(affine_field):
    u = synthesize("affine", {"G": np.eye(2)}, seed=0)
    fam = cover_jump(u, 0.75, 0.05)
    assert len(fam) == 0


def test_cover_single_segment_window_oracle(unit_disk):
    s, eta, rho = 0.5, 0.05, 1.0
    L = 0.4 * eta * (1 - s) * rho / 2
    from sbvx.sbv2d import two_constant_map

    chain = np.array([[-L / 2, 0.0], [L / 2, 0.0]])
    u = two_constant_map(unit_disk, np.array([[-2.0, 0], [2.0, 0]]), [1.0, 0], [0.0, 0])
    # replace the jump with the short centred segment
    from sbvx.sbv2d import DiscreteSbvMap, JumpSet

    u = DiscreteSbvMap(
        u.domain, u.patches,
        JumpSet.from_segments(chain[:1] * 0 + chain[0], chain[1:] * 0 + chain[1], [[1.0, 0]], [[0.0, 0]]),
        u.target,
    )
    fam = cover_jump(u, s, eta, rho, seed=1)
    assert len(fam) >= 1
    # exhaustive dyadic-window verification at the midpoint
    x = np.array([0.0, 0.0])
    rng = np.random.default_rng(99)
    lam = float(rng.uniform((1 - s) * rho, 2 * (1 - s) * rho))
    [(rx, k)] = _window_radii(u.jump, x[None], [lam], eta)
    assert rx is not None and k >= 2
    ball_r = u.jump.length_in(Disk((0, 0), rx))
    ball_2r = u.jump.length_in(Disk((0, 0), 2 * rx))
    assert eta * rx <= ball_r <= ball_2r < 2 * eta * rx
    # dyadic maximality: the next radius up fails the density bound
    assert u.jump.length_in(Disk((0, 0), 2 * rx)) < eta * 2 * rx


def test_cover_families_disjoint_and_contained(affine_field):
    s, eta = 0.75, 0.05
    for seed in range(6):
        u = synthesize(
            "random-cells-with-random-polyline",
            {"budget": 0.4 * eta * (1 - s) / 2, "k": 2}, seed=seed,
        )
        fam = cover_jump(u, s, eta, seed=seed)
        if len(fam) == 0:
            continue
        for j in range(1, fam.xi_hat + 1):
            cs, rs = fam.balls_of(j)
            for i in range(len(rs)):
                for l in range(i + 1, len(rs)):
                    assert np.linalg.norm(cs[i] - cs[l]) > rs[i] + rs[l]
        assert np.all(np.linalg.norm(fam.centers, axis=1) <= s + 1e-12)
        assert np.all(fam.radii < (1 - s) / 2)
        assert np.all(
            np.linalg.norm(fam.centers, axis=1) + fam.radii < (1 + s) / 2 + 1e-12
        )
        st = fam.stats
        assert st["total_perimeter"] <= st["perimeter_bound"] + 1e-12
        assert st["total_area"] <= st["area_bound_min_form"] + 1e-12


def test_free_endpoints_detection():
    from sbvx.sbv2d import JumpSet

    # chain of two segments: free ends are the outer points only
    J = JumpSet.from_segments(
        [[0, 0], [1, 0]], [[1, 0], [2, 1]], [[1.0]] * 2, [[0.0]] * 2
    )
    ends = _free_endpoints(J)
    keys = {tuple(np.round(e, 9)) for e in ends}
    assert keys == {(0.0, 0.0), (2.0, 1.0)}


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (-0.7, 0.4)])
def test_free_endpoints_do_not_depend_on_scale_or_position(factor, shift):
    # a three-segment chain whose middle joint is off by round-off (1e-13 of
    # J's size), and a fourth segment starting 1e-6 of that size past its end
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0 + 1e-13], [2.0, 1.0 + 2e-6]])
    b = np.array([[1.0, 0.0], [2.0, 1.0], [2.0, 1.5], [2.0, 2.0]])
    t = np.asarray(shift) + factor * 0.5
    J = JumpSet.from_segments(t + factor * a, t + factor * b, [[1.0]] * 4, [[0.0]] * 4)
    ends = (_free_endpoints(J) - t) / factor
    ends = ends[np.lexsort(ends.T[::-1])]
    assert np.allclose(ends, [[0.0, 0.0], [2.0, 1.0 + 2e-6], [2.0, 1.5], [2.0, 2.0]],
                       rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# global iteration
# ---------------------------------------------------------------------------


def test_global_empty_jump_identity(affine_field):
    u = synthesize("affine", {"G": np.array([[0.2, 0.1], [0.0, 0.3]])}, seed=2)
    rep = global_approx(u, affine_field, 0.75, 0.05, seed=3)
    assert rep.w is u
    assert len(rep.family) == 0
    assert rep.estimates["l1_distance"] == 0.0


def test_global_piecewise_constant(affine_field):
    s, eta = 0.75, 0.05
    u = synthesize(
        "piecewise-constant-with-arc-jump",
        {"budget": 0.5 * eta * (1 - s) / 2, "loop_center": (0.2, 0.1), "k": 2},
        seed=5,
    )
    rep = global_approx(u, affine_field, s, eta, seed=7)
    e = rep.estimates
    assert e["jump_residual_srho"] <= 1e-9
    assert e["jump_new"] == 0.0
    assert e["outside_identity_max_error"] == 0.0
    assert e["linf_out"] <= e["linf_in"] + 1e-9
    assert np.isfinite(e["modular_bound_const_var"])
    assert jump_length(rep.w, Disk((0, 0), s)) <= 1e-9


def test_global_constant_exponent_stripped_bound(unit_disk):
    from sbvx.vexp import ExponentField

    p_const = ExponentField.constant(1.6, unit_disk)
    s, eta = 0.75, 0.05
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.5 * eta * (1 - s) / 2}, seed=9)
    rep = global_approx(u, p_const, s, eta, seed=11)
    e = rep.estimates
    # for constant exponents the bound holds without the (1 + rho^2) factor
    assert e["modular_bound_const_stripped"] < 10.0
    assert e["modular_out"] <= e["modular_bound_const_stripped"] * max(
        e["grad_norm_in"] ** 1.6, e["grad_norm_in"] ** 1.6
    ) * (1 + 1e-9)


def test_global_scale_covariance(affine_field, unit_disk):
    from sbvx.sbv2d import dilate_map
    from sbvx.vexp import ExponentField

    s, eta = 0.75, 0.05
    u = synthesize(
        "piecewise-constant-with-arc-jump",
        {"budget": 0.4 * eta * (1 - s) / 2, "loop_center": (0.25, 0.05), "k": 2}, seed=13,
    )
    p_const = ExponentField.constant(1.5, unit_disk)
    rep1 = global_approx(u, p_const, s, eta, seed=17)
    r1 = rep1.estimates["family_perimeter"] / rep1.estimates["jump_budget"]
    for factor in (1e-3, 2.0, 1e3):
        u2 = dilate_map(u, factor)
        p2 = ExponentField.constant(1.5, Disk((0, 0), factor))
        rep2 = global_approx(u2, p2, s, eta, seed=17)
        assert rep2.estimates["rounds"] == rep1.estimates["rounds"]
        assert rep2.estimates["xi_hat"] == rep1.estimates["xi_hat"]
        assert rep2.estimates["c_hat_q1"] == pytest.approx(rep1.estimates["c_hat_q1"], rel=0.05)
        r2 = rep2.estimates["family_perimeter"] / rep2.estimates["jump_budget"]
        assert r2 == pytest.approx(r1, rel=0.05)
        # no jump segment meets the open disk B_{s rho}: a measured length of 0 is not enough
        J = rep2.w.jump
        if len(J):
            dist = _geom.point_segment_distance(np.zeros((1, 2)), J.a, J.b)[0]
            assert np.all(dist >= s * factor * (1 - 1e-9)), factor


def _assert_maps_equal(w1, w2):
    assert len(w1.patches) == len(w2.patches)
    for q1, q2 in zip(w1.patches, w2.patches):
        for name in ("verts", "tris", "values", "grads", "arc_cells"):
            assert np.array_equal(getattr(q1, name), getattr(q2, name))
        assert q1.circle == q2.circle
    for name in ("a", "b", "trace_plus", "trace_minus", "normal"):
        assert np.array_equal(getattr(w1.jump, name), getattr(w2.jump, name))


def _global_approx_calling_local_phi(u, p, s, eta, seed=0, h_max=5):
    """global_approx with every ball run through the full local_phi, its
    report dropped: the reference the construction-only loop must reproduce
    bitwise."""
    rho = u.domain.radius
    center = np.asarray(u.domain.center, dtype=float)
    budget = u.jump.length_in(Disk(tuple(center), rho))
    if budget >= eta * (1 - s) * rho / 2:
        raise JumpBudgetError(f"H1(J) = {budget:.6g} >= eta(1-s)rho/2 = {eta * (1 - s) * rho / 2:.6g}")
    rng = np.random.default_rng(seed)
    w = u
    family = BallFamily.empty()
    s_disk = Disk(tuple(center), s * rho)
    rounds = 0
    while rounds < sobolev_approx.MAX_ROUNDS:
        resid = w.jump.length_in(s_disk)
        if resid <= sobolev_approx.RESID_TOL_FACTOR * rho:
            break
        rounds += 1
        fam = cover_jump(w, s, eta, rho, seed=int(rng.integers(0, 2**31 - 1)))
        if len(fam) == 0:
            break
        for j in range(1, fam.xi_hat + 1):
            cs, rs = fam.balls_of(j)
            for x, rx in zip(cs, rs):
                _, w, _ = local_phi(
                    w, p, eta=2 * eta, seed=int(rng.integers(0, 2**31 - 1)),
                    center=x, r=rx / 2, h_max=h_max,
                )
        family = family.merged_with(fam)
    resid = w.jump.length_in(s_disk)
    if resid > sobolev_approx.RESID_TOL_FACTOR * rho:
        raise ToolkitError(
            f"residual jump {resid:.3g} in B_s_rho after {sobolev_approx.MAX_ROUNDS} rounds"
        )
    ball_rho = Disk(tuple(center), rho)
    est = {
        "rho": rho, "s": s, "eta": eta, "rounds": rounds,
        "jump_budget": budget, "jump_residual_srho": resid,
    }
    est["jump_new"] = _new_jump_length(w, u)
    est["jump_in"] = budget
    est["jump_out"] = w.jump.length_in(ball_rho)
    probe = _sample_outside(u.domain, family, rng, 512) if len(family) else np.zeros((0, 2))
    est["outside_identity_max_error"] = float(np.max(value_gap(u, w, probe), initial=0.0))
    measured, max_pow, _ = _measure(u, w, p, ball_rho)
    est.update(measured)
    est["modular_bound_const_var"] = (
        est["modular_out"] / ((1 + rho**2) * max_pow) if max_pow > 0 else 0.0
    )
    est["modular_bound_const_stripped"] = est["modular_out"] / max_pow if max_pow > 0 else 0.0
    if len(family) > 0:
        est["family_perimeter"] = float(np.sum(2 * np.pi * family.radii))
        est["family_perimeter_bound"] = 2 * np.pi * family.xi_hat / eta * budget
        est["family_area"] = float(np.sum(np.pi * family.radii**2))
        est["family_area_bound_min_form"] = float(
            min(
                2 * np.pi * family.xi_hat / eta * rho * budget,
                np.pi * (family.xi_hat / eta * budget) ** 2,
            )
        )
        est["union_containment_margin"] = float(
            (1 + s) * rho / 2
            - np.max(np.linalg.norm(family.centers - center, axis=1) + family.radii)
        )
        est["xi_hat"] = family.xi_hat
    else:
        est["xi_hat"] = 0
    return w, family, est


CORPUS_KINDS = (
    "piecewise-constant-with-arc-jump", "sphere-vortex-with-slit", "random-cells-with-random-polyline",
)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(CORPUS_KINDS),
    st.sampled_from([0.5, 0.75, 0.9]),
    st.sampled_from([0.3, 0.55, 0.8]),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
def test_global_approx_equals_local_phi_loop(kind, s, frac, map_seed, seed, const_p):
    from sbvx.vexp import ExponentField

    eta = 0.05
    u = synthesize(kind, {"budget": frac * eta * (1 - s) / 2, "k": 2}, seed=map_seed)
    p = ExponentField.constant(1.6, u.domain) if const_p else ExponentField(
        "closed_form", u.domain, 1.3, 1.7, {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]}
    )
    try:
        want = _global_approx_calling_local_phi(u, p, s, eta, seed=seed)
    except ToolkitError as err:  # a failed search must fail the same way
        with pytest.raises(type(err), match=re.escape(str(err))):
            global_approx(u, p, s, eta, seed=seed)
        return
    rep = global_approx(u, p, s, eta, seed=seed)
    w, family, est = want
    # float repr round-trips, so equal JSON means bitwise-equal estimates
    assert json.dumps(rep.estimates, sort_keys=True) == json.dumps(est, sort_keys=True)
    assert json.dumps(rep.family.to_json()) == json.dumps(family.to_json())
    _assert_maps_equal(rep.w, w)


def test_global_approx_measures_once(affine_field, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3])
        return _measure(*args)

    monkeypatch.setattr(sobolev_approx, "_measure", counted)
    s, eta = 0.75, 0.05
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.5 * eta * (1 - s) / 2}, seed=9)
    rep = global_approx(u, affine_field, s, eta, seed=11)
    assert len(rep.family) > 0
    assert calls == [Disk((0.0, 0.0), 1.0)]


# ---------------------------------------------------------------------------
# sphere stage
# ---------------------------------------------------------------------------


def test_stage_already_sphere_valued_unchanged(affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.002}, seed=15)
    wt, rep = project_to_sphere_stage(u, affine_field, 0.75, None, seed=1)
    # all cells were unit: bitwise unchanged
    assert np.array_equal(wt.patches[0].values, u.patches[0].values)
    assert rep["energy_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep["stage_boundary_mismatch"] == 0.0


def test_stage_after_global(affine_field):
    s, eta = 0.75, 0.05
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.5 * eta * (1 - s) / 2}, seed=9)
    rep = global_approx(u, affine_field, s, eta, seed=11)
    wt, prj = project_to_sphere_stage(rep.w, affine_field, s, None, seed=13)
    # the replaced cells inside the stage region are unit-norm afterwards
    stage = Disk((0, 0), s)
    for patch in wt.patches:
        sel = stage.contains(patch.barycenters, tol=-1e-12)
        if np.any(sel):
            nrm = np.linalg.norm(patch.values[sel], axis=1)
            assert np.max(np.abs(nrm - 1.0)) < 1e-9
    assert prj["stage_boundary_mismatch"] == 0.0


# ---------------------------------------------------------------------------
# broadcast loops against their scalar forms
# ---------------------------------------------------------------------------


def _window_radius_scalar(J, x, lam, eta, k_max=60):
    """The per-radius loop _window_radii must reproduce bitwise, centre by
    centre."""
    for k in range(1, k_max + 1):
        rk = lam / 2.0**k
        if J.length_in(Disk(tuple(x), rk)) >= eta * rk:
            return rk, k
    return None, None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=40),  # several blocks of WINDOW_BLOCK centres
    st.sampled_from([1e-3, 0.01, 0.05, 0.5, 3.0]),
    st.sampled_from([1, 8, 60]),
)
def test_window_radii_equal_per_radius_loop(seed, n, m, eta, k_max):
    rng = np.random.default_rng(seed)
    if n:
        pts = rng.uniform(-0.5, 0.5, 2) + np.cumsum(
            rng.normal(scale=float(rng.uniform(1e-3, 0.2)), size=(n + 1, 2)), axis=0
        )
        J = JumpSet.from_segments(pts[:-1], pts[1:], np.ones((n, 1)), np.zeros((n, 1)))
        # centres on the jump, as cover_jump draws them, or anywhere
        xs = np.where(rng.random((m, 1)) < 0.7, pts[rng.integers(n + 1, size=m)], rng.uniform(-1, 1, (m, 2)))
    else:
        J, xs = JumpSet.empty(1), rng.uniform(-1, 1, (m, 2))
    lams = rng.uniform(1e-3, 1.0, m)
    got = _window_radii(J, xs, lams, eta, k_max=k_max)
    want = [_window_radius_scalar(J, x, float(lam), eta, k_max=k_max) for x, lam in zip(xs, lams)]
    assert got == want
    assert all(type(g) is type(w) for gw, ww in zip(got, want) for g, w in zip(gw, ww))


def _sample_outside_scalar(domain, family, rng, n):
    """The one-trial-at-a-time loop _sample_outside must reproduce; a point
    counts as outside at 1e-9 of the domain radius beyond every ball."""
    c = np.asarray(domain.center)
    out = []
    for _ in range(20 * n):
        if len(out) >= n:
            break
        r = domain.radius * np.sqrt(rng.random())
        t = 2 * np.pi * rng.random()
        x = c + r * np.array([np.cos(t), np.sin(t)])
        if np.all(np.linalg.norm(family.centers - x, axis=1) > family.radii + 1e-9 * domain.radius):
            out.append(x)
    return np.asarray(out) if out else np.zeros((0, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.sampled_from([0, 1, 7, 64, 512]),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.01, 0.2, 0.6, 1.5]),
)
def test_sample_outside_equals_scalar_loop(geo_seed, seed, n, n_balls, size):
    geo = np.random.default_rng(geo_seed)
    domain = Disk(tuple(geo.uniform(-2, 2, 2)), float(geo.uniform(0.1, 3.0)))
    centers = np.asarray(domain.center) + geo.uniform(-1, 1, (n_balls, 2)) * domain.radius
    # large balls leave fewer than n points in 20 n trials
    radii = geo.uniform(0.1, 1.0, n_balls) * size * domain.radius
    family = BallFamily(centers, radii, np.ones(n_balls, dtype=int), 1)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_outside(domain, family, rng_a, n)
    want = _sample_outside_scalar(domain, family, rng_b, n)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("layout", ["mixed", "empty"])
@pytest.mark.parametrize("k_max", [1, 7, 8, 9, 13, 16, 17, 60])
def test_window_radii_equal_per_radius_loop_across_radius_blocks(k_max, layout):
    """The radii are measured 8 at a time, and only centres without a dense
    radius go on to the next block: first dense k at 1, 8, 9, 16, 17 and 60,
    k_max on and off a block edge, and centres that no radius makes dense,
    some or all of a block, over two blocks of WINDOW_BLOCK centres; each
    against the per-radius loop."""
    eta, lam = 0.05, 0.5
    targets = (1, 8, 9, 16, 17, 60)
    # the centre (10 i, 0) halves a vertical segment of half-length ell, which
    # is dense at radius r exactly when r <= 2 ell / eta: set that to 1.5 lam 2^-K
    ell = np.array([0.75 * eta * lam / 2.0**k for k in targets])
    xc = 10.0 * np.arange(len(targets))
    a = np.stack([xc, -ell], axis=1)
    b = np.stack([xc, ell], axis=1)
    J = JumpSet.from_segments(a, b, np.ones((len(a), 1)), np.zeros((len(a), 1)))
    far = np.stack([10.0 * np.arange(3), np.full(3, 5.0)], axis=1)  # 5 from every segment
    row = np.concatenate([np.stack([xc, np.zeros_like(xc)], axis=1), far]) if layout == "mixed" else far
    xs = np.tile(row, (sobolev_approx.WINDOW_BLOCK // len(row) + 1, 1))
    lams = np.full(len(xs), lam)
    got = _window_radii(J, xs, lams, eta, k_max=k_max)
    want = [_window_radius_scalar(J, x, lam, eta, k_max=k_max) for x in xs]
    assert got == want
    assert all(type(g) is type(w) for gw, ww in zip(got, want) for g, w in zip(gw, ww))
    if layout == "mixed":
        assert [k for _, k in want[: len(targets)]] == [k if k <= k_max else None for k in targets]
    assert want[-1] == (None, None)


def test_sample_outside_is_scale_free():
    """Under a power-of-two dilation of the domain and the family about the
    origin, the kept points scale exactly: the outside tolerance is relative
    to the domain radius."""

    def run(f):
        domain = Disk((0.0, 0.0), f)
        family = BallFamily(np.array([[0.3, -0.2]]) * f, np.array([0.25]) * f, np.ones(1, dtype=int), 1)
        return _sample_outside(domain, family, np.random.default_rng(5), 512)

    x0 = run(1.0)
    assert len(x0) == 512
    for k in range(-40, 41):
        assert np.array_equal(run(2.0**k), np.ldexp(x0, k)), k


def test_local_phi_sup_norms_are_scale_free():
    """linf_in and linf_out of local_phi are bitwise equal on every
    power-of-two dilation of a map centred at the origin: a later patch
    circle hides a cell within 1e-12 of the domain radius."""
    from sbvx.sbv2d import dilate_map
    from sbvx.vexp import ExponentField

    u = synthesize("sphere-vortex-with-slit", {"budget": 0.003}, seed=3)
    _, _, rep = local_phi(u, ExponentField.constant(1.6, u.domain), 0.05, seed=1)
    want = (rep["linf_in"], rep["linf_out"])
    for k in range(-40, 41):
        v = dilate_map(u, 2.0**k)
        _, _, rep = local_phi(v, ExponentField.constant(1.6, v.domain), 0.05, seed=1)
        assert (rep["linf_in"], rep["linf_out"]) == want, k


def _sup_norm_visible_per_call(u):
    """_sup_norm_visible with every corner of every patch evaluated on each
    call: the reference of the cached CellPatch.corner_norms."""
    circles = [q.circle for q in u.patches]
    centers = np.array([c.center for c in circles], dtype=float)[:, None, None, :]
    reach = np.array([c.radius for c in circles], dtype=float)[:, None, None] + 1e-12 * u.domain.radius
    best = 0.0
    for i, patch in enumerate(u.patches):
        vv = patch.verts[patch.tris]
        inside = np.linalg.norm(vv - centers[i + 1 :], axis=-1) <= reach[i + 1 :]
        visible = ~inside.all(axis=-1).any(axis=0)
        if visible.any():
            d = vv - patch.barycenters[:, None, :]
            vals = patch.values[:, None, :] + np.einsum("nkj,nmj->nmk", patch.grads, d)
            best = max(best, float(np.max(np.linalg.norm(vals[visible], axis=-1))))
    return best


@pytest.mark.parametrize(
    "kind",
    ["piecewise-constant-with-arc-jump", "sphere-vortex-with-slit", "random-cells-with-random-polyline"],
)
def test_sup_norm_visible_equals_per_call_evaluation(kind, affine_field):
    """The sup norm from cached corner norms equals the per-call corner
    evaluation on u and on the stacks of local_phi and global_approx: from
    the caches those calls filled, and from fresh patches (a dilation by 1
    copies every patch and leaves each array bitwise as it was)."""
    from sbvx.sbv2d import dilate_map

    s, eta = 0.75, 0.05
    u = synthesize(kind, {"budget": 0.55 * eta * (1 - s) / 2, "k": 2}, seed=21)
    stacks = [u, local_phi(u, affine_field, eta, seed=22)[1], global_approx(u, affine_field, s, eta, seed=23).w]
    assert min(len(v.patches) for v in stacks[1:]) >= 2
    for v in stacks:
        want = _sup_norm_visible_per_call(v)
        assert sobolev_approx._sup_norm_visible(v) == want
        assert sobolev_approx._sup_norm_visible(dilate_map(v, 1.0)) == want

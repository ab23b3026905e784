import numpy as np
import pytest

from sbvx.counterex3d import ConeComplex, annulus_measure, build_complex, verify_violation
from sbvx.errors import ConstructionError, ToolkitError


def mc_band_area(cx, R, delta, n, seed):
    """Monte Carlo estimate of cx.lateral_band_area(R, delta) from n
    area-uniform points on the lateral surfaces: one multinomial split over
    the cones, then one array of slant samples per cone."""
    rng = np.random.default_rng(seed)
    weights = np.sin(cx.half_angles)
    hits = 0
    for n_i in rng.multinomial(n, weights / weights.sum()):
        s = cx.radius * np.sqrt(rng.random(n_i))  # area-uniform along the slant
        hits += int(np.count_nonzero((s >= R - delta) & (s <= R)))
    return cx.total_surface_measure() * hits / n


def test_measure_chain_analytic():
    cx = build_complex(0.1, 5.0, 64, seed=1)
    # boundary-circle chain on the half-radius sphere
    assert cx.total_boundary_length() < cx.epsilon / 10
    # total lateral measure stays under epsilon
    assert cx.total_surface_measure() < cx.epsilon


def test_h0_formula():
    cx = build_complex(0.2, 1.0, 64, seed=0)
    assert cx.h0 == int(np.ceil(np.log2(1 + 40 * 1.0 / cx.kappa)))
    # the worked example: kappa = 1/2, C = 1 gives ceil(log2(81)) = 7
    assert int(np.ceil(np.log2(1 + 40 * 1.0 / 0.5))) == 7


def test_selected_balls_pairwise_disjoint():
    cx = build_complex(0.3, 5.0, 128, seed=2)
    dots = np.clip(cx.axes @ cx.axes.T, -1, 1)
    ang = np.arccos(dots)
    need = cx.half_angles[:, None] + cx.half_angles[None, :]
    off = ~np.eye(len(cx.axes), dtype=bool)
    assert np.all(ang[off] > need[off])


def test_overlapping_cones_rejected():
    ax = np.array([[0.0, 0.0, 1.0], [0.0, 1e-6, 1.0]])
    ax /= np.linalg.norm(ax, axis=1, keepdims=True)
    with pytest.raises(ConstructionError):
        ConeComplex(
            epsilon=0.1, C_target=1.0, axes=ax, indices=np.array([0, 1]),
            half_angles=np.array([0.1 / (40 * np.pi)] * 2), kappa=1.5, h0=5,
        )


def test_annulus_full_band_equals_total():
    cx = build_complex(0.1, 5.0, 64, seed=1)
    R = 0.9
    # delta -> R gives the truncated lateral area up to radius R
    full = annulus_measure(cx, R, R - 1e-12)
    expect = float(np.sum(np.pi * np.sin(cx.half_angles)) * R**2)
    assert full == pytest.approx(expect, rel=1e-9)


def test_annulus_single_cone_frustum_vs_monte_carlo():
    cx = build_complex(0.1, 5.0, 64, seed=3)
    one = ConeComplex(
        epsilon=cx.epsilon, C_target=cx.C_target, axes=cx.axes[:1],
        indices=cx.indices[:1], half_angles=cx.half_angles[:1],
        kappa=float(2.0 ** -cx.indices[0]), h0=cx.h0,
    )
    R, delta = 0.8, 0.25
    beta = one.half_angles[0]
    expect = np.pi * np.sin(beta) * (R**2 - (R - delta) ** 2)
    assert annulus_measure(one, R, delta) == pytest.approx(expect, rel=1e-12)
    assert mc_band_area(one, R, delta, 10**6, seed=9) == pytest.approx(expect, rel=0.02)


@pytest.mark.parametrize("R, delta", [(0.5, 0.1), (1.0, 0.1), (0.75, 0.0), (0.75, 0.75)])
def test_annulus_measure_rejects_a_band_outside_its_range(R, delta):
    with pytest.raises(ToolkitError):
        annulus_measure(build_complex(0.1, 5.0, 64, seed=1), R, delta)


def test_annulus_paper_lower_bound():
    cx = build_complex(0.1, 5.0, 64, seed=1)
    for h in range(1, cx.h0 + 1):
        for R in (0.55, 0.75, 0.95):
            delta = R * 2.0**-h
            area = annulus_measure(cx, R, delta)
            assert area >= cx.kappa / 40 * delta * (R - delta) * cx.epsilon


def test_verify_violation_margins():
    cx = build_complex(0.1, 5.0, 64, seed=1)
    rep = verify_violation(cx)
    assert rep["all_pass"]
    assert len(rep["rows"]) == 32
    # endpoint radii included explicitly
    rep2 = verify_violation(cx, R_grid=[0.5 + 1e-3, 1 - 1e-3])
    assert rep2["all_pass"]


def test_shallow_depth_fails():
    cx = build_complex(0.1, 5.0, 64, seed=1)
    rep = verify_violation(cx, h=1)
    assert not rep["all_pass"]


def test_scaling_covariance():
    cx = build_complex(0.1, 5.0, 64, seed=4)
    m1 = verify_violation(cx)["min_margin"]
    for factor in (0.5, 3.0):
        cx2 = cx.scaled(factor)
        grid = [r * factor for r in np.linspace(0.52, 0.99, 32)]
        m2 = verify_violation(cx2, R_grid=grid)["min_margin"]
        assert np.isfinite(m2) and m2 >= 1.0
    assert m1 >= 1.0


def test_star_shape_membership_consistency():
    cx = build_complex(0.2, 2.0, 32, seed=5)
    rng = np.random.default_rng(6)
    i = 0
    ax, beta = cx.axes[i], cx.half_angles[i]
    e1 = np.cross(ax, [0, 0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(ax, e1)
    s = np.sqrt(rng.random(200))
    th = 2 * np.pi * rng.random(200)
    pts = s[:, None] * (
        np.cos(beta) * ax[None, :]
        + np.sin(beta) * (np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2)
    )
    assert cx.contains_solid(pts).all()
    # points outside every cone's opening are excluded
    far = np.array([[np.sin(0.5), 0, np.cos(0.5)]]) @ _rot_away(cx)
    assert not cx.contains_solid(far).any()


def _rot_away(cx):
    # identity is fine: the probe direction is far from all thin cones w.h.p.
    return np.eye(3)


def test_mc_within_tolerance_at_1e6():
    cx = build_complex(0.05, 1.0, 64, seed=7)
    R = 0.75
    for h in (2, 4):
        delta = R * 2.0**-h
        assert mc_band_area(cx, R, delta, 10**6, seed=11) == pytest.approx(annulus_measure(cx, R, delta), rel=0.02)


def test_build_complex_validation():
    with pytest.raises(ToolkitError):
        build_complex(1.5, 1.0)
    with pytest.raises(ToolkitError):
        build_complex(0.1, -1.0)
    with pytest.raises(ToolkitError):
        build_complex(0.1, 1.0, axis_count=4)


def test_obj_export():
    cx = build_complex(0.1, 1.0, 16, seed=8)
    obj = cx.to_obj(n_seg=8)
    assert obj.count("v ") >= 16 * 9
    assert "f " in obj


def test_json_roundtrip():
    cx = build_complex(0.1, 5.0, 32, seed=9)
    d = cx.to_json()
    assert d["kappa"] == cx.kappa
    assert len(d["axes"]) == len(cx.axes)


# ---------------------------------------------------------------------------
# the Vitali selection from one Gram matrix against the pair-by-pair loop
# ---------------------------------------------------------------------------


def _selection_by_pairs(cands, betas, C_target):
    """(indices, kappa, h0) of the greedy selection and its 5x covering
    check, each angle taken pair by pair: build_complex's loop before the
    Gram matrix."""
    axis_count = len(cands)
    sel_idx = []
    for j in range(axis_count):
        ok = True
        for l in sel_idx:
            angle = float(np.arccos(np.clip(cands[j] @ cands[l], -1, 1)))
            if angle <= betas[j] + betas[l]:
                ok = False
                break
        if ok:
            sel_idx.append(j)
    for j in range(axis_count):
        if j in sel_idx:
            continue
        covered = False
        for l in sel_idx:
            if l > j:
                continue
            angle = float(np.arccos(np.clip(cands[j] @ cands[l], -1, 1)))
            if angle + betas[j] <= 5 * betas[l]:
                covered = True
                break
        if not covered:
            raise ConstructionError("5x dilates fail to cover a rejected candidate")
    sel = np.asarray(sel_idx)
    kappa = float(np.sum(2.0 ** (-sel.astype(float))))
    return sel, kappa, int(np.ceil(np.log2(1.0 + 40.0 * C_target / kappa)))


def _assert_selection_as_pairs(epsilon, axis_count, seed, C_target=5.0):
    from sbvx.counterex3d import _fibonacci_sphere

    cands = _fibonacci_sphere(axis_count, np.random.default_rng(seed))
    betas = epsilon * 2.0 ** (-np.arange(axis_count, dtype=float)) / (40 * np.pi)
    indices, kappa, h0 = _selection_by_pairs(cands, betas, C_target)
    cx = build_complex(epsilon, C_target, axis_count, seed=seed)
    assert np.array_equal(cx.indices, indices) and cx.kappa == kappa and cx.h0 == h0


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.99])
@pytest.mark.parametrize("axis_count, seeds", [(8, range(100)), (64, range(30)), (256, range(3))])
def test_gram_selection_equals_the_pair_by_pair_loop(epsilon, axis_count, seeds):
    """Equal indices, kappa and h0 for every epsilon, on seeds 0-99 at 8
    axes, 0-29 at 64 and 0-2 at 256, where the pair loop takes 15 ms and
    0.2 s a case."""
    for seed in seeds:
        _assert_selection_as_pairs(epsilon, axis_count, seed)


@pytest.mark.parametrize("seed", range(20))
def test_gram_selection_equals_the_pair_by_pair_loop_on_crowded_axes(monkeypatch, seed):
    """Candidates crowding the first three within a few 1e-3 rad, so that
    balls overlap, cones are rejected and the covering check has work: the
    same selection, or the same error."""
    from sbvx import counterex3d

    def crowded(n, rng):
        pts = [np.array([0.0, 0.0, 1.0])]
        for j in range(1, n):
            v = pts[rng.integers(min(j, 3))] + 0.003 * rng.standard_normal(3)
            pts.append(v / np.linalg.norm(v))
        return np.asarray(pts)

    monkeypatch.setattr(counterex3d, "_fibonacci_sphere", crowded)
    rng = np.random.default_rng(seed)
    eps, n = float(rng.uniform(0.5, 0.99)), int(rng.integers(8, 64))
    cands = crowded(n, np.random.default_rng(seed))
    betas = eps * 2.0 ** (-np.arange(n, dtype=float)) / (40 * np.pi)
    try:
        want = _selection_by_pairs(cands, betas, 5.0)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            build_complex(eps, 5.0, n, seed=seed)
        return
    assert len(want[0]) < n  # some cone was rejected
    cx = build_complex(eps, 5.0, n, seed=seed)
    assert np.array_equal(cx.indices, want[0]) and cx.kappa == want[1] and cx.h0 == want[2]

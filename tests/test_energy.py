import json

import numpy as np
import pytest

from sbvx.energy import (
    DensityProbeConfig,
    blowup,
    density_probe,
    deviation,
    functional,
    jump_criterion_profile,
    scale_map_values,
    upper_bound_competitor,
)
from sbvx.errors import CompetitorError, ToolkitError
from sbvx.quadrature import Disk
from sbvx.sbv2d import jump_length, synthesize, two_constant_map
from sbvx.vexp import ExponentField


def sphere_two_constant(domain, chain, seed=0):
    c_plus = np.array([1.0, 0.0])
    c_minus = np.array([0.0, 1.0])
    return two_constant_map(domain, chain, c_plus, c_minus,
                            target={"kind": "sphere", "radius": 1.0})


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------


def test_functional_constant_map(unit_disk, constant_field):
    u = synthesize("affine", {"G": np.zeros((2, 2)), "u0": np.array([1.0, 0.0])}, seed=0)
    fb = functional(u, constant_field, 1.0, unit_disk)
    assert fb.total == 0.0


def test_functional_jump_only(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    fb = functional(u, constant_field, 1.0, unit_disk)
    assert fb.bulk == 0.0
    assert fb.total == pytest.approx(2.0, abs=1e-12)


def test_functional_monotone_in_radius(unit_disk, affine_field):
    rng = np.random.default_rng(3)
    for seed in range(50):
        kind = ("random-cells-with-random-polyline", "sphere-vortex-with-slit")[seed % 2]
        u = synthesize(kind, {"budget": 0.1, "k": 2}, seed=seed)
        r1, r2 = sorted(rng.uniform(0.2, 0.95, 2))
        f1 = functional(u, affine_field, 1.0, Disk((0, 0), r1))
        f2 = functional(u, affine_field, 1.0, Disk((0, 0), r2))
        assert f1.total <= f2.total + 1e-12


# ---------------------------------------------------------------------------
# deviation
# ---------------------------------------------------------------------------


def test_deviation_self_competitor(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    assert deviation(u, constant_field, 1.0, Disk((0, 0), 0.5), [u]) == 0.0


def test_deviation_wiggle_vs_straight(unit_disk, constant_field):
    ball = Disk((0.0, 0.0), 0.5)
    # wiggly jump with the same endpoints on the vertical line, inside the ball
    zig = np.array(
        [[0.0, -2.0], [0.0, -0.3], [0.12, -0.1], [-0.12, 0.1], [0.0, 0.3], [0.0, 2.0]]
    )
    straight = np.array([[0.0, -2.0], [0.0, 2.0]])
    u = sphere_two_constant(unit_disk, zig)
    v = sphere_two_constant(unit_disk, straight)
    dev = deviation(u, constant_field, 1.0, ball, [v])
    fu = functional(u, constant_field, 1.0, ball).total
    fv = functional(v, constant_field, 1.0, ball).total
    assert dev == pytest.approx(fu - fv, rel=1e-12)
    assert dev > 0


def test_deviation_rejects_bad_competitors(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    # differs from u outside the ball
    w = sphere_two_constant(unit_disk, np.array([[0.3, -2.0], [0.3, 2.0]]))
    with pytest.raises(CompetitorError):
        deviation(u, constant_field, 1.0, Disk((0, 0), 0.2), [w])
    # violates |v| = t
    bad = scale_map_values(u, 0.5)
    with pytest.raises(CompetitorError):
        deviation(u, constant_field, 1.0, Disk((0, 0), 0.2), [bad])


# ---------------------------------------------------------------------------
# energy upper bound competitor
# ---------------------------------------------------------------------------


def test_competitor_north_pole_is_identity(unit_disk):
    u = synthesize(
        "affine", {"G": np.zeros((2, 2)), "u0": np.array([0.0, 1.0]), "k": 2}, seed=0
    )
    u = type(u)(u.domain, u.patches, u.jump, {"kind": "sphere", "radius": 1.0})
    v = upper_bound_competitor(u, Disk((0, 0), 0.8), 0.4)
    assert len(v.jump) == 0
    assert np.allclose(v.value_at(np.array([[0.1, 0.1]])), [[0.0, 1.0]])


def test_competitor_antipole_full_circle(unit_disk):
    u = synthesize(
        "affine", {"G": np.zeros((2, 2)), "u0": np.array([0.0, -1.0]), "k": 2}, seed=0
    )
    u = type(u)(u.domain, u.patches, u.jump, {"kind": "sphere", "radius": 1.0})
    rho_p = 0.4
    v = upper_bound_competitor(u, Disk((0, 0), 0.8), rho_p)
    assert v.jump.total_length == pytest.approx(2 * np.pi * rho_p, rel=1e-5)


def test_competitor_vortex_jump_bound(unit_disk):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.1}, seed=7)
    ball, rho_p = Disk((0.0, 0.0), 0.9), 0.5
    v = upper_bound_competitor(u, ball, rho_p)
    allowed = 2 * np.pi * rho_p + (
        jump_length(u, ball) - jump_length(u, Disk(ball.center, rho_p))
    )
    assert jump_length(v, ball) <= allowed + 1e-9


def test_competitor_requires_sphere_target(unit_disk):
    u = synthesize("affine", {"G": np.eye(2)}, seed=0)
    with pytest.raises(ToolkitError):
        upper_bound_competitor(u, Disk((0, 0), 0.5), 0.2)


def test_energy_upper_bound_on_quasiminimal_corpus(unit_disk, constant_field):
    # two-constant straight-jump maps: F(B_rho) = 2 rho <= 2 pi rho + kappa rho^2
    for seed in range(10):
        ang = np.pi * seed / 10
        d = np.array([np.cos(ang), np.sin(ang)])
        u = sphere_two_constant(unit_disk, np.stack([-2 * d, 2 * d]))
        for rho in (0.2, 0.5, 0.8):
            f = functional(u, constant_field, 1.0, Disk((0, 0), rho)).total
            assert f <= 2 * np.pi * rho + 1.0 * rho**2


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


def test_blowup_identity_frame(unit_disk, affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=5)
    fr = blowup(u, affine_field, [0.0, 0.0], 1.0, 0.01)
    pts = np.random.default_rng(0).random((30, 2)) * 0.5
    assert np.allclose(fr.u_tilde.value_at(pts), u.value_at(pts))
    assert np.allclose(fr.p_h(pts), affine_field(pts))


def test_blowup_jump_identity_exact(unit_disk, affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=5)
    x_h, sigma = np.array([0.3, 0.05]), 0.4
    fr = blowup(u, affine_field, x_h, sigma, 0.02)
    lhs = sigma * jump_length(fr.u_tilde, Disk((0, 0), 1.0))
    rhs = jump_length(u, Disk(tuple(x_h), sigma))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_blowup_th_formula_constant_p(unit_disk, constant_field):
    u = synthesize("affine", {"G": np.eye(2), "k": 2}, seed=1)
    sigma, eps = 0.3, 0.01
    fr = blowup(u, constant_field, [0.1, -0.2], sigma, eps)
    expect = (sigma / eps) ** (1 / 1.6) / sigma
    assert fr.t_h == pytest.approx(expect, rel=1e-12)
    # sphere-valued inputs carry the rescaled-sphere target tag
    v = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=2)
    fr2 = blowup(v, constant_field, [0.0, 0.0], sigma, eps)
    assert fr2.v_h.target == {"kind": "sphere", "radius": pytest.approx(fr2.t_h)}


def test_blowup_values_scaled(unit_disk, affine_field):
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=5)
    fr = blowup(u, affine_field, [0.0, 0.0], 0.5, 0.05)
    pts = np.random.default_rng(1).random((20, 2)) * 0.4
    assert np.allclose(fr.v_h.value_at(pts), fr.t_h * fr.u_tilde.value_at(pts))


def test_blowup_ball_containment(unit_disk, affine_field):
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    with pytest.raises(ToolkitError):
        blowup(u, affine_field, [0.9, 0.0], 0.5, 0.1)


def test_blowup_exponent_bounds_inherited(unit_disk, affine_field):
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    fr = blowup(u, affine_field, [0.2, 0.1], 0.3, 0.05)
    pts = np.random.default_rng(2).random((200, 2)) * 2 - 1
    pts = pts[np.linalg.norm(pts, axis=1) <= 1]
    vals = fr.p_h(pts)
    assert vals.min() >= affine_field.p_minus - 1e-12
    assert vals.max() <= affine_field.p_plus + 1e-12


def test_blowup_exponent_round_trips_through_json(unit_disk):
    """The p_h of a blow-up under a radial_log field is a plain field: it
    serialises, and reads back with bitwise-equal values at 1000 points."""
    p = ExponentField("closed_form", unit_disk, 1.3, 1.9,
                      {"form": "radial_log", "p0": 1.4, "c": 0.2, "x0": [0.1, -0.2], "r_cap": 0.5})
    u = synthesize("affine", {"G": np.eye(2)}, seed=1)
    p_h = blowup(u, p, [0.15, -0.1], 0.3, 0.05).p_h
    back = ExponentField.from_json(json.loads(json.dumps(p_h.to_json())))
    pts = p_h.domain.sample(1000, np.random.default_rng(7))
    assert back.params["pullback"] == p_h.params["pullback"]
    assert np.array_equal(back(pts), p_h(pts))


def test_rescaled_exponent_convergence(unit_disk, affine_field):
    # strongly log-Hoelder (Lipschitz) field: sup_B1 |p_h - p(x0)| <= omega(sigma)
    x0 = np.array([0.1, 0.2])
    p0 = float(affine_field(x0[None])[0])
    sups = []
    for h in range(1, 7):
        sigma = 2.0**-h
        fr = blowup(
            synthesize("affine", {"G": np.eye(2)}, seed=1), affine_field, x0, sigma, 0.1
        )
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        sup_dev = float(np.max(np.abs(fr.p_h(ring) - p0)))
        omega = float(np.linalg.norm([0.1, 0.05])) * sigma  # exact modulus of the affine field
        assert sup_dev <= omega * (1 + 1e-9)
        sups.append(sup_dev)
    assert sups[-1] < sups[0] / 16  # decays like sigma


# ---------------------------------------------------------------------------
# jump criterion
# ---------------------------------------------------------------------------


def test_criterion_affine_not_in_jump(unit_disk, affine_field):
    u = synthesize("affine", {"G": 0.5 * np.eye(2)}, seed=2)
    prof, verdict, slope = jump_criterion_profile(
        u, affine_field, [0.1, 0.1], [0.08, 0.05, 0.03, 0.02, 0.012, 0.008]
    )
    assert verdict == "not-in-jump"
    assert slope is not None and slope > 0


def test_criterion_on_jump(unit_disk, affine_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    prof, verdict, _ = jump_criterion_profile(
        u, affine_field, [0.0, 0.1], [0.08, 0.05, 0.03, 0.02, 0.012, 0.008]
    )
    assert verdict == "in-jump-candidate"
    assert prof[-1][1] >= 2.0 - 1e-9


def test_criterion_needs_four_radii(unit_disk, affine_field):
    u = synthesize("affine", {"G": np.eye(2)}, seed=2)
    with pytest.raises(ToolkitError):
        jump_criterion_profile(u, affine_field, [0, 0], [0.1, 0.05, 0.02])


def test_criterion_labeled_corpus(unit_disk, affine_field):
    radii = [0.08, 0.05, 0.03, 0.02, 0.012, 0.008]
    rng = np.random.default_rng(31)
    hits = 0
    total = 0
    for seed in range(25):
        ang = float(rng.uniform(0, np.pi))
        d = np.array([np.cos(ang), np.sin(ang)])
        u = sphere_two_constant(unit_disk, np.stack([-2 * d, 2 * d]))
        # on-jump point, interior of the chord
        t = float(rng.uniform(-0.5, 0.5))
        _, verdict_on, _ = jump_criterion_profile(u, affine_field, t * d, radii)
        # off-jump point at distance > the largest radius
        n = np.array([-d[1], d[0]])
        off = t * d + n * float(rng.uniform(0.1, 0.3))
        _, verdict_off, _ = jump_criterion_profile(u, affine_field, off, radii)
        total += 2
        hits += (verdict_on == "in-jump-candidate") + (verdict_off == "not-in-jump")
    assert hits == total


def test_criterion_borderline_inconclusive(unit_disk, affine_field):
    # distance inside [0.7, 1.0) of the smallest radius: flagged, never wrong
    radii = [0.08, 0.05, 0.03, 0.02, 0.012, 0.008]
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    for frac in (0.7, 0.8, 0.9, 0.95, 0.99):
        x = np.array([0.008 * frac, 0.0])
        _, verdict, _ = jump_criterion_profile(u, affine_field, x, radii)
        assert verdict != "in-jump-candidate"
        assert verdict != "not-in-jump"


# ---------------------------------------------------------------------------
# density probe and decay observation
# ---------------------------------------------------------------------------


def test_density_probe_straight_jump(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    probe = DensityProbeConfig(delta=0.1, theta_delta=0.5, rho_prime=0.1, kappa_prime=1.0)
    pts = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, -0.2]])
    rep = density_probe(u, constant_field, probe, pts)
    assert rep["theta_hat"] >= 2.0 - 1e-9
    assert not rep["violations"]


def test_density_probe_off_jump_below_floor(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.0, -2.0], [0.0, 2.0]]))
    probe = DensityProbeConfig(delta=0.1, theta_delta=0.5, rho_prime=0.05, kappa_prime=1.0)
    rep = density_probe(u, constant_field, probe, np.array([[0.4, 0.0]]))
    assert rep["theta_hat"] == pytest.approx(0.0, abs=1e-12)
    assert rep["violations"]


def test_density_probe_keeps_the_delta_margin(unit_disk, constant_field):
    u = sphere_two_constant(unit_disk, np.array([[0.85, -2.0], [0.85, 2.0]]))
    probe = DensityProbeConfig(delta=0.1, theta_delta=0.5, rho_prime=0.08, kappa_prime=1.0)
    rep = density_probe(u, constant_field, probe, np.array([[0.85, 0.0]]))
    # B_0.08(x) leaves B_0.9; the smaller balls stay inside it
    assert [row["rho"] for row in rep["rows"]] == [0.08 / 2**k for k in range(1, 6)]


def test_density_theta_hat_stability(unit_disk, constant_field):
    thetas = []
    rng = np.random.default_rng(5)
    for seed in range(30):
        ang = float(rng.uniform(0, np.pi))
        d = np.array([np.cos(ang), np.sin(ang)])
        u = sphere_two_constant(unit_disk, np.stack([-2 * d, 2 * d]))
        probe = DensityProbeConfig(delta=0.1, theta_delta=0.5, rho_prime=0.1, kappa_prime=1.0)
        pts = np.stack([t * d for t in (-0.3, 0.0, 0.25)])
        rep = density_probe(u, constant_field, probe, pts)
        thetas.append(rep["theta_hat"])
    thetas = np.asarray(thetas)
    assert (thetas.max() - thetas.min()) / thetas.mean() < 0.15


def test_decay_observation_smooth_instance(unit_disk, constant_field):
    # jump-free smooth map: F(B_{tau s}) <= C tau^2 F(B_s) with C ~ 1
    u = synthesize("affine", {"G": 0.4 * np.eye(2)}, seed=3)
    sigma, tau = 0.5, 0.3
    f_big = functional(u, constant_field, 1.0, Disk((0, 0), sigma)).total
    f_small = functional(u, constant_field, 1.0, Disk((0, 0), tau * sigma)).total
    assert f_small <= 1.05 * tau**2 * f_big

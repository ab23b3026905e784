"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Regression constants frozen from the deterministic corpus are marked below;
re-measured values must stay within them.
"""
import json
import time

import numpy as np
import pytest

from sbvx.cli import run_scenario
from sbvx.energy import blowup, jump_criterion_profile
from sbvx.quadrature import Disk
from sbvx.retract import RetractionConfig, project_w, _composed_gmags
from sbvx.sbv2d import (
    CellPatch, DiscreteSbvMap, dilate_map, jump_length, synthesize, two_constant_map,
)
from sbvx.sobolev_approx import global_approx, local_phi
from sbvx.counterex3d import annulus_measure, build_complex, verify_violation
from sbvx.vexp import ExponentField, luxembourg_norm, modular
from test_counterex3d import mc_band_area

# frozen regression constants (measured on the seeded corpus below)
K_MODULAR = 1.05  # corpus-wide K of the gradient-modular bound
XI_CAP_CORPUS = 2  # largest family count seen on the corpus, plus headroom
RETRACT_RATIO_BOUND = 1.5  # projection energy ratio bound on the corpus

UNIT_DISK = Disk((0.0, 0.0), 1.0)
P_VAR = ExponentField(
    "closed_form", UNIT_DISK, 1.3, 1.7, {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]}
)
P_CONST = ExponentField.constant(1.6, UNIT_DISK)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def corpus_instances():
    """The deterministic 50-instance corpus of criterion 3/4."""
    idx = 0
    for s in (0.5, 0.75, 0.9):
        for i in range(17 if s != 0.9 else 16):
            eta = 0.05
            frac = (0.3, 0.55, 0.8)[i % 3]
            budget = frac * eta * (1 - s) / 2
            kind = (
                "piecewise-constant-with-arc-jump", "sphere-vortex-with-slit",
                "random-cells-with-random-polyline",
            )[i % 3 if i < 9 else (i + 1) % 3]
            yield idx, s, eta, kind, {"budget": budget, "k": 2}, 1000 + 17 * idx
            idx += 1


@pytest.fixture(scope="module")
def corpus_runs_var():
    runs = []
    t0 = time.perf_counter()
    for idx, s, eta, kind, params, seed in corpus_instances():
        u = synthesize(kind, params, seed=seed)
        rep = global_approx(u, P_VAR, s, eta, seed=seed + 1)
        runs.append((idx, s, eta, u, rep))
    return runs, time.perf_counter() - t0


def criterion_1_maps():
    """The 20 affine maps of criterion 1, as (i, u); local_phi runs at seed i."""
    rng = np.random.default_rng(42)
    for i in range(20):
        u0 = rng.standard_normal(2)
        u0 /= np.linalg.norm(u0)
        tangent = np.array([-u0[1], u0[0]])
        G = np.outer(tangent, rng.standard_normal(2))  # sphere-tangent at u0
        yield i, synthesize("affine", {"G": G, "u0": u0}, seed=int(rng.integers(1 << 30)))


def criterion_2_maps():
    """The 20 collapse instances of criterion 2, as (i, u); local_phi runs at seed i."""
    rng = np.random.default_rng(77)
    for i in range(20):
        ang = 2 * np.pi * rng.random()
        rad = 0.25 + 0.15 * rng.random()
        yield i, synthesize(
            "piecewise-constant-with-arc-jump",
            {"budget": 0.04, "loop_center": (rad * np.cos(ang), rad * np.sin(ang)), "k": 2},
            seed=100 + i,
        )


CRITERION_10_FIELD = {
    "kind": "closed_form",
    "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
    "p_minus": 1.3, "p_plus": 1.7,
    "params": {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]},
}
CRITERION_10_SCENARIOS = [
    {"name": "n", "pipeline": "norms", "params": {"n_functions": 6}},
    {"name": "c", "pipeline": "cover", "params": {"s": 0.75, "eta": 0.05},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}}},
    {"name": "a", "pipeline": "approximate", "params": {"s": 0.75, "eta": 0.05},
     "map": {"kind": "piecewise-constant-with-arc-jump", "params": {"budget": 0.003, "k": 2}}},
    {"name": "r", "pipeline": "retract", "params": {"value_scale": 0.9, "M_bound": 1.0},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.01}}},
    {"name": "e", "pipeline": "energy-probe", "params": {"off_point": [-0.4, -0.4]},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.05}}},
    {"name": "x", "pipeline": "counterexample",
     "params": {"epsilon": 0.1, "C_target": 5.0}},
]


def test_criterion_1_affine_exactness():
    worst = 0.0
    t0 = time.perf_counter()
    slowest = 0.0
    for i, u in criterion_1_maps():
        t1 = time.perf_counter()
        _, _, rep = local_phi(u, P_VAR, eta=0.05, seed=i)
        slowest = max(slowest, time.perf_counter() - t1)
        worst = max(worst, rep["max_pointwise_distance"])
    _report(
        1, worst < 1e-10 and slowest < 1.0,
        f"20 affine maps reproduced, max error {worst:.2e}, "
        f"slowest call {slowest:.2f}s (limit 1.0s), total {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_2_piecewise_constant_collapse():
    worst_grad = 0.0
    slowest = 0.0
    for i, u in criterion_2_maps():
        t1 = time.perf_counter()
        _, phi, rep = local_phi(u, P_VAR, eta=0.05, seed=i)
        slowest = max(slowest, time.perf_counter() - t1)
        worst_grad = max(worst_grad, float(np.max(np.abs(phi.patches[-1].grads))))
    _report(2, worst_grad < 1e-10 and slowest < 2.0,
            f"20 collapse instances, max interpolant gradient {worst_grad:.2e}, "
            f"slowest call {slowest:.2f}s (limit 2.0s)")


def _criterion_3_violations(idx, eta, u, rep):
    """(idx, inequality, value) for each of criterion 3's (a)-(e) that rep breaks."""
    violations = []
    e = rep.estimates
    rho = u.domain.radius
    if e["jump_new"] > 1e-9 * rho:
        violations.append((idx, "a_new_jump", e["jump_new"]))
    if e["jump_residual_srho"] > 1e-9 * rho:
        violations.append((idx, "a_residual", e["jump_residual_srho"]))
    if e["outside_identity_max_error"] != 0.0:
        violations.append((idx, "b_outside", e["outside_identity_max_error"]))
    if e["linf_out"] > e["linf_in"] + 1e-9:
        violations.append((idx, "c_linf", e["linf_out"] - e["linf_in"]))
    if len(rep.family):
        if e["family_perimeter"] > 2 * np.pi * e["xi_hat"] / eta * e["jump_in"] + 1e-12:
            violations.append((idx, "d_perimeter", e["family_perimeter"]))
        bound = min(
            2 * np.pi * e["xi_hat"] / eta * rho * e["jump_in"],
            np.pi * (e["xi_hat"] / eta * e["jump_in"]) ** 2,
        )
        if e["family_area"] > bound + 1e-12:
            violations.append((idx, "d_area", e["family_area"]))
        if e["union_containment_margin"] < -1e-12:
            violations.append((idx, "e_union", e["union_containment_margin"]))
        if e["xi_hat"] > XI_CAP_CORPUS:
            violations.append((idx, "xi_regression", e["xi_hat"]))
    return violations


def test_criterion_3_global_replacement_suite(corpus_runs_var):
    runs, elapsed = corpus_runs_var
    violations = []
    for idx, s, eta, u, rep in runs:
        violations += _criterion_3_violations(idx, eta, u, rep)
    ok = not violations and elapsed < 180.0
    _report(3, ok, f"50 instances, {len(violations)} violations, corpus {elapsed:.0f}s "
                   f"(limit 180s); first: {violations[:3]}")


def test_criterion_3_holds_on_the_instance_whose_grids_used_to_fail():
    # corpus instance 25 with its seed offset by 2000: placing each moved
    # vertex at its first admissible candidate left no jump-avoiding grid in
    # one covering ball, and global_approx raised AdaptationError
    idx, s, eta, kind, params, seed = list(corpus_instances())[25]
    assert seed + 2000 == 3425
    u = synthesize(kind, params, seed=seed + 2000)
    rep = global_approx(u, P_VAR, s, eta, seed=seed + 2001)
    assert _criterion_3_violations(idx, eta, u, rep) == []


@pytest.mark.parametrize("idx", [30, 35])
def test_criterion_3_holds_on_instances_dilated_by_1e_6(idx):
    # with free jump endpoints matched on an absolute 1e-9 lattice, these two
    # instances of the every-5th slice found no free endpoint once dilated by
    # 1e-6, and global_approx raised AdaptationError
    _, s, eta, kind, params, seed = list(corpus_instances())[idx]
    u = synthesize(kind, params, seed=seed)
    small = dilate_map(u, 1e-6)
    p = ExponentField.constant(1.6, small.domain)
    rep = global_approx(small, p, s, eta, seed=seed + 1)
    ref = global_approx(u, P_CONST, s, eta, seed=seed + 1)
    assert _criterion_3_violations(idx, eta, small, rep) == []
    assert rep.estimates["rounds"] == ref.estimates["rounds"]
    assert rep.estimates["xi_hat"] == ref.estimates["xi_hat"]


def test_criterion_4_variable_exponent_modular_bound(corpus_runs_var):
    runs, _ = corpus_runs_var
    worst_var = 0.0
    for idx, s, eta, u, rep in runs:
        e = rep.estimates
        if e["modular_in"] > 1e-12:
            worst_var = max(worst_var, e["modular_bound_const_var"])
    # constant-exponent rerun: the same bound passes without the (1+rho^2) factor
    worst_const = 0.0
    for idx, s, eta, kind, params, seed in corpus_instances():
        u = synthesize(kind, params, seed=seed)
        rep = global_approx(u, P_CONST, s, eta, seed=seed + 1)
        e = rep.estimates
        if e["modular_in"] > 1e-12:
            worst_const = max(worst_const, e["modular_bound_const_stripped"])
    ok = worst_var <= K_MODULAR and worst_const <= K_MODULAR
    _report(4, ok, f"K measured: var {worst_var:.4f}, const-stripped {worst_const:.4f}, "
                   f"frozen K = {K_MODULAR}")


def test_criterion_5_luxembourg_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    fields = [
        P_VAR,
        ExponentField("closed_form", UNIT_DISK, 1.2, 1.9,
                      {"form": "radial_power", "p0": 1.2, "c": 0.7, "beta": 1.0}),
        ExponentField("closed_form", UNIT_DISK, 1.3, 1.45,
                      {"form": "radial_log", "p0": 1.3, "c": 0.1, "r_cap": 0.5}),
        ExponentField("closed_form", UNIT_DISK, 1.3, 1.7,
                      {"form": "ridge_power", "p0": 1.3, "c": 0.4, "u": [0.6, 0.8], "beta": 1.0}),
    ]
    worst = np.inf
    for i in range(200):
        p = fields[i % len(fields)]
        amp = float(np.exp(rng.uniform(np.log(0.02), np.log(30.0))))
        freq = rng.uniform(0.5, 4.0, 2)
        phase = 2 * np.pi * rng.random()

        def f(pts, amp=amp, freq=freq, phase=phase):
            return amp * (0.3 + np.abs(np.sin(pts @ freq + phase)))

        m = modular(f, p, UNIT_DISK, resolution=12)
        nrm = luxembourg_norm(f, p, UNIT_DISK, resolution=12)
        if nrm > 1:
            lo, hi = m ** (1 / p.p_plus), m ** (1 / p.p_minus)
        else:
            lo, hi = m ** (1 / p.p_minus), m ** (1 / p.p_plus)
        worst = min(worst, nrm - lo, hi - nrm)
    # constant-exponent agreement with the classical norm
    agree = 0.0
    for q in (1.2, 1.6, 1.95):
        pq = ExponentField.constant(q, UNIT_DISK)
        f = lambda pts: 0.7 + np.abs(pts[:, 0])  # noqa: E731
        m = modular(f, pq, UNIT_DISK)
        agree = max(agree, abs(luxembourg_norm(f, pq, UNIT_DISK) - m ** (1 / q)))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-8 and agree < 1e-10 and dt < 30.0
    _report(5, ok, f"200 pairs, worst margin {worst:.2e}, classical agreement "
                   f"{agree:.2e}, {dt:.1f}s (limit 30s)")


def test_criterion_6_retraction_suite():
    from tests.test_retract import scaled_sphere_map, wobble_map

    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=2.0)
    # sphere-valued inputs are fixed points
    w_fix = scaled_sphere_map(1.0)
    wt, rep = project_w(w_fix, P_VAR, cfg, seed=0)
    fixed_dev = float(np.max(np.abs(wt.patches[0].values - w_fix.patches[0].values)))
    # corpus: unit outputs and bounded energy ratio
    worst_unit, worst_ratio = 0.0, 0.0
    for seed in range(12):
        w = wobble_map(seed=seed)
        wt, rep = project_w(w, P_VAR, cfg, seed=seed)
        for q in wt.patches:
            worst_unit = max(worst_unit, float(np.max(np.abs(np.linalg.norm(q.values, axis=1) - 1))))
        worst_ratio = max(worst_ratio, rep["energy_ratio"])
    # chain rule vs finite differences at 100 points
    w = wobble_map(seed=3)
    values, grads = w.patches[0].values, w.patches[0].grads
    a = np.array([0.02, -0.015])
    gm, _ = _composed_gmags(values, grads, a)
    rng = np.random.default_rng(8)
    idx = rng.choice(len(values), 100, replace=False)
    h = 1e-6
    fd_worst = 0.0
    for c in idx:
        z, G = values[c], grads[c]

        def comp(x):
            y = z + G @ x - a
            return y / np.linalg.norm(y)

        cols = [(comp(np.eye(2)[j] * h) - comp(-np.eye(2)[j] * h)) / (2 * h) for j in range(2)]
        fd = np.linalg.norm(np.stack(cols, axis=1))
        fd_worst = max(fd_worst, abs(gm[c] - fd) / fd)
    ok = (
        fixed_dev < 1e-10 and worst_unit < 1e-9
        and worst_ratio <= RETRACT_RATIO_BOUND and fd_worst < 1e-4
    )
    _report(6, ok, f"fixed-point dev {fixed_dev:.1e}, unit dev {worst_unit:.1e}, "
                   f"ratio max {worst_ratio:.3f} (bound {RETRACT_RATIO_BOUND}), "
                   f"chain-rule vs FD {fd_worst:.1e}")


def test_criterion_7_counterexample():
    worst_margin = np.inf
    ok = True
    details = []
    for eps in (0.05, 0.1, 0.3):
        for C in (1.0, 5.0, 20.0):
            t0 = time.time()
            cx = build_complex(eps, C, 64, seed=17)
            rep = verify_violation(cx)
            ok &= rep["all_pass"] and len(rep["rows"]) == 32
            worst_margin = min(worst_margin, rep["min_margin"])
            ok &= cx.total_surface_measure() < eps
            # Monte Carlo agreement at 1e6 samples
            R, delta = 0.75, 0.75 * 2.0**-3
            area = annulus_measure(cx, R, delta)
            ok &= abs(mc_band_area(cx, R, delta, 10**6, seed=3) - area) <= 0.02 * area
            dt = time.time() - t0
            ok &= dt < 60.0
            details.append(f"eps={eps},C={C}:m={rep['min_margin']:.2f}")
    _report(7, ok, f"9 configurations, min margin {worst_margin:.3f}; " + " ".join(details[:3]))


def test_criterion_8_blowup_identities():
    rng = np.random.default_rng(21)
    worst = 0.0
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.05}, seed=4)
    for _ in range(100):
        ang = 2 * np.pi * rng.random()
        rad = 0.5 * rng.random()
        x_h = rad * np.array([np.cos(ang), np.sin(ang)])
        sigma = float(rng.uniform(0.05, 1.0 - rad - 1e-6))
        fr = blowup(u, P_VAR, x_h, sigma, eps_h=0.05)
        lhs = sigma * jump_length(fr.u_tilde, Disk((0, 0), 1.0))
        rhs = jump_length(u, Disk(tuple(x_h), sigma))
        worst = max(worst, abs(lhs - rhs))
    # rescaled-exponent sup-deviation against the field's exact modulus
    x0 = np.array([0.15, -0.1])
    p0 = float(P_VAR(x0[None])[0])
    mod_ok = True
    grad_norm = float(np.linalg.norm([0.1, 0.05]))
    for h in range(1, 7):
        sigma = 2.0**-h
        fr = blowup(u, P_VAR, x0, sigma, 0.05)
        th = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        sup_dev = float(np.max(np.abs(fr.p_h(ring) - p0)))
        mod_ok &= sup_dev <= grad_norm * sigma * (1 + 1e-9)
    _report(8, worst < 1e-12 and mod_ok,
            f"100 frames, worst jump-identity error {worst:.2e}; "
            f"exponent sup-deviation within omega(sigma)")


def test_criterion_9_jump_criterion_classification():
    radii = [0.08, 0.05, 0.03, 0.02, 0.012, 0.008]
    rng = np.random.default_rng(31)
    mis = 0
    border_mis = 0
    n_clear = n_border = 0
    for i in range(50):
        ang = float(rng.uniform(0, np.pi))
        d = np.array([np.cos(ang), np.sin(ang)])
        u = two_constant_map(
            UNIT_DISK, np.stack([-2 * d, 2 * d]), [1.0, 0.0], [0.0, 1.0],
            target={"kind": "sphere", "radius": 1.0},
        )
        n = np.array([-d[1], d[0]])
        t = float(rng.uniform(-0.4, 0.4))
        if i % 3 == 0:
            x, truth = t * d, "in-jump-candidate"
            n_clear += 1
        elif i % 3 == 1:
            x = t * d + n * float(rng.uniform(1.5, 10.0)) * radii[-1]
            truth = "not-in-jump"
            n_clear += 1
        else:
            x = t * d + n * float(rng.uniform(0.7, 1.0)) * radii[-1]
            truth = "borderline"
            n_border += 1
        _, verdict, _ = jump_criterion_profile(u, P_VAR, x, radii)
        if truth == "borderline":
            if verdict in ("in-jump-candidate", "not-in-jump"):
                border_mis += 1
        elif verdict != truth:
            mis += 1
    _report(9, mis == 0 and border_mis == 0,
            f"{n_clear} clear cases, {mis} misclassified; {n_border} borderline, "
            f"{border_mis} wrongly decided")


def test_criterion_10_determinism(tmp_path):
    all_ok = True
    for sc in CRITERION_10_SCENARIOS:
        sc = {"seed": 11, "exponent_field": CRITERION_10_FIELD, **sc}
        path = tmp_path / f"{sc['name']}.json"
        path.write_text(json.dumps(sc))
        assert run_scenario(str(path), out_dir=str(tmp_path / "o1")) == 0
        assert run_scenario(str(path), out_dir=str(tmp_path / "o2")) == 0
        b1 = (tmp_path / "o1" / sc["name"] / "report.json").read_bytes()
        b2 = (tmp_path / "o2" / sc["name"] / "report.json").read_bytes()
        all_ok &= b1 == b2
    _report(10, all_ok, "all 6 pipelines rerun byte-identical in report.json")

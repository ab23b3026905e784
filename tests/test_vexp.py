import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from sbvx import vexp
from sbvx.errors import DomainMismatchError, OrderingViolationError, ToolkitError
from sbvx.quadrature import Disk, Rect
from sbvx.sbv2d import synthesize
from sbvx.vexp import (
    ExponentField,
    embedding_constant,
    log_holder_diagnose,
    luxembourg_from_samples,
    luxembourg_norm,
    modular,
    modular_and_norm,
    modulars_and_norms,
)


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------


def test_modular_constant_one_gives_area(unit_disk, affine_field):
    assert modular(1.0, affine_field, unit_disk) == pytest.approx(np.pi, rel=1e-12)


def test_modular_constant_two_p2(unit_disk):
    p2 = ExponentField.constant(2.0, unit_disk)
    assert modular(2.0, p2, unit_disk) == pytest.approx(4 * np.pi, rel=1e-12)


def test_modular_halfdisk_vs_adaptive_oracle(unit_disk, halfdisk_field):
    # f(x) = |x| with p = 1.5 on the left half-disk and 1.8 on the right.
    f = lambda pts: np.linalg.norm(pts, axis=1)  # noqa: E731
    got = modular(f, halfdisk_field, unit_disk)
    # independent adaptive quadrature oracle, radial per half-disk
    left, _ = integrate.quad(lambda r: r**1.5 * r, 0, 1, epsabs=1e-13, epsrel=1e-13)
    right, _ = integrate.quad(lambda r: r**1.8 * r, 0, 1, epsabs=1e-13, epsrel=1e-13)
    expect = np.pi * (left + right)
    assert got == pytest.approx(expect, rel=1e-8)


def test_modular_domain_mismatch(affine_field):
    with pytest.raises(DomainMismatchError):
        modular(1.0, affine_field, Disk((5.0, 0.0), 1.0))


def test_modular_and_norm_equal_the_two_calls_from_one_sampling(unit_disk, affine_field):
    rng = np.random.default_rng(11)
    for _ in range(8):
        amp = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        freq = rng.uniform(0.5, 4.0, 2)
        phase = 2 * np.pi * rng.random()
        calls = []

        def f(pts):
            calls.append(len(pts))
            return amp * (0.3 + np.abs(np.sin(pts @ freq + phase)))

        m, nrm = modular_and_norm(f, affine_field, unit_disk)
        assert len(calls) == 1
        assert m == modular(f, affine_field, unit_disk)
        assert nrm == luxembourg_norm(f, affine_field, unit_disk)
    with pytest.raises(DomainMismatchError):
        modular_and_norm(1.0, affine_field, Disk((5.0, 0.0), 1.0))
    with pytest.raises(ToolkitError, match="not finite"):
        modular_and_norm(lambda pts: np.full(len(pts), np.inf), affine_field, unit_disk)


def _integrands(n, seed=5):
    """n integrands in turn: sine waves, exact zero, zero on a half-disk,
    vector-valued and constant, each scaled by 10^[-6, 6]; none calls BLAS."""
    rng = np.random.default_rng(seed)
    fs = []
    for i in range(n):
        s, fr = float(10.0 ** rng.uniform(-6, 6)), rng.uniform(0.5, 4.0, 2)
        fs.append([
            lambda pts, s=s, fr=fr: s * (0.3 + np.abs(np.sin(pts[:, 0] * fr[0] + pts[:, 1] * fr[1]))),
            lambda pts: np.zeros(len(pts)),
            lambda pts, s=s: s * np.maximum(pts[:, 0], 0.0),
            lambda pts, s=s, fr=fr: s * np.stack([np.cos(pts[:, 0] * fr[0]), pts[:, 1]], axis=1),
            s,
        ][i % 5])
    return fs


@pytest.fixture
def three_cpus(monkeypatch):
    """Three solving threads (the caller and two helpers), more than the
    host's cores, with frequent thread switches."""
    monkeypatch.setattr(vexp.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_modulars_and_norms_are_the_single_calls_in_order(three_cpus, unit_disk, affine_field,
                                                          constant_field, n):
    fs = _integrands(n)
    for p in (constant_field, affine_field):
        want = [modular_and_norm(f, p, unit_disk) for f in fs]
        assert modulars_and_norms(fs, p, unit_disk) == want
        assert modulars_and_norms(iter(fs), p, unit_disk) == want
    assert n < 2 or want[1] == (0.0, 0.0)  # the exact-zero integrand


@pytest.mark.parametrize("k", [0, 3, 6])
def test_modulars_and_norms_raise_the_first_serial_error(three_cpus, unit_disk, affine_field, k):
    def raises(pts):
        raise ValueError("after the non-finite integrand")

    for bad in (np.inf, np.nan):
        f_bad = lambda pts, bad=bad: np.full(len(pts), bad)  # noqa: E731
        with pytest.raises(ToolkitError) as serial:
            modular_and_norm(f_bad, affine_field, unit_disk)
        tried = []

        def last(pts):
            tried.append(len(pts))
            return 1.0 + pts[:, 0] ** 2

        fs = _integrands(8) + [last]
        fs[k], fs[k + 1] = f_bad, raises
        before = threading.active_count()
        with pytest.raises(ToolkitError) as pooled:
            modulars_and_norms(fs, affine_field, unit_disk)
        assert str(pooled.value) == str(serial.value)
        assert threading.active_count() == before
        assert len(tried) == 1  # every f was tried before the raise


def test_modulars_and_norms_leave_no_thread_behind(three_cpus, unit_disk, affine_field):
    before = threading.active_count()
    seen = []

    def f(pts):
        seen.append(threading.active_count())
        return 1.0 + pts[:, 0] ** 2

    modulars_and_norms([f] * 6, affine_field, unit_disk)
    assert threading.active_count() == before < max(seen)
    next(iter(modulars_and_norms([f] * 6, affine_field, unit_disk)))
    assert threading.active_count() == before


def test_modulars_and_norms_solve_under_the_callers_errstate(three_cpus, unit_disk, affine_field):
    seen = []

    def f(pts):
        seen.append(np.geterr()["over"])
        return 1.0 + pts[:, 0] ** 2

    with np.errstate(over="warn"):
        modulars_and_norms([f] * 6, affine_field, unit_disk)
    assert seen == ["warn"] * 6


@pytest.mark.parametrize("affinity", [True, False])
def test_modulars_and_norms_on_one_cpu_run_in_the_calling_thread(monkeypatch, unit_disk, affine_field,
                                                                 affinity):
    if affinity:
        monkeypatch.setattr(vexp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # platforms without an affinity call fall back to the CPU count
        monkeypatch.delattr(vexp.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(vexp.os, "cpu_count", lambda: 1)
    fs = _integrands(5)
    callers = set()
    want = [modular_and_norm(f, affine_field, unit_disk) for f in fs]

    def traced(f):
        def g(pts):
            callers.add(threading.current_thread())
            return f(pts)
        return g

    assert modulars_and_norms([traced(f) if callable(f) else f for f in fs], affine_field, unit_disk) == want
    assert callers == {threading.current_thread()}


def test_modular_additive_over_disjoint_regions(unit_disk, affine_field):
    from sbvx.quadrature import Annulus

    f = lambda pts: 1.0 + pts[:, 0] ** 2  # noqa: E731
    inner = Disk((0, 0), 0.5)
    ring = Annulus((0, 0), 0.5, 1.0)
    total = modular(f, affine_field, unit_disk)
    assert modular(f, affine_field, inner) + modular(f, affine_field, ring) == pytest.approx(
        total, rel=1e-10
    )


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=4.0))
def test_modular_monotone_in_amplitude(c):
    disk = Disk((0.0, 0.0), 1.0)
    p = ExponentField.constant(1.6, disk)
    f = lambda pts: 0.5 + np.abs(np.sin(3 * pts[:, 0]))  # noqa: E731
    fc = lambda pts: c * f(pts)  # noqa: E731
    assert modular(fc, p, disk) >= modular(f, p, disk) - 1e-12


# ---------------------------------------------------------------------------
# Luxembourg norm
# ---------------------------------------------------------------------------


def test_norm_constant_exponent_is_classical(unit_disk):
    q = 1.7
    p = ExponentField.constant(q, unit_disk)
    f = lambda pts: 0.3 + pts[:, 0] ** 2  # noqa: E731
    m = modular(f, p, unit_disk)
    assert luxembourg_norm(f, p, unit_disk) == pytest.approx(m ** (1 / q), abs=1e-10)


def test_norm_unit_modular_fixed_point(unit_disk, affine_field):
    f0 = lambda pts: 0.4 + np.abs(pts[:, 1])  # noqa: E731
    lam = luxembourg_norm(f0, affine_field, unit_disk)
    f1 = lambda pts: f0(pts) / lam  # noqa: E731
    assert modular(f1, affine_field, unit_disk) == pytest.approx(1.0, abs=1e-8)
    assert luxembourg_norm(f1, affine_field, unit_disk) == pytest.approx(1.0, abs=1e-8)


def test_norm_zero_function(unit_disk, affine_field):
    assert luxembourg_norm(0.0, affine_field, unit_disk) == 0.0


def test_norm_two_piece_square_vs_root_oracle():
    # f = 1 on the unit square, p = 1.4 left half / 1.9 right half
    square = Rect(0.0, 1.0, 0.0, 1.0)

    class TwoPiece(ExponentField):
        def __init__(self):
            object.__setattr__(self, "kind", "closed_form")
            object.__setattr__(self, "domain", square)
            object.__setattr__(self, "p_minus", 1.4)
            object.__setattr__(self, "p_plus", 1.9)
            object.__setattr__(self, "params", {"form": "twopiece"})

        def __call__(self, pts):
            pts = np.atleast_2d(pts)
            return np.where(pts[:, 0] < 0.5, 1.4, 1.9)

    p = TwoPiece()
    got = luxembourg_norm(1.0, p, square)
    root = optimize.brentq(
        lambda lam: 0.5 * lam**-1.4 + 0.5 * lam**-1.9 - 1.0, 1e-6, 1e6, xtol=1e-14
    )
    assert got == pytest.approx(root, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_norm_homogeneity(c):
    disk = Disk((0.0, 0.0), 1.0)
    p = ExponentField("closed_form", disk, 1.3, 1.7, {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]})
    f = lambda pts: 0.2 + np.abs(np.cos(2 * pts[:, 0] + pts[:, 1]))  # noqa: E731
    fc = lambda pts: c * f(pts)  # noqa: E731
    n1 = luxembourg_norm(f, p, disk)
    nc = luxembourg_norm(fc, p, disk)
    assert nc == pytest.approx(c * n1, rel=1e-7, abs=1e-8)


def test_norm_modular_inequalities_both_branches(unit_disk, affine_field):
    rng = np.random.default_rng(7)
    pm, pp = affine_field.p_minus, affine_field.p_plus
    for _ in range(40):
        amp = float(np.exp(rng.uniform(np.log(0.02), np.log(30.0))))
        freq = rng.uniform(0.5, 4.0, 2)

        def f(pts, amp=amp, freq=freq):
            return amp * (0.3 + np.abs(np.sin(pts @ freq)))

        m = modular(f, affine_field, unit_disk)
        nrm = luxembourg_norm(f, affine_field, unit_disk)
        if nrm > 1:
            assert m ** (1 / pp) - 1e-8 <= nrm <= m ** (1 / pm) + 1e-8
        else:
            assert m ** (1 / pm) - 1e-8 <= nrm <= m ** (1 / pp) + 1e-8


# ---------------------------------------------------------------------------
# the shared Luxembourg solver
# ---------------------------------------------------------------------------


def _brentq_norm(fv, pv, w):
    """Root of the sampled modular minus one, bracketed by the constant-exponent
    bounds m^(1/p+-) of the modular m at lam = 1."""
    m1 = float(np.sum(w * fv**pv))
    ends = [m1 ** (1 / pv.min()), m1 ** (1 / pv.max())]
    return optimize.brentq(
        lambda lam: float(np.sum(w * (fv / lam) ** pv)) - 1.0,
        0.5 * min(ends), 2.0 * max(ends), xtol=1e-300, rtol=4 * np.finfo(float).eps,
    )


samples = st.integers(1, 80).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n),
        st.lists(st.floats(1.05, 3.0), min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None)
@given(samples, st.floats(-6.0, 6.0))
def test_solver_matches_brentq_on_sampled_modular(wfp, log_amp):
    w, f, p = (np.asarray(a) for a in wfp)
    fv = 10.0**log_amp * f
    got = luxembourg_from_samples(fv, p, w)
    if not np.any(fv > 0):
        assert got == 0.0
        return
    assert got == pytest.approx(_brentq_norm(fv, p, w), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(samples, st.floats(-6.0, 6.0), st.floats(1.05, 3.0))
def test_solver_constant_exponent_is_classical(wfp, log_amp, q):
    w, f, _ = (np.asarray(a) for a in wfp)
    fv = 10.0**log_amp * f
    m = float(np.sum(w * fv**q))
    got = luxembourg_from_samples(fv, np.full(len(fv), q), w)
    assert got == pytest.approx(m ** (1 / q), rel=1e-13, abs=0.0)


def test_solver_drops_zero_weights_and_values():
    fv = np.array([2.0, 0.0, 3.0, 5.0])
    pv = np.array([1.5, 2.0, 1.2, 1.7])
    w = np.array([0.3, 0.7, 0.0, 0.2])
    assert luxembourg_from_samples(fv, pv, w) == luxembourg_from_samples(fv[[0, 3]], pv[[0, 3]], w[[0, 3]])
    assert luxembourg_from_samples(np.zeros(4), pv, w) == 0.0
    assert luxembourg_from_samples(fv, pv, np.zeros(4)) == 0.0


def test_solver_rejects_bad_samples():
    pv, w = np.full(3, 1.5), np.ones(3)
    with pytest.raises(ToolkitError, match="3 samples"):
        luxembourg_from_samples(np.array([1.0, np.inf, 2.0]), pv, w)
    with pytest.raises(ToolkitError):
        luxembourg_from_samples(np.array([1.0, -1.0, 2.0]), pv, w)
    with pytest.raises(ToolkitError):
        luxembourg_from_samples(np.ones(3), pv, -w)


def test_solver_raises_when_not_converged(monkeypatch):
    fv, pv, w = np.array([0.5, 40.0, 3.0]), np.array([1.1, 2.9, 1.5]), np.array([0.2, 0.3, 0.5])
    monkeypatch.setattr(vexp, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ToolkitError, match="3 of 3 samples"):
        luxembourg_from_samples(fv, pv, w)


def _core(fv, pv, w):
    """(modular, norm) of the samples from the Newton core."""
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    return vexp._newton(vexp._log_terms(fv.copy(), pv, log_w), pv, (pv.min(), pv.max()), len(fv))


zeros_or = lambda lo, hi: st.one_of(st.just(0.0), st.floats(lo, hi))  # noqa: E731
core_samples = st.integers(1, 80).flatmap(
    lambda n: st.tuples(
        st.lists(zeros_or(1e-3, 10.0), min_size=n, max_size=n),
        st.lists(zeros_or(1e-3, 1.0), min_size=n, max_size=n),
        st.one_of(
            st.floats(1.05, 3.0).map(lambda q: [q] * n),
            st.lists(st.floats(1.05, 3.0), min_size=n, max_size=n),
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(core_samples, st.floats(-6.0, 6.0))
def test_newton_core_gives_the_modular_and_the_norm(wfp, log_amp):
    w, f, p = (np.asarray(a) for a in wfp)
    fv = 10.0**log_amp * f
    m, nrm = _core(fv, p, w)
    ref = math.fsum(w * fv**p)
    # the modular sums e^{a_i}, a_i = log(w_i f_i^p_i) rounded to a few ulps of
    # its terms: 1e-14 relative for terms of unit order, more for f near 1e-9
    with np.errstate(divide="ignore"):
        logs = np.abs(np.log(w)) + p * np.abs(np.log(fv))
    tol = 4 * np.finfo(float).eps * (1 + logs[(w > 0) & (fv > 0)].max(initial=0.0))
    assert abs(m - ref) <= tol * ref
    assert nrm == luxembourg_from_samples(fv, p, w)
    if ref == 0.0:
        assert (m, nrm) == (0.0, 0.0)
    else:
        assert abs(_core(fv / nrm, p, w)[0] - 1.0) <= 1e-12
    assert _core(np.zeros_like(fv), p, w) == (0.0, 0.0)
    assert _core(fv, p, np.zeros_like(w)) == (0.0, 0.0)
    f_inf = fv.copy()
    f_inf[0] = np.inf
    with pytest.raises(ToolkitError, match="finite"):
        _core(f_inf, p, w)


def test_norm_solves_modular_to_round_off(unit_disk, affine_field):
    # the functions of the CLI norms pipeline
    rng = np.random.default_rng(11)
    for _ in range(20):
        amp = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        freq = rng.uniform(0.5, 4.0, 2)
        phase = 2 * np.pi * rng.random()

        def f(pts, amp=amp, freq=freq, phase=phase):
            return amp * (0.3 + np.abs(np.sin(pts @ freq + phase)))

        lam = luxembourg_norm(f, affine_field, unit_disk)
        assert abs(modular(lambda pts: f(pts) / lam, affine_field, unit_disk) - 1.0) <= 1e-12


def test_norm_is_solver_on_region_rule(unit_disk, affine_field):
    f = lambda pts: 0.4 + np.abs(pts[:, 1])  # noqa: E731
    pts, w = unit_disk.rule(12)
    expect = luxembourg_from_samples(f(pts), affine_field(pts), w)
    assert luxembourg_norm(f, affine_field, unit_disk, resolution=12) == expect


def test_gradient_norm_is_solver_on_bulk_samples(halfdisk_field):
    """A field without closed-form cell integrals is solved on the bulk samples."""
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5)
    region = Disk((0.1, -0.2), 0.6)
    pts, w, g = u.bulk_samples(region)
    expect = luxembourg_from_samples(g, halfdisk_field(pts), w)
    assert expect > 0
    assert u.gradient_luxembourg_norm(halfdisk_field, region) == expect


# ---------------------------------------------------------------------------
# log-Hoelder diagnostics
# ---------------------------------------------------------------------------


def test_log_holder_constant_field(unit_disk, constant_field):
    rep = log_holder_diagnose(constant_field, sample_budget=20_000, seed=0)
    assert rep.C_p == 0.0
    assert rep.ell == pytest.approx(1.0, abs=1e-12)
    assert rep.is_strong


def test_log_holder_lipschitz_field(unit_disk):
    # p(x) = 1.3 + 0.2 |x_1|: Lipschitz, hence strongly log-Hoelder
    p = ExponentField(
        "closed_form", unit_disk, 1.3, 1.5,
        {"form": "ridge_power", "p0": 1.3, "c": 0.2, "u": [1.0, 0.0], "b": 0.0, "beta": 1.0},
    )
    rep = log_holder_diagnose(p, sample_budget=120_000, seed=1)
    assert rep.is_strong
    # brute-force maximisation over 1e6 random pairs as the oracle
    rng = np.random.default_rng(99)
    n = 10**6
    r = np.sqrt(rng.random(n))
    t = 2 * np.pi * rng.random(n)
    xs = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    r2 = np.sqrt(rng.random(n))
    t2 = 2 * np.pi * rng.random(n)
    ys = np.stack([r2 * np.cos(t2), r2 * np.sin(t2)], axis=1)
    d = np.linalg.norm(xs - ys, axis=1)
    ok = (d > 0) & (d <= 0.5)
    brute = float(np.max(np.abs(p(xs[ok]) - p(ys[ok])) * (-np.log(d[ok]))))
    assert rep.C_p == pytest.approx(brute, rel=0.05)


def test_log_holder_radial_log_field(unit_disk):
    # p(x) = 1.3 + 0.1/(-ln |x|) near 0: log-Hoelder but not strongly
    p = ExponentField(
        "closed_form", unit_disk, 1.3, 1.3 + 0.1 / (-np.log(0.5)) + 1e-9,
        {"form": "radial_log", "p0": 1.3, "c": 0.1, "x0": [0.0, 0.0], "r_cap": 0.5},
    )
    rep = log_holder_diagnose(p, sample_budget=120_000, seed=2)
    assert rep.C_p == pytest.approx(0.1, rel=0.10)
    assert not rep.is_strong


def test_log_holder_profile_scales_decreasing(constant_field):
    rep = log_holder_diagnose(constant_field, sample_budget=5_000, seed=3)
    scales = [s for s, _ in rep.strong_profile]
    assert all(s2 < s1 for s1, s2 in zip(scales, scales[1:]))


def test_log_holder_empty_budget(constant_field):
    with pytest.raises(ToolkitError):
        log_holder_diagnose(constant_field, sample_budget=0)


# ---------------------------------------------------------------------------
# embedding constant
# ---------------------------------------------------------------------------


def test_embedding_equal_exponents(unit_disk):
    p = ExponentField.constant(1.6, unit_disk)
    assert embedding_constant(p, p, unit_disk) == pytest.approx(2.0, abs=1e-12)


def test_embedding_unit_measure_region():
    dom = Disk((0.5, 0.5), 1.0)
    p = ExponentField.constant(1.8, dom)
    q = ExponentField.constant(1.4, dom)
    square = Rect(0.0, 1.0, 0.0, 1.0)
    assert embedding_constant(p, q, square) == pytest.approx(2.0, abs=1e-12)


def test_embedding_disk_vs_direct_formula(unit_disk):
    p = ExponentField.constant(1.8, unit_disk)
    q = ExponentField.constant(1.5, unit_disk)
    got = embedding_constant(p, q, unit_disk)
    d = 1 / 1.5 - 1 / 1.8
    expect = min(2 * (1 + np.pi), 2 * max(np.pi**d, np.pi**d))
    assert got == pytest.approx(expect, rel=1e-12)


def test_embedding_ordering_violation(unit_disk):
    p = ExponentField.constant(1.5, unit_disk)
    q = ExponentField.constant(1.8, unit_disk)
    with pytest.raises(OrderingViolationError):
        embedding_constant(p, q, unit_disk)


# ---------------------------------------------------------------------------
# field plumbing
# ---------------------------------------------------------------------------


def test_field_json_roundtrip(unit_disk, affine_field):
    obj = affine_field.to_json()
    back = ExponentField.from_json(obj)
    pts = np.array([[0.1, 0.2], [-0.5, 0.3]])
    assert np.allclose(back(pts), affine_field(pts))


def test_grid_field_bilinear(unit_disk):
    xs = np.linspace(-1, 1, 21)
    vals = 1.4 + 0.1 * np.abs(np.subtract.outer(xs, 0 * xs) * 0 + xs[None, :])
    p = ExponentField(
        "grid", unit_disk, 1.4, 1.5,
        {"x0": -1.0, "y0": -1.0, "dx": 0.1, "dy": 0.1, "values": vals},
    )
    assert p(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.4, abs=1e-12)
    assert p(np.array([[0.95, 0.0]]))[0] == pytest.approx(1.4 + 0.095, abs=1e-12)


def test_field_bounds_validated(unit_disk):
    with pytest.raises(ToolkitError):
        ExponentField("closed_form", unit_disk, 1.3, 1.35, {"form": "affine", "p0": 1.5, "a": [0.1, 0.0]})
    with pytest.raises(ToolkitError):
        ExponentField.constant(1.0, unit_disk)  # p_minus must exceed 1


@pytest.mark.parametrize("center, scale", [((0.1, 0.2), 0.3), ((-0.4, 0.0), 1e-3), ((0.0, 0.0), 1.0)])
def test_rescaled_constant_and_affine_fields_are_plain_fields(unit_disk, affine_field, constant_field,
                                                             center, scale):
    """p.rescaled(c, s) of a constant or an affine field is a plain field of
    its kind on the pulled-back domain: its values agree with p(c + s y) to
    round-off, and to_json / from_json gives it back."""
    c = np.asarray(center)
    pts = np.random.default_rng(4).uniform(-1, 1, (64, 2))
    for p in (affine_field, constant_field):
        q = p.rescaled(center, scale)
        assert type(q) is ExponentField and q.kind == p.kind
        assert q.domain == Disk(tuple((np.asarray(unit_disk.center) - c) / scale), 1.0 / scale)
        assert np.allclose(q(pts), p(c + scale * pts), rtol=0, atol=4e-16 * 2)
        back = ExponentField.from_json(q.to_json())
        assert back == q and np.array_equal(back(pts), q(pts))


def test_rescaled_other_fields_carry_a_pullback(unit_disk):
    """Any other field rescales into a plain field of its kind and
    parameters with params["pullback"] = [cx, cy, scale], rescaling twice
    composes the pullbacks, and a malformed pullback, or one on an affine
    field, is rejected."""
    ridge = ExponentField("closed_form", unit_disk, 1.3, 1.7,
                          {"form": "ridge_power", "p0": 1.3, "c": 0.4, "u": [0.6, 0.8], "beta": 1.0})
    q = ridge.rescaled((0.25, 0.125), 0.5)
    pts = np.random.default_rng(5).uniform(-1, 1, (16, 2))
    assert type(q) is ExponentField and q.params == {**ridge.params, "pullback": [0.25, 0.125, 0.5]}
    assert np.array_equal(q(pts), ridge(np.array([0.25, 0.125]) + 0.5 * pts))
    assert vexp.affine_coefficients(q) is None
    assert q.rescaled((2.0, -4.0), 0.25).params["pullback"] == [1.25, -1.875, 0.125]
    for bad in ([0.0, 0.0], [0.0, 0.0, 0.0], [0.0, float("nan"), 1.0], "x"):
        with pytest.raises(ToolkitError):
            ExponentField("closed_form", unit_disk, 1.3, 1.7, {**ridge.params, "pullback": bad})
    with pytest.raises(ToolkitError):
        ExponentField("closed_form", unit_disk, 1.3, 1.7,
                      {"form": "affine", "p0": 1.5, "a": [0.1, 0.0], "pullback": [0.0, 0.0, 1.0]})

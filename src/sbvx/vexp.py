"""Variable exponent fields, modulars, Luxembourg norms, log-Hoelder diagnostics.

An exponent field assigns to each point of a planar domain an exponent in
(1, p_plus]. The modular of a function f is the integral of |f|^{p(x)} and
the Luxembourg norm is the scaling lambda that brings the modular of f/lambda
down to one. One Newton core gives both: Newton's method in log lambda on
the log-sum-exp of the sampled terms log(w f^p), whose first step, at
lambda = 1, is the sampled modular itself. Every modular and norm of the
package comes from it, the norm of a map's gradient in ``sbv2d`` through
``luxembourg_from_samples``. Beside samples, the solver takes exact cell
terms (``CellTerms``): the integrals of g^{p(x)} over triangles on which g
is constant and p affine, in closed form.

Closed-form fields are restricted to a whitelist (see ``CLOSED_FORMS``):
    affine        p0 + a . x
    radial_log    p0 + c / (-ln max(|x - x0|, r_floor)), capped at r_cap
    radial_power  p0 + c |x - x0|**beta
    ridge_power   p0 + c |x . u - b|**beta   (abs-affine ridge; beta = 1
                  gives fields like 1.3 + 0.2 |x1|)
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError, OrderingViolationError, ToolkitError
from .quadrature import Annulus, Disk, Region, region_from_json

__all__ = [
    "ExponentField",
    "CellTerms",
    "affine_coefficients",
    "LogHolderReport",
    "modular",
    "luxembourg_norm",
    "luxembourg_from_samples",
    "modular_and_norm",
    "modulars_and_norms",
    "log_holder_diagnose",
    "embedding_constant",
]

CLOSED_FORMS = ("affine", "radial_log", "radial_power", "ridge_power")

NEWTON_TOL = 1e-16  # bound on the error in log lambda after the last Newton step
NEWTON_MAX_ITER = 100
STRONG_RATIO = 0.8  # decay per scale of a strong log-Hoelder profile


def _eval_closed_form(form: str, params: dict, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(pts)
    if form == "affine":
        a = np.asarray(params["a"], dtype=float)
        return params["p0"] + pts @ a
    if form == "radial_log":
        x0 = np.asarray(params.get("x0", (0.0, 0.0)), dtype=float)
        r_cap = params.get("r_cap", 0.5)
        r_floor = params.get("r_floor", 1e-300)
        r = np.linalg.norm(pts - x0, axis=-1)
        r = np.clip(r, r_floor, r_cap)
        return params["p0"] + params["c"] / (-np.log(r))
    if form == "radial_power":
        x0 = np.asarray(params.get("x0", (0.0, 0.0)), dtype=float)
        r = np.linalg.norm(pts - x0, axis=-1)
        return params["p0"] + params["c"] * r ** params.get("beta", 1.0)
    if form == "ridge_power":
        u = np.asarray(params["u"], dtype=float)
        t = np.abs(pts @ u - params.get("b", 0.0))
        return params["p0"] + params["c"] * t ** params.get("beta", 1.0)
    raise ToolkitError(f"closed form {form!r} is not in the whitelist {CLOSED_FORMS}")


@dataclass(frozen=True)
class ExponentField:
    """Variable exponent p(.) on a planar domain with certified bounds."""

    kind: str  # "constant" | "closed_form" | "grid"
    domain: Region
    p_minus: float
    p_plus: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("constant", "closed_form", "grid"):
            raise ToolkitError(f"unknown exponent field kind {self.kind!r}")
        pb = self.params.get("pullback")
        if pb is not None:  # a constant or affine field rescales its own params instead
            ok = isinstance(pb, (list, tuple)) and len(pb) == 3 and all(
                isinstance(x, (int, float)) and math.isfinite(x) for x in pb) and pb[2] > 0
            if not ok or self.kind == "constant" or self.params.get("form") == "affine":
                raise ToolkitError(f"pullback must be [cx, cy, scale], finite, scale > 0, on a non-affine field: {pb!r}")
        if not (1.0 < self.p_minus <= self.p_plus):
            raise ToolkitError(
                f"exponent bounds must satisfy 1 < p_minus <= p_plus, "
                f"got ({self.p_minus}, {self.p_plus})"
            )
        vals = self(self._validation_points())
        if vals.min() < self.p_minus - 1e-9 or vals.max() > self.p_plus + 1e-9:
            raise ToolkitError(
                f"sampled exponent range [{vals.min():.6g}, {vals.max():.6g}] "
                f"escapes the declared bounds [{self.p_minus}, {self.p_plus}]"
            )

    def _validation_points(self, n: int = 4096) -> np.ndarray:
        return self.domain.sample(n, np.random.default_rng(0))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if "pullback" in self.params:  # p(y) = base(center + scale y)
            cx, cy, scale = self.params["pullback"]
            pts = np.array([cx, cy]) + scale * pts
        if self.kind == "constant":
            return np.full(len(pts), float(self.params["value"]))
        if self.kind == "closed_form":
            return _eval_closed_form(self.params["form"], self.params, pts)
        # sampled grid, bilinear interpolation
        x0, y0 = self.params["x0"], self.params["y0"]
        dx, dy = self.params["dx"], self.params["dy"]
        vals = np.asarray(self.params["values"], dtype=float)
        ny, nx = vals.shape
        fx = np.clip((pts[:, 0] - x0) / dx, 0.0, nx - 1 - 1e-12)
        fy = np.clip((pts[:, 1] - y0) / dy, 0.0, ny - 1 - 1e-12)
        ix, iy = fx.astype(int), fy.astype(int)
        tx, ty = fx - ix, fy - iy
        v00 = vals[iy, ix]
        v01 = vals[iy, ix + 1]
        v10 = vals[iy + 1, ix]
        v11 = vals[iy + 1, ix + 1]
        return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)

    def rescaled(self, center, scale: float) -> "ExponentField":
        """Field y -> p(center + scale * y) on the pulled-back domain, the y
        with center + scale * y in p's domain. A constant or affine field
        gives a plain field of its kind; the other fields keep their
        parameters and compose the map into params["pullback"] = [cx, cy,
        scale], which __call__ applies first."""
        c = np.asarray(center, dtype=float)
        domain = self.domain.pulled_back(c, scale)
        params = dict(self.params)
        if params.get("form") == "affine":
            a = np.asarray(params["a"], dtype=float)
            params.update(p0=float(params["p0"] + a[0] * c[0] + a[1] * c[1]),
                          a=[float(scale * a[0]), float(scale * a[1])])
        elif self.kind != "constant":
            cx, cy, s0 = params.get("pullback", (0.0, 0.0, 1.0))
            params["pullback"] = [float(cx + s0 * c[0]), float(cy + s0 * c[1]), float(s0 * scale)]
        return ExponentField(self.kind, domain, self.p_minus, self.p_plus, params)

    def to_json(self) -> dict:
        params = dict(self.params)
        if "values" in params:
            params["values"] = np.asarray(params["values"]).tolist()
        if "a" in params:
            params["a"] = list(np.asarray(params["a"], dtype=float))
        if "u" in params:
            params["u"] = list(np.asarray(params["u"], dtype=float))
        if "x0" in params:
            params["x0"] = list(np.asarray(params["x0"], dtype=float))
        return {
            "kind": self.kind,
            "domain": self.domain.to_json(),
            "p_minus": self.p_minus,
            "p_plus": self.p_plus,
            "params": params,
        }

    @staticmethod
    def from_json(obj: dict) -> "ExponentField":
        return ExponentField(
            kind=obj["kind"],
            domain=region_from_json(obj["domain"]),
            p_minus=obj["p_minus"],
            p_plus=obj["p_plus"],
            params=dict(obj["params"]),
        )

    @staticmethod
    def constant(value: float, domain: Region) -> "ExponentField":
        return ExponentField("constant", domain, value, value, {"value": value})


def affine_coefficients(p):
    """(p0, (a0, a1)) with p(x) = p0 + a . x when p is a number, a constant
    field or an affine one, the exponents whose integrals over a triangle
    have closed forms (see CellTerms); None for any other field, a subclass
    of ExponentField included."""
    if isinstance(p, (int, float)):
        return float(p), (0.0, 0.0)
    if type(p) is not ExponentField:
        return None
    if p.kind == "constant":
        return float(p.params["value"]), (0.0, 0.0)
    if p.params.get("form") == "affine":
        a = np.asarray(p.params["a"], dtype=float)
        return float(p.params["p0"]), (float(a[0]), float(a[1]))
    return None


# first omitted term bound x^K / K! of the series of CellTerms: K terms serve x <= _SERIES_REACH[K - 1]
_SERIES_REACH = np.array([(1e-17 * math.factorial(k)) ** (1.0 / k) for k in range(1, 21)])


class CellTerms:
    """Exact terms of triangles T with a constant magnitude g > 0 and an
    affine exponent p, p_i at T's corners: at t = log lam,

        integral over T of (g / lam)^{p(x)} dx = 2 |T| e[y_0, y_1, y_2],

    y_i = p_i L with L = log g - t, and e[.] the second divided difference
    of exp (Hermite-Genocchi). Cells with g = 0 add nothing and are dropped.

    at(t) returns each term's log and its exponent, the mean of p under the
    term's density (g / lam)^p, so that a cell enters the Newton solve of
    luxembourg_from_samples as a sample does. With p_bar the corners' mean
    and d_i = p_i - p_bar, the term is |T| e^{p_bar L} Q(L), Q(L) =
    2 sum_m h_m(d) L^m / (m + 2)!, h_m the complete homogeneous polynomial.
    Where x = |L| (p_max - p_min) <= 1 the series is summed up to the first
    term whose bound x^K / K! is below 1e-17, each cell to its own K, so a
    cell's term does not depend on the others. Where x > 1 the nodes are
    sorted, y_0 >= y_1 >= y_2, and the divided differences formed with
    expm1 (for accurate divided differences of exp see McCurdy, Ng and
    Parlett, Math. Comp. 43, 1984): e[y_0, y_1, y_2] = (e[y_0, y_1] -
    e[y_1, y_2]) / (y_0 - y_2) cancels at most a factor e there, and the
    mean of p is p(y_2) + (e[y_0, y_1] / e[y_0, y_1, y_2] - 2) / L, by
    Leibniz's rule for (x e^x)[y_0, y_1, y_2].
    """

    def __init__(self, g, area, pc):
        g = np.asarray(g, dtype=float).ravel()
        keep = g > 0
        self.ell = np.log(g[keep])
        self.log_area = np.log(np.asarray(area, dtype=float).ravel()[keep])
        self.pc = np.asarray(pc, dtype=float).reshape(-1, 3)[keep]
        p0, p1, p2 = self.pc.T
        self.p_bar = p0 + ((p1 - p0) + (p2 - p0)) / 3  # exactly p0 when the three are equal
        self.spread = np.maximum(np.maximum(p0, p1), p2) - np.minimum(np.minimum(p0, p1), p2)
        d0, d1, d2 = p0 - self.p_bar, p1 - self.p_bar, p2 - self.p_bar
        # e1(d) = 0, so h_m = e3 h_{m-3} - e2 h_{m-2}
        self._e2 = d0 * (d1 + d2) + d1 * d2
        self._e3 = d0 * d1 * d2
        self._coef = np.zeros((0, 2, len(self.ell)))  # see _coefficients
        self._last = None  # (t, at(t))

    def __len__(self) -> int:
        return len(self.ell)

    @property
    def p_range(self) -> tuple:
        return self.pc.min(), self.pc.max()

    def _coefficients(self, k: int) -> np.ndarray:
        """(k, 2, n): for m < k, the coefficients c_m = 2 h_m(d) / (m + 2)!
        of Q and (m + 1) c_{m+1} of Q' (0 at m = k - 1 of the longest)."""
        if len(self._coef) < k:
            h = np.zeros((k + 1, len(self.ell)))
            h[0] = 1.0
            for m in range(2, k + 1):
                np.multiply(self._e2, h[m - 2], out=h[m])
                np.negative(h[m], out=h[m])
                if m > 2:
                    h[m] += self._e3 * h[m - 3]
            c = h * (2.0 / np.array([float(math.factorial(m + 2)) for m in range(k + 1)]))[:, None]
            self._coef = np.stack([c[:-1], c[1:] * np.arange(1, k + 1)[:, None]], axis=1)
        return self._coef[:k]

    def at(self, t: float) -> tuple:
        """(log term, exponent) of each cell at log lam = t."""
        if self._last is not None and self._last[0] == t:
            return self._last[1]
        L = self.ell - t
        x = np.abs(L) * self.spread
        far = x > 1.0
        terms = np.searchsorted(_SERIES_REACH, np.where(far, 0.0, x)) + 1
        k = int(terms.max(initial=1))
        # the coefficients of Q and of Q', each cell's own terms only (the
        # others zeroed), so a cell's sum is its alone
        coef = self._coefficients(k) * (np.arange(k)[:, None, None] + [[0], [1]] < terms)
        qs = coef[k - 1]
        for m in range(k - 2, -1, -1):  # Horner for Q(L) and Q'(L) side by side
            qs *= L
            qs += coef[m]
        log_term = self.log_area + self.p_bar * L + np.log(qs[0])
        p_eff = self.p_bar + qs[1] / qs[0]
        i = np.flatnonzero(far)
        if len(i):
            ps = -np.sort(-self.pc[i], axis=1)
            Li = L[i]
            y = np.where((Li >= 0)[:, None], ps, ps[:, ::-1]) * Li[:, None]  # descending
            d1, d2 = y[:, 1] - y[:, 0], y[:, 2] - y[:, 0]
            e01 = _exp_difference(-d1)  # e[y_0, y_1] / e^{y_0}
            e12 = np.exp(d1) * _exp_difference(d1 - d2)  # e[y_1, y_2] / e^{y_0}
            e012 = (e01 - e12) / -d2
            log_term[i] = self.log_area[i] + math.log(2.0) + y[:, 0] + np.log(e012)
            p_eff[i] = np.where(Li >= 0, ps[:, 2], ps[:, 0]) + (e01 / e012 - 2.0) / Li
        self._last = (t, (log_term, p_eff))
        return log_term, p_eff


def _exp_difference(z: np.ndarray) -> np.ndarray:
    """e[0, -z] = (1 - e^{-z}) / z for z >= 0, 1 at z = 0."""
    pos = z > 0
    return np.where(pos, -np.expm1(-z) / np.where(pos, z, 1.0), 1.0)


@dataclass(frozen=True)
class LogHolderReport:
    """Measured continuity constants of an exponent field."""

    C_p: float
    ell: float
    strong_profile: list  # [(scale, omega(scale) * log(1/scale)), ...] decreasing scales
    is_strong: bool
    sample_budget: int
    seed: int

    def __post_init__(self):
        scales = [s for s, _ in self.strong_profile]
        if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
            raise ToolkitError("strong_profile scales must be strictly decreasing")


def _sampled_rule(p: ExponentField, region: Region, resolution: int):
    """(points, p, weights) of the region's rule, once p is known to cover it."""
    if not p.domain.covers(region):
        raise DomainMismatchError(f"region {region!r} escapes exponent domain {p.domain!r}")
    pts, w = region.rule(resolution)
    return pts, p(pts), w


def _magnitude_at(f, pts: np.ndarray) -> np.ndarray:
    """|f| at the points, for f a callable (scalar or vector values) or a constant."""
    if not callable(f):
        return np.full(len(pts), abs(float(f)))
    fv = np.asarray(f(pts), dtype=float)
    return np.abs(fv) if fv.ndim == 1 else np.linalg.norm(fv, axis=-1)


def modular(f, p: ExponentField, region: Region, resolution: int = 24) -> float:
    """Modular of f over region: integral of |f(x)|^{p(x)} dx.

    f may be a callable (points -> scalars or vectors) or a constant.
    Uses the fixed composite rule of the region; the rule resolution is an
    explicit argument so callers can report their integration tolerance.
    """
    return modular_and_norm(f, p, region, resolution)[0]


def _log_terms(fv, pv, log_w) -> np.ndarray:
    """log(w f^p) of the samples, written over the magnitudes fv: -inf where
    w = 0 or f = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.log(fv, out=fv)
        a *= pv
        a += log_w
    return a


def _newton(a, pv, p_range, n: int, cells: CellTerms | None = None) -> tuple:
    """(modular, norm) of the terms: the samples with log terms a = log(w f^p)
    and exponents pv, whose (min, max) is p_range (None without samples), n
    samples in all, and the cells: the sum of the terms at lambda = 1 and
    the Luxembourg norm, both 0.0 when there is no term but -inf ones (see
    ``luxembourg_from_samples``)."""
    if len(a) and a.min() == -np.inf:  # nan in a keeps it, and fails the check below
        keep = a != -np.inf
        a, pv = a[keep], pv[keep]
        p_range = (pv.min(), pv.max()) if len(a) else None
    if cells is not None and len(cells):
        c_lo, c_hi = cells.p_range
        p_range = (c_lo, c_hi) if p_range is None else (min(p_range[0], c_lo), max(p_range[1], c_hi))
    else:
        cells = None
    if p_range is None:
        return 0.0, 0.0
    p_lo, p_hi = p_range
    z = np.empty_like(a)

    def sums(t):
        """(zmax, s, sp): the largest log term at t, and the sums of the
        terms and of the terms times their exponents, over e^zmax."""
        np.multiply(pv, -t, out=z)
        np.add(z, a, out=z)
        zmax = z.max() if len(z) else -np.inf
        if cells is not None:
            zc, pc = cells.at(t)
            zmax = max(zmax, zc.max())
        np.subtract(z, zmax, out=z)
        np.exp(z, out=z)
        # einsum, not BLAS, so the sums do not depend on the BLAS thread count
        s, sp = z.sum(), np.einsum("i,i->", z, pv)
        if cells is not None:
            zc = np.exp(zc - zmax)
            s, sp = s + zc.sum(), sp + np.einsum("i,i->", zc, pc)
        return zmax, s, sp

    if not ((not len(a) or np.isfinite(a.max())) and p_lo > 0):
        raise ToolkitError(
            f"Luxembourg norm of {n} samples: samples must be finite, "
            f"with f >= 0, w >= 0 and p > 0"
        )
    zmax, s, sp = sums(0.0)
    k = (p_hi - p_lo) ** 2 * p_hi**2 / (8 * p_lo**3)
    t = 0.0
    mod = float(np.exp(zmax) * s)  # at t = 0 the log-sum-exp of the terms is the modular
    for _ in range(NEWTON_MAX_ITER):
        step = (zmax + np.log(s)) * s / sp  # -g(t) / g'(t)
        t += step
        if k * step * step <= NEWTON_TOL:
            return mod, float(np.exp(t))
        zmax, s, sp = sums(t)
    raise ToolkitError(
        f"Luxembourg norm of {len(a)} of {n} samples: Newton in log lambda "
        f"did not converge in {NEWTON_MAX_ITER} steps (last step {step:.3g})"
    )


def luxembourg_from_samples(fv, pv, w, cells: CellTerms | None = None) -> float:
    """Luxembourg norm of sampled magnitudes: the lam > 0 with
    sum_i w_i (f_i / lam)^{p_i} = 1, or 0.0 when every w_i f_i is zero.

    fv are magnitudes |f| >= 0, pv exponents > 0 and w weights >= 0 at the
    same samples; samples with w = 0 or f = 0 add nothing (0^p = 0) and are
    dropped. The exact terms of cells (see CellTerms), when given, join the
    sum. With t = log lam, the solver runs Newton's method on

        g(t) = log sum_i w_i f_i^{p_i} e^{-p_i t},

    a log-sum-exp of affine functions of t (a cell's term is an integral of
    them): convex and decreasing, with slope in [-p+, -p-] (p-, p+ the
    extreme kept exponents, a cell's corners included) and curvature at most
    (p+ - p-)^2 / 4. From t = 0 the first step lands at or left of the root,
    and every later step climbs to it monotonically. A step s leaves the root
    within (p+/p-)|s| of the previous iterate, so the new iterate is within
    K s^2 of it, K = (p+ - p-)^2 p+^2 / (8 p-^3); the solver stops once
    K s^2 <= NEWTON_TOL, with log lam exact up to round-off in g. A constant
    exponent (K = 0) takes one step. A solve that has not converged in
    NEWTON_MAX_ITER steps raises ToolkitError.
    """
    fv = np.array(fv, dtype=float).ravel()  # a copy: the log terms are written over it
    pv, w = (np.asarray(x, dtype=float).ravel() for x in (pv, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(w)
    p_range = (pv.min(), pv.max()) if len(pv) else None
    return _newton(_log_terms(fv, pv, log_w), pv, p_range, len(fv), cells)[1]


def luxembourg_norm(f, p: ExponentField, region: Region, resolution: int = 24) -> float:
    """Luxembourg norm inf{lam > 0 : modular(f/lam) <= 1} on the region's rule.

    The sampled modular is solved for one as in ``luxembourg_from_samples``:
    Newton's method in log lam, stopped once its error bound on log lam is
    at most NEWTON_TOL, which leaves |modular(f/lam) - 1| at round-off.
    """
    return modular_and_norm(f, p, region, resolution)[1]


def modular_and_norm(f, p: ExponentField, region: Region, resolution: int = 24) -> tuple:
    """(modular, luxembourg_norm) of f on the region, equal to the two calls,
    from one evaluation of f and p on the rule."""
    return modulars_and_norms([f], p, region, resolution)[0]


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def modulars_and_norms(fs, p: ExponentField, region: Region, resolution: int = 24) -> list:
    """[modular_and_norm(f, p, region, resolution) for f in fs]: the results
    in input order, each bitwise equal to the single call.

    The rule, p and log w are computed once; each f is evaluated once, and
    its modular and norm come from one Newton solve. The fs are called
    concurrently, by the calling thread and helper threads, one thread per
    CPU this process may use and at most one per function, so each f must
    be safe to call from a worker thread. The helpers are joined before the
    call returns. With one function or one CPU every solve runs in the
    calling thread. A failure is raised after every f has been tried: the
    first in input order, as the single calls would raise it.
    """
    fs = list(fs)
    pts, pv, w = _sampled_rule(p, region, resolution)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)  # -inf where w = 0
    p_range = pv.min(), pv.max()

    def solve(f):
        fv = _magnitude_at(f, pts)
        if not np.isfinite(fv.max()):  # nan propagates through max
            raise ToolkitError("integrand is not finite on the region")
        return _newton(_log_terms(fv, pv, log_w), pv, p_range, len(fv))

    results = [None] * len(fs)
    todo, lock = iter(range(len(fs))), threading.Lock()

    def drain():
        """Solve the functions no thread has drawn yet, storing each result
        or exception in its input slot."""
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = solve(fs[i])
            except Exception as e:  # raised below, in the calling thread
                results[i] = e

    # The calling thread is one of the solving threads: each helper keeps a
    # malloc arena of freed arrays, about 2 MB of resident memory. Helpers run
    # in a copy of the caller's context, so its np.errstate holds in them.
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(drain,))
               for _ in range(min(len(fs), _available_cpus()) - 1)]
    for h in helpers:
        h.start()
    try:
        drain()
    finally:
        for h in helpers:
            h.join()
    for r in results:  # the first failure in input order, as a serial loop raises it
        if isinstance(r, Exception):
            raise r
    return results


def _pair_cloud(p: ExponentField, n: int, rng: np.random.Generator):
    """Sample point pairs probing both generic and near-centre behaviour."""
    dom = p.domain
    n_uni = n // 2
    x = dom.sample(n_uni, rng)
    y = dom.sample(n_uni, rng)
    # near-pair cloud at log-spaced separations
    n_near = n - n_uni
    base = dom.sample(n_near, rng)
    sep = np.exp(rng.uniform(np.log(1e-8), np.log(0.5), n_near))
    ang = 2 * np.pi * rng.random(n_near)
    mate = base + sep[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    inside = dom.contains(mate)
    xs = np.concatenate([x, base[inside]])
    ys = np.concatenate([y, mate[inside]])
    if isinstance(dom, Disk):  # sampling policy: radial-log singularities sit at a disk's centre
        # log-radial cluster towards the centre
        m = max(16, n // 8)
        r = np.exp(rng.uniform(np.log(1e-12), np.log(max(dom.radius / 2, 1e-10)), m))
        t = 2 * np.pi * rng.random(m)
        ctr = np.asarray(dom.center) + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        xs = np.concatenate([xs, ctr[:-1]])
        ys = np.concatenate([ys, ctr[1:]])
    return xs, ys


def log_holder_diagnose(
    p: ExponentField,
    sample_budget: int = 100_000,
    scales=None,
    seed: int = 0,
) -> LogHolderReport:
    """Estimate the log-Hoelder constant, the ball constant, and the strong
    profile of an exponent field by seeded sampling.

    C_p is the max of |p(x)-p(y)| * (-ln|x-y|) over sampled pairs with
    0 < |x-y| <= 1/2; ell is the max over sampled balls B of
    |B|^(p_B^- - p_B^+). The strong profile lists omega(rho) * log(1/rho)
    at the requested scales; the field is flagged strong when the profile
    decays by STRONG_RATIO at each of the three smallest scales.
    """
    if sample_budget <= 0:
        raise ToolkitError("sample budget must be positive")
    if scales is None:
        scales = [2.0**-k for k in range(2, 10)]
    scales = sorted(float(s) for s in scales)[::-1]
    if any(s > 0.5 or s <= 0 for s in scales):
        raise ToolkitError("scales must lie in (0, 1/2]")
    rng = np.random.default_rng(seed)

    xs, ys = _pair_cloud(p, sample_budget, rng)
    d = np.linalg.norm(xs - ys, axis=1)
    ok = (d > 0) & (d <= 0.5)
    dp = np.abs(p(xs[ok]) - p(ys[ok]))
    C_p = float(np.max(dp * (-np.log(d[ok])))) if np.any(ok) else 0.0
    if np.max(dp, initial=0.0) <= 1e-14:
        C_p = 0.0

    # ball constant: sampled balls inside the domain
    n_balls = 256
    ell = 1.0
    dom = p.domain
    for _ in range(n_balls):
        c = dom.sample(1, rng)[0]
        rmax = dom.boundary_distance(c)
        if rmax <= 1e-9:
            continue
        r = rmax * np.exp(rng.uniform(np.log(1e-4), 0.0))
        pts = Disk(tuple(c), r).sample(64, rng)
        pv = p(pts)
        ell = max(ell, float((np.pi * r * r) ** (pv.min() - pv.max())))

    # strong profile
    per_scale = max(512, sample_budget // (8 * len(scales)))
    profile = []
    for s in scales:
        base = dom.sample(per_scale, rng)
        mate = base + s * _unit_dirs(per_scale, rng)
        inside = dom.contains(mate)
        omega = 0.0
        if np.any(inside):
            omega = float(np.max(np.abs(p(base[inside]) - p(mate[inside]))))
        if isinstance(dom, Disk):  # sampling policy: radial-log singularities sit at a disk's centre
            # radial pairs towards the centre at separation ~ s
            r0 = np.exp(rng.uniform(np.log(1e-12), np.log(min(s, dom.radius / 2)), 64))
            pts0 = np.asarray(dom.center) + r0[:, None] * _unit_dirs(64, rng)
            pts1 = np.asarray(dom.center) + (r0 * 1e-3)[:, None] * _unit_dirs(64, rng)
            omega = max(omega, float(np.max(np.abs(p(pts0) - p(pts1)))))
        profile.append((s, omega * np.log(1.0 / s)))

    vals = [v for _, v in profile]
    is_strong = True
    if len(vals) >= 4:
        for j in range(len(vals) - 3, len(vals)):
            if not (vals[j] <= STRONG_RATIO * vals[j - 1] + 1e-12):
                is_strong = False
                break
    return LogHolderReport(
        C_p=C_p,
        ell=ell,
        strong_profile=profile,
        is_strong=is_strong,
        sample_budget=sample_budget,
        seed=seed,
    )


def _unit_dirs(n: int, rng: np.random.Generator) -> np.ndarray:
    t = 2 * np.pi * rng.random(n)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def embedding_constant(
    p: ExponentField,
    q: ExponentField,
    region: Region,
    samples: int = 8192,
    seed: int = 0,
) -> float:
    """Upper bound for the L^{p(.)} -> L^{q(.)} embedding constant on a region
    of finite measure: min of 2(1+|A|) and 2 max(|A|^sup(1/q-1/p), |A|^inf(1/q-1/p)),
    with the extremes of the exponent difference estimated from samples.
    """
    rng = np.random.default_rng(seed)
    # sampling policy: an annulus cannot be sampled, so p and q are sampled on p's whole domain
    pts = (p.domain if isinstance(region, Annulus) else region).sample(samples, rng)
    pv, qv = p(pts), q(pts)
    if np.any(qv > pv + 1e-9):
        raise OrderingViolationError("q(x) > p(x) at a sampled point")
    d = 1.0 / qv - 1.0 / pv
    area = region.area
    branch = 2.0 * max(area ** float(d.max()), area ** float(d.min()))
    return float(min(2.0 * (1.0 + area), branch))

"""Sphere retraction machinery: P(y) = y/|y|, shifted retractions
P_a(y) = (y-a)/|y-a|, shift selection by sampled minimisation, and the
projection producing sphere-valued maps with controlled p(x)-energy.

Targets are unit spheres S^{k-1} in R^k, k >= 2; the singular set of P is the
origin, so |grad P(y)| = 1/|y| (operator norm of (I - yy^T/|y|^2)/|y|).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ToolkitError
from .sbv2d import CellPatch, DiscreteSbvMap, JumpSet

__all__ = [
    "RetractionConfig",
    "sphere_retraction_gradient",
    "retraction_jacobian",
    "choose_shift",
    "invert_shifted_retraction",
    "project_w",
]

SIGMA_THRESHOLD = 0.5  # shifts above this fraction of the sphere radius are rejected
SHIFT_BLOCK = 8  # shifts per broadcast in choose_shift; bounds its temporaries


@dataclass(frozen=True)
class RetractionConfig:
    """Shift-family configuration with a measured inverse-Lipschitz bound."""

    k: int = 2
    sigma: float = 0.05
    shift_samples: int = 64
    M_bound: float = 1.0
    lambda_lip: float = field(default=0.0)

    def __post_init__(self):
        if self.k < 2:
            raise ToolkitError("target dimension k must be >= 2")
        if not (0 < self.sigma <= SIGMA_THRESHOLD):
            raise ToolkitError(
                f"shift radius sigma = {self.sigma} must lie in (0, {SIGMA_THRESHOLD}]"
            )
        if self.lambda_lip == 0.0:
            object.__setattr__(self, "lambda_lip", self._measure_lambda())
        if not np.isfinite(self.lambda_lip):
            raise ToolkitError("measured inverse Lipschitz bound is not finite")

    def _measure_lambda(self, n_shift: int = 16, n_pairs: int = 256, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_shift):
            a = _uniform_ball(self.k, 1, rng)[0] * self.sigma
            z = _uniform_sphere(self.k, n_pairs, rng)
            dz = 1e-4 * _tangent_dirs(z, rng)
            z2 = _normalize(z + dz)
            t1 = _normalize(z - a)
            t2 = _normalize(z2 - a)
            num = np.linalg.norm(z - z2, axis=1)
            den = np.linalg.norm(t1 - t2, axis=1)
            ok = den > 1e-14
            if np.any(ok):
                worst = max(worst, float(np.max(num[ok] / den[ok])))
        return worst


def _uniform_ball(k: int, n: int, rng) -> np.ndarray:
    v = rng.standard_normal((n, k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / k)
    return v * r[:, None]


def _uniform_sphere(k: int, n: int, rng) -> np.ndarray:
    v = rng.standard_normal((n, k))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _tangent_dirs(z: np.ndarray, rng) -> np.ndarray:
    v = rng.standard_normal(z.shape)
    v -= np.einsum("nk,nk->n", v, z)[:, None] * z
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _normalize(y: np.ndarray) -> np.ndarray:
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def sphere_retraction_gradient(y: np.ndarray) -> float:
    """Operator norm of grad P at y, i.e. 1/|y|; errors at the singular point."""
    y = np.asarray(y, dtype=float)
    n = float(np.linalg.norm(y))
    if n == 0.0:
        raise DegenerateInputError("grad P is singular at the origin")
    return 1.0 / n


def retraction_jacobian(y: np.ndarray) -> np.ndarray:
    """Jacobian of P(y) = y/|y|: (I - yhat yhat^T)/|y|."""
    y = np.asarray(y, dtype=float)
    n = np.linalg.norm(y)
    if n == 0.0:
        raise DegenerateInputError("grad P is singular at the origin")
    yh = y / n
    return (np.eye(len(y)) - np.outer(yh, yh)) / n


def _composed_gmags(values: np.ndarray, grads: np.ndarray, a: np.ndarray):
    """Per-cell Frobenius norms of grad(P_a o w) via the exact chain rule.

    a is one shift (k,) or a block of shifts (b, k). Returns (gmags, min_dist)
    of shapes (n,) and () or (b, n) and (b,): the distance of cell values to
    the shifted singular point is reported so callers can reject singular hits.
    """
    ya = values - a[..., None, :]
    d = np.linalg.norm(ya, axis=-1)
    yh = ya / np.maximum(d, 1e-300)[..., None]
    # (I - yh yh^T) grads / d, per cell; a broadcast einsum is several times slower
    yg = sum(yh[..., i, None] * grads[:, i] for i in range(values.shape[1]))
    proj = grads - yh[..., None] * yg[..., None, :]
    gm = np.linalg.norm(proj.reshape(*d.shape, -1), axis=-1) / np.maximum(d, 1e-300)
    return gm, d.min(axis=-1)


def choose_shift(
    w: DiscreteSbvMap,
    p,
    config: RetractionConfig,
    seed: int = 0,
    region=None,
    level: int = 2,
):
    """Pick the shift a in B_sigma minimising the p(x)-modular of grad(P_a o w).

    The modular is taken on w.cell_samples, the sampled view of w's
    memoised cell split of the region; project_w reports its modulars from
    the same split, with the whole cells exact (see CellSplit.integrals).
    Uniform shift samples; the minimiser is below the sample mean, which is
    the testable surrogate of the averaging (Chebyshev) selection. Samples
    hitting the singular set of some cell are discarded; five full redraws
    before giving up. The chain rule is broadcast over SHIFT_BLOCK shifts at
    a time.
    """
    values, grads, cell_id, pts, wq = w.cell_samples(region, level)
    pv = p(pts)
    rng = np.random.default_rng(seed)
    for _round in range(5):
        shifts = _uniform_ball(config.k, config.shift_samples, rng) * config.sigma
        mods = np.full(len(shifts), np.nan)
        for i in range(0, len(shifts), SHIFT_BLOCK):
            gm, dmin = _composed_gmags(values, grads, shifts[i : i + SHIFT_BLOCK])
            # one 1-D pass over the samples per shift: a (block, samples) pass
            # was slower, and its row sums round differently
            for j in np.flatnonzero(dmin >= 1e-9):
                mods[i + j] = np.sum(wq * gm[j, cell_id] ** pv)
        ok = np.isfinite(mods)
        if np.any(ok):
            best = int(np.nanargmin(mods))
            return shifts[best], {
                "modular_min": float(mods[best]),
                "modular_mean": float(np.mean(mods[ok])),
                "n_admissible": int(ok.sum()),
                "n_samples": len(shifts),
            }
    raise DegenerateInputError("all shift samples hit the singular set in 5 rounds")


def invert_shifted_retraction(target: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The z on the unit sphere with P_a(z) = target, for |a| < 1.

    target holds unit vectors, shape (k,) or (n, k). The ray from a along m
    meets the sphere once, at z = a + t m with t the positive root of
    |a + t m|^2 = 1: t = -a.m + sqrt((a.m)^2 + 1 - |a|^2).
    """
    m = np.asarray(target, dtype=float)
    am = m @ a
    t = np.sqrt(am * am + (1.0 - a @ a)) - am
    return a + t[..., None] * m


def _lift_jets(values: np.ndarray, grads: np.ndarray, a: np.ndarray):
    """1-jets of (P_a|_S)^{-1} o P_a at values (n, k) with gradients (n, k, 2).

    With m = P_a(v) and z = a + t m the lift, dm = (I - m m^T) grad / |v - a|.
    Differentiating |z|^2 = 1 gives z.(t dm + m dt) = 0, so
    dz = t (dm - m (z.dm) / (z.m)), a map of T_m S onto T_z S.
    """
    ya = values - a
    d = np.linalg.norm(ya, axis=1)
    m = ya / d[:, None]
    z = invert_shifted_retraction(m, a)
    dm = (grads - m[:, :, None] * np.einsum("nk,nkj->nj", m, grads)[:, None, :]) / d[:, None, None]
    zdm = np.einsum("nk,nkj->nj", z, dm) / np.einsum("nk,nk->n", z, m)[:, None]
    t = np.einsum("nk,nk->n", z - a, m)
    return z, t[:, None, None] * (dm - m[:, :, None] * zdm[:, None, :])


def project_w(
    w: DiscreteSbvMap,
    p,
    config: RetractionConfig,
    seed: int = 0,
    region=None,
    level: int = 2,
    force_shift=None,
):
    """Sphere-valued replacement (P_a|_S)^{-1} o P_a o w with a chosen shift.

    The lift of each value and its gradient is the closed-form 1-jet of
    ``_lift_jets``, taken in one broadcast per patch; the jump traces are
    lifted in one more call. Cells already on the sphere (and jump traces on
    it) are bitwise unchanged. When region is given, only cells with
    barycentre strictly inside it are transformed (the gluing stage).
    force_shift bypasses the shift search (a = 0 gives plain normalisation).
    Returns (map, report).
    """
    if p.p_plus >= 2.0:
        raise ToolkitError(f"projection needs p_plus < 2, got {p.p_plus}")
    if force_shift is not None:
        a, shift_rep = np.asarray(force_shift, dtype=float), {"forced": True}
        if not np.linalg.norm(a) < 1.0:
            raise ToolkitError(f"forced shift {a} must lie inside the unit sphere")
    else:
        a, shift_rep = choose_shift(w, p, config, seed=seed, region=region, level=level)

    sup_w = max(np.max([np.linalg.norm(q.values, axis=1).max() for q in w.patches]), 0.0)
    if sup_w > config.M_bound + 1e-9:
        raise ToolkitError(
            f"|w| reaches {sup_w:.4g}, above the configured bound {config.M_bound}"
        )

    def selected(values, pts):
        off = np.abs(np.linalg.norm(values, axis=1) - 1.0) > 1e-12
        return off if region is None else off & region.contains(pts, tol=-1e-12)

    new_patches = []
    for patch in w.patches:
        vals = patch.values.copy()
        grads = patch.grads.copy()
        c = selected(vals, patch.barycenters)
        vals[c], grads[c] = _lift_jets(vals[c], grads[c], a)
        new_patches.append(
            CellPatch(patch.verts, patch.tris, vals, grads, patch.circle, patch.arc_cells)
        )

    jump = w.jump
    if len(jump):
        traces = np.concatenate([jump.trace_plus, jump.trace_minus])
        mids = 0.5 * (jump.a + jump.b)
        c = selected(traces, np.concatenate([mids, mids]))
        traces[c] = invert_shifted_retraction(_normalize(traces[c] - a), a)
        tp, tm = np.split(traces, 2)
        keep = np.linalg.norm(tp - tm, axis=1) > 1e-12
        jump = (
            JumpSet(jump.a[keep], jump.b[keep], tp[keep], tm[keep], jump.normal[keep])
            if keep.any()
            else JumpSet.empty(w.k)
        )

    target = {"kind": "sphere", "radius": 1.0} if region is None else w.target
    w_tilde = DiscreteSbvMap(w.domain, tuple(new_patches), jump, target)

    modular_in = w.modular_of_gradient(p, region, level)
    modular_out = w_tilde.modular_of_gradient(p, region, level)
    report = {
        "shift": a.tolist(),
        "modular_in": modular_in,
        "modular_out": modular_out,
        "energy_ratio": modular_out / modular_in if modular_in > 0 else 0.0,
        "sigma": config.sigma,
        "lambda_lip": config.lambda_lip,
    }
    report.update({f"shift_{k}": v for k, v in shift_rep.items()})
    return w_tilde, report

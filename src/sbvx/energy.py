"""The free-discontinuity energy, deviation from minimality, blow-up
rescaling, and point diagnostics.

F(u, c, A) integrates |grad u|^{p(x)} over A and adds c times the jump
length in A. The deviation compares u against competitor maps that agree
with it outside a compact subset; the blow-up zooms map and exponent around
a point with the compensating amplitude; the jump-point criterion classifies
a point by the decay of F(u, B_rho)/rho.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompetitorError, ToolkitError
from .quadrature import Disk
from .sbv2d import CellPatch, DiscreteSbvMap, JumpSet, transform_map
from .synth import fan_mesh

__all__ = [
    "EnergyBreakdown",
    "BlowupFrame",
    "DensityProbeConfig",
    "functional",
    "functionals",
    "deviation",
    "upper_bound_competitor",
    "blowup",
    "scale_map_values",
    "transform_map",
    "jump_criterion_profile",
    "density_probe",
]

CRIT_TAU = 0.1  # not-in-jump threshold on F/rho at the smallest radii
CRIT_FLOOR = 0.5  # in-jump floor on F/rho
N_CHECK = 256  # probe points outside the ball at which a competitor must agree with u
N_CIRCLE = 512  # segments of the north-pole competitor's circle
N_RADII = 6  # radii rho', rho'/2, ... of each density probe point


@dataclass(frozen=True)
class EnergyBreakdown:
    bulk: float
    jump: float
    region: object

    def __post_init__(self):
        if self.bulk < 0 or self.jump < 0:
            raise ToolkitError("energy parts must be nonnegative")

    @property
    def total(self) -> float:
        return self.bulk + self.jump


def functional(u: DiscreteSbvMap, p, c: float, region) -> EnergyBreakdown:
    """F(u, c, region): p(x)-modular of the gradient plus c * jump length;
    the stack of one region (see functionals)."""
    return functionals(u, p, c, [region])[0]


def functionals(u: DiscreteSbvMap, p, c: float, regions) -> list:
    """F(u, c, region) of each region of a stack of disks and annuli (or of
    one region of any kind): the modulars from one sample decomposition
    (DiscreteSbvMap.modulars_of_gradient) and the jump lengths from one clip
    (JumpSet.lengths_in), so each F is bitwise that region's alone."""
    return [
        EnergyBreakdown(bulk=bulk, jump=c * length, region=region)
        for bulk, length, region in zip(
            u.modulars_of_gradient(p, regions), u.jump.lengths_in(regions), regions
        )
    ]


def deviation(
    u: DiscreteSbvMap,
    p,
    c: float,
    ball: Disk,
    competitors,
    t: float = 1.0,
    seed: int = 0,
) -> float:
    """Upper estimate of the deviation from minimality on the competitor class.

    Every competitor must agree with u outside a compact subset of the ball,
    checked at N_CHECK seeded points, and take values of norm t. Returns
    max(0, F(u) - min F(v)); the true deviation over all admissible SBV maps
    is bounded above by any such class-restricted value.
    """
    rng = np.random.default_rng(seed)
    probe = []
    for _ in range(100 * N_CHECK):
        if len(probe) >= N_CHECK:
            break
        x = u.domain.sample(1, rng)[0]
        if np.linalg.norm(x - np.asarray(ball.center)) > ball.radius + 1e-9:
            probe.append(x)
    if not probe:
        raise ToolkitError("the ball leaves no room in the domain to verify competitors")
    probe = np.asarray(probe)
    fu = functional(u, p, c, ball).total
    best = np.inf
    for i, v in enumerate(competitors):
        diff = np.max(np.linalg.norm(u.value_at(probe) - v.value_at(probe), axis=1))
        if diff > 1e-9:
            raise CompetitorError(
                f"competitor {i} differs from u outside the ball (max {diff:.3g})", index=i
            )
        norms = np.concatenate([np.linalg.norm(q.values, axis=1) for q in v.patches])
        if np.max(np.abs(norms - t)) > 1e-9:
            raise CompetitorError(f"competitor {i} violates |v| = {t}", index=i)
        best = min(best, functional(v, p, c, ball).total)
    if not np.isfinite(best):
        return 0.0
    return max(0.0, fu - best)


def upper_bound_competitor(u: DiscreteSbvMap, ball: Disk, rho_prime: float) -> DiscreteSbvMap:
    """Competitor replacing u by the constant north pole inside B_rho'.

    Its jump inside the ball is contained in the circle of radius rho'
    (N_CIRCLE segments) plus the part of J_u outside B_rho'; circle segments
    where the traces agree are dropped.
    """
    if u.target.get("kind") != "sphere":
        raise ToolkitError("the north-pole competitor needs a sphere-valued map")
    if not (0 < rho_prime < ball.radius):
        raise ToolkitError("rho' must lie in (0, ball radius)")
    k = u.k
    pole = np.zeros(k)
    pole[-1] = u.target.get("radius", 1.0)
    inner = Disk(ball.center, rho_prime)
    verts, tris, arc = fan_mesh(inner, 4)
    values = np.repeat(pole[None, :], len(tris), axis=0)
    grads = np.zeros((len(tris), k, 2))
    patch = CellPatch(verts, tris, values, grads, inner, arc)

    th = 2 * np.pi * np.arange(N_CIRCLE + 1) / N_CIRCLE
    ring = np.asarray(ball.center) + rho_prime * np.stack([np.cos(th), np.sin(th)], axis=1)
    a_seg, b_seg = ring[:-1], ring[1:]
    mids = 0.5 * (a_seg + b_seg)
    outside_vals = u.value_at(mids * (1 + 1e-9))
    keep = np.linalg.norm(outside_vals - pole[None, :], axis=1) > 1e-9
    circle_jump = (
        JumpSet.from_segments(
            a_seg[keep], b_seg[keep], np.repeat(pole[None, :], int(keep.sum()), axis=0),
            outside_vals[keep],
        )
        if keep.any()
        else JumpSet.empty(k)
    )
    clipped = u.jump.clip_outside_disk(inner)
    if len(clipped) and len(circle_jump):
        jump = JumpSet(
            np.concatenate([clipped.a, circle_jump.a]),
            np.concatenate([clipped.b, circle_jump.b]),
            np.concatenate([clipped.trace_plus, circle_jump.trace_plus]),
            np.concatenate([clipped.trace_minus, circle_jump.trace_minus]),
            np.concatenate([clipped.normal, circle_jump.normal]),
        )
    elif len(circle_jump):
        jump = circle_jump
    else:
        jump = clipped
    return DiscreteSbvMap(u.domain, u.patches + (patch,), jump, u.target)


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


def scale_map_values(u: DiscreteSbvMap, factor: float) -> DiscreteSbvMap:
    """Multiply values, gradients, and traces by a constant amplitude."""
    patches = tuple(
        CellPatch(q.verts, q.tris, factor * q.values, factor * q.grads, q.circle, q.arc_cells)
        for q in u.patches
    )
    jump = u.jump.scaled_traces(factor)
    target = dict(u.target)
    if target.get("kind") == "sphere":
        target["radius"] = target.get("radius", 1.0) * factor
    return DiscreteSbvMap(u.domain, patches, jump, target)


@dataclass(frozen=True)
class BlowupFrame:
    """Rescaled map, exponent, and amplitudes around a point."""

    center: np.ndarray
    sigma: float
    epsilon: float
    gamma: float
    t_h: float
    p0_local: float
    u_tilde: DiscreteSbvMap
    v_h: DiscreteSbvMap
    p_h: object

    def __post_init__(self):
        if self.t_h <= 0:
            raise ToolkitError("blow-up amplitude t_h must be positive")


def blowup(u: DiscreteSbvMap, p, x_h, sigma_h: float, eps_h: float) -> BlowupFrame:
    """Zoom u and p around x_h at scale sigma_h with amplitude compensation.

    u_tilde(y) = u(x_h + sigma_h y) on B_1, p_h(y) = p(x_h + sigma_h y),
    gamma = 1/eps, t_h = (sigma gamma)^(1/p(x_h)) / sigma, v = t_h u_tilde.
    """
    x_h = np.asarray(x_h, dtype=float)
    c = np.asarray(u.domain.center)
    if np.linalg.norm(x_h - c) + sigma_h > u.domain.radius + 1e-12:
        raise ToolkitError("blow-up ball escapes the map domain")
    if eps_h <= 0:
        raise ToolkitError("eps_h must be positive")
    gamma = 1.0 / eps_h
    p0 = float(p(x_h[None, :])[0])
    t_h = (sigma_h * gamma) ** (1.0 / p0) / sigma_h
    u_tilde = transform_map(u, x_h, 1.0 / sigma_h)
    v_h = scale_map_values(u_tilde, t_h)
    p_h = p.rescaled(x_h, sigma_h)
    return BlowupFrame(
        center=x_h, sigma=sigma_h, epsilon=eps_h, gamma=gamma, t_h=t_h,
        p0_local=p0, u_tilde=u_tilde, v_h=v_h, p_h=p_h,
    )


# ---------------------------------------------------------------------------
# point diagnostics
# ---------------------------------------------------------------------------


def jump_criterion_profile(u: DiscreteSbvMap, p, x0, radii):
    """Profile rho -> F(u, B_rho(x0))/rho and a three-way verdict.

    not-in-jump: the profile sits below CRIT_TAU at the smallest radius with
    the transition already underway at the next one, and decays with positive
    log-log slope (identically-zero tails pass outright). in-jump-candidate:
    the profile stays at or above CRIT_FLOOR without collapsing at the
    smallest radius (a chord through the centre keeps F/rho level; a
    near-miss decays there). Anything else is inconclusive.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ToolkitError("need at least 4 radii")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ToolkitError("radii must be strictly decreasing")
    x0 = np.asarray(x0, dtype=float)
    disks = [Disk(tuple(x0), r) for r in radii]
    prof = [(r, fb.total / r) for r, fb in zip(radii, functionals(u, p, 1.0, disks))]
    vals = np.array([v for _, v in prof])
    verdict = "inconclusive"
    slope = None
    pos = vals > 0
    if np.count_nonzero(pos) >= 2:
        lr = np.log([r for r, _ in prof])
        slope = float(np.polyfit(lr[pos], np.log(vals[pos]), 1)[0])
    if vals[-1] < CRIT_TAU and vals[-2] < CRIT_FLOOR:
        if np.all(vals[-2:] <= 1e-14) or (slope is not None and slope > 0):
            verdict = "not-in-jump"
    elif np.all(vals >= CRIT_FLOOR) and vals[-1] >= 0.8 * vals.max():
        verdict = "in-jump-candidate"
    return prof, verdict, slope


@dataclass(frozen=True)
class DensityProbeConfig:
    delta: float  # boundary margin of the probed subdomain
    theta_delta: float  # density threshold to flag violations against
    rho_prime: float  # largest probed radius
    kappa_prime: float  # quasi-minimality constant of the corpus

    def __post_init__(self):
        if min(self.delta, self.theta_delta, self.rho_prime, self.kappa_prime) <= 0:
            raise ToolkitError("probe parameters must be positive")


def density_probe(u: DiscreteSbvMap, p, probe: DensityProbeConfig, sample_points) -> dict:
    """Record F(u, B_rho(x))/rho at jump points, over N_RADII halving radii
    from rho', and flag density violations.

    Only balls inside the probed subdomain B_{rho - delta} of the domain
    B_rho are measured. Returns the per-point profiles, the flagged
    violations of the theta_delta lower bound, and the empirical minimum
    theta_hat.
    """
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    radii = probe.rho_prime * 2.0 ** (-np.arange(N_RADII, dtype=float))
    balls = [
        (x, r)
        for x in sample_points
        for r in radii
        if np.linalg.norm(x - np.asarray(u.domain.center)) + r <= u.domain.radius - probe.delta
    ]
    energies = functionals(u, p, 1.0, [Disk(tuple(x), r) for x, r in balls])
    rows = []
    theta_hat = np.inf
    violations = []
    for (x, r), fb in zip(balls, energies):
        val = fb.total / r
        rows.append({"x": x.tolist(), "rho": float(r), "F_over_rho": val})
        theta_hat = min(theta_hat, val)
        if val <= probe.theta_delta:
            violations.append({"x": x.tolist(), "rho": float(r), "F_over_rho": val})
    return {
        "rows": rows,
        "violations": violations,
        "theta_hat": float(theta_hat) if np.isfinite(theta_hat) else None,
        "config": {
            "delta": probe.delta,
            "theta_delta": probe.theta_delta,
            "rho_prime": probe.rho_prime,
            "kappa_prime": probe.kappa_prime,
        },
    }

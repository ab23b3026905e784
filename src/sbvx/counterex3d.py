"""Star-shaped unions of thin cones in the unit 3-ball whose total surface
measure is small but whose boundary annuli carry mass at every radius.

Cone j has apex at the origin, a unit axis, and opening half-angle
epsilon 2^-j / (40 pi). Axes come from a seeded low-discrepancy set on the
sphere; a greedy Vitali pass keeps cones whose geodesic balls on the
half-radius sphere have disjoint closures. With kappa the sum of 2^-j over
the kept cones, every annulus of width delta at radius R carries lateral
area at least (kappa/40) delta (R - delta) epsilon, which beats
C epsilon delta_h0^2 once h0 >= log2(1 + 40 C / kappa).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ToolkitError

__all__ = ["ConeComplex", "build_complex", "annulus_measure", "verify_violation"]

SOLID_TOL = 1e-12  # slack of contains_solid on the cosine of a point's angle to a cone axis


@dataclass(frozen=True)
class ConeComplex:
    epsilon: float
    C_target: float
    axes: np.ndarray  # (m, 3) unit vectors
    indices: np.ndarray  # (m,) selected j_l
    half_angles: np.ndarray  # (m,) epsilon 2^-j_l / (40 pi)
    kappa: float
    h0: int
    radius: float = 1.0  # ball radius the cones are truncated at

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ToolkitError("epsilon must lie in (0, 1)")
        if len(self.axes) == 0:
            raise ConstructionError("empty cone selection")
        # disjoint closures of the geodesic balls cut on the half-radius sphere
        dots = np.clip(self.axes @ self.axes.T, -1.0, 1.0)
        ang = np.arccos(dots)
        need = self.half_angles[:, None] + self.half_angles[None, :]
        bad = (ang <= need) & ~np.eye(len(self.axes), dtype=bool)
        if np.any(bad):
            raise ConstructionError("selected geodesic balls are not disjoint")
        if not self.total_boundary_length() < self.epsilon / 10:
            raise ConstructionError("boundary-circle length chain violated")
        if not self.total_surface_measure() < self.epsilon * self.radius**2:
            raise ConstructionError("total surface measure chain violated")

    def total_boundary_length(self) -> float:
        """Sum of the circle lengths cut on the half-radius sphere (unit scale)."""
        return float(np.sum(np.pi * np.sin(self.half_angles) / 2) * 2)

    def total_surface_measure(self) -> float:
        """Analytic lateral area of all truncated cones."""
        return float(np.sum(np.pi * np.sin(self.half_angles)) * self.radius**2)

    def lateral_band_area(self, R: float, delta: float) -> float:
        """Analytic lateral area between radii R - delta and R."""
        return float(np.sum(np.pi * np.sin(self.half_angles)) * (R**2 - (R - delta) ** 2))

    def contains_solid(self, pts: np.ndarray) -> np.ndarray:
        """Membership of points in the union of solid cones (any radius)."""
        pts = np.atleast_2d(pts)
        n = np.linalg.norm(pts, axis=1, keepdims=True)
        n = np.maximum(n, 1e-300)
        dots = (pts / n) @ self.axes.T
        return np.any(dots >= np.cos(self.half_angles)[None, :] - SOLID_TOL, axis=1)

    def scaled(self, factor: float) -> "ConeComplex":
        return ConeComplex(
            self.epsilon, self.C_target, self.axes, self.indices,
            self.half_angles, self.kappa, self.h0, self.radius * factor,
        )

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "C_target": self.C_target,
            "axes": self.axes.tolist(),
            "indices": self.indices.tolist(),
            "half_angles": self.half_angles.tolist(),
            "kappa": self.kappa,
            "h0": self.h0,
            "radius": self.radius,
        }

    def to_obj(self, n_seg: int = 32) -> str:
        """Wavefront OBJ mesh of the truncated cone surfaces."""
        lines = []
        f_off = 1
        for ax, beta in zip(self.axes, self.half_angles):
            e1 = np.cross(ax, [0.0, 0.0, 1.0])
            if np.linalg.norm(e1) < 1e-9:
                e1 = np.cross(ax, [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(ax, e1)
            th = 2 * np.pi * np.arange(n_seg) / n_seg
            rim = self.radius * (
                np.cos(beta) * ax[None, :]
                + np.sin(beta) * (np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2)
            )
            lines.append("v 0 0 0")
            for v in rim:
                lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
            for i in range(n_seg):
                lines.append(f"f {f_off} {f_off + 1 + i} {f_off + 1 + (i + 1) % n_seg}")
            f_off += n_seg + 1
        return "\n".join(lines) + "\n"


def _fibonacci_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Low-discrepancy axis candidates: Fibonacci lattice, seeded rotation."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    golden = np.pi * (1 + 5**0.5)
    theta = golden * i
    pts = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )
    # seeded rotation keeps low discrepancy but varies the instance
    M = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(M)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return pts @ q.T


def build_complex(
    epsilon: float, C_target: float, axis_count: int = 64, seed: int = 0
) -> ConeComplex:
    """Greedy Vitali selection of disjoint thin cones and the matching h0.

    Candidates are processed in index order (decreasing half-angle); a cone
    is kept when its geodesic ball stays clear of all kept balls. Every
    rejected candidate ball sits inside the 5-fold dilate of some kept ball.
    """
    if not (0 < epsilon < 1):
        raise ToolkitError("epsilon must lie in (0, 1)")
    if C_target <= 0:
        raise ToolkitError("C_target must be positive")
    if axis_count < 8:
        raise ToolkitError("axis_count must be at least 8")
    rng = np.random.default_rng(seed)
    cands = _fibonacci_sphere(axis_count, rng)
    betas = epsilon * 2.0 ** (-np.arange(axis_count, dtype=float)) / (40 * np.pi)

    # every pairwise angle from one Gram matrix; entry (j, l) is the angle
    # between candidate j and an earlier kept cone l
    angle = np.arccos(np.clip(cands @ cands.T, -1, 1))
    free = np.ones(axis_count, dtype=bool)  # clear of every cone kept so far
    for l in range(axis_count):
        if free[l]:
            free[l + 1 :] &= angle[l + 1 :, l] > betas[l + 1 :] + betas[l]
    sel, rejected = np.flatnonzero(free), np.flatnonzero(~free)
    # 5x covering check: each rejected ball lies in the 5-fold dilate of a
    # kept ball of smaller index
    reach = angle[np.ix_(rejected, sel)] + betas[rejected, None]
    covered = (reach <= 5 * betas[sel]) & (sel < rejected[:, None])
    if not np.all(np.any(covered, axis=1)):
        raise ConstructionError("5x dilates fail to cover a rejected candidate")

    kappa = float(np.sum(2.0 ** (-sel.astype(float))))
    h0 = int(np.ceil(np.log2(1.0 + 40.0 * C_target / kappa)))
    return ConeComplex(
        epsilon=epsilon,
        C_target=C_target,
        axes=cands[sel],
        indices=sel,
        half_angles=betas[sel],
        kappa=kappa,
        h0=h0,
    )


def annulus_measure(complex_: ConeComplex, R: float, delta: float) -> float:
    """Lateral cone area in the annulus B_R minus B_{R-delta}: the exact
    frustum-band value, for R in (radius/2, radius) and delta in (0, R)."""
    rad = complex_.radius
    if not (rad / 2 < R < rad):
        raise ToolkitError(f"R = {R} must lie in (radius/2, radius) = ({rad/2}, {rad})")
    if not (0 < delta < R):
        raise ToolkitError("delta must lie in (0, R)")
    return complex_.lateral_band_area(R, delta)


def verify_violation(complex_: ConeComplex, R_grid=None, h: int | None = None) -> dict:
    """Check the annulus lower bound >= C eps delta_h0^2 on a radius grid.

    Returns per-radius margins (annulus area over C eps delta^2); every
    margin must be >= 1 for h = h0 -- a shortfall means the construction is
    broken. Passing h < h0 lets callers demonstrate that the dyadic depth
    matters.
    """
    rad = complex_.radius
    if R_grid is None:
        R_grid = rad / 2 + (rad / 2) * (np.arange(1, 33) / 33.0)
    h_use = complex_.h0 if h is None else h
    rows = []
    for R in R_grid:
        delta = R * 2.0**-h_use
        area = complex_.lateral_band_area(float(R), float(delta))
        bound = complex_.C_target * complex_.epsilon * delta**2
        rows.append({"R": float(R), "delta": float(delta), "area": area,
                     "bound": bound, "margin": area / bound})
    margins = np.array([r["margin"] for r in rows])
    out = {
        "h": int(h_use),
        "h0": complex_.h0,
        "kappa": complex_.kappa,
        "rows": rows,
        "min_margin": float(margins.min()),
        "all_pass": bool(np.all(margins >= 1.0)),
    }
    if h is None and not out["all_pass"]:
        raise ConstructionError(
            f"annulus bound fails at h0 = {complex_.h0}: min margin {out['min_margin']:.3g}"
        )
    return out

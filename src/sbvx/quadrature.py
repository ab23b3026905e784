"""Integration regions and fixed composite quadrature rules.

Disk, Annulus and Rect each answer, by method, every geometric question the
toolkit asks, so that no caller branches on a region's type: contains, rule,
sample, to_json (read back by region_from_json), covers (up to COVER_TOL, from
the other region's bbox and farthest_from a point), boundary_distance,
segment_lengths (inside the closed region), pulled_back (the region of the y
with origin + scale y in it) and rings, the (centre, r_inner, r_outer) of its
circles (r_inner = -inf for a disk) or None. A question a region cannot
answer raises ToolkitError.

Closed-form integrands over disks/annuli/rectangles are integrated with
composite Gauss-Legendre panels (polar panels for disks, so radial kinks at
the centre and angular jumps aligned with panel boundaries are harmless).
Cell-complex integrands use midpoint sums over uniformly subdivided
triangles; those live with the map machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _geom
from .errors import ToolkitError

TWO_PI = 2.0 * np.pi
COVER_TOL = 1e-9  # how far a covered region may reach past the covering one


class _Round:
    """farthest_from and bbox of a region bounded by circles, from its rings."""

    def farthest_from(self, x) -> float:
        c, _, r_out = self.rings
        return np.linalg.norm(c - x) + r_out

    def bbox(self) -> tuple:
        (cx, cy), _, r_out = self.rings
        return cx - r_out, cx + r_out, cy - r_out, cy + r_out


@dataclass(frozen=True)
class Disk(_Round):
    center: tuple[float, float]
    radius: float

    @property
    def area(self) -> float:
        return np.pi * self.radius**2

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def rings(self):
        return np.asarray(self.center, dtype=float), -np.inf, self.radius

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - np.asarray(self.center), axis=-1) <= self.radius + tol

    def rule(self, resolution: int = 24, order: int = 8):
        return _polar_rule(self.center, 0.0, self.radius, resolution, 2 * resolution, order)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        r = self.radius * np.sqrt(rng.random(n))
        t = 2 * np.pi * rng.random(n)
        return np.asarray(self.center) + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def to_json(self) -> dict:
        return {"type": "disk", "center": list(self.center), "radius": self.radius}

    @classmethod
    def from_json(cls, obj: dict) -> "Disk":
        """The disk of obj's "center" and "radius"; other keys are ignored."""
        return cls(tuple(obj["center"]), obj["radius"])

    def covers(self, other: "Region") -> bool:
        return bool(other.farthest_from(np.asarray(self.center)) <= self.radius + COVER_TOL)

    def boundary_distance(self, x) -> float:
        return self.radius - np.linalg.norm(x - np.asarray(self.center))

    def segment_lengths(self, a, b) -> np.ndarray:
        return _geom.segment_disk_length(a, b, self.center, self.radius)

    def pulled_back(self, origin, scale: float) -> "Disk":
        c = (np.asarray(self.center, dtype=float) - origin) / scale
        return Disk((float(c[0]), float(c[1])), self.radius / scale)


@dataclass(frozen=True)
class Annulus(_Round):
    center: tuple[float, float]
    r_inner: float
    r_outer: float

    @property
    def area(self) -> float:
        return np.pi * (self.r_outer**2 - self.r_inner**2)

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_outer

    @property
    def rings(self):
        return np.asarray(self.center, dtype=float), self.r_inner, self.r_outer

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        return (d >= self.r_inner - tol) & (d <= self.r_outer + tol)

    def rule(self, resolution: int = 24, order: int = 8):
        return _polar_rule(self.center, self.r_inner, self.r_outer, resolution, 2 * resolution, order)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise ToolkitError(f"cannot sample region {self!r}")

    def to_json(self) -> dict:
        raise ToolkitError(f"cannot serialise region {self!r}")

    def covers(self, other: "Region") -> bool:
        return False  # an annulus cannot be sampled, so no exponent field lives on one

    def segment_lengths(self, a, b) -> np.ndarray:
        outer = _geom.segment_disk_length(a, b, self.center, self.r_outer)
        return outer - _geom.segment_disk_length(a, b, self.center, self.r_inner)

    def pulled_back(self, origin, scale: float) -> "Annulus":
        c = (np.asarray(self.center, dtype=float) - origin) / scale
        return Annulus((float(c[0]), float(c[1])), self.r_inner / scale, self.r_outer / scale)


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    rings = None

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (
            (pts[..., 0] >= self.x0 - tol)
            & (pts[..., 0] <= self.x1 + tol)
            & (pts[..., 1] >= self.y0 - tol)
            & (pts[..., 1] <= self.y1 + tol)
        )

    def rule(self, resolution: int = 24, order: int = 8):
        x, wx = _panel_nodes(self.x0, self.x1, resolution, order)
        y, wy = _panel_nodes(self.y0, self.y1, resolution, order)
        X, Y = np.meshgrid(x, y, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=1), (wx[:, None] * wy[None, :]).ravel()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(self.x0, self.x1, n)
        y = rng.uniform(self.y0, self.y1, n)
        return np.stack([x, y], axis=1)

    def to_json(self) -> dict:
        return {"type": "rect", "x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1}

    def farthest_from(self, x) -> float:
        corners = np.array([[cx, cy] for cx in (self.x0, self.x1) for cy in (self.y0, self.y1)])
        return np.max(np.linalg.norm(corners - x, axis=1))

    def bbox(self) -> tuple:
        return self.x0, self.x1, self.y0, self.y1

    def covers(self, other: "Region") -> bool:
        x0, x1, y0, y1 = other.bbox()
        return bool(x0 >= self.x0 - COVER_TOL and x1 <= self.x1 + COVER_TOL
                    and y0 >= self.y0 - COVER_TOL and y1 <= self.y1 + COVER_TOL)

    def boundary_distance(self, x) -> float:
        return min(x[0] - self.x0, self.x1 - x[0], x[1] - self.y0, self.y1 - x[1])

    def pulled_back(self, origin, scale: float) -> "Rect":
        (ox, oy) = origin
        return Rect((self.x0 - ox) / scale, (self.x1 - ox) / scale, (self.y0 - oy) / scale, (self.y1 - oy) / scale)

    def segment_lengths(self, a, b) -> np.ndarray:
        """Liang-Barsky: each segment a->b keeps the parameters t in [0, 1]
        with a + t (b - a) between both pairs of edge lines."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        d = b - a
        lo, hi = np.zeros(len(a)), np.ones(len(a))
        for k, (e0, e1) in enumerate(((self.x0, self.x1), (self.y0, self.y1))):
            flat = d[:, k] == 0  # parallel to this pair: all in or all out
            inside = (a[:, k] >= e0) & (a[:, k] <= e1)
            step = np.where(flat, 1.0, d[:, k])
            t0, t1 = (e0 - a[:, k]) / step, (e1 - a[:, k]) / step
            lo = np.maximum(lo, np.where(flat, np.where(inside, 0.0, np.inf), np.minimum(t0, t1)))
            hi = np.minimum(hi, np.where(flat, np.where(inside, 1.0, -np.inf), np.maximum(t0, t1)))
        return np.maximum(hi - lo, 0.0) * np.hypot(d[:, 0], d[:, 1])


Region = Disk | Annulus | Rect


def region_from_json(obj: dict) -> Region:
    if obj["type"] == "rect":
        return Rect(obj["x0"], obj["x1"], obj["y0"], obj["y1"])
    if obj["type"] != "disk":
        raise ToolkitError(f"unknown region type {obj['type']!r}")
    return Disk.from_json(obj)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(a: float, b: float, n_panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _polar_rule(center, r_inner: float, r_outer: float, n_r: int, n_t: int, order: int):
    """Polar composite GL rule on r_inner <= |x - center| <= r_outer.

    Points are radius-major: (N, 2) with N = n_r * n_t * order**2, and the
    weights (N,) carry the Jacobian r. cos and sin are taken once per angle.
    """
    r, wr = _panel_nodes(r_inner, r_outer, n_r, order)
    t, wt = _panel_nodes(0.0, TWO_PI, n_t, order)
    W = (wr[:, None] * wt[None, :]) * r[:, None]
    pts = np.empty((len(r), len(t), 2))
    np.add(center[0], r[:, None] * np.cos(t), out=pts[..., 0])
    np.add(center[1], r[:, None] * np.sin(t), out=pts[..., 1])
    return pts.reshape(-1, 2), W.ravel()


@lru_cache(maxsize=None)
def subdivision_lattice(level: int):
    """Integer lattice of the uniform 4**level subdivision of a triangle.

    Returns (cent (m, 2), corners (m, 3, 2)): subtriangle centroids in units
    of 1/(3 n) and corners in units of 1/n of the edge vectors v1 - v0 and
    v2 - v0, n = 2**level; the 'up' subtriangles first, then the 'down' ones.
    Built once per level and shared read-only.
    """
    n = 1 << level
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    up = ii + jj <= n - 1
    iu, ju = ii[up], jj[up]
    dn = ii + jj <= n - 2
    idn, jdn = ii[dn], jj[dn]
    cent = np.concatenate([
        np.stack([3 * iu + 1, 3 * ju + 1], axis=1),
        np.stack([3 * idn + 2, 3 * jdn + 2], axis=1),
    ])
    corners = np.concatenate([
        np.stack([np.stack([iu, ju], 1), np.stack([iu + 1, ju], 1), np.stack([iu, ju + 1], 1)], 1),
        np.stack([np.stack([idn + 1, jdn], 1), np.stack([idn, jdn + 1], 1),
                  np.stack([idn + 1, jdn + 1], 1)], 1),
    ])
    cent.setflags(write=False)
    corners.setflags(write=False)
    return cent, corners


def tri_subcentroids(v0, v1, v2, level: int):
    """Centroids and areas of the uniform 4**level subdivision of triangles.

    v0, v1, v2 are (2,) or (..., 2). Returns (centroids (..., m, 2),
    areas (..., m)); m = 4**level, all areas of one triangle equal.
    """
    n = 1 << level
    v0 = np.asarray(v0, dtype=float)[..., None, :]
    e1 = np.asarray(v1, dtype=float)[..., None, :] - v0
    e2 = np.asarray(v2, dtype=float)[..., None, :] - v0
    bary = subdivision_lattice(level)[0] / (3 * n)
    cents = v0 + bary[:, :1] * e1 + bary[:, 1:] * e2
    area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]) / (n * n)
    return cents, np.broadcast_to(area, cents.shape[:-1]).copy()

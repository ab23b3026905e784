"""Integration regions and fixed composite quadrature rules.

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

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    @property
    def area(self) -> float:
        return np.pi * self.radius**2

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - np.asarray(self.center), axis=-1) <= self.radius + tol


@dataclass(frozen=True)
class Annulus:
    center: tuple[float, float]
    r_inner: float
    r_outer: float

    @property
    def area(self) -> float:
        return np.pi * (self.r_outer**2 - self.r_inner**2)

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_outer

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        return (d >= self.r_inner - tol) & (d <= self.r_outer + tol)


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (
            (pts[:, 0] >= self.x0 - tol)
            & (pts[:, 0] <= self.x1 + tol)
            & (pts[:, 1] >= self.y0 - tol)
            & (pts[:, 1] <= self.y1 + tol)
        )


Region = Disk | Annulus | Rect


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


def disk_rule(disk: Disk, n_r: int = 24, n_t: int = 48, order: int = 8):
    """Polar composite GL rule on a disk: points (N,2), weights (N,)."""
    return _polar_rule(disk.center, 0.0, disk.radius, n_r, n_t, order)


def annulus_rule(ann: Annulus, n_r: int = 16, n_t: int = 48, order: int = 8):
    """Polar composite GL rule on an annulus: points (N,2), weights (N,)."""
    return _polar_rule(ann.center, ann.r_inner, ann.r_outer, n_r, n_t, order)


def rect_rule(rect: Rect, n_x: int = 24, n_y: int = 24, order: int = 8):
    x, wx = _panel_nodes(rect.x0, rect.x1, n_x, order)
    y, wy = _panel_nodes(rect.y0, rect.y1, n_y, order)
    X, Y = np.meshgrid(x, y, indexing="ij")
    W = wx[:, None] * wy[None, :]
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return pts, W.ravel()


def region_rule(region: Region, resolution: int = 24, order: int = 8):
    """Fixed quadrature rule for a region; resolution scales panel counts."""
    if isinstance(region, Disk):
        return disk_rule(region, n_r=resolution, n_t=2 * resolution, order=order)
    if isinstance(region, Annulus):
        return annulus_rule(region, n_r=resolution, n_t=2 * resolution, order=order)
    if isinstance(region, Rect):
        return rect_rule(region, n_x=resolution, n_y=resolution, order=order)
    raise TypeError(f"unsupported region type {type(region)!r}")


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

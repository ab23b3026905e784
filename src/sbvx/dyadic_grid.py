"""Boundary-refining dyadic triangulation of a disk and its adaptation to a
jump set.

The grid places 2^h vertices on the circle of radius R(1 - 2^-h) for
h = 0..h_max (ring 0 is the centre), stitches consecutive rings into
triangles, and grafts a final polygonal ring onto the boundary circle.
Adaptation perturbs every vertex inside a ball of radius alpha * delta_h so
that no triangle edge meets the jump set and every vertex keeps a positive
clearance from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _geom
from .errors import AdaptationError, JumpBudgetError, SearchExhaustedError, ToolkitError
from .quadrature import Disk
from .sbv2d import DiscreteSbvMap, JumpSet

__all__ = ["DyadicGrid", "AdaptedTriangulation", "build_grid", "select_good_radius", "adapt_to_jump"]

H_MAX_LIMIT = 14
LEBESGUE_CLEARANCE = 1e-3  # times delta_h, distance kept from jump segments
ANNULUS_MULTIPLIER = 10.0  # a good radius keeps each dyadic annulus below this * eta * delta_h
SHADOW_MARGIN = 1e-9  # times L^2, the slack of each quantity in the shadow test (see _shadowed)


@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic vertex rings, triangle topology, and measured edge constants."""

    R: float
    center: np.ndarray
    h_max: int
    rotation: float
    verts: np.ndarray  # (nv, 2) absolute positions
    ring_of: np.ndarray  # (nv,) ring index; the graft ring reports h_max
    on_boundary: np.ndarray  # (nv,) bool, True for the grafted circle ring
    tris: np.ndarray  # (nt, 3)
    edges: np.ndarray  # (ne, 2) unique vertex pairs
    c1_hat: float
    c2_hat: float
    alpha: float

    @cached_property
    def min_angle(self) -> float:
        """Smallest interior angle of the base triangles, measured on first use."""
        return float(_triangle_angles(self.verts[self.tris]).min())

    @cached_property
    def max_angle(self) -> float:
        """Largest interior angle of the base triangles, measured on first use."""
        return float(_triangle_angles(self.verts[self.tris]).max())

    @property
    def delta(self) -> np.ndarray:
        """delta_h = R 2^-h for h = 0..h_max."""
        return self.R * 2.0 ** (-np.arange(self.h_max + 1, dtype=float))

    def ring_radius(self, h: int) -> float:
        return self.R * (1.0 - 2.0**-h)

    def vertex(self, h: int, j: int) -> np.ndarray:
        """Vertex x'_{h,j}, j = 1..2^h (paper indexing)."""
        Rh = self.ring_radius(h)
        ang = 2 * np.pi * j / 2**h + self.rotation
        return self.center + Rh * np.array([np.cos(ang), np.sin(ang)])

    def vertex_delta(self) -> np.ndarray:
        """Perturbation scale delta_h per vertex (graft ring uses delta_hmax)."""
        return self.R * 2.0 ** (-self.ring_of.astype(float))

    @cached_property
    def envelopes(self) -> list:
        """Per-triangle hull polygons of the alpha * delta_h vertex balls,
        built on first use."""
        radii = self.alpha * self.vertex_delta()
        return [_geom.hull_of_disks(self.verts[t], radii[t], narc=24) for t in self.tris]

    @cached_property
    def kappa_hat(self) -> int:
        """Most envelopes holding one point, over 2000 uniform points of the
        disk drawn from their own generator (seed 0); measured on first use."""
        pts = Disk(tuple(self.center), self.R).sample(2000, np.random.default_rng(0))
        return int(_geom.convex_polygon_counts(pts, self.envelopes).max())

    @cached_property
    def lambda_stats(self) -> dict:
        """Per-triangle area ratios of envelope vs strip vs ball vs triangle,
        measured on first use."""
        ratios = []
        delta_v = self.vertex_delta()
        for ti, t in enumerate(self.tris):
            x, y = self.verts[t[0]], self.verts[t[1]]
            exy = float(np.linalg.norm(x - y))
            w = exy / (8.0 * self.c2_hat)
            tri_poly = self.verts[t]
            area_T = float(_geom.triangle_areas(tri_poly[0][None], tri_poly[1][None], tri_poly[2][None])[0])
            area_CT = _geom.polygon_area(self.envelopes[ti])
            strip = _geom.stadium_polygon(x, y, w)
            area_Q = _geom.polygon_area(strip)
            inter = _geom.clip_convex_polygons(strip, _geom.convex_hull(tri_poly))
            area_QT = _geom.polygon_area(inter) if len(inter) >= 3 else 0.0
            ball = np.pi * (self.alpha * delta_v[t[0]]) ** 2
            cap_area = _geom.polygon_area(_geom.hull_of_disks(np.stack([x, y]), self.alpha * delta_v[t[:2]], narc=24))
            vals = [area_CT / area_Q, area_T / max(area_QT, 1e-12 * area_T), ball / area_T, cap_area / area_CT]
            ratios.append(vals)
        ratios = np.asarray(ratios)
        return {
            "lambda1_hat": float(ratios.min()),
            "lambda2_hat": float(ratios.max()),
            "per_triangle_min": ratios.min(axis=1).tolist(),
            "per_triangle_max": ratios.max(axis=1).tolist(),
        }

    def to_json(self) -> dict:
        return {
            "R": self.R,
            "center": self.center.tolist(),
            "h_max": self.h_max,
            "rotation": self.rotation,
            "verts": self.verts.tolist(),
            "ring_of": self.ring_of.tolist(),
            "on_boundary": self.on_boundary.tolist(),
            "tris": self.tris.tolist(),
            "c1_hat": self.c1_hat,
            "c2_hat": self.c2_hat,
            "alpha": self.alpha,
        }


def _stitch_doubling(inner_idx, outer_idx):
    """Aligned 3-triangles-per-sector stitch between ring h and ring h+1.

    inner_idx[i] sits at angle 2 pi (i+1)/n; outer_idx[2i+1] is aligned
    under it.
    """
    n = len(inner_idx)
    assert len(outer_idx) == 2 * n
    tris = []
    for i in range(n):
        a0 = inner_idx[i]
        a1 = inner_idx[(i + 1) % n]
        b0 = outer_idx[(2 * i + 1) % (2 * n)]
        b1 = outer_idx[(2 * i + 2) % (2 * n)]
        b2 = outer_idx[(2 * i + 3) % (2 * n)]
        tris += [(a0, b0, b1), (a0, b1, a1), (a1, b1, b2)]
    return tris


def _stitch_graft(inner_idx, outer_idx):
    """Quad split between two aligned rings of equal cardinality."""
    n = len(inner_idx)
    tris = []
    for i in range(n):
        a0, a1 = inner_idx[i], inner_idx[(i + 1) % n]
        d0, d1 = outer_idx[i], outer_idx[(i + 1) % n]
        tris += [(a0, d0, d1), (a0, d1, a1)]
    return tris


@lru_cache(maxsize=None)  # build_grid admits 13 values of h_max
def _topology(h_max: int) -> tuple:
    """The rotation- and radius-free part of the h_max grid, read-only.

    Returns (ring_of, on_boundary, tris, edges, ang0, rfac, edge_scale):
    vertex j = 1..2^h of ring h sits at angle ang0 = 2 pi j / 2^h (plus the
    rotation) and radius R * rfac with rfac = 1 - 2^-h (1 on the graft
    ring); edge_scale = 2^-h_e for the finer ring h_e of each edge.
    """
    ring_of = [0]
    ang0 = [np.zeros(1)]
    rfac = [0.0]
    ring_index: list[np.ndarray] = [np.array([0])]
    nv = 1
    for h in range(1, h_max + 1):
        n = 2**h
        ang0.append(2 * np.pi * np.arange(1, n + 1) / n)
        ring_index.append(np.arange(nv, nv + n))
        ring_of.extend([h] * n)
        rfac.extend([1.0 - 2.0**-h] * n)
        nv += n
    # graft ring on the boundary circle, aligned with ring h_max
    n_b = 2**h_max
    ang0.append(2 * np.pi * np.arange(1, n_b + 1) / n_b)
    boundary_index = np.arange(nv, nv + n_b)
    ring_of.extend([h_max] * n_b)
    rfac.extend([1.0] * n_b)
    ring_of = np.asarray(ring_of)
    on_boundary = np.zeros(len(ring_of), dtype=bool)
    on_boundary[boundary_index] = True

    tris: list = []
    # core: ring-2 square with the centre and the two ring-1 vertices inside.
    c_idx = 0
    p1, p2 = ring_index[1]  # angles pi and 2 pi -> (-R/2, 0), (R/2, 0)
    q1, q2, q3, q4 = ring_index[2]  # angles pi/2, pi, 3pi/2, 2pi
    tris += [
        (q1, q2, p1), (q1, p1, c_idx), (q1, c_idx, p2), (q1, p2, q4),
        (q3, p1, q2), (q3, c_idx, p1), (q3, p2, c_idx), (q3, q4, p2),
    ]
    for h in range(2, h_max):
        tris += _stitch_doubling(ring_index[h], ring_index[h + 1])
    tris += _stitch_graft(ring_index[h_max], boundary_index)
    tris = np.asarray(tris, dtype=int)

    edges = np.unique(np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1), axis=0)
    h_edge = np.maximum(ring_of[edges[:, 0]], ring_of[edges[:, 1]])
    edge_scale = 2.0 ** (-h_edge.astype(float))
    out = (ring_of, on_boundary, tris, edges, np.concatenate(ang0), np.asarray(rfac), edge_scale)
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _commit_rings(h_max: int) -> tuple:
    """The order in which adapt_to_jump commits the h_max grid, read-only.

    Vertices commit ring by ring (the graft ring after ring h_max), each ring
    in index order. Returns one (ring, later, earlier, pos) per ring: its
    vertices in commit order; each edge whose later-committed end is in the
    ring, as that end and the earlier one; and the later end's position in
    ring.
    """
    ring_of, on_boundary, _, edges, *_ = _topology(h_max)
    n = len(ring_of)
    order = np.lexsort((np.arange(n), on_boundary.astype(int), ring_of))
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    flip = rank[edges[:, 0]] > rank[edges[:, 1]]
    later = np.where(flip, edges[:, 0], edges[:, 1])
    earlier = np.where(flip, edges[:, 1], edges[:, 0])
    key = (2 * ring_of + on_boundary)[order]
    rings = []
    for ring in np.split(order, np.flatnonzero(np.diff(key)) + 1):
        sel = np.flatnonzero(np.isin(later, ring))
        out = (ring, later[sel], earlier[sel], rank[later[sel]] - rank[ring[0]])
        for a in out:
            a.flags.writeable = False
        rings.append(out)
    return tuple(rings)


def build_grid(R: float, h_max: int, center=(0.0, 0.0), rotation: float = 0.0) -> DyadicGrid:
    """Construct the dyadic grid of B_R with rings h = 0..h_max plus the
    boundary graft ring, and measure its edge-length constants.

    rotation turns the whole vertex pattern rigidly; the adaptation step uses
    it to steer coarse edges away from the jump. The topology arrays
    (ring_of, on_boundary, tris, edges) are read-only and shared by every
    grid of the same h_max.
    """
    if not (2 <= h_max <= H_MAX_LIMIT):
        raise ToolkitError(f"h_max must lie in [2, {H_MAX_LIMIT}], got {h_max}")
    if R <= 0:
        raise ToolkitError("R must be positive")
    center = np.asarray(center, dtype=float)
    ring_of, on_boundary, tris, edges, ang0, rfac, edge_scale = _topology(h_max)

    ang = ang0 + rotation
    verts = center + (R * rfac)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    verts[0] = center

    elen = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    ratios = elen / (R * edge_scale)
    c1_hat = float(ratios.min())
    c2_hat = float(ratios.max())
    alpha = c1_hat / (8.0 * c2_hat)
    return DyadicGrid(
        R=float(R),
        center=center,
        h_max=h_max,
        rotation=float(rotation),
        verts=verts,
        ring_of=ring_of,
        on_boundary=on_boundary,
        tris=tris,
        edges=edges,
        c1_hat=c1_hat,
        c2_hat=c2_hat,
        alpha=alpha,
    )


def _triangle_angles(v: np.ndarray) -> np.ndarray:
    """(3, nt) interior angles of the triangles v (nt, 3, 2)."""
    angs = []
    for i in range(3):
        e1 = v[:, (i + 1) % 3] - v[:, i]
        e2 = v[:, (i + 2) % 3] - v[:, i]
        cosang = np.einsum("ij,ij->i", e1, e2) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        )
        angs.append(np.arccos(np.clip(cosang, -1, 1)))
    return np.stack(angs)


def select_good_radius(
    J: JumpSet,
    r: float,
    eta: float,
    trials: int = 64,
    seed: int = 0,
    center=(0.0, 0.0),
    h_max: int = 8,
) -> float:
    """Sample R in (r, 2r) until the jump misses the circle entirely and every
    dyadic boundary annulus carries less than ANNULUS_MULTIPLIER * eta *
    delta_h of jump length.

    For polyline jumps the measure-zero condition on the circle is exactly
    "no crossing at the sampled radius", which we enforce outright: it is
    what the edge-avoidance of the graft ring needs. The disks B_R and
    B_{R - delta_h}, h = 0..h_max, of one draw are measured in one call.
    """
    center = np.asarray(center, dtype=float)
    budget = J.length_in(Disk(tuple(center), 2 * r))
    if budget >= eta * 2 * r:
        raise JumpBudgetError(
            f"H1(J ∩ B_2r) = {budget:.6g} exceeds the smallness bound {eta * 2 * r:.6g}"
        )
    if len(J):
        din = np.linalg.norm(J.a - center, axis=1)
        dout = np.linalg.norm(J.b - center, axis=1)
        close = _geom.point_segment_distance(center[None, :], J.a, J.b)[0]
    rng = np.random.default_rng(seed)
    worst_h = None
    for _ in range(trials):
        R = float(rng.uniform(r, 2 * r))
        # a segment crosses the circle iff its endpoint radii straddle R or
        # its closest approach dips under R while an endpoint is outside
        if len(J) and np.any(
            ((din - R) * (dout - R) < 0) | ((close < R) & ((din > R) | (dout > R)))
        ):
            continue
        delta = np.ldexp(R, -np.arange(h_max + 1))  # exactly R * 2^-h
        seen = _geom.segment_disk_length(J.a, J.b, center, np.append(R, R - delta)).sum(axis=-1)
        bad = seen[0] - seen[1:] >= ANNULUS_MULTIPLIER * eta * delta
        if not bad.any():
            return R
        worst_h = int(np.argmax(bad))
    raise SearchExhaustedError(
        f"no good radius found in {trials} samples (last violation at h = {worst_h})",
        violating_h=worst_h,
    )


@dataclass(frozen=True)
class AdaptedTriangulation:
    """Perturbed-vertex triangulation avoiding a jump set, with the envelope
    diagnostics (kappa and lambda) of its base grid."""

    base: DyadicGrid
    verts: np.ndarray  # perturbed positions, same indexing as base.verts
    tris: np.ndarray
    perturbation_ratio_max: float
    seed: int = 0

    # the envelope diagnostics of the base grid, cached there
    envelopes = property(lambda self: self.base.envelopes)
    kappa_hat = property(lambda self: self.base.kappa_hat)
    lambda_stats = property(lambda self: self.base.lambda_stats)

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "verts": self.verts.tolist(),
            "tris": self.tris.tolist(),
            "envelopes": [e.tolist() for e in self.envelopes],
            "kappa_hat": self.kappa_hat,
            "lambda_stats": self.lambda_stats,
            "perturbation_ratio_max": self.perturbation_ratio_max,
            "seed": self.seed,
        }


def _admissible(cands: np.ndarray, nbr_pts: np.ndarray, J: JumpSet, clearance: float) -> tuple:
    """Which candidate positions (m, 2) keep the clearance from J and join
    every committed neighbour in nbr_pts (k, 2) by an edge that misses J.
    Returns that mask and each candidate's distance from J."""
    dist = np.min(_geom.point_segment_distance(cands, J.a, J.b), axis=1)
    ok = ~(dist < clearance)
    if len(nbr_pts) and np.any(ok):
        idx = np.flatnonzero(ok)
        hit = _geom.segments_intersect(
            np.repeat(cands[idx], len(nbr_pts), axis=0), np.tile(nbr_pts, (len(idx), 1)), J.a, J.b
        )
        ok[idx] = ~hit.reshape(len(idx), -1).any(axis=1)
    return ok, dist


def _shadowed(v, rad: float, nbr_pts: np.ndarray, J: JumpSet, span: float) -> bool:
    """Whether the closed disk B(v, rad) lies in the shadow of one point n of
    nbr_pts (k, 2) behind one jump segment [a, b], so that
    _geom.segments_intersect finds the edge from any point c of the disk to
    n crossing [a, b]: _admissible rejects every candidate in the disk.

    The shadow is the wedge at n through a and b, beyond line(a, b). For
    the edge c -> n, segments_intersect forms t = t_num / denom and
    u = u_num / denom, and t_num, denom - t_num, u_num and denom - u_num are
    (up to one common sign) |b - a| dist(c, ab), |b - a| dist(n, ab),
    |a - n| dist(c, na) and |b - n| dist(c, nb). The disk is in the shadow
    when each stays positive over it. It must stay above SHADOW_MARGIN * L^2,
    where L bounds every coordinate involved (span bounds those of the
    candidates), so that neither this test's rounding nor that of
    segments_intersect or of drawing a candidate can move t or u out of
    [0, 1]. And denom, |b - a| (dist(c, ab) + dist(n, ab)), must clear
    segments_intersect's parallel tolerance EPS |c - n| |b - a|, here with
    |c - n| at most |v - n| + rad: below it, segments_intersect takes
    c -> n for parallel to [a, b] and decides by its collinear-overlap
    branch, which this test does not model. Every bound scales with the
    coordinates, so the test decides alike at every scale.
    """
    if not len(nbr_pts):  # the centre commits first, with no neighbour to cast a shadow
        return False

    def cross(p, q):
        return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]

    a, b = J.a, J.b  # (m, 2), against nbr_pts as (k, 1, 2)
    n = nbr_pts[:, None]
    s, an, bn, vn = b - a, a - n, b - n, v - n
    o = cross(s, n - a)
    side, near = np.sign(o), np.abs(o)  # side: +-1 by the side of ab that n is on
    far = -side * cross(s, v - a) - rad * np.hypot(s[:, 0], s[:, 1])
    left = side * cross(an, vn) - rad * np.hypot(an[..., 0], an[..., 1])
    right = -side * cross(bn, vn) - rad * np.hypot(bn[..., 0], bn[..., 1])
    L = np.maximum(
        np.maximum(span, np.hypot(n[..., 0], n[..., 1])),
        np.maximum(np.hypot(a[:, 0], a[:, 1]), np.hypot(b[:, 0], b[:, 1])),
    ) + rad
    margin = SHADOW_MARGIN * L * L
    slack = np.minimum(np.minimum(near, far), np.minimum(left, right))
    parallel = 2 * _geom.EPS * np.hypot(s[:, 0], s[:, 1]) * (np.hypot(vn[..., 0], vn[..., 1]) + rad)
    return bool(np.any((slack >= margin) & (near + far >= margin + parallel)))


def _raise_unplaced(grid: DyadicGrid, vi: int, samples_per_vertex: int):
    raise AdaptationError(
        f"vertex {vi} (ring {grid.ring_of[vi]}) could not be placed in "
        f"{samples_per_vertex} samples; jump budget too large here",
        vertex=int(vi),
    )


def _draw_candidates(grid: DyadicGrid, vi: int, rad, rng, m: int) -> np.ndarray:
    """m perturbed positions of vertex vi: two doubles each (radius, angle)
    inside the alpha * delta_h disk, or one (angular jitter along the
    circle) on the boundary ring."""
    base_pt = grid.verts[vi]
    if grid.on_boundary[vi]:
        dtheta = rng.uniform(-rad, rad, m) / grid.R
        rel = base_pt - grid.center
        ca, sa = np.cos(dtheta), np.sin(dtheta)
        return grid.center + np.stack([ca * rel[0] - sa * rel[1], sa * rel[0] + ca * rel[1]], axis=1)
    draws = rng.random(2 * m).reshape(m, 2)
    rr = rad * np.sqrt(draws[:, 0])
    tt = 2 * np.pi * draws[:, 1]
    return base_pt + rr[:, None] * np.stack([np.cos(tt), np.sin(tt)], axis=1)


def adapt_to_jump(
    grid: DyadicGrid,
    u: DiscreteSbvMap,
    samples_per_vertex: int = 200,
    seed: int = 0,
) -> AdaptedTriangulation:
    """Perturb grid vertices so that no edge meets u's jump.

    Vertices commit ring by ring, and each first tries its zero
    perturbation, so a jump-free instance keeps the base grid verbatim. The
    zero perturbations of a ring are tested together: one clearance call
    for its vertices and one crossing call for its edges to vertices
    committed before them, each edge oriented from the later-committed end
    to the earlier one. The walk then goes to the first vertex of the ring
    that fails. If its whole alpha * delta_h disk lies in the shadow of one
    committed neighbour behind one jump segment (_shadowed), every
    candidate would be rejected, and the vertex fails at once. Otherwise
    its other samples_per_vertex - 1 candidates are drawn in one call:
    uniform in the disk, or, on the boundary ring, an angular jitter that
    keeps the vertex on the circle (an arc inside the disk) so the grid
    keeps covering B_R. One broadcast rejects every candidate closer than
    the clearance to the jump or joined to a committed neighbour by an edge
    that meets it. Of the admissible candidates, the one farthest from the
    jump is placed (the first of equals), which leaves the vertices that
    commit after it the most room on their side of J. Only the edges from
    later vertices of the ring into the moved vertex are tested again
    before the walk goes on. The generator draws samples_per_vertex - 1
    candidates for each moved vertex, in commit order.
    """
    J = u.jump
    rng = np.random.default_rng(seed)
    verts = grid.verts.copy()
    delta_v = grid.vertex_delta()
    alpha = grid.alpha
    span = float(np.hypot(*grid.center)) + grid.R  # bounds every candidate's coordinates
    rings = _commit_rings(grid.h_max)
    if samples_per_vertex < 1:
        _raise_unplaced(grid, rings[0][0][0], samples_per_vertex)
    max_ratio = 0.0
    for ring, later, earlier, pos in rings if len(J) else ():
        clearance = LEBESGUE_CLEARANCE * delta_v[ring]
        far = ~(np.min(_geom.point_segment_distance(verts[ring], J.a, J.b), axis=1) < clearance)
        hit = np.zeros(len(later), dtype=bool)
        if len(later):
            hit = _geom.segments_intersect(verts[later], verts[earlier], J.a, J.b).any(axis=1)
        i = 0
        while True:
            ok = far.copy()
            ok[pos[hit]] = False
            bad = np.flatnonzero(~ok[i:])
            if not len(bad):
                break
            i += int(bad[0])
            vi = ring[i]
            rad = alpha * delta_v[vi]
            nbr_pts = verts[earlier[pos == i]]
            if _shadowed(verts[vi], rad, nbr_pts, J, span):
                _raise_unplaced(grid, vi, samples_per_vertex)
            cands = _draw_candidates(grid, vi, rad, rng, samples_per_vertex - 1)
            good, dist = _admissible(cands, nbr_pts, J, clearance[i])
            if not good.any():
                _raise_unplaced(grid, vi, samples_per_vertex)
            verts[vi] = cands[np.argmax(np.where(good, dist, -np.inf))]
            max_ratio = max(max_ratio, float(np.linalg.norm(verts[vi] - grid.verts[vi]) / rad))
            into = np.flatnonzero(earlier == vi)
            if len(into):
                hit[into] = _geom.segments_intersect(
                    verts[later[into]], verts[vi], J.a, J.b
                ).any(axis=1)
            i += 1
    return AdaptedTriangulation(base=grid, verts=verts, tris=grid.tris, perturbation_ratio_max=max_ratio, seed=seed)

"""Discrete SBV maps on planar disks.

A map is a stack of triangulated patches (a base patch covering the domain
disk, then replacement patches confined to smaller disks; later patches
override earlier ones) plus an explicit polyline jump set with two-sided
traces. Bulk data is per-cell affine: a value at the cell barycenter and a
constant k x 2 gradient. Boundary cells of a patch bulge to the patch circle
so that cell areas partition the patch disk exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _geom
from .errors import ConstructionError, DegenerateInputError, ToolkitError
from .quadrature import Disk, subdivision_lattice, tri_subcentroids
from .vexp import CellTerms, affine_coefficients, luxembourg_from_samples

__all__ = [
    "JumpSet",
    "CellPatch",
    "DiscreteSbvMap",
    "jump_length",
    "total_variation_parts",
    "bv_poincare_check",
    "synthesize",
    "fan_mesh",
    "delaunay_disk_mesh",
    "dilate_map",
    "transform_map",
    "value_gap",
]

# how far outside a triangle (in barycentric coordinates) or, for an arc bulge,
# the patch circle (relative to its radius) a cell still holds a point
CELL_TOL = 1e-9


# ---------------------------------------------------------------------------
# jump sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpSet:
    """Polyline jump set: segments with per-segment constant traces."""

    a: np.ndarray  # (n, 2)
    b: np.ndarray  # (n, 2)
    trace_plus: np.ndarray  # (n, k)
    trace_minus: np.ndarray  # (n, k)
    normal: np.ndarray  # (n, 2) unit, perpendicular to b - a

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float)).reshape(-1, 2)
        b = np.atleast_2d(np.asarray(self.b, dtype=float)).reshape(-1, 2)
        tp = np.atleast_2d(np.asarray(self.trace_plus, dtype=float))
        tm = np.atleast_2d(np.asarray(self.trace_minus, dtype=float))
        nrm = np.atleast_2d(np.asarray(self.normal, dtype=float)).reshape(-1, 2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "trace_plus", tp)
        object.__setattr__(self, "trace_minus", tm)
        object.__setattr__(self, "normal", nrm)
        if len(a) == 0:
            return
        L = _geom.seg_lengths(a, b)
        if np.any(L <= 0):
            raise ToolkitError("jump segments must have positive length")
        d = (b - a) / L[:, None]
        # d carries the round-off of the stored endpoints, about eps |a| / L:
        # a short segment far from the origin cannot be checked to 1e-12
        reach = np.maximum(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
        tol = 1e-12 + 8 * np.finfo(float).eps * reach / L
        if np.any(np.abs(np.einsum("ij,ij->i", d, nrm)) > tol):
            raise ToolkitError("jump normals must be perpendicular to the segments")
        if np.max(np.abs(np.linalg.norm(nrm, axis=1) - 1.0)) > 1e-12:
            raise ToolkitError("jump normals must be unit vectors")
        if np.min(np.linalg.norm(tp - tm, axis=1)) <= 0:
            raise ToolkitError("jump traces must differ on every segment (true jumps only)")

    def __len__(self) -> int:
        return len(self.a)

    @property
    def total_length(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.sum(_geom.seg_lengths(self.a, self.b)))

    @staticmethod
    def empty(k: int = 1) -> "JumpSet":
        return JumpSet(
            np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, k)), np.zeros((0, k)), np.zeros((0, 2))
        )

    @staticmethod
    def from_segments(a, b, trace_plus, trace_minus) -> "JumpSet":
        """Build with normals derived by rotating segment directions +90 deg."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if len(a) == 0:
            k = np.atleast_2d(np.asarray(trace_plus)).shape[-1] if np.size(trace_plus) else 1
            return JumpSet.empty(k)
        d = b - a
        L = _geom.seg_lengths(a, b)
        if np.any(L <= 0):
            raise ToolkitError("jump segments must have positive length")
        nrm = np.stack([-d[:, 1], d[:, 0]], axis=1) / L[:, None]
        return JumpSet(a, b, trace_plus, trace_minus, nrm)

    def length_in(self, region) -> float:
        """Exact H^1 measure of the jump inside a Disk or Annulus region."""
        if len(self) == 0:
            return 0.0
        return float(np.sum(region.segment_lengths(self.a, self.b)))

    def lengths_in(self, regions) -> list:
        """length_in of each region of a stack of disks and annuli, bitwise,
        from one stacked clip of every segment against every circle."""
        if len(self) == 0 or any(r.rings is None for r in regions):
            return [self.length_in(r) for r in regions]
        c, r_in, r_out = _stack_rings(regions)[0]
        lengths = _geom.segment_disk_length(self.a, self.b, c, r_out)
        ann = np.flatnonzero(r_in > -np.inf)  # an annulus is its outer disk minus its inner one
        if len(ann):
            lengths[ann] -= _geom.segment_disk_length(self.a, self.b, c[ann], r_in[ann])
        return [float(np.sum(row)) for row in lengths]

    def clip_outside_disk(self, disk: Disk) -> "JumpSet":
        """Keep only the parts of the jump outside the given disk."""
        _, (a, b, src) = _geom.split_segments_at_circle(self.a, self.b, disk.center, disk.radius)
        return JumpSet(a, b, self.trace_plus[src], self.trace_minus[src], self.normal[src])

    def transformed(self, origin, scale: float, new_origin=(0.0, 0.0)) -> "JumpSet":
        """Affine reparametrisation x -> new_origin + (x - origin) * scale."""
        if len(self) == 0:
            return self
        o = np.asarray(origin, dtype=float)
        no = np.asarray(new_origin, dtype=float)
        return JumpSet(
            no + (self.a - o) * scale,
            no + (self.b - o) * scale,
            self.trace_plus,
            self.trace_minus,
            self.normal,
        )

    def scaled_traces(self, factor: float) -> "JumpSet":
        return JumpSet(self.a, self.b, self.trace_plus * factor, self.trace_minus * factor, self.normal)


# ---------------------------------------------------------------------------
# cell patches
# ---------------------------------------------------------------------------


class CellPatch:
    """A triangulated disk patch with per-cell affine data.

    Cells flagged in ``arc_cells`` have their outermost edge replaced by the
    patch circle arc, so that patch cell areas sum exactly to the disk area.
    """

    def __init__(self, verts, tris, values, grads, circle: Disk, arc_cells=None):
        self.verts = np.asarray(verts, dtype=float)
        self.tris = np.asarray(tris, dtype=int)
        self.values = np.asarray(values, dtype=float)
        self.grads = np.asarray(grads, dtype=float)
        self.circle = circle
        nt = len(self.tris)
        if arc_cells is None:
            arc_cells = np.zeros(nt, dtype=bool)
        self.arc_cells = np.asarray(arc_cells, dtype=bool)
        v0, v1, v2 = (self.verts[self.tris[:, i]] for i in range(3))
        self.barycenters = (v0 + v1 + v2) / 3.0
        self.tri_areas = _geom.triangle_areas(v0, v1, v2)
        self._arc_extra = np.zeros(nt)
        arc = np.flatnonzero(self.arc_cells)
        ends = self.verts[np.take_along_axis(self.tris[arc], self._arc_edges[arc], axis=1)]
        self._arc_extra[arc] = _geom.circular_segment_area(
            self.circle.radius, ends[:, 0], ends[:, 1], self.circle.center
        )

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def cell_areas(self) -> np.ndarray:
        return self.tri_areas + self._arc_extra

    @cached_property
    def gmag(self) -> np.ndarray:
        """Per-cell Frobenius norm of the gradient."""
        return np.linalg.norm(self.grads.reshape(len(self.tris), -1), axis=1)

    @cached_property
    def corner_norms(self) -> np.ndarray:
        """(nt, 3): |value + grad·(corner - barycentre)| at each cell's three
        corners, the cell's affine data evaluated there."""
        d = self.corners - self.barycenters[:, None, :]
        vals = self.values[:, None, :] + np.einsum("nkj,nmj->nmk", self.grads, d)
        return np.linalg.norm(vals, axis=-1)

    @cached_property
    def corners(self) -> np.ndarray:
        """(nt, 3, 2): each cell's triangle corners."""
        return self.verts[self.tris]

    @cached_property
    def _far(self) -> np.ndarray:
        """(nt,): each triangle's largest barycentre-to-corner distance."""
        d = self.corners - self.barycenters[:, None]
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2
        return np.sqrt(np.maximum(np.maximum(d2[:, 0], d2[:, 1]), d2[:, 2]))

    @cached_property
    def _bulged(self) -> np.ndarray:
        """(nt,): the arc cells with a bulge of positive area."""
        return self.arc_cells & (self._arc_extra > 0)

    @cached_property
    def _arc_mid(self) -> np.ndarray:
        """(nt, 2): the arc midpoint of each bulged arc cell, the point of
        its bulge sample: on the ray from the centre through the chord's
        midpoint, inside the circle by 1e-12 of the radius, or by the
        round-off of the coordinates where that is larger."""
        arc = np.flatnonzero(self._bulged)  # the other cells keep their barycentre
        ends = np.take_along_axis(self.corners[arc], self._arc_edges[arc][:, :, None], axis=1)
        mid_chord = 0.5 * (ends[:, 0] + ends[:, 1])
        c = np.asarray(self.circle.center, dtype=float)
        R = self.circle.radius
        slack = 4 * np.finfo(float).eps * (np.max(np.abs(c)) + R)
        inset = (1 - 1e-12) if slack <= 1e-12 * R else (1 - slack / R)
        d = mid_chord - c
        nd = np.linalg.norm(d, axis=1)
        out = self.barycenters.copy()
        on_ray = c + d / np.where(nd > 0, nd, 1.0)[:, None] * R * inset
        out[arc] = np.where((nd > 0)[:, None], on_ray, mid_chord)
        return out

    @cached_property
    def _reach(self) -> np.ndarray:
        """(nt,): the radius about each barycentre of a circle holding the
        triangle and, for a bulged arc cell, its arc-midpoint sample."""
        mid = np.linalg.norm(self._arc_mid - self.barycenters, axis=1)
        return np.where(self._bulged, np.maximum(self._far, mid), self._far)

    @cached_property
    def _arc_edges(self) -> np.ndarray:
        """(nt, 2) indices (into each triangle) of the two vertices nearest
        the circle: the chord an arc cell's bulge sits on."""
        c = np.asarray(self.circle.center)
        d = np.linalg.norm(self.corners - c, axis=2)
        return np.argsort(np.abs(d - self.circle.radius), axis=1)[:, :2]

    def locate(self, pts: np.ndarray) -> np.ndarray:
        """Index of the cell holding each point.

        A cell holds a point within CELL_TOL of its triangle or, for an arc
        cell, of its bulge (see _contains). A point that several cells hold,
        on a shared edge or vertex, takes the one with the nearest
        barycentre, the lowest index on a tie. A point that no cell holds,
        outside the patch disk, takes the nearest barycentre of all cells.

        Every cell that holds a point is a candidate of the point's bucket
        (see _buckets), so the buckets alone decide every point.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, size, n, start, ids = self._buckets
        ij = np.clip((pts - lo) / size, 0, n - 1).astype(int)
        b = ij[:, 1] * n + ij[:, 0]
        cnt = start[b + 1] - start[b]
        # pair i tests point row[i] against cand[i]; a point's cells are ids[start[b]:start[b + 1]]
        row = np.repeat(np.arange(len(pts)), cnt)
        cand = ids[np.arange(len(row)) + np.repeat(start[b] - np.cumsum(cnt) + cnt, cnt)]
        inside = self._contains(np.take(pts.T, row, axis=1), cand)
        held, cell = row[inside], cand[inside]
        hits = np.bincount(held, minlength=len(pts))
        out = np.empty(len(pts), dtype=int)
        out[held] = cell
        shared = np.flatnonzero(hits[held] > 1)
        if len(shared):
            held, cell = held[shared], cell[shared]
            # by point, then barycentre distance, then cell index: each point's first pair decides
            order = np.lexsort((cell, np.sum((pts[held] - self.barycenters[cell]) ** 2, axis=1), held))
            held, cell = held[order], cell[order]
            first = np.flatnonzero(np.diff(held, prepend=-1))
            out[held[first]] = cell[first]
        lost = np.flatnonzero(hits == 0)
        if len(lost):
            for blk in np.array_split(lost, len(lost) // 1024 + 1):  # bounds the (points, cells) block
                out[blk] = np.argmin(np.sum((pts[blk, None] - self.barycenters) ** 2, axis=2), axis=1)
        return out

    @cached_property
    def _buckets(self):
        """Bucket index of the cells: (lo, size, n, start, ids).

        A uniform n x n grid of buckets, n about 2 sqrt(nt), of the given
        size from corner lo over the cells' padded bounding boxes. Bucket
        b = iy * n + ix lists in ids[start[b]:start[b + 1]] every cell whose
        box meets it. Each box is padded by 1e-8 of its width plus height
        and by the round-off of its corners, an arc cell's box also by the
        depth of its bulge, which holds every point _contains admits; the
        index is thus the same at every scale.
        """
        nt = len(self.tris)
        v = self.corners
        vmin = np.minimum(np.minimum(v[:, 0], v[:, 1]), v[:, 2])
        vmax = np.maximum(np.maximum(v[:, 0], v[:, 1]), v[:, 2])
        pad = 1e-8 * (vmax - vmin).sum(axis=1) + 1e-15 * np.maximum(-vmin, vmax).max(axis=1)
        arc = np.flatnonzero(self.arc_cells)
        # a bulge reaches past its chord by at most the widened radius less
        # the centre's distance from the chord
        ends = self.verts[np.take_along_axis(self.tris[arc], self._arc_edges[arc], axis=1)]
        off = _geom.point_segment_distance(self.circle.center, ends[:, 0], ends[:, 1])[0]
        pad[arc] += self.circle.radius * (1 + CELL_TOL) - off
        vmin -= pad[:, None]
        vmax += pad[:, None]
        n = int(np.ceil(2 * np.sqrt(nt)))
        lo = vmin.min(axis=0)
        size = (vmax.max(axis=0) - lo) / n
        i0, i1 = (np.clip((x - lo) / size, 0, n - 1).astype(int).T for x in (vmin, vmax))
        sx, sy = i1 - i0 + 1
        cnt = sx * sy  # buckets per cell
        j = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        sx = np.repeat(sx, cnt)
        b = np.repeat(i0[1] * n + i0[0], cnt) + j // sx * n + j % sx
        start = np.concatenate([[0], np.cumsum(np.bincount(b, minlength=n * n))])
        return lo, size, n, start, np.repeat(np.arange(nt), cnt)[np.argsort(b)]

    @cached_property
    def _frames(self) -> np.ndarray:
        """(7, nt): per cell the first corner's x and y, the x and y of the
        two edge vectors from it, and the determinant. An arc cell's first
        corner is its vertex off the chord, so its chord is the edge
        l1 + l2 = 1 of _contains."""
        first = np.where(self.arc_cells, 3 - self._arc_edges.sum(axis=1), 0)
        v = self.verts[np.take_along_axis(self.tris, (first[:, None] + np.arange(3)) % 3, axis=1)]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        return np.stack([*v[:, 0].T, *d1.T, *d2.T, np.where(np.abs(det) < 1e-300, 1e-300, det)])

    def _contains(self, xy: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Whether cell cells[i] holds the point xy[:, i]: barycentric
        coordinates within CELL_TOL of the triangle or, for an arc cell,
        of its bulge. The bulge is the part of the patch disk beyond the
        chord and between the lines from the vertex off the chord through
        the chord's ends; the disk is widened by CELL_TOL of its radius."""
        x0, y0, ax, ay, bx, by, det = np.take(self._frames, cells, axis=1)
        wx, wy = xy[0] - x0, xy[1] - y0
        l1 = (wx * by - wy * bx) / det
        l2 = (ax * wy - ay * wx) / det
        ends = (l1 >= -CELL_TOL) & (l2 >= -CELL_TOL)
        out = ends & (l1 + l2 <= 1 + CELL_TOL)
        beyond = np.flatnonzero(ends & ~out & self.arc_cells[cells])
        (cx, cy), R = self.circle.center, self.circle.radius
        out[beyond] = np.hypot(xy[0, beyond] - cx, xy[1, beyond] - cy) <= R * (1 + CELL_TOL)
        return out

    def eval(self, pts: np.ndarray, cells: np.ndarray | None = None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if cells is None:
            cells = self.locate(pts)
        d = pts - self.barycenters[cells]
        return self.values[cells] + np.einsum("nkj,nj->nk", self.grads[cells], d)

    def grad(self, pts: np.ndarray, cells: np.ndarray | None = None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if cells is None:
            cells = self.locate(pts)
        return self.grads[cells]


# ---------------------------------------------------------------------------
# disk meshes
# ---------------------------------------------------------------------------


def fan_mesh(disk: Disk, n_rings: int = 10):
    """Structured spiderweb mesh of a disk: ring j has 6j vertices.

    Returns (verts, tris, arc_cells); outer-ring cells are arc-flagged.

    The centre is fanned to ring 1. Each later annulus, between rings j and
    j + 1, is triangulated by walking both rings by angle about ring j's
    mean: step i of the inner ring sits at the fraction (i + 1/2)/n_i of
    the turn, step k of the outer one at (k + 1/2)/n_o; the steps go in
    order of fraction, the inner ring first on a tie. A step spans the
    current vertices of both rings and the next vertex of its own ring; the
    current vertices are counted by the steps of each ring before it. Each
    ring is walked from its vertex of least ``arctan2`` angle. All rings are
    placed, and all annuli stitched, in whole-mesh array passes.
    """
    c = np.asarray(disk.center, dtype=float)
    js = np.arange(1, n_rings + 1)
    ring = np.repeat(js, 6 * js)  # of each vertex but the centre
    first = 1 + 3 * ring * (ring - 1)  # index of the ring's first vertex in verts
    k = np.arange(1, len(ring) + 1) - first  # position on the ring
    th = 2 * np.pi * k / (6 * ring)
    on_rings = c + (disk.radius * ring / n_rings)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    verts = np.concatenate([c[None], on_rings])
    # ring means as sequential sums of zero-padded columns, bitwise as .mean(axis=0)
    inner, outer = ring < n_rings, ring > 1
    cols = np.zeros((6 * n_rings, n_rings, 2))
    cols[k[inner], ring[inner] - 1] = on_rings[inner]
    mid = cols.sum(axis=0) / (6 * js)[:, None]
    # steps of annulus a (between rings a and a + 1): the inner ring's, then the outer ring's
    annulus = np.concatenate([ring[inner], ring[outer] - 1])
    size = 6 * np.concatenate([ring[inner], ring[outer]])
    step = np.concatenate([k[inner], k[outer]])
    on_outer = np.repeat([False, True], [inner.sum(), outer.sum()])
    d = np.concatenate([on_rings[inner], on_rings[outer]]) - mid[annulus - 1]
    ang = np.full((6 * n_rings, 2 * n_rings), np.inf)
    ang[step, 2 * annulus + on_outer - 2] = np.arctan2(d[:, 1], d[:, 0])
    turn = ang.argmin(axis=0)  # the walk starts on each ring at its least angle
    order = np.lexsort((on_outer, (step + 0.5) / size, annulus))
    annulus, on_outer = annulus[order], on_outer[order]
    pos = np.arange(len(order)) - 6 * (annulus - 1) * (annulus + 1)  # step number in the annulus
    n_in = np.cumsum(~on_outer) - ~on_outer - 3 * annulus * (annulus - 1)  # inner steps before it
    ni = 6 * annulus
    i_at = lambda m: 1 + 3 * annulus * (annulus - 1) + (turn[2 * annulus - 2] + m) % ni  # noqa: E731
    o_at = lambda m: 1 + 3 * annulus * (annulus + 1) + (turn[2 * annulus - 1] + m) % (ni + 6)  # noqa: E731
    walk = np.stack([i_at(n_in), o_at(pos - n_in),
                     np.where(on_outer, o_at(pos - n_in + 1), i_at(n_in + 1))], axis=1)
    fan = np.stack([np.zeros(6, dtype=np.intp), np.arange(1, 7), np.roll(np.arange(1, 7), -1)], axis=1)
    tris = np.concatenate([fan, walk])
    arc_cells = (tris >= first[-1]).sum(axis=1) == 2
    return verts, tris, arc_cells


def delaunay_disk_mesh(disk: Disk, n_interior: int, rng: np.random.Generator, n_boundary: int = 48):
    """Delaunay mesh of seeded random interior points plus a boundary ring."""
    from scipy.spatial import Delaunay  # loaded on first use: only random-cells maps need it

    c = np.asarray(disk.center, dtype=float)
    R = disk.radius
    r = R * np.sqrt(rng.random(n_interior)) * 0.97
    t = 2 * np.pi * rng.random(n_interior)
    interior = c + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    th = 2 * np.pi * np.arange(n_boundary) / n_boundary
    boundary = c + R * np.stack([np.cos(th), np.sin(th)], axis=1)
    verts = np.concatenate([interior, boundary])
    tris = Delaunay(verts).simplices
    on_b = tris >= n_interior
    arc_cells = on_b.sum(axis=1) == 2
    return verts, tris, arc_cells


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSbvMap:
    """Bulk piecewise-affine data plus an explicit polyline jump set."""

    domain: Disk
    patches: tuple  # CellPatch stack; later entries override within their circle
    jump: JumpSet
    target: dict = field(default_factory=lambda: {"kind": "free"})
    # the latest visible-sample decomposition as [key, arrays], and the
    # latest cell split as [key, arrays, p, CellTerms]; replace() starts both empty
    _bulk_memo: list = field(default_factory=list, init=False, repr=False, compare=False)
    _split_memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.patches) == 0:
            raise ToolkitError("a map needs at least a base patch")
        if self.target.get("kind") == "sphere":
            t = self.target.get("radius", 1.0)
            norms = np.linalg.norm(self.patches[0].values, axis=1)
            if np.max(np.abs(norms - t)) > 1e-9:
                raise ToolkitError("sphere-target map has off-sphere cell values")
        if not np.all(self.domain.contains(0.5 * (self.jump.a + self.jump.b), 1e-9)):
            raise ToolkitError("jump segments must lie inside the closed domain")

    @property
    def k(self) -> int:
        return self.patches[0].k

    @property
    def base(self) -> CellPatch:
        return self.patches[0]

    @cached_property
    def _cells(self) -> tuple:
        """(gmag, tri_areas, corners) of the cells of the patch stack,
        concatenated in patch order: indexed by the flat cell ids."""
        return tuple(np.concatenate([getattr(q, name) for q in self.patches])
                     for name in ("gmag", "tri_areas", "corners"))

    def _layer_of(self, pts: np.ndarray) -> np.ndarray:
        """Index of the topmost patch containing each point."""
        pts = np.atleast_2d(pts)
        layer = np.zeros(len(pts), dtype=int)
        for i, patch in enumerate(self.patches[1:], start=1):
            inside = patch.circle.contains(pts)
            layer[inside] = i
        return layer

    def value_at(self, pts: np.ndarray) -> np.ndarray:
        return self._by_layer(CellPatch.eval, pts, (self.k,))

    def grad_at(self, pts: np.ndarray) -> np.ndarray:
        return self._by_layer(CellPatch.grad, pts, (self.k, 2))

    def _by_layer(self, fn, pts, shape) -> np.ndarray:
        """fn(patch, pts) of each point's topmost patch, stacked per point."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        layer = self._layer_of(pts)
        out = np.empty((len(pts), *shape))
        for i, patch in enumerate(self.patches):
            sel = layer == i
            if np.any(sel):
                out[sel] = fn(patch, pts[sel])
        return out

    def with_patch(self, patch: CellPatch) -> "DiscreteSbvMap":
        jump = self.jump.clip_outside_disk(patch.circle)
        return replace(self, patches=self.patches + (patch,), jump=jump)

    # -- quadrature ---------------------------------------------------------

    def bulk_samples(self, region=None, level: int = 2):
        """Bulk view of the visible-sample decomposition (see _build_stack):
        (pts, weights, gmag), gmag the gradient norm of each sample's cell.

        cell_samples is the per-cell view of the same decomposition. The map
        keeps the decomposition of its latest (region, level) and hands the
        same read-only arrays to every sampled integral over that region.
        The gradient integrals under a constant or affine exponent take the
        cell split instead (see _gradient_integrals).
        """
        pts, w, _, g = self._visible_samples(region, level)
        return pts, w, g

    def cell_samples(self, region=None, level: int = 2):
        """Per-cell view of the visible-sample decomposition.

        Returns (cell_values (nc,k), cell_grads (nc,k,2), sub_cell_id (m,),
        sub_pts (m,2), sub_w (m,)): the per-cell data of every cell in the
        patch stack, and bulk_samples' points and weights with the flat id of
        the cell each belongs to.
        """
        pts, w, cell, _ = self._visible_samples(region, level)
        values = np.concatenate([p.values for p in self.patches])
        grads = np.concatenate([p.grads for p in self.patches])
        return values, grads, cell, pts, w

    def _visible_samples(self, region, level: int):
        """The memoised (pts, w, cell, gmag) decomposition of (region, level)."""
        key = (_region_key(region), level)
        if not (self._bulk_memo and self._bulk_memo[0] == key):
            self._bulk_memo[:] = [key, self._build_samples(region, level)]
        return self._bulk_memo[1]

    def _build_samples(self, region, level: int):
        """(pts, w, cell, gmag) of one region: its stack of one (see _build_stack)."""
        return self._build_stack([region], level)[:4]

    def _build_stack(self, regions, level: int):
        """Midpoint sample decomposition of the bulk layers over a stack of
        regions: the cell split with no cell whole (see _cell_split).

        Returns read-only (pts, w, cell, gmag, bounds): rows bounds[k] to
        bounds[k + 1] are region k's subcell centroids that survive the patch
        layering, their areas, the flat id of their cell in the concatenated
        patch stack, and that cell's gradient norm, in patch order.
        """
        _, pts, w, cell, _, bounds = self._cell_split(regions, level, exact=False)
        g = self._cells[0][cell]
        g.setflags(write=False)
        return pts, w, cell, g, bounds

    def _cell_split(self, regions, level: int, exact: bool = True):
        """Split of the visible cells over a stack of regions: disks and
        annuli, or one region of any kind (None for the whole domain, or a
        Rect). Returns the whole cells, and the samples of the others.

        Each patch is classified against every region's rings first (see
        _patch_relation): a region that misses the patch, or that a later
        circle covers, takes nothing of it. Each triangle is then classified
        by its bounding circle (barycentre, _reach), with _margin to spare,
        against the region (_region_relation) and the later circles
        (_later_relation); all regions and triangles of a patch in one
        broadcast. When exact, a cell is whole in a region when its circle
        lies in the region and clear of every later circle, or lies clear of
        them in a region that holds the patch: every subcell sample of it
        would keep its full area. A region without rings holds no cell
        whole. A cell whose circle lies in a later circle is hidden, and adds
        nothing. Every other cell whose circle meets the region is cut.

        A cut cell's samples are built from its triangle alone (see
        _tri_samples), then kept or dropped below the later circles and
        clipped to the region (see _visible_in_patch): in a disk region a
        subcell straddling its boundary carries its exact clipped area, an
        annulus being its outer disk minus its inner one; a region holding
        the patch clips nothing; a subcell meeting a later patch circle
        carries its refined area (see _refined_weights). An arc bulge
        contributes a sample at the arc midpoint carrying the segment area.
        Every operation acts on one sample at a time, so a cell's rows are
        those of its triangle alone, and each region's arrays, bit for bit,
        those of its stack of one.

        Returns read-only (cells, pts, w, cell, cell_bounds, bounds):
        cells[cell_bounds[k]:cell_bounds[k + 1]] are the flat ids of region
        k's whole cells, and rows bounds[k] to bounds[k + 1] of (pts, w,
        cell) its samples: the arc-midpoint sample of each whole bulged arc
        cell, then the cut cells' visible samples, patch by patch, each cell
        in turn.
        """
        rings, flat = _stack_rings(regions)
        offsets = np.cumsum([0] + [len(p.tris) for p in self.patches])
        wholes, parts = [], []
        for i, patch in enumerate(self.patches):
            laters = [q.circle for q in self.patches[i + 1 :] if _disks_meet(patch.circle, q.circle)]
            live, inside = _patch_relation(patch.circle, laters, rings)
            if not live.any():
                continue
            clear, hidden = _later_relation(patch, laters)
            held = np.full((len(live), len(patch.tris)), exact and flat is None)
            meets = np.ones_like(held)
            cut = np.flatnonzero(live & ~inside)
            if len(cut):
                held[cut], meets[cut] = _region_relation(patch, rings.take(cut))
                held &= exact
            whole = live[:, None] & held & clear
            reg, t = np.nonzero(whole)
            wholes.append((offsets[i] + t, reg))
            arc = patch._bulged[t]
            parts.append((patch._arc_mid[t[arc]], patch._arc_extra[t[arc]], offsets[i] + t[arc], reg[arc]))
            reg, t = np.nonzero(live[:, None] & meets & ~whole & ~hidden)
            if not len(t):
                continue
            ids, block = np.unique(t, return_inverse=True)
            table = _tri_samples(patch, level, ids)
            start = np.searchsorted(table[2], np.append(ids, len(patch.tris)))
            cnt = start[block + 1] - start[block]  # the rows of each (region, triangle) pair
            src = np.arange(cnt.sum()) + np.repeat(start[block] - np.cumsum(cnt) + cnt, cnt)
            reg = np.repeat(reg, cnt)
            clipped = ~inside[reg]  # a region holding the patch is not clipped
            for sel_rows, own in ((clipped, rings.take(reg[clipped])), (~clipped, None)):
                if sel_rows.any():
                    *kept, sel = _visible_in_patch(patch, level, laters, table, src[sel_rows], own, flat,
                                                   offsets[i])
                    parts.append((*kept, reg[sel_rows][sel]))
        empty = (np.zeros(0, dtype=int),) * 2
        cells, reg = (np.concatenate(col) for col in zip(empty, *wholes))
        if len(regions) > 1:  # region by region, each in patch order
            cells, reg = cells[np.argsort(reg, kind="stable")], np.sort(reg)
        cell_bounds = np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regions)))])
        empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        pts, w, cell, reg = (np.concatenate(col) for col in zip(empty, *parts))
        if len(regions) > 1:
            order = np.argsort(reg, kind="stable")
            pts, w, cell = pts[order], w[order], cell[order]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regions)))])
        for arr in (cells, pts, w, cell):
            arr.setflags(write=False)
        return cells, pts, w, cell, cell_bounds, bounds

    def _split(self, region, level: int):
        """The memoised _cell_split of one region."""
        key = (_region_key(region), level)
        if not (self._split_memo and self._split_memo[0] == key):
            self._split_memo[:] = [key, self._cell_split([region], level), None, None]
        return self._split_memo[1]

    def _cell_terms(self, p0, a, split) -> CellTerms:
        """CellTerms of the whole cells of split under p0 + a . x, memoised
        with the memoised split."""
        memo = self._split_memo
        if memo and memo[1] is split and memo[2] == (p0, a):
            return memo[3]
        cells = split[0]
        gmag, area, corners = (x[cells] for x in self._cells)
        terms = CellTerms(gmag, area, p0 + corners[..., 0] * a[0] + corners[..., 1] * a[1])
        if memo and memo[1] is split:
            memo[2:] = [(p0, a), terms]
        return terms

    def _gradient_integrals(self, p, regions, level: int) -> list:
        """The integral of |grad u|^{p(x)} over each region, p a number or
        an exponent field.

        When p is constant or affine (vexp.affine_coefficients), each whole
        cell of the region (see _cell_split) adds its exact integral: |G|^q
        times its triangle's area under a constant q, its CellTerms term
        under an affine p; the cut cells and the arc bulges add their
        samples. Any other field sums over the bulk samples. One region's
        split or samples are memoised, a stack's are not; each region's sum
        is that of its stack of one.
        """
        coef = affine_coefficients(p)
        if coef is None:
            if len(regions) == 1:
                return [_modular(p, *self.bulk_samples(regions[0], level))]
            pts, w, _, g, bounds = self._build_stack(regions, level)
            return [_modular(p, pts[i:j], w[i:j], g[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
        split = self._split(regions[0], level) if len(regions) == 1 else self._cell_split(regions, level)
        cells, pts, w, cell, cell_bounds, bounds = split
        gmag, area, _ = self._cells
        p0, a = coef
        const = a == (0.0, 0.0)
        if const:
            exact = area[cells] * gmag[cells] ** p0
        else:
            exact = np.zeros(len(cells))
            exact[gmag[cells] > 0] = np.exp(self._cell_terms(p0, a, split).at(0.0)[0])
        out = []
        for i, j, k, m in zip(cell_bounds[:-1], cell_bounds[1:], bounds[:-1], bounds[1:]):
            pv = p0 if const else p(pts[k:m])  # on the region's own samples, as its stack of one
            out.append(float(np.sum(exact[i:j])) + float(np.sum(w[k:m] * gmag[cell[k:m]] ** pv)))
        return out

    def modular_of_gradient(self, p, region=None, level: int = 2) -> float:
        """Integral of |grad u|^{p(x)} over the region (see _gradient_integrals)."""
        return self._gradient_integrals(p, [region], level)[0]

    def modulars_of_gradient(self, p, regions, level: int = 2) -> list:
        """modular_of_gradient of each region of a stack of disks and annuli,
        bitwise, from one split or decomposition (see _gradient_integrals)."""
        return self._gradient_integrals(p, regions, level)

    def gradient_q_integral(self, q: float, region=None, level: int = 2) -> float:
        """Integral of |grad u|^q over the region (see _gradient_integrals)."""
        return self._gradient_integrals(float(q), [region], level)[0]

    def gradient_luxembourg_norm(self, p, region=None, level: int = 2) -> float:
        """Luxembourg norm of |grad u| over the region.

        Solved by ``vexp.luxembourg_from_samples``: Newton's method in
        log lambda, stopped once its error bound on log lambda is at most
        ``vexp.NEWTON_TOL``. Under a constant or affine p its terms are the
        whole cells' exact integrals (CellTerms) and the other samples of
        the region's split (see _gradient_integrals); under any other field,
        the bulk samples.
        """
        coef = affine_coefficients(p)
        if coef is None:
            pts, w, g = self.bulk_samples(region, level)
            return luxembourg_from_samples(g, p(pts), w)
        split = self._split(region, level)
        _, pts, w, cell, _, _ = split
        return luxembourg_from_samples(self._cells[0][cell], p(pts), w, self._cell_terms(*coef, split))

    def to_json(self) -> dict:
        return {
            "domain": {"center": list(self.domain.center), "radius": self.domain.radius},
            "target": self.target,
            "patches": [
                {
                    "verts": p.verts.tolist(),
                    "tris": p.tris.tolist(),
                    "values": p.values.tolist(),
                    "grads": p.grads.tolist(),
                    "circle": {"center": list(p.circle.center), "radius": p.circle.radius},
                    "arc_cells": p.arc_cells.tolist(),
                }
                for p in self.patches
            ],
            "jump": {
                "a": self.jump.a.tolist(),
                "b": self.jump.b.tolist(),
                "trace_plus": self.jump.trace_plus.tolist(),
                "trace_minus": self.jump.trace_minus.tolist(),
                "normal": self.jump.normal.tolist(),
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscreteSbvMap":
        patches = tuple(
            CellPatch(
                np.asarray(p["verts"]), np.asarray(p["tris"]), np.asarray(p["values"]),
                np.asarray(p["grads"]),
                Disk.from_json(p["circle"]),
                np.asarray(p["arc_cells"], dtype=bool),
            )
            for p in obj["patches"]
        )
        j = obj["jump"]
        k = patches[0].k
        jump = (
            JumpSet(
                np.asarray(j["a"]), np.asarray(j["b"]), np.asarray(j["trace_plus"]),
                np.asarray(j["trace_minus"]), np.asarray(j["normal"]),
            )
            if len(j["a"])
            else JumpSet.empty(k)
        )
        return DiscreteSbvMap(
            Disk.from_json(obj["domain"]),
            patches,
            jump,
            obj.get("target", {"kind": "free"}),
        )


def _modular(p, pts, w, g) -> float:
    """Σ w g^p(pts) over bulk samples: the modular of the gradient."""
    return float(np.sum(w * g ** p(pts)))


def _region_key(region):
    """Exact, hashable identity of a region (None, Disk, Annulus or Rect)."""
    if region is None:
        return None
    return type(region), np.hstack([getattr(region, f.name) for f in fields(region)]).astype(float).tobytes()


class _RingRows(NamedTuple):
    """Ring regions (centre, r_inner, r_outer) by row: c (n, 2), r_in (n,)
    and r_out (n,). A disk has r_in = -inf; a region without rings spans the
    plane, r_in = -inf and r_out = inf."""

    c: np.ndarray
    r_in: np.ndarray
    r_out: np.ndarray

    def take(self, idx) -> "_RingRows":
        """Rows idx; a single row stands for every row, by broadcasting."""
        if len(self.r_out) == 1:
            return self
        return _RingRows(self.c[idx], self.r_in[idx], self.r_out[idx])

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Whether each point of row i of pts (n, ..., 2) lies in ring i, as
        Disk.contains and Annulus.contains decide it."""
        shape = (len(self.r_in),) + (1,) * (np.ndim(pts) - 2)
        d = np.linalg.norm(pts - self.c.reshape(shape + (2,)), axis=-1)
        return (d >= self.r_in.reshape(shape) - tol) & (d <= self.r_out.reshape(shape) + tol)


def _stack_rings(regions):
    """(_RingRows of the regions, the region without rings or None).

    A region without rings, None or a Rect, spans the plane; a Rect then
    also filters its samples by Rect.contains, and must stand alone.
    """
    plane = (np.zeros(2), -np.inf, np.inf)
    rings = [plane if r is None or r.rings is None else r.rings for r in regions]
    flat = [r for r in regions if r is not None and r.rings is None]
    if flat and len(regions) > 1:
        raise ToolkitError(f"only disks and annuli stack; {flat[0]!r} must stand alone")
    c, r_in, r_out = (np.array([ring[j] for ring in rings], dtype=float) for j in range(3))
    return _RingRows(c.reshape(-1, 2), r_in, r_out), (flat[0] if flat else None)


def _margin(circle: Disk, scale) -> np.ndarray:
    """Slack of the region tests of a circle against regions whose centre
    and outer radius reach scale = max|centre| + r_outer: Disk.contains'
    1e-12, plus 1e-12 of the coordinate scale, far above the round-off of any
    distance between them."""
    return 1e-12 * (1.0 + np.maximum(max(abs(x) for x in circle.center) + circle.radius, scale))


def _distances(c: np.ndarray, x) -> np.ndarray:
    """|x - c[k]| for each row of c, as np.linalg.norm gives it for the one
    pair: its dot product rounds differently from a row-wise norm."""
    x = np.asarray(x, dtype=float)
    return np.array([np.linalg.norm(x - ck) for ck in c]).reshape(len(c))


def _patch_relation(circle: Disk, laters, rings: _RingRows):
    """(live, inside): how each region of rings meets a patch circle under
    its later circles.

    Not live: a disk region (r_inner = -inf) misses the circle, as
    _disks_meet decides ("outside"); or a later circle holds the region,
    either with the region's own centre and a radius no smaller, or with
    _margin to spare ("hidden"). Then every point that the region's clip or
    its Disk.contains admits is also in that circle, so no sample of the
    patch survives. Inside: the circle lies in the region, so the exact clip
    of every subcell is its own area.
    """
    c, r_in, r_out = rings
    d = _distances(c, circle.center)
    live = (r_in != -np.inf) | (d <= circle.radius + r_out + 1e-12)
    for lc in laters:
        dist = _distances(c, lc.center)
        tol = np.where(dist > 0, _margin(lc, np.max(np.abs(c), axis=1) + r_out), 0.0)
        live &= ~(lc.radius - r_out - dist >= tol)
    inside = (d + circle.radius <= r_out) & (d - circle.radius >= r_in)
    return live, inside


def _region_relation(patch: CellPatch, rings: _RingRows):
    """(held, meets), each (regions, triangles): whether the bounding
    circle (barycentre, _reach) of each triangle lies in region k of rings,
    or meets it, each with _margin to spare.

    Every sample of a held triangle keeps its full area under the exact
    clip. Every sample and subcentroid of a triangle that does not meet the
    region lies farther than rad + Disk.contains' 1e-12 outside it, so the
    full scan drops each one (see _visible_in_patch). All regions and
    triangles are tested in one broadcast.
    """
    tol = _margin(patch.circle, np.max(np.abs(rings.c), axis=1) + rings.r_out)[:, None]
    (bx, by), (cx, cy) = patch.barycenters.T, rings.c.T
    d = np.hypot(bx - cx[:, None], by - cy[:, None])
    reach, r_in, r_out = patch._reach, rings.r_in[:, None], rings.r_out[:, None]
    held = (d + reach <= r_out - tol) & (d - reach >= r_in + tol)
    return held, (d <= reach + r_out + tol) & (d + reach >= r_in - tol)


def _later_relation(patch: CellPatch, laters):
    """(clear, hidden), per triangle: whether its bounding circle
    (barycentre, _reach) lies clear of every later circle, or inside one,
    with _margin to spare. The layering keeps every sample of a clear
    triangle whole, and no sample of a hidden one (see _visible_in_patch)."""
    nt = len(patch.tris)
    clear, hidden = np.ones(nt, dtype=bool), np.zeros(nt, dtype=bool)
    reach, (bx, by) = patch._reach, patch.barycenters.T
    scale = np.maximum(np.abs(bx), np.abs(by)) + reach
    for lc in laters:
        d = np.hypot(bx - lc.center[0], by - lc.center[1])
        tol = _margin(lc, scale)
        clear &= d - reach > lc.radius + tol
        hidden |= d + reach < lc.radius - tol
    return clear, hidden


def _visible_in_patch(patch: CellPatch, level: int, laters, table, src, rings, flat, offset):
    """(pts, w, offset + cell_id, sel) of the samples src (rows, or a
    slice) of table, a sample table of the patch (see _tri_samples), that
    are visible below the later circles laters, those of the later patches
    that meet its circle (see DiscreteSbvMap._build_stack). Each sample is
    clipped to its row of the _RingRows rings, or not at all when rings is
    None; flat, a region without rings, keeps only the samples it contains.
    sel marks the samples of src returned."""
    pts, w, cid, rad_sub = (x[src] for x in table[:4])
    keep = np.ones(len(pts), dtype=bool)
    near_later = np.zeros(len(pts), dtype=bool)
    for lc in laters:
        dl = np.linalg.norm(pts - np.asarray(lc.center), axis=1)
        near_later |= np.abs(dl - lc.radius) <= rad_sub
        keep &= dl > lc.radius
    keep |= near_later
    if rings is not None:
        keep, w = _clip_weights(patch, level, table, (pts, w, src, rad_sub), keep, rings, near_later)
    if flat is not None:
        keep &= near_later | flat.contains(pts)
    # subcells meeting a later-patch boundary: refined indicator,
    # consistent between the region and the layering
    refine = np.flatnonzero(near_later & keep)
    if len(refine):
        w = w.copy()
        corners = _subcell_corners(patch, level, table[0], table[2], np.arange(len(table[0]))[src][refine])
        w[refine] = _refined_weights(corners, flat if rings is None else rings.take(refine), laters)
    sel = keep & (w > 0)
    return pts[sel], w[sel], cid[sel] + offset, sel


def _clip_weights(patch: CellPatch, level: int, table, samples, keep, rings: _RingRows, skip):
    """(keep, w) for the samples (pts, w, src, rad) of the patch, src their
    rows of the sample table, each against its own row of rings: the outer
    disk's clip minus the inner one's. Each clip drops the kept samples
    whose subcells miss its disk and gives the straddlers their exact
    clipped area, all in one call. Samples flagged in skip are kept and left
    to the caller. w is a new array.
    """
    pts, w, src, rad_sub = samples
    d = np.linalg.norm(pts - rings.c, axis=1)
    clipped = []
    for side in ("r_out", "r_in"):
        radius = getattr(rings, side)
        keep_r = keep & ((d <= radius + rad_sub) | skip)
        straddle = np.flatnonzero(keep_r & (d > radius - rad_sub) & ~skip)
        w_r = np.where(keep_r, w, 0.0)
        if len(straddle):  # never at a disk's inner circle (r_inner = -inf): skip the fixed cost
            corners = _subcell_corners(patch, level, table[0], table[2], src[straddle])
            own = rings.take(straddle)
            w_r[straddle] = _geom.polygons_disk_area(corners, own.c, getattr(own, side))
        clipped.append((keep_r, w_r))
    (keep_out, w_out), (_, w_in) = clipped
    w = w_out - w_in
    return keep_out & ((w > 0) | skip), w


def _refined_weights(corners, region, laters, depth: int = 3) -> np.ndarray:
    """Indicator-refined areas of subtriangles ∩ region minus later circles.

    corners is (n, 3, 2). Each subtriangle is split 4**depth ways and keeps
    the pieces whose centroid lies in the region and outside every later
    circle; region.contains answers for the (n, 4**depth, 2) centroids, so
    _RingRows gives subtriangle i its own ring. Degenerate arc samples get 0:
    arc slivers at a later boundary are negligible by area.
    """
    cents, areas = tri_subcentroids(corners[:, 0], corners[:, 1], corners[:, 2], depth)
    mask = np.ones(areas.shape, dtype=bool)
    if region is not None:
        mask &= region.contains(cents)
    for lc in laters:
        mask &= ~lc.contains(cents)
    weights = mask.sum(axis=1) * areas[:, 0]
    degenerate = np.isclose(corners[:, 0], corners[:, 1]).all(axis=1)
    return np.where(degenerate, 0.0, weights)


def _disks_meet(d1: Disk, d2: Disk) -> bool:
    return (
        np.linalg.norm(np.asarray(d1.center) - np.asarray(d2.center))
        <= d1.radius + d2.radius + 1e-12
    )


def _tri_samples(patch: CellPatch, level: int, t: np.ndarray):
    """Subcell samples of the patch's triangles t (increasing), built in one
    broadcast: a sample table (pts, w, cell_id, rad) of subcell centroids,
    areas, owning cell ids and the largest centroid-to-corner distance.

    Each triangle's subcells come in turn, followed, for a bulged arc cell,
    by one sample at the arc midpoint carrying the bulge area (its corners
    collapse onto that point, so its rad is 0). Every operation acts on one
    triangle at a time, so a triangle's rows do not depend on t's others.
    Corners are not kept; _subcell_corners rebuilds them.
    """
    v = patch.corners[t]
    cents, areas = tri_subcentroids(v[:, 0], v[:, 1], v[:, 2], level)
    m = cents.shape[1]
    slot = np.ones((len(t), m + 1), dtype=bool)
    slot[:, m] = patch._bulged[t]
    pts = np.concatenate([cents, patch._arc_mid[t][:, None, :]], axis=1)[slot]
    cell_id = np.repeat(np.asarray(t)[:, None], m + 1, axis=1)[slot]
    # every subcell is its triangle scaled by 2^-level (an inverted one also
    # turned by pi), so rad is the triangle's largest barycentre-to-corner
    # distance over 2^level; the subcells at the corners reach that distance
    # from the barycentre, and no subcell reaches farther
    rad = np.where(np.arange(m + 1) < m, patch._far[t][:, None] / (1 << level), 0.0)
    return pts, np.concatenate([areas, patch._arc_extra[t][:, None]], axis=1)[slot], cell_id, rad[slot]


def _patch_samples_with_ids(patch: CellPatch, level: int):
    """The sample table of every triangle of the patch (see _tri_samples),
    and per triangle its _reach: (pts, w, cell_id, rad, reach)."""
    return (*_tri_samples(patch, level, np.arange(len(patch.tris))), patch._reach)


def _subcell_corners(patch: CellPatch, level: int, pts, cell_id, idx) -> np.ndarray:
    """Corners (k, 3, 2) of the patch samples idx (see _patch_samples_with_ids)."""
    t = cell_id[idx]
    j = idx - np.searchsorted(cell_id, t)  # position within the triangle's block
    _, lattice = subdivision_lattice(level)
    n, m = 1 << level, len(lattice)
    tri = patch.tris[t]
    v0 = patch.verts[tri[:, 0]]
    e1 = patch.verts[tri[:, 1]] - v0
    e2 = patch.verts[tri[:, 2]] - v0
    arc, own = (j == m)[:, None], pts[idx]
    out = np.empty((len(idx), 3, 2))
    for c in range(3):  # corner by corner keeps the temporaries (k, 2)
        ij = lattice[np.minimum(j, m - 1), c]
        out[:, c] = np.where(arc, own, v0 + ij[:, :1] * e1 / n + ij[:, 1:] * e2 / n)
    return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def value_gap(u: DiscreteSbvMap, w: DiscreteSbvMap, pts) -> np.ndarray:
    """|u(x) - w(x)| at each point.

    Each map evaluates a point on the cell of its topmost patch that holds
    it, an arc cell's bulge included (see CellPatch.locate). When w's patch stack starts with u's
    patches, a point that no later patch of w holds is evaluated on the same
    patch by both maps, so its gap is 0.0; only the other points are
    evaluated, on both maps.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(u.patches)
    moved = np.ones(len(pts), dtype=bool)
    if len(w.patches) >= n and all(p is q for p, q in zip(u.patches, w.patches)):
        moved = w._layer_of(pts) >= n
    gap = np.zeros(len(pts))
    if np.any(moved):
        gap[moved] = np.linalg.norm(u.value_at(pts[moved]) - w.value_at(pts[moved]), axis=1)
    return gap


def jump_length(u: DiscreteSbvMap, region) -> float:
    """H^1 measure of the jump set inside a ball or annulus (exact clipping)."""
    return u.jump.length_in(region)


def total_variation_parts(u: DiscreteSbvMap, region, level: int = 2):
    """(bulk, jump) parts of |Du|(region).

    bulk integrates |grad u| (DiscreteSbvMap.gradient_q_integral with
    q = 1: exact on the whole cells, sampled on the cut ones); jump sums
    |u+ - u-| times exact clipped segment lengths.
    """
    bulk = u.gradient_q_integral(1.0, region, level)
    jump = 0.0
    if len(u.jump) > 0:
        amp = np.linalg.norm(u.jump.trace_plus - u.jump.trace_minus, axis=1)
        jump = float(np.sum(amp * region.segment_lengths(u.jump.a, u.jump.b)))
    return bulk, jump


def bv_poincare_check(u: DiscreteSbvMap, convex_region, level: int = 3):
    """L^1 Poincare data on a convex region.

    Returns (lhs, ratio): lhs = ||u - mean||_L1(region); ratio = lhs over
    diam(region) * |Du|(region).
    """
    pts, w, _ = u.bulk_samples(convex_region, level)
    vals = u.value_at(pts)
    area = float(np.sum(w))
    if area <= 0:
        raise ToolkitError("region does not meet the map domain")
    mean = np.sum(w[:, None] * vals, axis=0) / area
    lhs = float(np.sum(w * np.linalg.norm(vals - mean, axis=1)))
    bulk, jump = total_variation_parts(u, convex_region, level)
    du = bulk + jump
    if du <= 0:
        spread = float(np.max(np.linalg.norm(vals - mean, axis=1)))
        if spread > 1e-9:
            raise DegenerateInputError(
                "|Du|(region) = 0 but the sampled map is not constant on the region"
            )
        return lhs, 0.0
    return lhs, lhs / (convex_region.diameter * du)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _regular_loop(center, perimeter: float, n_sides: int, rng: np.random.Generator):
    """Closed regular polygon with the requested perimeter (random phase)."""
    r = perimeter / (2 * n_sides * np.sin(np.pi / n_sides))
    phase = 2 * np.pi * rng.random()
    th = phase + 2 * np.pi * np.arange(n_sides) / n_sides
    pts = np.asarray(center) + r * np.stack([np.cos(th), np.sin(th)], axis=1)
    return pts, r


def synthesize(kind: str, params: dict, seed: int) -> DiscreteSbvMap:
    """Deterministic test-map generator.

    kinds: affine | piecewise-constant-with-arc-jump | sphere-vortex-with-slit
    | random-cells-with-random-polyline. The reported jump length matches the
    requested budget to well under 1%.
    """
    rng = np.random.default_rng(seed)
    domain = params.get("domain", Disk((0.0, 0.0), 1.0))
    n_rings = params.get("n_rings", 10)

    if kind == "affine":
        k = params.get("k", 2)
        G = np.asarray(params.get("G", rng.standard_normal((k, 2))), dtype=float)
        u0 = np.asarray(params.get("u0", rng.standard_normal(k)), dtype=float)
        verts, tris, arc = fan_mesh(domain, n_rings)
        bc = verts[tris].mean(axis=1)
        values = u0 + (bc - np.asarray(domain.center)) @ G.T
        grads = np.repeat(G[None, :, :], len(tris), axis=0)
        patch = CellPatch(verts, tris, values, grads, domain, arc)
        return DiscreteSbvMap(domain, (patch,), JumpSet.empty(k))

    if kind == "piecewise-constant-with-arc-jump":
        k = params.get("k", 2)
        budget = float(params["budget"])
        n_sides = params.get("n_sides", 12)
        max_perim = 2 * np.pi * domain.radius * 0.5
        if budget <= 0 or budget > max_perim:
            raise ConstructionError(
                f"jump budget {budget} incompatible with domain radius {domain.radius}"
            )
        loop_center = params.get("loop_center")
        r_loop = budget / (2 * n_sides * np.sin(np.pi / n_sides))
        if loop_center is None:
            lim = max(domain.radius - 2.5 * r_loop, 0.0)
            ang = 2 * np.pi * rng.random()
            rad = lim * 0.6 * np.sqrt(rng.random())
            loop_center = np.asarray(domain.center) + rad * np.array([np.cos(ang), np.sin(ang)])
        loop_center = np.asarray(loop_center, dtype=float)
        if np.linalg.norm(loop_center - np.asarray(domain.center)) + r_loop >= domain.radius:
            raise ConstructionError("jump loop does not fit inside the domain")
        loop, _ = _regular_loop(loop_center, budget, n_sides, rng)
        c_out = params.get("c_out")
        c_in = params.get("c_in")
        if c_out is None:
            c_out = rng.standard_normal(k)
            c_out /= np.linalg.norm(c_out)
        if c_in is None:
            c_in = rng.standard_normal(k)
            c_in /= np.linalg.norm(c_in)
            if np.linalg.norm(c_in - c_out) < 0.1:
                c_in = -c_out
        c_out = np.asarray(c_out, dtype=float)
        c_in = np.asarray(c_in, dtype=float)
        verts, tris, arc = fan_mesh(domain, n_rings)
        bc = verts[tris].mean(axis=1)
        inside = _points_in_convex_loop(bc, loop)
        values = np.where(inside[:, None], c_in[None, :], c_out[None, :])
        grads = np.zeros((len(tris), k, 2))
        patch = CellPatch(verts, tris, values, grads, domain, arc)
        a = loop
        b = np.roll(loop, -1, axis=0)
        jump = JumpSet.from_segments(
            a, b, np.repeat(c_in[None, :], n_sides, axis=0), np.repeat(c_out[None, :], n_sides, axis=0)
        )
        tag = {"kind": "free"}
        if abs(np.linalg.norm(c_in) - 1) < 1e-12 and abs(np.linalg.norm(c_out) - 1) < 1e-12:
            tag = {"kind": "sphere", "radius": 1.0}
        return DiscreteSbvMap(domain, (patch,), jump, tag)

    if kind == "sphere-vortex-with-slit":
        return _vortex_with_slit(domain, params, rng)

    if kind == "random-cells-with-random-polyline":
        return _random_map(domain, params, rng)

    raise ToolkitError(f"unknown synthesis kind {kind!r}")


def _points_in_convex_loop(pts, loop):
    return _geom.points_in_convex_polygon(pts, _geom.convex_hull(loop))


def _vortex_with_slit(domain: Disk, params: dict, rng: np.random.Generator) -> DiscreteSbvMap:
    """Unit vortex u = (x - c)/|x - c| with a phase-dislocation slit.

    Away from a narrow strip around a short radial slit the map is exactly
    the vortex; inside the strip the phase picks up an extra twist that
    jumps across the slit and tapers to zero at the slit ends and the strip
    edge, so the jump set is exactly the slit segment.
    """
    slit_len = float(params.get("budget", domain.radius * 0.1))
    if slit_len <= 0 or slit_len > 0.5 * domain.radius:
        raise ConstructionError("slit length must lie in (0, radius/2]")
    c = np.asarray(domain.center, dtype=float)
    ang = params.get("slit_angle")
    if ang is None:
        ang = 2 * np.pi * rng.random()
    d = np.array([np.cos(ang), np.sin(ang)])
    r_s = float(params.get("slit_start_radius", 0.35 * domain.radius))
    r_s = min(r_s, domain.radius - slit_len - 1e-6)
    q0 = c + r_s * d
    width = 0.5 * slit_len
    delta_twist = float(params.get("twist", 2.0))
    perp = np.array([-d[1], d[0]])

    def taper(s):
        t = np.clip(s / (0.15 * slit_len), 0.0, 1.0)
        t2 = np.clip((slit_len - s) / (0.15 * slit_len), 0.0, 1.0)
        return (t * t * (3 - 2 * t)) * (t2 * t2 * (3 - 2 * t2))

    def taper_prime(s):
        h = 1e-7 * slit_len
        return (taper(s + h) - taper(s - h)) / (2 * h)

    def beta_grad(pts):
        rel = np.atleast_2d(pts) - q0
        s = rel @ d
        t = rel @ perp
        inside = (s >= 0) & (s <= slit_len) & (t > 0) & (t < width)
        beta = np.zeros(len(rel))
        gb = np.zeros((len(rel), 2))
        if np.any(inside):
            ss, tt = s[inside], t[inside]
            prof = 1.0 - tt / width
            beta[inside] = delta_twist * taper(ss) * prof
            gs = delta_twist * taper_prime(ss) * prof
            gt = -delta_twist * taper(ss) / width
            gb[inside] = gs[:, None] * d[None, :] + gt[:, None] * perp[None, :]
        return beta, gb

    def value_grad(pts):
        pts = np.atleast_2d(pts)
        rel = pts - c
        r = np.maximum(np.linalg.norm(rel, axis=1), 1e-12)
        phi_v = np.arctan2(rel[:, 1], rel[:, 0])
        that = np.stack([-rel[:, 1], rel[:, 0]], axis=1) / r[:, None]
        gphi_v = that / r[:, None]
        beta, gb = beta_grad(pts)
        phi = phi_v + beta
        uu = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        up = np.stack([-uu[:, 1], uu[:, 0]], axis=1)
        grads = up[:, :, None] * (gphi_v + gb)[:, None, :]
        return uu, grads

    n_rings = params.get("n_rings", 12)
    verts, tris, arc = fan_mesh(domain, n_rings)
    bc = verts[tris].mean(axis=1)
    values, grads = value_grad(bc)
    patch = CellPatch(verts, tris, values, grads, domain, arc)

    n_seg = max(4, int(params.get("slit_segments", 8)))
    ss = np.linspace(0.0, slit_len, n_seg + 1)
    seg_a = q0 + ss[:-1, None] * d
    seg_b = q0 + ss[1:, None] * d
    smid = 0.5 * (ss[:-1] + ss[1:])
    mid_pts = q0 + smid[:, None] * d
    relm = mid_pts - c
    phim = np.arctan2(relm[:, 1], relm[:, 0])
    bplus = delta_twist * np.array([taper(s) for s in smid])
    tp = np.stack([np.cos(phim + bplus), np.sin(phim + bplus)], axis=1)
    tm = np.stack([np.cos(phim), np.sin(phim)], axis=1)
    keep = np.linalg.norm(tp - tm, axis=1) > 1e-9
    jump = JumpSet.from_segments(seg_a[keep], seg_b[keep], tp[keep], tm[keep])
    return DiscreteSbvMap(domain, (patch,), jump, {"kind": "sphere", "radius": 1.0})


def _random_map(domain: Disk, params: dict, rng: np.random.Generator) -> DiscreteSbvMap:
    k = params.get("k", 2)
    budget = float(params.get("budget", 0.0))
    if budget > 2 * domain.radius * 4:
        raise ConstructionError("jump budget incompatible with domain size")
    n_pts = params.get("n_points", 220)
    verts, tris, arc = delaunay_disk_mesh(domain, n_pts, rng)
    # smooth trigonometric bulk field
    nmodes = 3
    A = 0.4 * rng.standard_normal((k, nmodes))
    B = 0.4 * rng.standard_normal((k, nmodes))
    freq = rng.uniform(0.5, 2.5, (nmodes, 2)) / max(domain.radius, 1e-9)
    phase = 2 * np.pi * rng.random(nmodes)

    def field(pts):
        arg = pts @ freq.T + phase  # (n, modes)
        vals = np.sin(arg) @ A.T + np.cos(arg) @ B.T
        dsin = np.cos(arg)[:, :, None] * freq[None, :, :]
        dcos = -np.sin(arg)[:, :, None] * freq[None, :, :]
        grads = np.einsum("km,nmj->nkj", A, dsin) + np.einsum("km,nmj->nkj", B, dcos)
        return vals, grads

    bc = verts[tris].mean(axis=1)
    values, grads = field(bc)
    patch = CellPatch(verts, tris, values, grads, domain, arc)
    jump = JumpSet.empty(k)
    if budget > 0:
        n_seg = params.get("jump_segments", 5)
        # random open polyline, rescaled to the exact budget
        start = np.asarray(domain.center) + 0.4 * domain.radius * (rng.random(2) - 0.5)
        steps = rng.standard_normal((n_seg, 2))
        pts = np.concatenate([start[None, :], start + np.cumsum(steps, axis=0)])
        L = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        pts = start + (pts - start) * (budget / L)
        # keep the polyline inside the domain: shrink towards the centre if needed
        far = np.max(np.linalg.norm(pts - np.asarray(domain.center), axis=1))
        if far > 0.9 * domain.radius:
            ctr = np.asarray(domain.center)
            pts = ctr + (pts - ctr) * (0.9 * domain.radius / far)
            scale = budget / np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            pts = pts[0] + (pts - pts[0]) * scale
        a, b = pts[:-1], pts[1:]
        tp = rng.standard_normal((n_seg, k))
        tm = tp + 0.2 + rng.random((n_seg, k))
        jump = JumpSet.from_segments(a, b, tp, tm)
    return DiscreteSbvMap(domain, (patch,), jump)


def two_constant_map(
    domain: Disk,
    chain: np.ndarray,
    c_plus,
    c_minus,
    n_rings: int = 10,
    target: dict | None = None,
) -> DiscreteSbvMap:
    """Two-valued map jumping across an open polyline chain.

    The chain's endpoints should reach the domain boundary (or beyond) so the
    two-sided picture is consistent; cells take the value of the side their
    barycentre falls on (side of the nearest chain segment).
    """
    chain = np.asarray(chain, dtype=float)
    a, b = chain[:-1], chain[1:]
    c_plus = np.asarray(c_plus, dtype=float)
    c_minus = np.asarray(c_minus, dtype=float)
    k = len(c_plus)
    verts, tris, arc = fan_mesh(domain, n_rings)
    bc = verts[tris].mean(axis=1)
    d = _geom.point_segment_distance(bc, a, b)
    nearest = np.argmin(d, axis=1)
    seg_d = b - a
    nrm = np.stack([-seg_d[:, 1], seg_d[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    side = np.einsum("ij,ij->i", bc - a[nearest], nrm[nearest]) >= 0
    values = np.where(side[:, None], c_plus[None, :], c_minus[None, :])
    grads = np.zeros((len(tris), k, 2))
    patch = CellPatch(verts, tris, values, grads, domain, arc)
    tp = np.repeat(c_plus[None, :], len(a), axis=0)
    tm = np.repeat(c_minus[None, :], len(a), axis=0)
    jump = JumpSet(a, b, tp, tm, nrm)
    # keep only the part of the jump inside the closed domain
    (aa, bb, _), _ = _geom.split_segments_at_circle(a, b, domain.center, domain.radius)
    if len(aa) < len(a) or np.max(np.abs(aa - a)) > 1e-12 or np.max(np.abs(bb - b)) > 1e-12:
        na = len(aa)
        jump = JumpSet.from_segments(
            aa, bb, np.repeat(c_plus[None, :], na, axis=0), np.repeat(c_minus[None, :], na, axis=0)
        )
    return DiscreteSbvMap(domain, (patch,), jump, target or {"kind": "free"})


def transform_map(u: DiscreteSbvMap, origin, scale: float, new_origin=(0.0, 0.0)) -> DiscreteSbvMap:
    """Push the map through x -> new_origin + (x - origin) * scale, scale > 0.

    Gradients scale by 1/scale; values and traces are unchanged, so jump
    lengths scale by exactly scale and cell areas by scale^2.
    """
    o = np.asarray(origin, dtype=float)
    no = np.asarray(new_origin, dtype=float)
    patches = []
    for q in u.patches:
        circle = Disk(tuple(no + scale * (np.asarray(q.circle.center) - o)), q.circle.radius * scale)
        patches.append(
            CellPatch(no + scale * (q.verts - o), q.tris, q.values, q.grads / scale, circle, q.arc_cells)
        )
    jump = u.jump.transformed(o, scale, no)
    dom = Disk(
        tuple(no + scale * (np.asarray(u.domain.center) - o)), u.domain.radius * scale
    )
    return DiscreteSbvMap(dom, tuple(patches), jump, u.target)


def dilate_map(u: DiscreteSbvMap, factor: float, new_center=(0.0, 0.0)) -> DiscreteSbvMap:
    """Push the map through x -> new_center + factor * (x - old_center)."""
    return transform_map(u, u.domain.center, factor, new_center)

"""Discrete SBV maps on planar disks.

A map is a stack of triangulated patches (a base patch covering the domain
disk, then replacement patches confined to smaller disks; later patches
override earlier ones) plus an explicit polyline jump set with two-sided
traces. Bulk data is per-cell affine: a value at the cell barycenter and a
constant k x 2 gradient. Boundary cells of a patch bulge to the patch circle
so that cell areas partition the patch disk exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _geom
from .cellsplit import CellSplit, region_key, stack_rings
from .errors import DegenerateInputError, ToolkitError
from .quadrature import Disk

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
            tp = np.asarray(trace_plus)
            return JumpSet.empty(tp.shape[-1] if tp.ndim == 2 else 1)
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
        c, r_in, r_out = stack_rings(regions)[0]
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
        arc = np.flatnonzero(self.arc_cells)
        # (arc cells, 2, 2): the chord each arc cell's bulge sits on
        self._chords = self.verts[np.take_along_axis(self.tris[arc], self._arc_edges[arc], axis=1)]
        self._arc_extra = np.zeros(nt)
        self._arc_extra[arc] = _geom.circular_segment_area(
            self.circle.radius, self._chords[:, 0], self._chords[:, 1], self.circle.center
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
        ends = self._chords[self._bulged[self.arc_cells]]
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
    def _bulge_box(self) -> np.ndarray:
        """(nt, 4, 2): each bulged arc cell's rectangle on its chord, reaching
        beyond it, away from the vertex off the chord, twice the bulge's
        depth; the patch disk cuts the bulge from it exactly. Zeros for the
        other cells."""
        box, arc = np.zeros((len(self.tris), 4, 2)), np.flatnonzero(self._bulged)
        a, b = self._chords[self._bulged[self.arc_cells]].transpose(1, 0, 2)
        nrm = (b - a)[:, ::-1] * [1.0, -1.0] / np.linalg.norm(b - a, axis=1)[:, None]
        apex = self.verts[self.tris[arc, 3 - self._arc_edges[arc].sum(axis=1)]]  # the vertex off the chord
        nrm *= np.where(np.sum(nrm * (a - apex), axis=1) < 0, -1.0, 1.0)[:, None]
        depth = 2 * (self.circle.radius - np.sum((a - np.asarray(self.circle.center)) * nrm, axis=1))
        box[arc] = np.stack([a, b, b + depth[:, None] * nrm, a + depth[:, None] * nrm], axis=1)
        return box

    @cached_property
    def _bulge_rad(self) -> np.ndarray:
        """(nt,): the largest distance from each arc-midpoint sample to its
        _bulge_box's corners; 0 for the cells without a bulge."""
        rad, arc = np.zeros(len(self.tris)), self._bulged
        rad[arc] = np.max(np.linalg.norm(self._bulge_box[arc] - self._arc_mid[arc, None], axis=2), axis=1)
        return rad

    @cached_property
    def _reach(self) -> np.ndarray:
        """(nt,): the radius about each barycentre of a circle holding the
        triangle and, for a bulged arc cell, the circle about its
        arc-midpoint sample that holds its _bulge_box."""
        mid = np.linalg.norm(self._arc_mid - self.barycenters, axis=1) + self._bulge_rad
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
        off = _geom.point_segment_distance(self.circle.center, self._chords[:, 0], self._chords[:, 1])[0]
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
    # (region key, CellSplit) of the latest single region; replace() starts it empty
    _memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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
        """The value of each point's topmost patch at it."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        layer = self._layer_of(pts)
        out = np.empty((len(pts), self.k))
        for i, patch in enumerate(self.patches):
            sel = layer == i
            if np.any(sel):
                out[sel] = patch.eval(pts[sel])
        return out

    def with_patch(self, patch: CellPatch) -> "DiscreteSbvMap":
        jump = self.jump.clip_outside_disk(patch.circle)
        return replace(self, patches=self.patches + (patch,), jump=jump)

    # -- quadrature ---------------------------------------------------------

    def bulk_samples(self, region=None):
        """Bulk view of the sampled cell split (see CellSplit.samples): (pts,
        weights, gmag), gmag the gradient norm of each sample's cell.

        cell_samples is the per-cell view of the same samples. The map keeps
        the split of its latest region, and hands the same read-only
        arrays to every sampled integral over that region. The gradient
        integrals under a constant or affine exponent read the split itself
        (see CellSplit.integrals).
        """
        pts, w, _, g, _ = self._split([region]).samples
        return pts, w, g

    def cell_samples(self, region=None):
        """Per-cell view of the sampled cell split.

        Returns (cell_values (nc,k), cell_grads (nc,k,2), sub_cell_id (m,),
        sub_pts (m,2), sub_w (m,)): the per-cell data of every cell in the
        patch stack, and bulk_samples' points and weights with the flat id of
        the cell each belongs to.
        """
        pts, w, cell, _, _ = self._split([region]).samples
        values = np.concatenate([p.values for p in self.patches])
        grads = np.concatenate([p.grads for p in self.patches])
        return values, grads, cell, pts, w

    def _split(self, regions) -> CellSplit:
        """The CellSplit of a stack of regions, memoised for one region."""
        if len(regions) != 1:
            return CellSplit(self.patches, self._cells, regions)
        key = region_key(regions[0])
        if self._memo[1] is None or self._memo[0] != key:
            object.__setattr__(self, "_memo", (key, CellSplit(self.patches, self._cells, regions)))
        return self._memo[1]

    def modular_of_gradient(self, p, region=None) -> float:
        """Integral of |grad u|^{p(x)} over the region (see CellSplit.integrals)."""
        return self._split([region]).integrals(p)[0]

    def modulars_of_gradient(self, p, regions) -> list:
        """modular_of_gradient of each region of a stack of disks and annuli,
        bitwise, from one split (see CellSplit.integrals)."""
        return self._split(regions).integrals(p)

    def gradient_luxembourg_norm(self, p, region=None) -> float:
        """Luxembourg norm of |grad u| over the region, p a number or an
        exponent field (see CellSplit.luxembourg_norm).

        Solved by ``vexp.luxembourg_from_samples``: Newton's method in
        log lambda, stopped once its error bound on log lambda is at most
        ``vexp.NEWTON_TOL``.
        """
        return self._split([region]).luxembourg_norm(p)

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


def total_variation_parts(u: DiscreteSbvMap, region):
    """(bulk, jump) parts of |Du|(region).

    bulk integrates |grad u| (DiscreteSbvMap.modular_of_gradient with
    p = 1: exact on the whole cells, sampled on the cut ones); jump sums
    |u+ - u-| times exact clipped segment lengths.
    """
    bulk = u.modular_of_gradient(1.0, region)
    jump = 0.0
    if len(u.jump) > 0:
        amp = np.linalg.norm(u.jump.trace_plus - u.jump.trace_minus, axis=1)
        jump = float(np.sum(amp * region.segment_lengths(u.jump.a, u.jump.b)))
    return bulk, jump


def bv_poincare_check(u: DiscreteSbvMap, convex_region):
    """L^1 Poincare data on a convex region.

    Returns (lhs, ratio): lhs = ||u - mean||_L1(region); ratio = lhs over
    diam(region) * |Du|(region).
    """
    pts, w, _ = u.bulk_samples(convex_region)
    vals = u.value_at(pts)
    area = float(np.sum(w))
    if area <= 0:
        raise ToolkitError("region does not meet the map domain")
    mean = np.sum(w[:, None] * vals, axis=0) / area
    lhs = float(np.sum(w * np.linalg.norm(vals - mean, axis=1)))
    bulk, jump = total_variation_parts(u, convex_region)
    du = bulk + jump
    if du <= 0:
        spread = float(np.max(np.linalg.norm(vals - mean, axis=1)))
        if spread > 1e-9:
            raise DegenerateInputError(
                "|Du|(region) = 0 but the sampled map is not constant on the region"
            )
        return lhs, 0.0
    return lhs, lhs / (convex_region.diameter * du)



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


# the synthesizers build maps, so they live apart and import this module;
# re-exported here as the same objects
from .synth import delaunay_disk_mesh, fan_mesh, synthesize, two_constant_map  # noqa: E402

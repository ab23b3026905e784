"""The cell split of a patch stack over a stack of regions: the one
decomposition that every bulk integral of a DiscreteSbvMap reads.

A cell whose bounding circle lies in a region and clear of every later
patch circle is whole there and enters the integrals exactly; the cells that
a region or a later circle cuts enter by their subcell samples, each
weighted by the exact area of its part in the region and outside the later
circles.
"""
from __future__ import annotations

from dataclasses import fields
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _geom
from .errors import ToolkitError
from .quadrature import Disk, subdivision_lattice, tri_subcentroids
from .vexp import CellTerms, affine_coefficients, luxembourg_from_samples

if TYPE_CHECKING:
    from .sbv2d import CellPatch

LEVEL = 2  # every cut cell is sampled by its 4^LEVEL subcells
BULGE_SLOT = 1 << 2 * LEVEL  # a bulged arc cell's row after its subcells


class CellSplit:
    """Split of the visible cells of a patch stack over a stack of regions:
    disks and annuli, or one region of any kind (None for the whole domain,
    or a Rect). It holds the whole cells, and the samples of the others.

    One relation of circles against rings (_relation) decides the split. A
    disk region that misses a patch circle, or that a later circle holds,
    takes nothing of the patch. A cell is whole in a region that holds its
    bounding circle (barycentre, CellPatch._reach) or the patch circle, when
    that circle is clear of every later circle: every subcell sample keeps
    its full area (see samples). No region without rings holds a cell whole.
    A cell whose circle lies in a later circle is hidden and adds nothing.
    Every other cell whose circle meets the region is cut.

    A cut cell's samples are its subcells and, for an arc bulge, one sample
    at the arc midpoint carrying the segment area (see _tri_samples). Each
    keeps its area, is dropped, or, where a boundary crosses its bounding
    circle, carries the exact area of its subcell or bulge in the region
    and outside the later circles (see _cut_rows), all from one
    _geom.polygons_disks_area call. Every operation acts on one sample at a
    time, so a cell's rows are those of its triangle alone, and each
    region's arrays, bit for bit, those of its stack of one.

    Fields, read-only: whole[whole_bounds[k]:whole_bounds[k + 1]] are the
    flat ids of region k's whole cells, and rows bounds[k] to bounds[k + 1]
    of (pts, w, cell) its samples: the arc-midpoint sample of each whole
    bulged arc cell, then the cut cells' visible samples, patch by patch,
    each cell in turn. gmag, area and corners are the per-cell data of the
    stack, indexed by flat cell id. The split keeps its sampled view and the
    CellTerms of its latest affine exponent.
    """

    def __init__(self, patches, cell_data, regions):
        self.patches = patches
        self.gmag, self.area, self.corners = cell_data
        self._terms = (None, None)  # ((p0, a), CellTerms) of the latest affine exponent
        rings, flat = stack_rings(regions)
        # each patch circle, as a ring (row), against each patch circle and
        # region, as a circle (column), with _slack to spare (a concentric
        # pair exactly): it meets a later one or a region, and holds a region;
        # and each region against each patch circle: exactly, it holds one
        n = len(patches)
        both = _RingRows(np.concatenate([[q.circle.center for q in patches], rings.c]),
                         np.concatenate([np.full(n, -np.inf), rings.r_in]),
                         np.concatenate([[q.circle.radius for q in patches], rings.r_out]))
        slack = _slack(both)
        tol = np.where((both.c[:n, None] == both.c).all(axis=2), 0.0, slack[:n])
        holds, met = _relation(both.c, both.r_out, both.take(slice(n)), tol)
        frees = _relation(both.c[:n], both.r_out[:n], rings, 0.0)[0]
        annulus = rings.r_in > -np.inf  # an annulus takes part of every patch, as in the full scan
        offsets = list(accumulate((len(q.tris) for q in patches), initial=0))
        wholes, parts, straddlers = [], [], []
        for i, patch in enumerate(patches):
            later = [j for j in range(i + 1, n) if met[i, j]]  # the later circles that meet the patch's
            # a disk region missing the patch circle, or held by a later circle, takes nothing of it
            live = (met[i, n:] | annulus) & ~holds[later, n:].any(axis=0)
            if not live.any():
                continue
            free = frees[:, i]  # the regions that hold the patch circle clip nothing of it
            cut, nt = np.flatnonzero(live & ~free), len(patch.tris)
            held, meets = np.full((len(live), nt), flat is None), np.ones((len(live), nt), dtype=bool)
            hidden, clear = np.False_, np.True_
            # each triangle's bounding circle against the regions that cut the
            # patch, then against the later circles, in one broadcast, with
            # each ring's slack against the patch circle
            rows = [*(n + cut), *later]
            if rows:
                ins, meet = _relation(patch.barycenters, patch._reach, both.take(rows), slack[rows, i : i + 1])
                held[cut], meets[cut] = ins[: len(cut)], meet[: len(cut)]
                hidden, clear = ins[len(cut) :].any(axis=0), ~meet[len(cut) :].any(axis=0)
            whole = live[:, None] & held & clear
            reg, t = np.nonzero(whole)
            wholes.append((offsets[i] + t, reg))
            arc = patch._bulged[t]
            parts.append((patch._arc_mid[t[arc]], patch._arc_extra[t[arc]], offsets[i] + t[arc], reg[arc]))
            reg, t = np.nonzero(live[:, None] & meets & ~whole & ~hidden)
            if not len(t):
                continue
            ids, block = np.unique(t, return_inverse=True)
            table = _tri_samples(patch, ids)
            start = np.searchsorted(table[2], np.append(ids, len(patch.tris)))
            cnt = start[block + 1] - start[block]  # the rows of each (region, triangle) pair
            src = np.arange(cnt.sum()) + np.repeat(start[block] - np.cumsum(cnt) + cnt, cnt)
            reg = np.repeat(reg, cnt)
            own = _RingRows(rings.c, np.where(free, -np.inf, rings.r_in), np.where(free, np.inf, rings.r_out))
            # each row's polygon is built about the centre of the region that
            # clips it, or the patch's: one point for all rows of a region
            frame = np.where(np.isfinite(own.r_out)[:, None], own.c, patch.circle.center)
            laters = [patches[j].circle for j in later]
            pts, w, cid, straddle = _cut_rows(patch, laters, n, table, src, own.take(reg), flat, frame[reg])
            parts.append((pts, w, offsets[i] + cid, reg))
            straddlers.append(straddle)
        empty = (np.zeros(0, dtype=int),) * 2
        cells, reg = (np.concatenate(col) for col in zip(empty, *wholes))
        if len(regions) > 1:  # region by region, each in patch order
            cells, reg = cells[np.argsort(reg, kind="stable")], np.sort(reg)
        self.whole_bounds = np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regions)))])
        empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        pts, w, cell, reg = (np.concatenate(col) for col in zip(empty, *parts))
        if straddlers:  # every row that meets a boundary, its w NaN until now, in one call
            polys, area, ins, outs, frame = (np.concatenate(col) for col in zip(*straddlers))
            planes = None
            if flat is not None:  # a Rect: x >= x0, x <= x1, y >= y0, y <= y1
                x0, x1, y0, y1 = flat.bbox()
                planes = [(1.0, 0.0, x0), (-1.0, 0.0, -x1), (0.0, 1.0, y0), (0.0, -1.0, -y1)]
            w[np.isnan(w)] = _geom.polygons_disks_area(polys, area, ins, outs, planes, frame)
        sel = w > 0
        pts, w, cell, reg = pts[sel], w[sel], cell[sel], reg[sel]
        if len(regions) > 1:
            order = np.argsort(reg, kind="stable")
            pts, w, cell = pts[order], w[order], cell[order]
        self.bounds = np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regions)))])
        for arr in (cells, pts, w, cell):
            arr.setflags(write=False)
        self.whole, self.pts, self.w, self.cell = cells, pts, w, cell

    @cached_property
    def samples(self):
        """The sampled view of the split: each whole cell expanded into its
        rows of the sample table (see _tri_samples), its subcells and its
        bulge at full area, in place of the split's one row of it, its
        bulge. Each region's rows come in flat-cell order: the visible
        samples of the region, cell by cell.

        Read-only (pts, w, cell, gmag, bounds): rows bounds[k] to
        bounds[k + 1] are region k's samples, the flat ids of their cells,
        and those cells' gradient norms.
        """
        cells, pts, w, cell, bounds = self.whole, self.pts, self.w, self.cell, self.bounds
        regs, nc = np.arange(len(bounds) - 1), len(self.gmag)
        whole_reg, reg = np.repeat(regs, np.diff(self.whole_bounds)), np.repeat(regs, np.diff(bounds))
        cut = ~np.isin(reg * nc + cell, whole_reg * nc + cells)
        parts = [(pts[cut], w[cut], cell[cut], reg[cut])]
        offsets = np.cumsum([0] + [len(q.tris) for q in self.patches])
        for i, patch in enumerate(self.patches):
            sel = (cells >= offsets[i]) & (cells < offsets[i + 1])
            if sel.any():
                t = cells[sel] - offsets[i]
                tpts, tw, tcell, _ = _tri_samples(patch, t)
                rows = BULGE_SLOT + patch._bulged[t]  # the subcells and the bulge
                parts.append((tpts, tw, tcell + offsets[i], np.repeat(whole_reg[sel], rows)))
        pts, w, cell, reg = (np.concatenate(col) for col in zip(*parts))
        order = np.argsort(reg * nc + cell, kind="stable")
        pts, w, cell = pts[order], w[order], cell[order]
        g = self.gmag[cell]
        for arr in (pts, w, cell, g):
            arr.setflags(write=False)
        return pts, w, cell, g, np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regs)))])

    def terms(self, p0, a) -> CellTerms:
        """CellTerms of the whole cells under p0 + a . x, kept for the
        latest (p0, a)."""
        if self._terms[0] != (p0, a):
            gmag, area, corners = (x[self.whole] for x in (self.gmag, self.area, self.corners))
            terms = CellTerms(gmag, area, p0 + corners[..., 0] * a[0] + corners[..., 1] * a[1])
            self._terms = ((p0, a), terms)
        return self._terms[1]

    def integrals(self, p) -> list:
        """The integral of |grad u|^{p(x)} over each region, p a number or
        an exponent field.

        When p is constant or affine (vexp.affine_coefficients), each whole
        cell of the region adds its exact integral: |G|^q times its
        triangle's area under a constant q, its CellTerms term under an
        affine p; the cut cells and the arc bulges add their samples. Any
        other field sums over the sampled view (see samples). Each region's
        sum is that of its stack of one.
        """
        coef = affine_coefficients(p)
        if coef is None:
            pts, w, _, g, bounds = self.samples
            return [float(np.sum(w[k:m] * g[k:m] ** p(pts[k:m]))) for k, m in zip(bounds[:-1], bounds[1:])]
        cells, pts, w, cell, gmag = self.whole, self.pts, self.w, self.cell, self.gmag
        p0, a = coef
        const = a == (0.0, 0.0)
        if const:
            exact = self.area[cells] * gmag[cells] ** p0
        else:
            exact = np.zeros(len(cells))
            exact[gmag[cells] > 0] = np.exp(self.terms(p0, a).at(0.0)[0])
        out = []
        for i, j, k, m in zip(self.whole_bounds[:-1], self.whole_bounds[1:], self.bounds[:-1], self.bounds[1:]):
            pv = p0 if const else p(pts[k:m])  # on the region's own samples, as its stack of one
            out.append(float(np.sum(exact[i:j])) + float(np.sum(w[k:m] * gmag[cell[k:m]] ** pv)))
        return out

    def luxembourg_norm(self, p) -> float:
        """Luxembourg norm of |grad u| over the split's one region, p a
        number or an exponent field: from the whole cells' CellTerms and the
        other samples under a constant or affine p, from the sampled view
        under any other field (see vexp.luxembourg_from_samples)."""
        coef = affine_coefficients(p)
        if coef is None:
            pts, w, _, g, _ = self.samples
            return luxembourg_from_samples(g, p(pts), w)
        pv = p(self.pts) if callable(p) else np.full(len(self.pts), coef[0])
        return luxembourg_from_samples(self.gmag[self.cell], pv, self.w, self.terms(*coef))


def region_key(region):
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
        return _RingRows(self.c[idx], self.r_in[idx], self.r_out[idx])


def stack_rings(regions):
    """(_RingRows of the regions, the region without rings or None).

    A region without rings, None or a Rect, spans the plane; a Rect then
    also clips the rows by its half-planes, and must stand alone.
    """
    plane = (np.zeros(2), -np.inf, np.inf)
    rings = [plane if r is None or r.rings is None else r.rings for r in regions]
    flat = [r for r in regions if r is not None and r.rings is None]
    if flat and len(regions) > 1:
        raise ToolkitError(f"only disks and annuli stack; {flat[0]!r} must stand alone")
    c, r_in, r_out = (np.array([ring[j] for ring in rings], dtype=float) for j in range(3))
    return _RingRows(c.reshape(-1, 2), r_in, r_out), (flat[0] if flat else None)


def _slack(rings: _RingRows) -> np.ndarray:
    """(k, j): 1e-12 of the larger coordinate scale, max|centre| + r_outer,
    of rings k and j (a triangle takes its patch circle's): far above the
    round-off of their distances, and scaled by a dilation."""
    scale = np.abs(rings.c).max(axis=1) + rings.r_out
    return 1e-12 * np.maximum.outer(scale, scale)


def _relation(centres, radii, rings: _RingRows, tol):
    """(inside, meets), each (rings, circles): whether circle j, about
    centres[j] with radius radii[j], lies in ring k, or meets it, with
    tol[k, j] to spare (tol broadcasts to (rings, circles)). A ring is a
    region, a patch circle (r_in = -inf) or the plane (r_out = inf); a
    circle is a patch circle, a region's outer circle or a triangle's
    bounding circle (barycentre, CellPatch._reach). With _slack to spare,
    the row rule of _cut_rows keeps every sample of a triangle inside a ring
    and drops every sample of one that does not meet it. Each distance is
    np.linalg.norm's for the one pair, as the full scan's."""
    # (rings, circles, 2), from (2, circles) for a fast broadcast
    diff = (np.ascontiguousarray(np.transpose(centres)) - rings.c[:, :, None]).transpose(0, 2, 1)
    d = np.sqrt(diff[..., None, :] @ diff[..., None])[..., 0, 0]
    reach, r_in, r_out = radii + tol, rings.r_in[:, None], rings.r_out[:, None]
    near, far = d - reach, d + reach
    return (far <= r_out) & (near >= r_in), (near <= r_out) & (far >= r_in)


def _cut_rows(patch: CellPatch, laters, slots: int, table, src, rings: _RingRows, flat, frame):
    """(pts, w, cell_id, straddle) of the rows src of table, a sample table
    of the patch (see _tri_samples), of the cut cells of a cell split (see
    CellSplit): each against its row of rings and against flat (a Rect or
    None), under laters, the circles of the later patches that meet the
    patch circle. frame (rows of src, 2) is the point each row's polygon is
    built about: its ring's centre, or the patch circle's for a row without
    a ring.

    A row's bounding circle, of radius rad about its point, holds its
    subcell, or its _bulge_box for an arc bulge. A row whose circle meets
    no boundary keeps its area, or gets w = 0 when the circle lies outside
    the region, in a ring's inner disk or in a later circle. Every other
    row gets w = NaN, and straddle = (polygons, areas, ins, outs, origins),
    the arguments of _geom.polygons_disks_area but a Rect's half-planes: the
    in-disks are the patch disk of a bulge and the ring's outer disk, the
    out-disks (slots of them) its inner disk and the later disks, each
    where its circle meets the row's.
    """
    pts, w, cid, rad = (x[src] for x in table[:4])
    n = len(pts)
    d = np.linalg.norm(pts - rings.c, axis=1)
    keep, edge = (d <= rings.r_out + rad) & (d > rings.r_in - rad), np.zeros(n, dtype=bool)
    if flat is not None:
        (x, y), (x0, x1, y0, y1) = pts.T, flat.bbox()
        keep &= (x + rad >= x0) & (x - rad <= x1) & (y + rad >= y0) & (y - rad <= y1)
        edge = ~((x - rad >= x0) & (x + rad <= x1) & (y - rad >= y0) & (y + rad <= y1))
    outer, inner, near = d > rings.r_out - rad, d <= rings.r_in + rad, []
    for lc in laters:
        dl = np.linalg.norm(pts - np.asarray(lc.center), axis=1)
        near.append(np.abs(dl - lc.radius) <= rad)
        keep &= near[-1] | (dl > lc.radius)
    rows = np.flatnonzero(keep & (edge | outer | inner | np.any(near, axis=0)))
    ins, outs = np.full((len(rows), 2, 3), np.nan), np.full((len(rows), slots, 3), np.nan)
    for disks, slot, meet, radius in ((ins, 1, outer[rows], rings.r_out), (outs, 0, inner[rows], rings.r_in)):
        disks[meet, slot] = np.column_stack([rings.c[rows][meet], radius[rows][meet]])
    for k, (lc, nr) in enumerate(zip(laters, near), start=1):
        outs[nr[rows], k] = (*lc.center, lc.radius)
    bulge = src[rows] - np.searchsorted(table[2], cid[rows]) == BULGE_SLOT
    ins[bulge, 0] = (*patch.circle.center, patch.circle.radius)
    straddle = (_subcell_corners(patch, table[2], src[rows], frame[rows]), w[rows], ins, outs, frame[rows])
    w = np.where(keep, w, 0.0)
    w[rows] = np.nan
    return pts, w, cid, straddle


def _disks_meet(d1: Disk, d2: Disk) -> bool:
    """Whether patch circle d1 meets d2, a later circle or a disk region, as the split decides it."""
    both = stack_rings([d1, d2])[0]
    return bool(_relation(both.c, both.r_out, both, _slack(both))[1][0, 1])


def _tri_samples(patch: CellPatch, t: np.ndarray):
    """Subcell samples of the patch's triangles t, built in one broadcast: a
    sample table (pts, w, cell_id, rad) of subcell centroids, areas, owning
    cell ids and the largest centroid-to-corner distance.

    Each triangle's subcells come in turn, followed, for a bulged arc cell,
    by one sample at the arc midpoint carrying the bulge area, its rad
    that of the bulge's _bulge_box (CellPatch._bulge_rad). Every operation acts on one
    triangle at a time, so a triangle's rows do not depend on t's others.
    Corners are not kept; _subcell_corners rebuilds them from a table whose
    t increases.
    """
    v = patch.corners[t]
    cents, areas = tri_subcentroids(v[:, 0], v[:, 1], v[:, 2], LEVEL)
    m = cents.shape[1]
    slot = np.ones((len(t), m + 1), dtype=bool)
    slot[:, m] = patch._bulged[t]
    pts = np.concatenate([cents, patch._arc_mid[t][:, None, :]], axis=1)[slot]
    cell_id = np.repeat(np.asarray(t)[:, None], m + 1, axis=1)[slot]
    # every subcell is its triangle scaled by 2^-LEVEL (an inverted one also
    # turned by pi), so rad is the triangle's largest barycentre-to-corner
    # distance over 2^LEVEL; the subcells at the corners reach that distance
    # from the barycentre, and no subcell reaches farther
    rad = np.where(np.arange(m + 1) < m, patch._far[t][:, None] / (1 << LEVEL), patch._bulge_rad[t][:, None])
    return pts, np.concatenate([areas, patch._arc_extra[t][:, None]], axis=1)[slot], cell_id, rad[slot]


def _subcell_corners(patch: CellPatch, cell_id, idx, origin) -> np.ndarray:
    """Polygons (k, 4, 2) of the samples idx of a sample table of the patch
    whose cell ids are cell_id (see _tri_samples): a subcell's three corners,
    the last one twice, or an arc bulge's _bulge_box; each relative to its
    row of origin (k, 2).

    A corner is (V[a] - origin) + w_b (V[b] - V[a]) / n + w_c (V[c] - V[a]) / n,
    its vertices ordered by (zero weight, vertex id): a lattice point on an
    edge or at a vertex takes the same bits from every triangle that has it
    and the same origin, so the subcells of neighbouring cells meet without
    a gap. About a nearby origin the corners round to their own size, not
    to that of their coordinates."""
    t = cell_id[idx]
    j = idx - np.searchsorted(cell_id, t)  # position within the triangle's block
    _, lattice = subdivision_lattice(LEVEL)
    n, m = 1 << LEVEL, len(lattice)
    tri = patch.tris[t]
    out = np.empty((len(idx), 4, 2))
    for c in range(3):  # corner by corner keeps the temporaries (k, 3)
        ij = lattice[np.minimum(j, m - 1), c]
        wt = np.column_stack([n - ij[:, 0] - ij[:, 1], ij])  # weights of the triangle's vertices
        order = np.argsort(np.where(wt == 0, tri + len(patch.verts), tri), axis=1)
        vid, wt = np.take_along_axis(tri, order, axis=1), np.take_along_axis(wt, order, axis=1)
        va = patch.verts[vid[:, 0]]
        out[:, c] = (va - origin + wt[:, 1:2] * (patch.verts[vid[:, 1]] - va) / n
                     + wt[:, 2:] * (patch.verts[vid[:, 2]] - va) / n)
    out[:, 3] = out[:, 2]
    arc = j == m
    out[arc] = patch._bulge_box[t[arc]] - origin[arc, None]
    return out

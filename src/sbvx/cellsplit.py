"""The cell split of a patch stack over a stack of regions: the one
decomposition that every bulk integral of a DiscreteSbvMap reads.

A cell whose bounding circle lies in a region and clear of every later
patch circle is whole there and enters the integrals exactly; the cells that
a region or a later circle cuts enter by their visible subcell samples.
"""
from __future__ import annotations

from dataclasses import fields
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _geom
from .errors import ToolkitError
from .quadrature import Disk, subdivision_lattice, tri_subcentroids
from .vexp import CellTerms, affine_coefficients, luxembourg_from_samples

if TYPE_CHECKING:
    from .sbv2d import CellPatch


class CellSplit:
    """Split of the visible cells of a patch stack over a stack of regions:
    disks and annuli, or one region of any kind (None for the whole domain,
    or a Rect). It holds the whole cells, and the samples of the others.

    Each patch is classified against every region's rings first (see
    _patch_relation): a region that misses the patch, or that a later
    circle covers, takes nothing of it. Each triangle is then classified
    by its bounding circle (barycentre, CellPatch._reach), with _margin to
    spare, against the region (_region_relation) and the later circles
    (_later_relation); all regions and triangles of a patch in one
    broadcast. A cell is whole in a region when its circle lies in the
    region and clear of every later circle, or lies clear of them in a
    region that holds the patch: every subcell sample of it keeps its full
    area (see samples). A region without rings holds no cell whole. A cell
    whose circle lies in a later circle is hidden, and adds nothing. Every
    other cell whose circle meets the region is cut.

    A cut cell's samples are built from its triangle alone (see
    _tri_samples), then kept or dropped below the later circles and clipped
    to the region (see _visible_in_patch): in a disk region a subcell
    straddling its boundary carries its exact clipped area, an annulus
    being its outer disk minus its inner one; a region holding the patch
    clips nothing; a subcell meeting a later patch circle carries its
    refined area (see _refined_weights). An arc bulge contributes a sample
    at the arc midpoint carrying the segment area. Every operation acts on
    one sample at a time, so a cell's rows are those of its triangle alone,
    and each region's arrays, bit for bit, those of its stack of one.

    Fields, read-only: whole[whole_bounds[k]:whole_bounds[k + 1]] are the
    flat ids of region k's whole cells, and rows bounds[k] to bounds[k + 1]
    of (pts, w, cell) its samples: the arc-midpoint sample of each whole
    bulged arc cell, then the cut cells' visible samples, patch by patch,
    each cell in turn. gmag, area and corners are the per-cell data of the
    stack, indexed by flat cell id. The split keeps its sampled view and the
    CellTerms of its latest affine exponent.
    """

    def __init__(self, patches, cell_data, regions, level: int):
        self.patches, self.level = patches, level
        self.gmag, self.area, self.corners = cell_data
        self._terms = (None, None)  # ((p0, a), CellTerms) of the latest affine exponent
        rings, flat = stack_rings(regions)
        offsets = np.cumsum([0] + [len(p.tris) for p in patches])
        wholes, parts = [], []
        for i, patch in enumerate(patches):
            laters = [q.circle for q in patches[i + 1 :] if _disks_meet(patch.circle, q.circle)]
            live, inside = _patch_relation(patch.circle, laters, rings)
            if not live.any():
                continue
            clear, hidden = _later_relation(patch, laters)
            held = np.full((len(live), len(patch.tris)), flat is None)
            meets = np.ones_like(held)
            cut = np.flatnonzero(live & ~inside)
            if len(cut):
                held[cut], meets[cut] = _region_relation(patch, rings.take(cut))
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
        self.whole_bounds = np.concatenate([[0], np.cumsum(np.bincount(reg, minlength=len(regions)))])
        empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        pts, w, cell, reg = (np.concatenate(col) for col in zip(empty, *parts))
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
                tpts, tw, tcell, _ = _tri_samples(patch, self.level, t)
                rows = (1 << 2 * self.level) + patch._bulged[t]  # 4^level subcells and the bulge
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


def stack_rings(regions):
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
    that meet its circle: the samples of the cut cells of a cell split (see
    CellSplit). Each sample is
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
    """Subcell samples of the patch's triangles t, built in one broadcast: a
    sample table (pts, w, cell_id, rad) of subcell centroids, areas, owning
    cell ids and the largest centroid-to-corner distance.

    Each triangle's subcells come in turn, followed, for a bulged arc cell,
    by one sample at the arc midpoint carrying the bulge area (its corners
    collapse onto that point, so its rad is 0). Every operation acts on one
    triangle at a time, so a triangle's rows do not depend on t's others.
    Corners are not kept; _subcell_corners rebuilds them from a table whose
    t increases.
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


def _subcell_corners(patch: CellPatch, level: int, pts, cell_id, idx) -> np.ndarray:
    """Corners (k, 3, 2) of the samples idx of a sample table (pts, cell_id)
    of the patch (see _tri_samples)."""
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

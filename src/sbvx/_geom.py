"""Planar geometric primitives: segment/disk clipping, triangle-disk areas,
segment intersection tests, convex hulls.

Everything here is exact up to floating point; no sampling. Segment arrays
are stored as (n, 2) endpoint pairs.
"""
from __future__ import annotations

import numpy as np

EPS = 1e-12


def seg_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean lengths of segments a[i] -> b[i]."""
    return np.linalg.norm(np.asarray(b) - np.asarray(a), axis=-1)


def segment_disk_interval(a, b, center, radius):
    """Parameter interval [lo, hi] ⊂ [0, 1] of each segment a->b inside the
    closed disk.

    Solves |a + t(b-a) - c|^2 = r^2 and clamps the roots to [0, 1]; a segment
    that misses the disk, touches it at one point, or is degenerate (b = a)
    gets lo = hi = 0. One centre (2,) and one radius give
    shape (n,). Stacks of disks broadcast: centres (..., 2) with radii (...)
    give (..., n), each row equal to the call for its disk alone.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.asarray(center, dtype=float)
    # a float squares through pow(), an array by multiplying, and the two
    # differ in the last bit now and then: a stack squares each radius as a float
    if np.ndim(radius):
        r2 = np.reshape([r**2 for r in np.ravel(radius).tolist()], np.shape(radius) + (1,))
    else:
        r2 = radius**2
    d = b - a
    f = a - c[..., None, :]
    A = np.einsum("ij,ij->i", d, d)
    B = 2.0 * np.einsum("...ij,ij->...i", f, d)
    C = np.einsum("...ij,...ij->...i", f, f) - r2
    disc = B * B - 4.0 * A * C
    ok = (disc > 0) & (A > 0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    den = 2.0 * np.where(ok, A, 1.0)
    lo = np.where(ok, np.clip((-B - sq) / den, 0.0, 1.0), 0.0)
    hi = np.where(ok, np.clip((-B + sq) / den, 0.0, 1.0), 0.0)
    return lo, hi


def segment_disk_length(a, b, center, radius) -> np.ndarray:
    """Length of (segment a->b) ∩ (closed disk) for each segment; shapes as
    in segment_disk_interval, and C-contiguous."""
    lo, hi = segment_disk_interval(a, b, center, radius)
    d = np.atleast_2d(np.asarray(b, dtype=float)) - np.atleast_2d(np.asarray(a, dtype=float))
    return (hi - lo) * np.sqrt(np.einsum("ij,ij->i", d, d))


def split_segments_at_circle(a, b, center, radius):
    """Cut segments a->b at a circle.

    Returns (inside, outside), each a triple (a2, b2, src): the pieces in the
    closed disk (at most one per segment) and outside the open disk (at most
    two per segment), in input order, with the index of the segment each
    piece comes from. A segment that the circle does not cut is outside
    whole, endpoints unchanged. Pieces no longer than EPS are dropped, and
    degenerate segments (b = a) give none.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    lo, hi = segment_disk_interval(a, b, center, radius)
    d = b - a
    A = np.einsum("ij,ij->i", d, d)
    L = np.sqrt(A)
    cut = hi > lo
    p = a + lo[:, None] * d
    q = a + hi[:, None] * d
    inner = cut & ((hi - lo) * L > EPS)
    # slot 0: the whole segment or the piece before the disk; slot 1: the piece after it
    keep = np.stack([(A > 0) & (~cut | (lo * L > EPS)), cut & ((1.0 - hi) * L > EPS)], axis=1)
    starts = np.stack([a, q], axis=1)[keep]
    ends = np.stack([np.where(cut[:, None], p, b), b], axis=1)[keep]
    return (p[inner], q[inner], np.flatnonzero(inner)), (starts, ends, np.nonzero(keep)[0])


def point_segment_distance(x, a, b) -> np.ndarray:
    """Distances from points x (m,2) to segments (a,b) (n,2): result (m,n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d = b - a  # (n,2)
    L2 = np.maximum(np.einsum("ij,ij->i", d, d), EPS**2)
    w = x[:, None, :] - a[None, :, :]  # (m,n,2)
    t = np.clip(np.einsum("mnj,nj->mn", w, d) / L2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * d[None, :, :]
    return np.linalg.norm(x[:, None, :] - proj, axis=-1)


def segments_intersect(p0, p1, q0, q1) -> np.ndarray:
    """Whether segment p0->p1 intersects each segment q0[i]->q1[i].

    Touching configurations (endpoint on the other segment) count as
    intersections; collinear overlap counts too. p0 and p1 are points (2,)
    giving a result of shape (n,), or broadcast to stacks (m, 2) giving one
    row per segment, (m, n); every row is computed exactly as the single
    segment would be. Every test is relative, so the result does not depend
    on the scale: the segments are parallel when their cross product is at
    most EPS |r| |s| (r, s their direction vectors), collinear when q0 lies
    within EPS (|r| + |s| + |q0 - p0|) of each one's line, and the parameter
    tests allow EPS of slack. A segment of length 0 is a point.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    single = p0.ndim == 1 and p1.ndim == 1
    p0, p1 = np.broadcast_arrays(np.atleast_2d(p0), np.atleast_2d(p1))
    q0 = np.atleast_2d(np.asarray(q0, dtype=float))
    q1 = np.atleast_2d(np.asarray(q1, dtype=float))
    r = p1 - p0  # (m,2)
    s = q1 - q0  # (n,2)
    rn = np.hypot(r[:, 0], r[:, 1])[:, None]  # (m,1)
    sn = np.hypot(s[:, 0], s[:, 1])  # (n,)
    denom = r[:, None, 0] * s[:, 1] - r[:, None, 1] * s[:, 0]
    qp = q0 - p0[:, None, :]  # (m,n,2)
    t_num = qp[..., 0] * s[:, 1] - qp[..., 1] * s[:, 0]
    u_num = qp[..., 0] * r[:, None, 1] - qp[..., 1] * r[:, None, 0]
    out = np.zeros(denom.shape, dtype=bool)
    nonpar = np.abs(denom) > EPS * rn * sn
    if np.any(nonpar):
        t = t_num[nonpar] / denom[nonpar]
        u = u_num[nonpar] / denom[nonpar]
        out[nonpar] = (t >= -EPS) & (t <= 1 + EPS) & (u >= -EPS) & (u <= 1 + EPS)
    par = ~nonpar
    if np.any(par):
        # parallel: intersect iff collinear and the 1D intervals overlap
        qpn = np.hypot(qp[..., 0], qp[..., 1])
        size = EPS * (rn + sn + qpn)
        coll = par & (np.abs(t_num) <= size * sn) & (np.abs(u_num) <= size * rn)
        for i in np.flatnonzero(coll.any(axis=1)):
            ci = coll[i]
            rr = float(r[i] @ r[i])
            if rr > 0:  # q's ends as parameters along p
                t0 = (qp[i][ci] @ r[i]) / rr
                t1v = t0 + (s[ci] @ r[i]) / rr
                lo = np.minimum(t0, t1v)
                hi = np.maximum(t0, t1v)
                out[i, ci] = (hi >= -EPS) & (lo <= 1 + EPS)
            else:  # p is a point: its parameter along q, or whether it is q's point
                ss = np.einsum("ij,ij->i", s[ci], s[ci])
                tau = -np.einsum("ij,ij->i", qp[i][ci], s[ci]) / np.where(ss > 0, ss, 1.0)
                out[i, ci] = np.where(ss > 0, (tau >= -EPS) & (tau <= 1 + EPS), qpn[i, ci] == 0)
    return out[0] if single else out


def triangle_areas(v0, v1, v2) -> np.ndarray:
    """Unsigned areas of triangles."""
    v0, v1, v2 = (np.atleast_2d(np.asarray(v)) for v in (v0, v1, v2))
    cr = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (v2[:, 0] - v0[:, 0]) * (
        v1[:, 1] - v0[:, 1]
    )
    return 0.5 * np.abs(cr)


def polygon_area(pts: np.ndarray) -> float:
    """Shoelace area of a simple polygon (vertices in order)."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygons_disk_area(polys: np.ndarray, center, radius) -> np.ndarray:
    """Exact areas of (simple polygon) ∩ (disk) for a batch, via Green's theorem.

    polys is (n, m, 2): n polygons of m vertices each, in either orientation.
    One centre (2,) and radius serve every polygon; centres (n, 2) and radii
    (n,) give each polygon its own disk, with the operations, and so the
    bits, of its own call.
    Each edge is cut at its circle crossings into at most three pieces; a
    piece inside the disk contributes the triangle it spans with the circle
    centre, a piece outside contributes the circular sector it subtends. An
    edge without crossings (tangent ones included) is outside.
    Edges and pieces shorter than EPS contribute nothing, so polygons with
    coincident vertices (down to a single point) are handled. A polygon none
    of whose pieces lies inside either holds the disk, its sectors summing
    to the disk's area, or misses it: its area is then exactly 0, not the
    round-off of its cancelling sectors.
    """
    p = np.asarray(polys, dtype=float) - np.reshape(np.asarray(center, dtype=float), (-1, 1, 2))
    x, y = p[..., 0], p[..., 1]
    signed = 0.5 * (
        np.sum(x * np.roll(y, -1, axis=1), axis=1) - np.sum(y * np.roll(x, -1, axis=1), axis=1)
    )
    p = np.where((signed < 0)[:, None, None], p[:, ::-1], p)  # force ccw
    A = p[:, :, None, :]  # (n, m, 1, 2) edge starts
    d = np.roll(p, -1, axis=1)[:, :, None, :] - A
    dd = np.sum(d * d, axis=-1)
    live = dd > EPS * EPS
    dd_safe = np.where(live, dd, 1.0)
    r2 = np.reshape(np.multiply(radius, radius, dtype=float), (-1, 1, 1))
    bq = 2.0 * np.sum(A * d, axis=-1)
    cq = np.sum(A * A, axis=-1) - r2
    disc = bq * bq - 4.0 * dd * cq
    sq = np.sqrt(np.where(disc > 0, disc, 0.0))
    # crossings clamped to [0, 1]; without one the pieces collapse onto t = 0
    t_lo = np.clip((-bq - sq) / (2 * dd_safe), 0.0, 1.0) * (disc > 0)
    t_hi = np.clip((-bq + sq) / (2 * dd_safe), 0.0, 1.0) * (disc > 0)
    t0 = np.concatenate([np.zeros_like(t_lo), t_lo, t_hi], axis=-1)[..., None]  # (n, m, 3, 1)
    t1 = np.concatenate([t_lo, t_hi, np.ones_like(t_lo)], axis=-1)[..., None]
    P = A + t0 * d
    Q = A + t1 * d
    mid = A + 0.5 * (t0 + t1) * d
    # an edge that does not cross the circle lies outside it, tangent or not;
    # a piece no longer than EPS is a sector, never inside: it still adds its
    # share, for dropped it would open the contour by its length times its
    # distance to the centre, which a thin polygon far from it cannot spare
    inside = (disc > 0) & ((t1 - t0)[..., 0] > EPS) & (np.sum(mid * mid, axis=-1) <= r2)
    # P x Q as (t1 - t0) (A x d), and the sector's angle from it and P . Q:
    # both keep their digits on a piece short beside its distance to the
    # centre, where P x Q and a difference of two arctan2 would cancel
    cross = (t1 - t0)[..., 0] * (A[..., 0] * d[..., 1] - A[..., 1] * d[..., 0])
    da = np.arctan2(cross, np.sum(P * Q, axis=-1))
    piece = np.where(inside, 0.5 * cross, 0.5 * r2 * da)
    piece = np.where(live, piece, 0.0).reshape(len(p), 3 * p.shape[1])
    # summed in edge order; a pairwise np.sum would round the cancelling pieces differently
    total = np.zeros(len(p))
    for j in range(piece.shape[1]):
        total += piece[:, j]
    enters = (inside & live).any(axis=(1, 2))
    return np.where(enters | (np.abs(total) > 0.5 * np.pi * r2.ravel()), np.abs(total), 0.0)


def polygon_disk_area(pts: np.ndarray, center, radius: float) -> float:
    """Exact area of (simple polygon) ∩ (disk); see polygons_disk_area."""
    return float(polygons_disk_area(np.asarray(pts, dtype=float)[None], center, radius)[0])


def tri_disk_area(v0, v1, v2, center, radius: float) -> float:
    """Exact area of triangle ∩ disk."""
    return polygon_disk_area(np.array([v0, v1, v2], dtype=float), center, radius)


def circular_segment_area(radius: float, chord_p0, chord_p1, center) -> np.ndarray:
    """Area of the circular segment cut by chord p0-p1 (minor side); chord
    ends (..., 2) give areas (...)."""
    c = np.asarray(center, dtype=float)
    d0 = np.asarray(chord_p0, dtype=float) - c
    d1 = np.asarray(chord_p1, dtype=float) - c
    da = np.abs(np.arctan2(d1[..., 1], d1[..., 0]) - np.arctan2(d0[..., 1], d0[..., 0]))
    da = np.where(da > np.pi, 2 * np.pi - da, da)
    return 0.5 * radius * radius * (da - np.sin(da))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts
    # the chain runs on Python floats: the same double arithmetic as numpy
    # scalars, without their per-operation overhead
    pts = pts.tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for q in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper: list = []
    for q in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return np.asarray(lower[:-1] + upper[:-1])


def points_in_convex_polygon(x: np.ndarray, poly: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Membership of points x (m,2) in a ccw convex polygon."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    e0 = poly
    e1 = np.roll(poly, -1, axis=0)
    d = e1 - e0  # (p,2)
    w = x[:, None, :] - e0[None, :, :]  # (m,p,2)
    cr = d[None, :, 0] * w[:, :, 1] - d[None, :, 1] * w[:, :, 0]
    return np.all(cr >= -tol, axis=1)


def convex_polygon_counts(x: np.ndarray, polys, tol: float = 1e-12) -> np.ndarray:
    """How many of the ccw convex polygons hold each point of x (m,2), each
    membership as points_in_convex_polygon decides it. A polygon tests only
    the points in its bounding box widened by twice its tolerance's reach:
    cr >= -tol admits points tol / |edge| outside an edge's line, and a
    vertex where the edges turn by phi moves out by 1 / cos(phi / 2) of that.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    counts = np.zeros(len(x), dtype=int)
    for poly in polys:
        d = np.roll(poly, -1, axis=0) - poly
        L = np.hypot(d[:, 0], d[:, 1])
        cos_turn = np.sum(d * np.roll(d, 1, axis=0), axis=1) / (L * np.roll(L, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = 2 * tol / (L.min() * np.sqrt((1 + cos_turn.min()) / 2))
        if not margin < np.inf:  # degenerate polygon: test every point
            margin = np.inf
        lo, hi = poly.min(axis=0) - margin, poly.max(axis=0) + margin
        box = np.flatnonzero(np.all((x >= lo) & (x <= hi), axis=1))
        counts[box] += points_in_convex_polygon(x[box], poly, tol)
    return counts


def hull_of_disks(centers: np.ndarray, radii: np.ndarray, narc: int = 48) -> np.ndarray:
    """Polygonal convex hull of a union of disks (narc points per circle)."""
    th = np.linspace(0.0, 2 * np.pi, narc, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    pts = np.concatenate(
        [c + r * ring for c, r in zip(np.atleast_2d(centers), np.atleast_1d(radii))]
    )
    return convex_hull(pts)


def clip_halfplanes(polys: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Convex polygons clipped by half-planes, one vectorised
    Sutherland-Hodgman pass per half-plane.

    polys (n, m, 2): convex polygons, each padded to m vertices by repeating
    one. planes (n, k, 3), or (k, 3) for every polygon: rows (ax, ay, b),
    each keeping {x : ax x + ay y >= b}. Returns (n, m', 2), padded by
    repeating each last vertex; a polygon clipped away is m' copies of one
    point, and one that a half-plane holds keeps its vertices as they were.
    """
    out = np.asarray(polys, dtype=float)
    n = len(out)
    planes = np.broadcast_to(np.asarray(planes, dtype=float), (n,) + np.shape(planes)[-2:])
    for k in range(planes.shape[1]):
        s = out[..., 0] * planes[:, k, None, 0] + out[..., 1] * planes[:, k, None, 1] - planes[:, k, None, 2]
        inside = s >= 0
        cross = inside != np.roll(inside, -1, axis=1)
        t = np.where(cross, s / np.where(cross, s - np.roll(s, -1, axis=1), 1.0), 0.0)
        hit = out + t[..., None] * (np.roll(out, -1, axis=1) - out)
        # each edge gives its start when inside, then its crossing: the cyclic order
        cand = np.stack([out, hit], axis=2).reshape(n, 2 * out.shape[1], 2)
        valid = np.stack([inside, cross], axis=2).reshape(n, 2 * out.shape[1])
        count = valid.sum(axis=1)
        order = np.argsort(~valid, axis=1, kind="stable")[:, : max(int(count.max(initial=0)), 1)]
        last = np.take_along_axis(order, np.maximum(count - 1, 0)[:, None], axis=1)
        order = np.where(np.arange(order.shape[1]) < count[:, None], order, last)
        out = np.take_along_axis(cand, order[..., None], axis=1)
    return out


def polygons_disks_area(polys: np.ndarray, area, ins: np.ndarray, outs: np.ndarray, planes=None,
                        origin=None) -> np.ndarray:
    """Exact area of each convex polygon cut by its half-planes and its
    in-disks, less the union of its out-disks.

    polys and planes (or None) are as clip_halfplanes takes them, each
    polygon relative to its row of origin (n, 2) when given; area (n,) is
    each polygon's area, used where it has no in-disk and no half-plane.
    ins (n, ki, 3) and outs (n, ko, 3) are disks (cx, cy, r), NaN radius for
    an empty slot. The planes and disks are in the coordinates of origin;
    each moves to a polygon's frame as one shift, the same for every row of
    one origin. The out-disks enter by inclusion-exclusion; the polygon
    cut by several disks splits into their farthest power cells V_i = {x :
    |x - c_i|^2 - r_i^2 >= |x - c_j|^2 - r_j^2 for all j}, a tie going to
    the lower slot (Aurenhammer, SIAM J. Comput. 16, 1987), each meeting
    one disk (polygons_disk_area). Each row adds its own terms in a fixed
    order, so it has the bits of its own call, and of polygons_disk_area
    against one disk; it is exactly 0 when an out-disk holds an in-disk or
    every vertex of the clipped polygon.
    """
    polys = np.asarray(polys, dtype=float)
    n = len(polys)
    origin = np.zeros((n, 1, 2)) if origin is None else np.reshape(np.asarray(origin, dtype=float), (n, 1, 2))
    first = np.zeros((n, 1, 2))
    if planes is not None:  # clipped about each polygon's first vertex, where a nearby edge's offset is exact
        first = polys[:, :1]
        planes = np.broadcast_to(np.asarray(planes, dtype=float), (n,) + np.shape(planes)[-2:])
        b = planes[..., 2] - planes[..., 0] * origin[..., 0] - planes[..., 1] * origin[..., 1]
        b = b - planes[..., 0] * first[..., 0] - planes[..., 1] * first[..., 1]
        polys = clip_halfplanes(polys - first, np.concatenate([planes[..., :2], b[..., None]], axis=-1))
        x, y = polys[..., 0], polys[..., 1]
        area = 0.5 * np.abs(np.sum(x * np.roll(y, -1, axis=1) - y * np.roll(x, -1, axis=1), axis=1))
    repeats = np.all(polys == np.roll(polys, 1, axis=1), axis=(0, 2))  # a vertex that every row repeats
    polys = polys[:, ~repeats | (np.arange(polys.shape[1]) == 0)]
    ins, outs = (d[:, np.isfinite(d[..., 2]).any(axis=0)] for d in (np.asarray(ins, float), np.asarray(outs, float)))
    bare = ~np.isfinite(ins[..., 2]).any(axis=1)
    rows, terms = [np.flatnonzero(bare)], [np.asarray(area, dtype=float)[bare]]
    for subset in range(1 << outs.shape[1]):
        member = [k for k in range(outs.shape[1]) if subset >> k & 1]
        disks = np.concatenate([ins, outs[:, member]], axis=1)
        present = np.isfinite(disks[..., 2]) & np.isfinite(outs[:, member, 2]).all(axis=1)[:, None]
        for i in range(disks.shape[1]):
            r = np.flatnonzero(present[:, i])
            if not len(r):
                continue
            d, c = disks[r], disks[r, i, None, :2]
            delta = d[..., :2] - c
            b = np.sum(delta * delta, axis=-1) + d[:, i, None, 2] ** 2 - d[..., 2] ** 2
            b[(delta == 0).all(axis=-1) & (b == 0) & (np.arange(d.shape[1]) < i)] = 1.0  # an identical disk before i
            cuts = np.concatenate([2 * delta, b[..., None]], axis=-1)
            cuts[~present[r]] = (0.0, 0.0, -1.0)  # an empty slot keeps the whole plane
            piece = clip_halfplanes(polys[r] + ((origin[r] - c) + first[r]), np.delete(cuts, i, axis=1))
            rows.append(r)
            terms.append((-1.0) ** len(member) * polygons_disk_area(piece, np.zeros(2), d[:, i, 2]))
    total = np.bincount(np.concatenate(rows), weights=np.concatenate(terms), minlength=n)  # in order, from 0.0
    for o in range(outs.shape[1]):  # not the round-off of cancelling terms
        for i in range(ins.shape[1]):
            gap = outs[:, o, :2] - ins[:, i, :2]
            total[np.hypot(gap[:, 0], gap[:, 1]) + ins[:, i, 2] <= outs[:, o, 2]] = 0.0
        gap = polys + ((origin - outs[:, o, None, :2]) + first)
        total[np.all(np.hypot(gap[..., 0], gap[..., 1]) <= outs[:, o, None, 2], axis=1)] = 0.0
    return total


def stadium_polygon(a, b, width: float, narc: int = 16) -> np.ndarray:
    """Polygonal approximation of {x : dist(x, segment ab) < width}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    L = np.linalg.norm(d)
    if L <= EPS:
        th = np.linspace(0, 2 * np.pi, 2 * narc, endpoint=False)
        return a + width * np.stack([np.cos(th), np.sin(th)], axis=1)
    t = d / L
    base = np.arctan2(t[1], t[0])
    th_b = base - np.pi / 2 + np.linspace(0, np.pi, narc)
    th_a = base + np.pi / 2 + np.linspace(0, np.pi, narc)
    cap_b = b + width * np.stack([np.cos(th_b), np.sin(th_b)], axis=1)
    cap_a = a + width * np.stack([np.cos(th_a), np.sin(th_a)], axis=1)
    return np.concatenate([cap_b, cap_a])


def polyline_arclength_points(a: np.ndarray, b: np.ndarray, spacing: float) -> np.ndarray:
    """Arc-length-uniform points on a family of segments, spacing <= given."""
    pts = []
    for i in range(len(a)):
        L = float(np.linalg.norm(b[i] - a[i]))
        if L <= EPS:
            continue
        n = max(2, int(np.ceil(L / spacing)) + 1)
        t = np.linspace(0.0, 1.0, n)
        pts.append(a[i] + t[:, None] * (b[i] - a[i]))
    if not pts:
        return np.zeros((0, 2))
    return np.concatenate(pts)

"""Deterministic test maps: disk meshes and the synthesis kinds."""
from __future__ import annotations

import numpy as np

from . import _geom
from .errors import ConstructionError, ToolkitError
from .quadrature import Disk
from .sbv2d import CellPatch, DiscreteSbvMap, JumpSet

__all__ = ["synthesize", "fan_mesh", "delaunay_disk_mesh", "two_constant_map"]


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
        # the regular n_sides-gon of perimeter budget about loop_center, at a random phase
        th = 2 * np.pi * rng.random() + 2 * np.pi * np.arange(n_sides) / n_sides
        loop = loop_center + r_loop * np.stack([np.cos(th), np.sin(th)], axis=1)
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
        inside = _geom.points_in_convex_polygon(bc, _geom.convex_hull(loop))
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

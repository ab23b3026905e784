"""Local piecewise-affine approximation, jump covering by ball families, and
the iterated global replacement that removes the jump inside a smaller disk.

The local step picks a good radius R inside a ball carrying little jump,
adapts the dyadic grid to the jump, and replaces the map by the affine
interpolant of its vertex values on B_R. The global step covers the jump of
the map by balls found through a dyadic density window, splits them into
pairwise-disjoint families, and applies the local step ball by ball; family
l consumes the iterate produced by family l-1. Residual jump left between
replacement disks is re-covered in further rounds until the target disk is
jump free. The global step runs only the construction of the local step and
measures the estimates once, on its final map.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _geom
from .dyadic_grid import adapt_to_jump, build_grid, select_good_radius
from .errors import (
    AdaptationError,
    JumpBudgetError,
    SearchExhaustedError,
    ToolkitError,
    WindowNotFoundError,
)
from .quadrature import Disk
from .sbv2d import CellPatch, DiscreteSbvMap, total_variation_parts, value_gap

__all__ = ["BallFamily", "ApproxReport", "local_phi", "cover_jump", "global_approx",
           "project_to_sphere_stage"]

XI_CAP = 16
WINDOW_BLOCK = 64  # density-window centres measured per call: bounds its (block, 8, n) arrays
RADIUS_BLOCK = 8  # dyadic radii per centre measured per call; the first dense k is 2-4 in the corpus
SPACING_CAP = 400  # cover_jump samples the jump at no finer than total length / SPACING_CAP
MAX_ROUNDS = 6  # covering rounds global_approx runs before it gives up on the residual
RESID_TOL_FACTOR = 1e-9  # residual jump in B_{s rho} below this * rho counts as empty
NEW_JUMP_TOL_FACTOR = 1e-9  # a jump piece farther than this * rho from u's jump is new


@dataclass(frozen=True)
class BallFamily:
    """Cover of a jump set by balls split into pairwise-disjoint families."""

    centers: np.ndarray  # (n, 2)
    radii: np.ndarray  # (n,)
    family_index: np.ndarray  # (n,) values in 1..xi_hat
    xi_hat: int
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.radii)

    def bounds(self, eta: float, rho: float, h1: float, center) -> tuple:
        """The covering bounds of the family over a jump of length h1:
        (2 pi xi/eta h1, min(2 pi xi/eta rho h1, pi (xi/eta h1)^2),
        max |c - center| + r), xi the number of families."""
        xi = self.xi_hat
        return (
            2 * np.pi * xi / eta * h1,
            float(min(2 * np.pi * xi / eta * rho * h1, np.pi * (xi / eta * h1) ** 2)),
            float(np.max(np.linalg.norm(self.centers - center, axis=1) + self.radii)),
        )

    def balls_of(self, j: int):
        sel = self.family_index == j
        return self.centers[sel], self.radii[sel]

    def merged_with(self, other: "BallFamily") -> "BallFamily":
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        return BallFamily(
            centers=np.concatenate([self.centers, other.centers]),
            radii=np.concatenate([self.radii, other.radii]),
            family_index=np.concatenate(
                [self.family_index, other.family_index + self.xi_hat]
            ),
            xi_hat=self.xi_hat + other.xi_hat,
            stats=dict(self.stats),
        )

    def to_json(self) -> dict:
        return {
            "centers": self.centers.tolist(),
            "radii": self.radii.tolist(),
            "family_index": self.family_index.tolist(),
            "xi_hat": self.xi_hat,
            "stats": self.stats,
        }

    @staticmethod
    def empty() -> "BallFamily":
        return BallFamily(np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int), 0, {})


@dataclass
class ApproxReport:
    w: DiscreteSbvMap
    family: BallFamily
    estimates: dict

    def to_json(self) -> dict:
        return {"family": self.family.to_json(), "estimates": self.estimates}


# ---------------------------------------------------------------------------
# local step
# ---------------------------------------------------------------------------


def _interpolant_patch(u: DiscreteSbvMap, adapted, center, R: float) -> CellPatch:
    """Piecewise-affine interpolant of u at the adapted vertices."""
    verts = adapted.verts
    tris = adapted.tris
    vv = u.value_at(verts)  # (nv, k)
    v0, v1, v2 = (verts[tris[:, i]] for i in range(3))
    E = np.stack([v1 - v0, v2 - v0], axis=1)  # (nt, 2, 2), rows e1, e2
    dV = np.stack([vv[tris[:, 1]] - vv[tris[:, 0]], vv[tris[:, 2]] - vv[tris[:, 0]]], axis=1)
    Einv = np.linalg.inv(E)
    # G satisfies G @ e_i = dv_i: G[k, j] = sum_i dv_i[k] (E^-1)[j, i]
    grads = np.einsum("nik,nji->nkj", dV, Einv)
    bc = (v0 + v1 + v2) / 3.0
    values = (vv[tris[:, 0]] + vv[tris[:, 1]] + vv[tris[:, 2]]) / 3.0
    on_b = adapted.base.on_boundary[tris]
    arc_cells = on_b.sum(axis=1) == 2
    return CellPatch(verts, tris, values, grads, Disk(tuple(center), R), arc_cells)


def _sup_norm_visible(u: DiscreteSbvMap) -> float:
    """Sup of |u| over corner evaluations of cells not fully overridden.

    A cell is hidden when one later patch circle, widened by 1e-12 of the
    domain radius, holds all three of its corners. The corner values are
    each patch's cached CellPatch.corner_norms, so a patch shared by several
    maps of a stack is evaluated once; a call computes only the visibility.
    """
    circles = [q.circle for q in u.patches]
    centers = np.array([c.center for c in circles], dtype=float)[:, None, None, :]
    reach = np.array([c.radius for c in circles], dtype=float)[:, None, None] + 1e-12 * u.domain.radius
    best = 0.0
    for i, patch in enumerate(u.patches):
        inside = np.linalg.norm(patch.verts[patch.tris] - centers[i + 1 :], axis=-1) <= reach[i + 1 :]
        visible = ~inside.all(axis=-1).any(axis=0)
        if visible.any():
            best = max(best, float(np.max(patch.corner_norms[visible])))
    return best


def local_phi(
    u: DiscreteSbvMap,
    p,
    eta: float,
    seed: int = 0,
    center=None,
    r: float | None = None,
    h_max: int = 5,
    radius_retries: int = 8,
    samples_per_vertex: int = 200,
):
    """Local approximation inside B_2r: returns (R, phi_map, report).

    phi agrees with u outside closure(B_R); inside it is the piecewise-affine
    interpolant of u at the jump-avoiding adapted vertices. The report
    carries the measured constants of every estimate the construction
    promises.
    """
    center = np.asarray(u.domain.center if center is None else center, dtype=float)
    if r is None:
        r = u.domain.radius / 2.0
    R, phi, jump_in_2r = _replace_in_ball(
        u, eta, seed, center, r, h_max, radius_retries, samples_per_vertex
    )

    ball_R = Disk(tuple(center), R)
    est, max_pow, gap = _measure(u, phi, p, ball_R)
    report = {"R": R, "center": center.tolist(), "eta": eta, **est}
    report["modular_bound_const"] = (
        est["modular_out"] / ((1 + R**2) * max_pow) if max_pow > 0 else 0.0
    )
    bulk, jmp = total_variation_parts(u, ball_R)
    du = bulk + jmp
    l1 = est["l1_distance"]
    report["l1_C_hat"] = l1 / (R * du) if du > 0 else (0.0 if l1 <= 1e-10 else np.inf)
    report["max_pointwise_distance"] = float(gap.max())

    # trace agreement band on the boundary circle (graft edges are chords)
    nb = 2**h_max
    th = 2 * np.pi * (np.arange(2 * nb) + 0.5) / (2 * nb)
    bpts = center + R * np.stack([np.cos(th), np.sin(th)], axis=1) * (1 - 1e-12)
    report["trace_band"] = float(np.max(value_gap(u, phi, bpts)))

    report["jump_in_2r"] = jump_in_2r
    report["jump_out_2r"] = phi.jump.length_in(Disk(tuple(center), 2 * r))
    report["jump_removed"] = jump_in_2r - report["jump_out_2r"]
    report["jump_new"] = _new_jump_length(phi, u)
    return R, phi, report


def _replace_in_ball(
    u: DiscreteSbvMap, eta: float, seed: int, center: np.ndarray, r: float,
    h_max: int = 5, radius_retries: int = 8, samples_per_vertex: int = 200,
):
    """The replacement of local_phi without its estimates: returns
    (R, phi, jump_in_2r). Each of up to radius_retries draws picks
    a good radius R and tries 16 rotations of the dyadic grid on B_R; phi is
    u with the interpolant patch of the first grid that adapts to the jump.
    """
    if radius_retries < 1:
        raise ToolkitError(f"radius_retries = {radius_retries!r}; it must be >= 1")
    jump_in_2r = u.jump.length_in(Disk(tuple(center), 2 * r))
    if jump_in_2r >= eta * 2 * r:
        raise JumpBudgetError(
            f"H1(J ∩ B_2r) = {jump_in_2r:.6g} >= eta*2r = {eta * 2 * r:.6g}"
        )

    rng = np.random.default_rng(seed)
    radius_err: Exception | None = None
    vertex_err: AdaptationError | None = None
    adapted = None
    R = None
    n_rot = 16
    n_radii = 0
    for _ in range(radius_retries):
        sub = int(rng.integers(0, 2**31 - 1))
        try:
            R = select_good_radius(u.jump, r, eta, seed=sub, center=center, h_max=h_max)
        except SearchExhaustedError as err:
            # kept without its traceback, which would tie this frame and its
            # maps into a reference cycle that only the cyclic GC frees
            radius_err = err.with_traceback(None)
            continue
        n_radii += 1
        base_rot = float(rng.uniform(0, 2 * np.pi))
        for irot in range(n_rot):
            # steering the coarse edges: rigid rotations of the vertex pattern
            grid = build_grid(R, h_max, center=center, rotation=base_rot + irot * np.pi / n_rot)
            try:
                adapted = adapt_to_jump(grid, u, samples_per_vertex=samples_per_vertex, seed=sub)
                break
            except AdaptationError as err:
                vertex_err = err.with_traceback(None)
                adapted = None
        if adapted is not None:
            break
    if adapted is None:
        if vertex_err is None:
            raise radius_err  # type: ignore[misc]
        raise AdaptationError(
            f"local_phi(seed={seed}, center={center.tolist()}, r={float(r)!r}): no jump-avoiding "
            f"grid in {n_radii} radii x {n_rot} rotations ({radius_retries} radius draws); "
            f"last: {vertex_err}",
            vertex=vertex_err.vertex,
        ) from vertex_err

    phi = u.with_patch(_interpolant_patch(u, adapted, center, R))
    return R, phi, jump_in_2r


def _measure(u: DiscreteSbvMap, w: DiscreteSbvMap, p, ball: Disk):
    """The estimates of a replacement w of u that the local and the global
    step both report, measured on ball.

    Returns (est, max_pow, gap): the gradient q-integrals for q = 1 and
    q = p_minus with their ratios c_hat, the two modulars, the Luxembourg
    norm of grad u, the L1 distance on a fixed disk rule and both sup norms;
    max(norm^p_minus, norm^p_plus) of that norm, which the modular bound
    divides by; and |u - w| at the rule's points.
    """
    est = {}
    for q, tag in ((1.0, "q1"), (p.p_minus, "q_pminus")):
        in_q = u.gradient_q_integral(q, ball)
        out_q = w.gradient_q_integral(q, ball)
        est[f"grad_{tag}_in"] = in_q
        est[f"grad_{tag}_out"] = out_q
        est[f"c_hat_{tag}"] = out_q / in_q if in_q > 0 else (0.0 if out_q <= 1e-12 else np.inf)
    est["modular_in"] = u.modular_of_gradient(p, ball)
    est["modular_out"] = w.modular_of_gradient(p, ball)
    norm_in = est["grad_norm_in"] = u.gradient_luxembourg_norm(p, ball)
    pts, wq = ball.rule(10, order=4)
    gap = value_gap(u, w, pts)
    est["l1_distance"] = float(np.sum(wq * gap))
    est["linf_in"] = _sup_norm_visible(u)
    est["linf_out"] = _sup_norm_visible(w)
    return est, max(norm_in**p.p_minus, norm_in**p.p_plus), gap


def _new_jump_length(w: DiscreteSbvMap, u: DiscreteSbvMap) -> float:
    """Length of parts of w's jump not geometrically inside u's jump."""
    if len(w.jump) == 0:
        return 0.0
    if len(u.jump) == 0:
        return w.jump.total_length
    tol = NEW_JUMP_TOL_FACTOR * u.domain.radius
    mids = 0.5 * (w.jump.a + w.jump.b)
    probes = [0.25 * w.jump.a + 0.75 * w.jump.b, mids, 0.75 * w.jump.a + 0.25 * w.jump.b]
    far = np.zeros(len(w.jump), dtype=bool)
    for pr in probes:
        far |= np.min(_geom.point_segment_distance(pr, u.jump.a, u.jump.b), axis=1) > tol
    if not far.any():
        return 0.0
    return float(np.sum(_geom.seg_lengths(w.jump.a[far], w.jump.b[far])))


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------


def _window_radii(J, xs, lams, eta: float, k_max: int = 60):
    """For each centre xs[i], the largest dyadic radius lams[i] / 2^k whose
    ball sees jump density >= eta, and that k; (None, None) where no k in
    1..k_max does.

    The radii are measured in blocks of RADIUS_BLOCK consecutive k, from
    k = 1: one segment-disk call measures the next block of every centre of
    a WINDOW_BLOCK that has no dense radius yet, so the search stops at the
    first dense k of each centre. Each row of the stacked call is bitwise
    its own disk's call, so the blocks give the same answer as one call over
    all k_max radii.
    """
    xs = np.reshape(xs, (-1, 1, 2))
    lams = np.asarray(lams, dtype=float)[:, None]
    out = [(None, None)] * len(xs)
    for i in range(0, len(xs), WINDOW_BLOCK):
        todo = np.arange(i, min(i + WINDOW_BLOCK, len(xs)))
        for k0 in range(1, k_max + 1, RADIUS_BLOCK):
            ks = np.arange(k0, min(k0 + RADIUS_BLOCK, k_max + 1))
            # lam * 2^-k by exponent shift: exactly lam / 2.0**k
            r = np.ldexp(lams[todo], -ks)
            seen = _geom.segment_disk_length(J.a, J.b, xs[todo], r).sum(axis=-1)
            dense = seen >= eta * r
            hit = dense.any(axis=1)
            first = np.argmax(dense, axis=1)
            for j in np.flatnonzero(hit):
                out[todo[j]] = (float(r[j, first[j]]), int(ks[first[j]]))
            todo = todo[~hit]
            if not len(todo):
                break
    return out


def cover_jump(
    u: DiscreteSbvMap,
    s: float,
    eta: float,
    rho: float | None = None,
    seed: int = 0,
) -> BallFamily:
    """Cover J_u ∩ B_{s rho} by balls found through the dyadic density window,
    greedily thinned and split into pairwise-disjoint families.

    Each ball B_r(x) satisfies eta r <= H1(J ∩ B_r) and, by dyadic
    maximality, H1(J ∩ B_2r) < 2 eta r; its radius is below (1-s) rho / 2.
    """
    rho = u.domain.radius if rho is None else rho
    center = np.asarray(u.domain.center, dtype=float)
    J = u.jump
    budget = J.length_in(Disk(tuple(center), rho))
    bound = eta * (1 - s) * rho / 2
    if budget >= bound:
        raise JumpBudgetError(f"H1(J ∩ B_rho) = {budget:.6g} >= eta(1-s)rho/2 = {bound:.6g}")
    if len(J) == 0:
        return BallFamily.empty()

    rng = np.random.default_rng(seed)
    # candidate centres: free polyline endpoints first (they give the
    # adaptation the most room around straight runs), then arc-length samples
    lens = _geom.seg_lengths(J.a, J.b)
    spacing = max(float(lens.min()) / 4.0, J.total_length / SPACING_CAP)
    ends = _free_endpoints(J)
    mids = _geom.polyline_arclength_points(J.a, J.b, spacing)
    in_s = lambda q: q[np.linalg.norm(q - center, axis=1) <= s * rho]  # noqa: E731
    ends, mids = in_s(ends), in_s(mids)
    if len(ends) == 0 and len(mids) == 0:
        return BallFamily.empty()

    def window_balls(cands):
        out = []
        lams = rng.uniform((1 - s) * rho, 2 * (1 - s) * rho, len(cands))
        for x, (rx, k) in zip(cands, _window_radii(J, cands, lams, eta)):
            if rx is None:
                raise WindowNotFoundError(
                    f"density window empty at {x} (eta = {eta}); refine sampling"
                )
            if rx >= (1 - s) * rho / 2:
                continue  # k = 1 draw, outside the admissible covering radius range
            out.append((x, rx))
        return out

    end_balls = window_balls(ends)
    mid_balls = window_balls(mids)
    if not end_balls and not mid_balls:
        raise WindowNotFoundError("no admissible window radii found")

    # greedy thinning: endpoint candidates first, then biggest balls first;
    # a candidate within half the radius of a kept ball is dropped
    balls = sorted(end_balls, key=lambda br: -br[1]) + sorted(mid_balls, key=lambda br: -br[1])
    cands = np.array([x for x, _ in balls])
    cand_r = np.array([rx for _, rx in balls])
    dist = _distances(cands)
    near = dist <= 0.5 * cand_r  # near[i, j]: a kept ball j covers candidate i
    kept = np.zeros(len(cands), dtype=bool)
    covered = np.zeros(len(cands), dtype=bool)
    for i in range(len(cands)):
        if not covered[i]:
            kept[i] = True
            covered |= near[:, i]
    centers, radii = cands[kept], cand_r[kept]

    # greedy family split: smallest family index without intra-family overlap
    overlap = dist[np.ix_(kept, kept)] <= radii[:, None] + radii
    order = np.argsort(-radii)
    fam = np.zeros(len(radii), dtype=int)
    for i in order:
        used = set(fam[overlap[i] & (fam > 0)].tolist())
        f = 1
        while f in used:
            f += 1
        fam[i] = f
    xi_hat = int(fam.max())
    if xi_hat > XI_CAP:
        raise ToolkitError(f"greedy colouring needed {xi_hat} families (cap {XI_CAP})")

    # measured max overlap at sampled points
    probe = centers[:, None, :] + radii[:, None, None] * 0.5 * _dirgrid(8)[None, :, :]
    probe = probe.reshape(-1, 2)
    counts = np.sum(np.linalg.norm(probe[:, None, :] - centers, axis=-1) <= radii, axis=1)
    family = BallFamily(centers, radii, fam, xi_hat)
    perimeter_bound, area_bound, reach = family.bounds(eta, rho, budget, center)
    family.stats.update({
        "n_balls": len(radii),
        "xi_hat": xi_hat,
        "eta": eta,
        "s": s,
        "rho": rho,
        "total_perimeter": float(np.sum(2 * np.pi * radii)),
        "total_area": float(np.sum(np.pi * radii**2)),
        "max_overlap": int(counts.max()),
        "h1_jump": budget,
        "perimeter_bound": perimeter_bound,
        "area_bound_min_form": area_bound,
        "max_center_norm_plus_radius": reach,
    })
    return family


def _distances(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j| for all pairs, each as the 1-D np.linalg.norm of the
    difference computes it: a dot product, which the stacked matmul repeats
    bit for bit where a sum over the last axis may round differently."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _dirgrid(n):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _free_endpoints(J) -> np.ndarray:
    """Endpoints that belong to exactly one segment (free chain ends).

    Endpoints are matched on a lattice of 1e-9 of the larger side of J's
    bounding box, laid from its lower corner, so the match does not depend on
    where J lies or on its scale."""
    pts = np.concatenate([J.a, J.b])
    lo = pts.min(axis=0)
    side = float((pts.max(axis=0) - lo).max())
    keys = np.round((pts - lo) / (1e-9 * side if side > 0 else 1.0)).astype(np.int64)
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return pts[counts[inv] == 1]


# ---------------------------------------------------------------------------
# global iteration
# ---------------------------------------------------------------------------


def global_approx(
    u: DiscreteSbvMap,
    p,
    s: float,
    eta: float,
    seed: int = 0,
    h_max: int = 5,
) -> ApproxReport:
    """Remove the jump of u inside B_{s rho} by iterated local replacement.

    Every covering ball B_r(x) satisfies the density window, hence the local
    step applies on it with smallness constant 2 eta; replacements stay
    strictly inside their ball, so w = u holds exactly outside the union.
    Jump remaining between replacement disks is re-covered in later rounds.
    Each ball runs the construction of local_phi without its estimates; only
    the final map w is measured, as the inequalities are checked on w.
    """
    rho = u.domain.radius
    center = np.asarray(u.domain.center, dtype=float)
    budget = u.jump.length_in(Disk(tuple(center), rho))
    bound = eta * (1 - s) * rho / 2
    if budget >= bound:
        raise JumpBudgetError(f"H1(J) = {budget:.6g} >= eta(1-s)rho/2 = {bound:.6g}")

    rng = np.random.default_rng(seed)
    w = u
    family = BallFamily.empty()
    s_disk = Disk(tuple(center), s * rho)
    resid_tol = RESID_TOL_FACTOR * rho
    rounds = 0
    while rounds < MAX_ROUNDS:
        resid = w.jump.length_in(s_disk)
        if resid <= resid_tol:
            break
        rounds += 1
        fam = cover_jump(w, s, eta, rho, seed=int(rng.integers(0, 2**31 - 1)))
        if len(fam) == 0:
            break
        for j in range(1, fam.xi_hat + 1):
            cs, rs = fam.balls_of(j)
            for x, rx in zip(cs, rs):
                # the ball is the B_2r of the local step; the window bound
                # H1(J ∩ B_r) < 2 eta r is exactly its hypothesis at 2 eta
                _, w, _ = _replace_in_ball(
                    w, 2 * eta, int(rng.integers(0, 2**31 - 1)), x, rx / 2, h_max
                )
        family = family.merged_with(fam)
    resid = w.jump.length_in(s_disk)
    if resid > resid_tol:
        raise ToolkitError(
            f"residual jump {resid:.3g} in B_s_rho after {MAX_ROUNDS} rounds"
        )

    ball_rho = Disk(tuple(center), rho)
    est: dict = {
        "rho": rho, "s": s, "eta": eta, "rounds": rounds,
        "jump_budget": budget, "jump_residual_srho": resid,
    }
    est["jump_new"] = _new_jump_length(w, u)
    est["jump_in"] = budget
    est["jump_out"] = w.jump.length_in(ball_rho)

    # outside identity, checked pointwise at seeded samples
    probe = _sample_outside(u.domain, family, rng, 512) if len(family) else np.zeros((0, 2))
    est["outside_identity_max_error"] = float(np.max(value_gap(u, w, probe), initial=0.0))

    measured, max_pow, _ = _measure(u, w, p, ball_rho)
    est.update(measured)
    est["modular_bound_const_var"] = (
        est["modular_out"] / ((1 + rho**2) * max_pow) if max_pow > 0 else 0.0
    )
    est["modular_bound_const_stripped"] = est["modular_out"] / max_pow if max_pow > 0 else 0.0

    if len(family) > 0:
        perimeter_bound, area_bound, reach = family.bounds(eta, rho, budget, center)
        est["family_perimeter"] = float(np.sum(2 * np.pi * family.radii))
        est["family_perimeter_bound"] = perimeter_bound
        est["family_area"] = float(np.sum(np.pi * family.radii**2))
        est["family_area_bound_min_form"] = area_bound
        est["union_containment_margin"] = (1 + s) * rho / 2 - reach
        est["xi_hat"] = family.xi_hat
    else:
        est["xi_hat"] = 0
    return ApproxReport(w=w, family=family, estimates=est)


def _sample_outside(domain: Disk, family: BallFamily, rng, n: int) -> np.ndarray:
    """Up to n uniform points of the domain outside every ball of the family.

    Trials draw a radius and then an angle, and stop at the n-th point kept
    or after 20 n trials. A point is kept when it lies farther than
    1e-9 of the domain radius outside every ball. Trials are drawn in chunks
    of 2 n, and the generator draws the same stream in chunks as in one
    call, so the points are those of one trial at a time; the generator
    ends past the last chunk.
    """
    c = np.asarray(domain.center)
    reach = family.radii + 1e-9 * domain.radius
    pts, tried, n_kept = [], 0, 0
    while n_kept < n and tried < 20 * n:
        draws = rng.random(2 * 2 * n).reshape(-1, 2)
        r = domain.radius * np.sqrt(draws[:, 0])
        t = 2 * np.pi * draws[:, 1]
        x = c + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
        dist = np.linalg.norm(family.centers[None, :, :] - x[:, None, :], axis=-1)
        kept = np.flatnonzero(np.all(dist > reach, axis=1))[: n - n_kept]
        pts.append(x[kept])
        n_kept += len(kept)
        tried += len(x)
    return np.concatenate(pts) if pts else np.zeros((0, 2))


# ---------------------------------------------------------------------------
# sphere stage
# ---------------------------------------------------------------------------


def project_to_sphere_stage(
    w: DiscreteSbvMap,
    p,
    s: float,
    config=None,
    seed: int = 0,
):
    """Retract the values of w onto the unit sphere inside B_{s rho}, keeping
    w as it is outside; returns (map, report).

    Cells already on the sphere are bitwise untouched, so the gluing across
    the stage boundary is exact wherever the trace is sphere-valued.
    """
    from .retract import RetractionConfig, project_w

    rho = w.domain.radius
    center = np.asarray(w.domain.center, dtype=float)
    stage = Disk(tuple(center), s * rho)
    if config is None:
        sup_w = max(np.linalg.norm(q.values, axis=1).max() for q in w.patches)
        config = RetractionConfig(k=w.k, M_bound=max(1.0, float(sup_w) * (1 + 1e-9)))
    w_tilde, rep = project_w(w, p, config, seed=seed, region=stage)
    th = 2 * np.pi * (np.arange(256) + 0.5) / 256
    bpts = center + (s * rho) * np.stack([np.cos(th), np.sin(th)], axis=1)
    mism = float(np.max(np.linalg.norm(w.value_at(bpts) - w_tilde.value_at(bpts), axis=1)))
    sph = float(np.max(np.abs(np.linalg.norm(w.value_at(bpts), axis=1) - 1.0)))
    rep = dict(rep)
    rep["stage_boundary_mismatch"] = mism
    rep["stage_boundary_sphericity"] = sph
    return w_tilde, rep

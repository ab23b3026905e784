"""Exact cell integrals of the gradient terms under constant and affine
exponents: the cell split, the CellTerms kernel, and the integrals and the
Luxembourg norm built on them."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx import cellsplit, sbv2d
from sbvx.quadrature import Annulus, Disk, tri_subcentroids
from sbvx.sbv2d import CellPatch, DiscreteSbvMap, dilate_map, fan_mesh, synthesize
from sbvx.vexp import CellTerms, ExponentField, affine_coefficients, luxembourg_from_samples


def _reference(area, pc, L, order=48):
    """(log of the integral of e^{L p} over a triangle of the given area on
    which p is affine with corner values pc, and the mean of p under that
    density), by a Duffy-collapsed Gauss-Legendre rule of the given order."""
    x, w = np.polynomial.legendre.leggauss(order)
    u, v = np.meshgrid(0.5 * (x + 1), 0.5 * (x + 1), indexing="ij")
    wt = np.outer(w, w) * 0.25 * u  # Jacobian of (u, v) -> (1 - u, u (1 - v), u v)
    p = pc[0] * (1 - u) + pc[1] * u * (1 - v) + pc[2] * u * v
    top = L * (pc.max() if L > 0 else pc.min())
    dens = wt * np.exp(L * p - top)
    return np.log(2 * area * dens.sum()) + top, (dens * p).sum() / dens.sum()


def _cases(rng, n):
    """Random cells: corner exponents with spreads from 1e-12 to 30, near-equal
    and equal pairs among them, magnitudes and t giving L in [-25, 25]."""
    out = []
    for i in range(n):
        base = rng.uniform(1.1, 2.5)
        spread = 10.0 ** rng.uniform(-12, 0.5) if i % 5 else 10.0 ** rng.uniform(0, 1.5)
        pc = base + spread * rng.uniform(-0.5, 0.5, 3)
        if i % 4 == 1:
            pc[1] = pc[0] + spread * 1e-9 * rng.uniform(-1, 1)
        if i % 4 == 2:
            pc[2] = pc[0]
        if i % 7 == 3:
            pc[:] = base
        out.append((10.0 ** rng.uniform(-4, 1), np.abs(pc) + 0.05, rng.uniform(-25, 25)))
    return out


def test_cell_terms_equal_a_high_order_reference():
    """Each term and its exponent agree with a 48-point Duffy rule to 1e-12,
    over spreads |L| (p_max - p_min) from 0 to several hundred, near-equal
    and equal corner exponents included."""
    rng = np.random.default_rng(7)
    cases = _cases(rng, 300)
    area = np.array([a for a, _, _ in cases])
    pc = np.array([p for _, p, _ in cases])
    L = np.array([x for _, _, x in cases])
    log_term, p_eff = CellTerms(np.exp(L), area, pc).at(0.0)
    moved = CellTerms(np.ones(len(L)), area, pc)  # g = 1 at t = -L is g = e^L at t = 0
    for i, (a, p, x) in enumerate(cases):
        if abs(x) * np.ptp(p) > 40:  # past the reference rule's reach
            continue
        ref, ref_p = _reference(a, p, x)
        assert abs(np.expm1(log_term[i] - ref)) <= 1e-12, (a, p, x)
        assert abs(p_eff[i] - ref_p) <= 1e-12 * ref_p, (a, p, x)
        lt, pe = moved.at(-x)
        assert abs(np.expm1(lt[i] - ref)) <= 1e-12 and abs(pe[i] - ref_p) <= 1e-12 * ref_p


def test_cell_terms_of_a_cell_do_not_depend_on_the_others():
    """A cell's term is bitwise the same alone and in any batch, and a
    constant exponent gives log |T| + q log g with exponent q."""
    rng = np.random.default_rng(3)
    cases = _cases(rng, 400)
    g = 10.0 ** rng.uniform(-3, 3, len(cases))
    area = np.array([a for a, _, _ in cases])
    pc = np.array([p for _, p, _ in cases])
    both = CellTerms(g, area, pc)
    for t in (0.0, 0.7, -3.0):
        lt, pe = both.at(t)
        for i in range(len(cases)):
            one = CellTerms(g[i : i + 1], area[i : i + 1], pc[i : i + 1]).at(t)
            assert one[0][0] == lt[i] and one[1][0] == pe[i]
    q = CellTerms(g, area, np.full((len(g), 3), 1.6)).at(0.25)
    assert np.allclose(q[0], np.log(area) + 1.6 * (np.log(g) - 0.25), rtol=1e-15, atol=1e-14)
    assert np.all(q[1] == 1.6)
    assert len(CellTerms([0.0, 1.0], [1.0, 1.0], np.ones((2, 3)) * 1.5)) == 1  # g = 0 adds nothing


@pytest.mark.parametrize("with_samples", [False, True])
def test_luxembourg_norm_of_cell_terms_scales_with_the_magnitudes(with_samples):
    """lam(c g) = c lam(g) over magnitudes from 1e-250 to 1e250, whose terms
    under- or overflow unless they are summed in log space."""
    rng = np.random.default_rng(8)
    g, area = 10.0 ** rng.uniform(-1, 1, 50), rng.uniform(1e-3, 1e-2, 50)
    pc = 1.5 + 0.3 * rng.uniform(-1, 1, (50, 3))
    fv, w = (g[:5], area[:5]) if with_samples else (np.zeros(0), np.zeros(0))
    pv = pc[: len(fv), 0]
    ref = luxembourg_from_samples(fv, pv, w, CellTerms(g, area, pc))
    assert ref > 0
    for c in (1e-250, 1e-100, 1e100, 1e250):
        with np.errstate(over="ignore"):  # the modular itself, at lam = 1, overflows
            got = luxembourg_from_samples(c * fv, pv, w, CellTerms(c * g, area, pc))
        assert abs(got / (c * ref) - 1) <= 1e-13


def test_affine_coefficients_decide_from_the_field():
    unit = Disk((0.0, 0.0), 1.0)
    aff = ExponentField("closed_form", unit, 1.3, 1.7, {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]})
    assert affine_coefficients(aff) == (1.5, (0.1, 0.05))
    assert affine_coefficients(ExponentField.constant(1.6, unit)) == (1.6, (0.0, 0.0))
    assert affine_coefficients(2.0) == (2.0, (0.0, 0.0))
    ridge = ExponentField("closed_form", unit, 1.3, 1.7, {"form": "ridge_power", "p0": 1.3, "c": 0.4,
                                                          "u": [0.6, 0.8], "beta": 1.0})
    assert affine_coefficients(ridge) is None
    grid = ExponentField("grid", unit, 1.3, 1.7, {"x0": -1.0, "y0": -1.0, "dx": 1.0, "dy": 1.0,
                                                  "values": np.full((3, 3), 1.5)})
    assert affine_coefficients(grid) is None
    assert affine_coefficients(lambda pts: np.full(len(pts), 1.5)) is None


# ---------------------------------------------------------------------------
# the cell split
# ---------------------------------------------------------------------------


def _inner_patch(center, radius, n_rings=4, scale=3.0):
    disk = Disk(center, radius)
    verts, tris, arc = fan_mesh(disk, n_rings)
    grads = np.repeat(np.array([[[scale, 0.5], [0.0, scale]]]), len(tris), axis=0)
    return CellPatch(verts, tris, np.zeros((len(tris), 2)), grads, disk, arc)


@pytest.fixture(scope="module")
def split_maps(global_map, affine_field):
    """One-patch maps of every kind, a global_approx and a local_phi output,
    and a fan stack in which the third patch lies inside the second."""
    from sbvx import local_phi

    affine = synthesize("affine", {"G": [[1.0, 2.0], [0.0, 1.0]], "u0": [0.0, 0.0]}, seed=0)
    _, phi, _ = local_phi(affine, affine_field, 0.5, seed=3, center=(0.1, 0.05), r=0.3)
    stack = affine.with_patch(_inner_patch((0.2, 0.1), 0.4))
    stack = stack.with_patch(_inner_patch((0.3, 0.2), 0.15, n_rings=3, scale=0.2))
    stack = stack.with_patch(_inner_patch((-0.35, -0.3), 0.3, n_rings=5, scale=7.0))
    return [
        affine,
        synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5),
        synthesize("sphere-vortex-with-slit", {"budget": 0.05, "k": 3}, seed=2),
        global_map,
        phi,
        stack,
    ]


def _region(u, kind, rng):
    scale, c0 = u.domain.radius, np.asarray(u.domain.center)
    circle = u.patches[int(rng.integers(len(u.patches)))].circle
    if kind == "disk":
        return Disk(tuple(c0 + scale * rng.uniform(-0.9, 0.9, 2)), scale * 10.0 ** rng.uniform(-3, 0))
    if kind == "annulus":
        r_in = scale * rng.uniform(0.0, 0.6)
        return Annulus(tuple(c0 + scale * rng.uniform(-0.5, 0.5, 2)), r_in, r_in + scale * rng.uniform(0.01, 0.6))
    if kind == "circle":
        return circle
    if kind == "ring":
        return Annulus(circle.center, circle.radius * rng.uniform(0.0, 0.9), circle.radius)
    return u.domain


def _whole_by_bounding_circle(u, region):
    """Flat ids of the cells whose circle (barycentre, far) widened by 1e-9
    of the domain radius lies in the region and outside every later patch
    circle: whole by any margin the split may take."""
    c, r_in, r_out = region.rings
    slack = 1e-9 * (u.domain.radius + np.max(np.abs(u.domain.center)))
    out, offset = [], 0
    for i, q in enumerate(u.patches):
        far = np.max(np.linalg.norm(q.verts[q.tris] - q.barycenters[:, None], axis=2), axis=1)
        reach = np.where(q.arc_cells, np.maximum(far, np.linalg.norm(q._arc_mid - q.barycenters, axis=1)), far)
        reach = reach + slack
        d = np.linalg.norm(q.barycenters - c, axis=1)
        ok = (d + reach < r_out) & (d - reach > r_in)
        for later in u.patches[i + 1 :]:
            dl = np.linalg.norm(q.barycenters - np.asarray(later.circle.center), axis=1)
            ok &= dl - reach > later.circle.radius
        out.append(offset + np.flatnonzero(ok))
        offset += len(q.tris)
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(["disk", "annulus", "circle", "ring", "domain"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_is_the_decomposition_with_whole_cells_exact(split_maps, affine_field, which, log_factor, kind,
                                                           level, seed):
    """On random patch stacks, disks, annuli and dilations by 1e-3..1e3:

    - bulk_samples keeps, bitwise and in order, the split's rows of the cells
      that are not whole; each whole cell's rows are instead its whole block
      of the sample table (_tri_samples), its subcells and its bulge, which
      is the split's one row of that cell;
    - those blocks keep every subcell of a whole cell at its full area;
    - every cell whole by its bounding circle with room to spare is whole;
    - each whole cell's exact term matches level-6 midpoint sampling within
      the midpoint rule's error bound, (1/2) max e^f |grad f|^2 |T| rad^2.
    """
    rng = np.random.default_rng(seed)
    factor = 10.0**log_factor
    new_center = rng.uniform(-2, 2, 2)
    u = dilate_map(split_maps[which], factor, new_center=tuple(new_center))
    p = affine_field.rescaled(-new_center / factor, 1 / factor)
    region = _region(u, kind, rng)
    split = u._split([region], level)
    cells, pts, w, cell = split.whole, split.pts, split.w, split.cell
    spts, sw, _ = u.bulk_samples(region, level)
    scell = u.cell_samples(region, level)[2]
    whole, of_whole = np.isin(scell, cells), np.isin(cell, cells)
    for got, want in ((cell, scell), (pts, spts), (w, sw)):
        assert np.array_equal(got[~of_whole], want[~whole])
    gmag, area, corners = u._cells
    offsets = np.cumsum([0] + [len(q.tris) for q in u.patches])
    blocks = [cellsplit._tri_samples(q, level, cells[(cells >= o) & (cells < o + len(q.tris))] - o)
              for q, o in zip(u.patches, offsets)]
    table_pts, table_w = (np.concatenate([b[j] for b in blocks]) for j in (0, 1))
    table_cell = np.concatenate([b[2] + o for b, o in zip(blocks, offsets)])
    for got, want in ((scell[whole], table_cell), (spts[whole], table_pts), (sw[whole], table_w)):
        assert np.array_equal(got, want)
    bulge = np.concatenate([b[3] for b in blocks]) == 0  # rad 0: the arc-midpoint row
    order = np.argsort(cell[of_whole], kind="stable")
    assert np.array_equal(pts[of_whole][order], table_pts[bulge])
    assert np.array_equal(w[of_whole][order], table_w[bulge])
    # a whole cell's subcells keep their full areas
    sums = np.bincount(table_cell[~bulge], weights=table_w[~bulge], minlength=len(area))[cells]
    assert np.all(np.abs(sums - area[cells]) <= 1e-13 * area[cells])
    assert np.all(np.isin(_whole_by_bounding_circle(u, region), cells))
    # exact terms against level-6 sampling, on up to 12 whole cells
    p0, a = affine_coefficients(p)
    live = cells[gmag[cells] > 0]
    if not len(live):
        return
    pick = rng.choice(live, size=min(12, len(live)), replace=False)
    pc = p0 + corners[pick, :, 0] * a[0] + corners[pick, :, 1] * a[1]
    exact = np.exp(CellTerms(gmag[pick], area[pick], pc).at(0.0)[0])
    v = corners[pick]
    cents, areas = tri_subcentroids(v[:, 0], v[:, 1], v[:, 2], 6)
    sampled = np.sum(areas * gmag[pick, None] ** p(cents.reshape(-1, 2)).reshape(cents.shape[:2]), axis=1)
    ell = np.log(gmag[pick])
    rad = np.max(np.linalg.norm(v - v.mean(axis=1, keepdims=True), axis=2), axis=1) / 64
    bound = 0.5 * np.exp(np.max(pc * ell[:, None], axis=1)) * (ell * np.hypot(*a)) ** 2 * area[pick] * rad**2
    assert np.all(np.abs(exact - sampled) <= bound + 1e-12 * exact)


def test_split_of_each_region_of_a_stack_is_its_stack_of_one(split_maps, affine_field, halfdisk_field):
    """Each region's rows of a stack's split, and its modular under an
    affine and a sampled field, equal its own call's bitwise."""
    rng = np.random.default_rng(11)
    for u in split_maps:
        regions = [_region(u, kind, rng) for kind in ("disk", "annulus", "circle", "ring", "domain", "disk")]
        s = u._split(regions, 2)
        cells, pts, w, cell, cb, b = s.whole, s.pts, s.w, s.cell, s.whole_bounds, s.bounds
        mods = [u.modulars_of_gradient(p, regions, 2) for p in (affine_field, halfdisk_field)]
        for k, region in enumerate(regions):
            one = u._split([region], 2)
            assert np.array_equal(cells[cb[k] : cb[k + 1]], one.whole)
            for got, want in zip((pts, w, cell), (one.pts, one.w, one.cell)):
                assert np.array_equal(got[b[k] : b[k + 1]], want)
            assert [m[k] for m in mods] == [u.modular_of_gradient(p, region, 2) for p in (affine_field, halfdisk_field)]


@pytest.mark.parametrize("factor, center", [(1.0, (0.0, 0.0)), (1e-3, (5.0, -2.0)), (1e3, (-1e3, 2e3))])
@pytest.mark.parametrize("q", [1.0, 1.3, 1.6, 2.5])
def test_constant_q_integral_of_an_affine_map_over_its_domain(factor, center, q):
    G = np.array([[1.0, 2.0], [-0.5, 1.5]])
    u = dilate_map(synthesize("affine", {"G": G, "u0": [0.0, 0.0]}, seed=0), factor, new_center=center)
    got = u.gradient_q_integral(q, u.domain, 2)
    want = (np.linalg.norm(G) / factor) ** q * np.pi * u.domain.radius**2
    assert abs(got - want) <= 1e-12 * want
    bulk, _ = sbv2d.total_variation_parts(u, u.domain, 2)
    assert abs(bulk - np.linalg.norm(G) / factor * np.pi * u.domain.radius**2) <= 1e-12 * bulk


def test_luxembourg_norm_solves_the_exact_modular(split_maps, affine_field, constant_field):
    """The norm lam brings the exact modular of |grad u| / lam to one."""
    rng = np.random.default_rng(2)
    for u in split_maps[1:]:
        for kind in ("disk", "annulus", "domain"):
            region = _region(u, kind, rng)
            for p in (affine_field, constant_field):
                lam = u.gradient_luxembourg_norm(p, region, 2)
                scaled = DiscreteSbvMap(u.domain, tuple(
                    CellPatch(q.verts, q.tris, q.values, q.grads / lam, q.circle, q.arc_cells) for q in u.patches
                ), u.jump, {"kind": "free"})
                assert abs(scaled.modular_of_gradient(p, region, 2) - 1.0) <= 1e-13


def test_luxembourg_norm_takes_a_number_as_its_constant_field(split_maps):
    """A number p gives the norm of the constant field p, bitwise, as it
    does for the modular and the q-integral."""
    rng = np.random.default_rng(5)
    for u in split_maps:
        for kind in ("disk", "annulus", "domain"):
            region = _region(u, kind, rng)
            field = ExponentField.constant(1.5, u.domain)
            assert u.gradient_luxembourg_norm(1.5, region, 2) == u.gradient_luxembourg_norm(field, region, 2)
            assert u.modular_of_gradient(1.5, region, 2) == u.modular_of_gradient(field, region, 2)


def test_global_approx_samples_no_whole_cell(affine_field, monkeypatch):
    """Under an affine exponent global_approx builds no sample decomposition,
    and samples only cells that are not whole in the measured region: the
    split builds samples for its cut cells alone."""
    from sbvx import global_approx

    def no_decomposition(self, region=None, level=2):
        raise AssertionError("bulk_samples called")

    sampled, splits = [], []
    tri_samples, cell_split = cellsplit._tri_samples, DiscreteSbvMap._split

    def spy_samples(patch, level, t):
        sampled.append((patch, np.array(t)))
        return tri_samples(patch, level, t)

    def spy_split(self, regions, level):
        splits.append((self, regions, len(sampled)))
        return cell_split(self, regions, level)

    monkeypatch.setattr(DiscreteSbvMap, "bulk_samples", no_decomposition)
    monkeypatch.setattr(cellsplit, "_tri_samples", spy_samples)
    monkeypatch.setattr(DiscreteSbvMap, "_split", spy_split)
    for kind, seed in (("sphere-vortex-with-slit", 9), ("random-cells-with-random-polyline", 4)):
        u = synthesize(kind, {"budget": 0.5 * 0.05 * 0.25 / 2, "k": 2}, seed=seed)
        n_before = len(splits)
        global_approx(u, affine_field, 0.75, 0.05, seed=11)
        assert len(splits) > n_before
    for k, (w, regions, start) in enumerate(splits):
        end = splits[k + 1][2] if k + 1 < len(splits) else len(sampled)
        whole = _whole_by_bounding_circle(w, regions[0])
        offsets = {id(q): o for q, o in zip(w.patches, np.cumsum([0] + [len(q.tris) for q in w.patches]))}
        for patch, t in sampled[start:end]:
            assert not np.any(np.isin(offsets[id(patch)] + t, whole))


def test_grid_field_still_samples(global_map, cutting_regions):
    grid = ExponentField("grid", Disk((0.0, 0.0), 1.0), 1.3, 1.7, {
        "x0": -1.0, "y0": -1.0, "dx": 0.5, "dy": 0.5,
        "values": 1.5 + 0.1 * np.sin(np.arange(25.0)).reshape(5, 5),
    })
    for region in cutting_regions:
        pts, w, g = global_map.bulk_samples(region, 2)
        assert global_map.modular_of_gradient(grid, region, 2) == float(np.sum(w * g ** grid(pts)))

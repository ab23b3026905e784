"""A stack of disks and annuli split and sampled in one pass gives each
region the samples, modular and jump length of its own call, bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx import _geom
from sbvx.energy import functional, functionals
from sbvx.errors import ToolkitError
from sbvx.quadrature import Annulus, Disk, Rect
from sbvx.sbv2d import dilate_map, synthesize

CORPUS_KINDS = (
    "piecewise-constant-with-arc-jump", "sphere-vortex-with-slit", "random-cells-with-random-polyline",
)


@pytest.fixture(scope="module")
def stack_maps(global_map, affine_field):
    """Maps of one to three patches: the corpus kinds as synthesized, their
    global_approx and local_phi outputs, and local_phi on a global_approx
    output."""
    from sbvx import global_approx, local_phi

    maps = [synthesize(kind, {"budget": 0.003, "k": 2}, seed=40 + i) for i, kind in enumerate(CORPUS_KINDS)]
    maps.append(global_approx(maps[0], affine_field, 0.75, 0.05, seed=41).w)
    maps.append(global_map)
    maps.append(local_phi(maps[2], affine_field, 0.05, seed=3, center=(0.1, -0.2), r=0.2)[1])
    maps.append(local_phi(global_map, affine_field, 0.05, seed=5, center=(-0.3, 0.3), r=0.15)[1])
    assert sorted({len(u.patches) for u in maps}) == [1, 2, 3]
    return maps


def _region(u, kind, rng):
    """A disk or annulus of the given kind for the map u."""
    scale, c0 = u.domain.radius, np.asarray(u.domain.center)
    later = u.patches[-1].circle
    tiny = scale * 10.0 ** rng.uniform(-4, -2)
    if kind == "disk":
        return Disk(tuple(c0 + scale * rng.uniform(-0.9, 0.9, 2)), scale * 10.0 ** rng.uniform(-4, -0.1))
    if kind == "annulus":
        r_in = scale * rng.uniform(0.0, 0.6)
        return Annulus(tuple(c0 + scale * rng.uniform(-0.5, 0.5, 2)), r_in, r_in + scale * rng.uniform(0.01, 0.6))
    if kind == "hidden":  # inside the last patch circle, which hides every earlier patch
        t, d = rng.uniform(0, 2 * np.pi), later.radius * rng.uniform(0.0, 0.5)
        centre = np.asarray(later.center) + d * np.array([np.cos(t), np.sin(t)])
        return Disk(tuple(centre), (later.radius - d) * rng.uniform(0.01, 1.0))
    if kind == "outside":
        t, r = rng.uniform(0, 2 * np.pi), scale * rng.uniform(0.01, 0.5)
        return Disk(tuple(c0 + (scale + r) * rng.uniform(1.001, 2.0) * np.array([np.cos(t), np.sin(t)])), r)
    if kind == "circle":
        circle = u.patches[int(rng.integers(len(u.patches)))].circle
        return circle if rng.random() < 0.5 else Annulus(circle.center, 0.5 * circle.radius, circle.radius)
    patch = u.patches[int(rng.integers(len(u.patches)))]  # "corner": a tiny disk at a vertex
    return Disk(tuple(patch.verts[rng.integers(len(patch.verts))]), tiny)


_KINDS = ("disk", "annulus", "hidden", "outside", "circle", "corner")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stack_equals_each_region_alone(stack_maps, full_scan, affine_field, which, log_factor, k, level, seed):
    """Each region's rows of the stack's sampled split (pts, w, cell,
    gmag), modular and jump length equal its own call's (the memoised
    bulk_samples and cell_samples, modular_of_gradient, length_in) bitwise,
    and a few regions' (pts, cell) the full scan's."""
    rng = np.random.default_rng(seed)
    factor, new_center = 10.0**log_factor, rng.uniform(-2, 2, 2)
    u = dilate_map(stack_maps[which], factor, new_center=tuple(new_center))
    p = affine_field.rescaled(-new_center / factor, 1 / factor)  # the field dilated with the map
    regions = [_region(u, _KINDS[int(rng.integers(len(_KINDS)))], rng) for _ in range(k)]
    pts, w, cell, g, bounds = u._split(regions, level).samples
    assert bounds[0] == 0 and bounds[-1] == len(pts) and np.all(np.diff(bounds) >= 0)
    c = float(rng.uniform(0.1, 2.0))
    energies = functionals(u, p, c, regions, level)
    lengths = u.jump.lengths_in(regions)
    for i, region in enumerate(regions):
        rows = slice(bounds[i], bounds[i + 1])
        one_pts, one_w, one_g = u.bulk_samples(region, level)
        one = (one_pts, one_w, u.cell_samples(region, level)[2], one_g)
        for a, b in zip((pts[rows], w[rows], cell[rows], g[rows]), one):
            assert np.array_equal(a, b)
        assert energies[i].bulk == u.modular_of_gradient(p, region, level)
        assert lengths[i] == u.jump.length_in(region) and energies[i].jump == c * lengths[i]
        alone = functional(u, p, c, region, level)
        assert (alone.bulk, alone.jump) == (energies[i].bulk, energies[i].jump)
    for i in rng.choice(k, size=min(k, 2), replace=False):
        parts = full_scan(u, regions[i], level)
        rows = slice(bounds[i], bounds[i + 1])
        assert np.array_equal(pts[rows], np.concatenate([rp for rp, _, _ in parts]))
        assert np.array_equal(cell[rows], np.concatenate([rc for _, _, rc in parts]))


def test_stack_of_none_or_a_rect_is_its_region_alone(global_map, affine_field):
    for region in (None, Rect(-0.3, 0.2, -0.1, 0.4), global_map.domain):
        pts, w, cell, g, bounds = global_map._split([region], 2).samples
        assert list(bounds) == [0, len(pts)]
        modular = global_map.modular_of_gradient(affine_field, region, 2)
        assert global_map.modulars_of_gradient(affine_field, [region], 2) == [modular]
    with pytest.raises(ToolkitError):
        global_map._split([Rect(-0.3, 0.2, -0.1, 0.4), global_map.domain], 2)


def test_empty_stack(global_map, affine_field):
    pts, w, cell, g, bounds = global_map._split([], 2).samples
    assert len(pts) == 0 and list(bounds) == [0]
    assert functionals(global_map, affine_field, 1.0, []) == []


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([3, 4]),
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polygons_disk_area_per_polygon_disks_equal_per_disk_calls(n_disks, n, m, log_scale, seed):
    """Centres (n, 2) and radii (n,) give each polygon the bits of the call
    for its own disk, as the clip made one call per disk."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    origin = scale * rng.uniform(-1e3, 1e3, 2) * (rng.random() < 0.3)
    centres = origin + scale * rng.uniform(-1, 1, (n_disks, 2))
    radii = scale * 10.0 ** rng.uniform(-3, 0.5, n_disks)
    which = rng.integers(n_disks, size=n)
    polys = centres[which, None] + scale * rng.uniform(-1.5, 1.5, (n, m, 2))
    got = _geom.polygons_disk_area(polys, centres[which], radii[which])
    for d in range(n_disks):
        mine = which == d
        assert np.array_equal(got[mine], _geom.polygons_disk_area(polys[mine], centres[d], float(radii[d])))

import numpy as np
import pytest

from sbvx.quadrature import Disk
from sbvx.vexp import ExponentField


@pytest.fixture(scope="session")
def unit_disk():
    return Disk((0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def affine_field(unit_disk):
    return ExponentField(
        "closed_form", unit_disk, 1.3, 1.7,
        {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]},
    )


@pytest.fixture(scope="session")
def constant_field(unit_disk):
    return ExponentField.constant(1.6, unit_disk)


class HalfDiskField(ExponentField):
    """Piecewise-constant exponent on the two half-disks; test-only field."""

    def __init__(self, domain, p_left, p_right):
        object.__setattr__(self, "kind", "closed_form")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "p_minus", min(p_left, p_right))
        object.__setattr__(self, "p_plus", max(p_left, p_right))
        object.__setattr__(self, "params", {"form": "halfdisk"})
        self.__dict__["p_left"] = p_left
        self.__dict__["p_right"] = p_right

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        return np.where(pts[:, 0] >= 0, self.p_right, self.p_left)


@pytest.fixture(scope="session")
def halfdisk_field(unit_disk):
    return HalfDiskField(unit_disk, 1.5, 1.8)


@pytest.fixture(scope="session")
def global_map(affine_field):
    """A two-patch map: global_approx's output on a slit vortex."""
    from sbvx import global_approx, synthesize

    s, eta = 0.75, 0.05
    u = synthesize("sphere-vortex-with-slit", {"budget": 0.5 * eta * (1 - s) / 2}, seed=9)
    w = global_approx(u, affine_field, s, eta, seed=11).w
    assert len(w.patches) == 2
    return w


@pytest.fixture(scope="session")
def cutting_regions(global_map):
    """None, a disk and an annulus, each cutting global_map's last patch circle."""
    from sbvx.quadrature import Annulus

    c = np.asarray(global_map.patches[-1].circle.center)
    r = global_map.patches[-1].circle.radius
    return [
        None,
        Disk((c[0] + r, c[1]), 0.8 * r),
        Annulus((0.0, 0.0), 0.2, float(np.linalg.norm(c))),
    ]


# ---------------------------------------------------------------------------
# the full-scan visible-sample build: the oracle of the per-patch region
# classification in CellSplit, read through its sampled view
# (CellSplit.samples)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_scan():
    return full_scan_parts


def full_scan_parts(u, region):
    """Per patch, the (pts, w, cell) the full scan keeps: every patch that a
    disk region meets (any patch for other regions) scanned subcell by
    subcell, with the region kept as it is. cell is flat in the stack."""
    from sbvx.cellsplit import _disks_meet

    offsets = np.cumsum([0] + [len(q.tris) for q in u.patches])
    empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int))
    return [
        _full_scan_patch(patch, u.patches[i + 1 :], region, offsets[i])
        if not isinstance(region, Disk) or _disks_meet(patch.circle, region)
        else empty
        for i, patch in enumerate(u.patches)
    ]


def _full_scan_patch(patch, later_patches, region, offset):
    """Every subcell and bulge of the patch on its own: dropped when its
    bounding circle (its point, rad) lies outside the region, inside an
    annulus' inner disk or inside a later circle; its full area when the
    circle meets no boundary; else the exact area of its polygon (subcell,
    or bulge box within the patch disk) in the region and outside the later
    circles, each row with its own list of disks, built about the centre of
    a Disk or Annulus region that does not hold the patch circle, else about
    the patch's."""
    from sbvx import _geom
    from sbvx.cellsplit import BULGE_SLOT, _disks_meet, _subcell_corners, _tri_samples
    from sbvx.quadrature import Annulus

    pts, w, cid, rad = _tri_samples(patch, np.arange(len(patch.tris)))
    laters = [q.circle for q in later_patches if _disks_meet(patch.circle, q.circle)]
    n = len(pts)
    keep, edge, outer, inner = np.ones(n, dtype=bool), *np.zeros((3, n), dtype=bool)
    planes, origin = None, np.asarray(patch.circle.center, dtype=float)
    if isinstance(region, (Disk, Annulus)):
        d = np.linalg.norm(pts - np.asarray(region.center), axis=1)
        r_out = region.radius if isinstance(region, Disk) else region.r_outer
        r_in = -np.inf if isinstance(region, Disk) else region.r_inner
        gap = np.linalg.norm(np.subtract(patch.circle.center, region.center))
        if not (gap + patch.circle.radius <= r_out and gap - patch.circle.radius >= r_in):
            origin = np.asarray(region.center, dtype=float)
        keep, outer, inner = (d > r_in - rad) & (d <= r_out + rad), d > r_out - rad, d <= r_in + rad
    elif region is not None:
        (x, y), (x0, x1, y0, y1) = pts.T, (region.x0, region.x1, region.y0, region.y1)
        keep = (x + rad >= x0) & (x - rad <= x1) & (y + rad >= y0) & (y - rad <= y1)
        edge = ~((x - rad >= x0) & (x + rad <= x1) & (y - rad >= y0) & (y + rad <= y1))
        planes = [(1.0, 0.0, x0), (-1.0, 0.0, -x1), (0.0, 1.0, y0), (0.0, -1.0, -y1)]
    near = []
    for lc in laters:
        dl = np.linalg.norm(pts - np.asarray(lc.center), axis=1)
        near.append(np.abs(dl - lc.radius) <= rad)
        keep &= near[-1] | (dl > lc.radius)
    w = np.where(keep, w, 0.0)
    bulge = np.arange(n) - np.searchsorted(cid, cid) == BULGE_SLOT
    rows = np.flatnonzero(keep & (edge | outer | inner | np.any(near, axis=0)))
    ins, outs = np.full((len(rows), 2, 3), np.nan), np.full((len(rows), 1 + len(laters), 3), np.nan)
    for j, k in enumerate(rows):
        disks = ([(*patch.circle.center, patch.circle.radius)] if bulge[k] else []) + (
            [(*region.center, r_out)] if outer[k] else [])
        ins[j, : len(disks)] = np.reshape(disks, (-1, 3))
        disks = ([(*region.center, r_in)] if inner[k] else []) + [
            (*lc.center, lc.radius) for lc, nr in zip(laters, near) if nr[k]]
        outs[j, : len(disks)] = np.reshape(disks, (-1, 3))
    # each row of the call is the row's own call (tests/test_geom.py)
    origin = np.tile(origin, (len(rows), 1))
    polys = _subcell_corners(patch, cid, rows, origin)
    w[rows] = _geom.polygons_disks_area(polys, w[rows], ins, outs, planes, origin)
    sel = w > 0
    return pts[sel], w[sel], cid[sel] + offset


# ---------------------------------------------------------------------------
# the per-sample corner rebuild: the oracle of the subcell bounds (rad, reach)
# that _tri_samples and CellPatch._reach compute in one broadcast
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def rad_by_rebuild():
    return rad_and_reach_by_rebuild


def rad_and_reach_by_rebuild(patch, pts, cell_id):
    """(rad, reach) of the patch samples (pts, cell_id), each sample's
    corners rebuilt on their own by _subcell_corners."""
    from sbvx.cellsplit import _subcell_corners

    corners = _subcell_corners(patch, cell_id, np.arange(len(pts)), np.zeros((len(pts), 2)))
    rad = np.max([np.linalg.norm(corners[:, k] - pts, axis=1) for k in range(corners.shape[1])], axis=0)
    reach = np.maximum.reduceat(
        np.linalg.norm(pts - patch.barycenters[cell_id], axis=1) + rad,
        np.searchsorted(cell_id, np.arange(len(patch.tris))),
    )
    return rad, reach

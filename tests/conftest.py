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
# classification in DiscreteSbvMap._build_samples
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_scan():
    return full_scan_parts


def full_scan_parts(u, region, level):
    """Per patch, the (pts, w, cell) the full scan keeps: every patch that a
    disk region meets (any patch for other regions) scanned subcell by
    subcell, with the region kept as it is. cell is flat in the stack."""
    from sbvx.sbv2d import _disks_meet

    offsets = np.cumsum([0] + [len(q.tris) for q in u.patches])
    empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int))
    return [
        _full_scan_patch(patch, level, u.patches[i + 1 :], region, offsets[i])
        if not isinstance(region, Disk) or _disks_meet(patch.circle, region)
        else empty
        for i, patch in enumerate(u.patches)
    ]


def _full_scan_patch(patch, level, later_patches, region, offset):
    from sbvx.quadrature import Annulus
    from sbvx.sbv2d import _disks_meet, _patch_samples_with_ids, _refined_weights, _subcell_corners

    pts, w, cid, rad_sub = _patch_samples_with_ids(patch, level)[:4]
    laters = [q.circle for q in later_patches if _disks_meet(patch.circle, q.circle)]
    keep = np.ones(len(pts), dtype=bool)
    near_later = np.zeros(len(pts), dtype=bool)
    for lc in laters:
        dl = np.linalg.norm(pts - np.asarray(lc.center), axis=1)
        near_later |= np.abs(dl - lc.radius) <= rad_sub
        keep &= dl > lc.radius
    keep |= near_later
    if isinstance(region, Disk):
        keep, w = _full_scan_clip(patch, level, keep, region.center, region.radius, near_later)
    elif isinstance(region, Annulus):
        (keep_out, w_out), (keep_inn, w_inn) = (
            _full_scan_clip(patch, level, keep, region.center, r, near_later)
            for r in (region.r_outer, region.r_inner)
        )
        w = np.where(keep_out, w_out, 0.0) - np.where(keep_inn, w_inn, 0.0)
        keep = keep_out & ((w > 0) | near_later)
    elif region is not None:
        keep &= near_later | region.contains(pts)
    refine = near_later & keep
    if np.any(refine):
        w = w.copy()
        w[refine] = _refined_weights(
            _subcell_corners(patch, level, pts, cid, np.flatnonzero(refine)), region, laters
        )
    sel = keep & (w > 0)
    return pts[sel], w[sel], cid[sel] + offset


def _full_scan_clip(patch, level, keep, center, radius, skip):
    from sbvx import _geom
    from sbvx.sbv2d import _patch_samples_with_ids, _subcell_corners

    pts, w, cid, rad_sub = _patch_samples_with_ids(patch, level)[:4]
    c = np.asarray(center)
    d = np.linalg.norm(pts - c, axis=1)
    keep = keep & ((d <= radius + rad_sub) | skip)
    straddle = np.flatnonzero(keep & (d > radius - rad_sub) & ~skip)
    w = w.copy()
    corners = _subcell_corners(patch, level, pts, cid, straddle)
    w[straddle] = _geom.polygons_disk_area(corners, c, radius)
    return keep, w


# ---------------------------------------------------------------------------
# the per-sample corner rebuild: the oracle of the subcell bounds (rad, reach)
# that _patch_samples_with_ids computes in one broadcast
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def rad_by_rebuild():
    return rad_and_reach_by_rebuild


def rad_and_reach_by_rebuild(patch, level, pts, cell_id):
    """(rad, reach) of the patch samples (pts, cell_id), each sample's
    corners rebuilt on their own by _subcell_corners."""
    from sbvx.sbv2d import _subcell_corners

    corners = _subcell_corners(patch, level, pts, cell_id, np.arange(len(pts)))
    rad = np.max([np.linalg.norm(corners[:, k] - pts, axis=1) for k in range(3)], axis=0)
    reach = np.maximum.reduceat(
        np.linalg.norm(pts - patch.barycenters[cell_id], axis=1) + rad,
        np.searchsorted(cell_id, np.arange(len(patch.tris))),
    )
    return rad, reach

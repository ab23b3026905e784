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

"""The polar rule against the meshgrid rules it replaced, kept here as the
reference: cos and sin of every grid point, then the product."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx.quadrature import (
    TWO_PI,
    Annulus,
    Disk,
    _leggauss,
    _panel_nodes,
    _polar_rule,
)


def _reference_panel_nodes(a, b, n_panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _reference_polar(center, r_inner, r_outer, n_r, n_t, order):
    r, wr = _reference_panel_nodes(r_inner, r_outer, n_r, order)
    t, wt = _reference_panel_nodes(0.0, TWO_PI, n_t, order)
    R, T = np.meshgrid(r, t, indexing="ij")
    W = (wr[:, None] * wt[None, :]) * R
    pts = np.stack(
        [
            center[0] + R.ravel() * np.cos(T.ravel()),
            center[1] + R.ravel() * np.sin(T.ravel()),
        ],
        axis=1,
    )
    return pts, W.ravel()


def _assert_bitwise(got, ref):
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert g.dtype == r.dtype
        assert np.array_equal(g.view(np.uint64), r.view(np.uint64))


coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
radii = st.floats(min_value=-4.0, max_value=1.0).map(lambda e: 10.0**e)


@settings(max_examples=120, deadline=None)
@given(coords, coords, radii, st.integers(1, 30), st.integers(1, 60), st.integers(1, 10))
def test_disk_rule_bitwise_equals_meshgrid(cx, cy, radius, n_r, n_t, order):
    got = _polar_rule((cx, cy), 0.0, radius, n_r, n_t, order)
    _assert_bitwise(got, _reference_polar((cx, cy), 0.0, radius, n_r, n_t, order))


@settings(max_examples=120, deadline=None)
@given(coords, coords, radii, st.floats(0.0, 0.999), st.integers(1, 30), st.integers(1, 60),
       st.integers(1, 10))
def test_annulus_rule_bitwise_equals_meshgrid(cx, cy, r_outer, frac, n_r, n_t, order):
    ann = Annulus((cx, cy), frac * r_outer, r_outer)
    got = _polar_rule(ann.center, ann.r_inner, ann.r_outer, n_r, n_t, order)
    _assert_bitwise(got, _reference_polar((cx, cy), ann.r_inner, r_outer, n_r, n_t, order))


@pytest.mark.parametrize("resolution", [4, 10, 12, 24])
def test_region_rule_disk_and_annulus_bitwise(resolution):
    disk = Disk((0.1, -0.3), 0.7)
    ann = Annulus((0.1, -0.3), 0.2, 0.7)
    n_r, n_t = resolution, 2 * resolution
    _assert_bitwise(disk.rule(resolution), _reference_polar(disk.center, 0.0, 0.7, n_r, n_t, 8))
    _assert_bitwise(ann.rule(resolution), _reference_polar(ann.center, 0.2, 0.7, n_r, n_t, 8))


def test_gauss_legendre_nodes_are_shared_read_only():
    nodes, weights = _panel_nodes(0.0, 1.0, 3, 5)
    ref = _reference_panel_nodes(0.0, 1.0, 3, 5)
    assert np.array_equal(nodes, ref[0]) and np.array_equal(weights, ref[1])
    pts, w = Disk((0.0, 0.0), 1.0).rule(2, order=3)
    assert pts.flags.writeable and w.flags.writeable
    x, wx = _leggauss(5)
    assert _leggauss(5)[0] is x
    assert not x.flags.writeable and not wx.flags.writeable

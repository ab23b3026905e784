"""Regions answer their own geometry: Disk, Annulus and Rect against the
type ladders they replaced, kept here as oracles, at dilations from 1e-3 to
1e3; and a source guard that keeps the ladders from coming back."""
import ast
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbvx.errors import ToolkitError
from sbvx.quadrature import COVER_TOL, Annulus, Disk, Rect, region_from_json
from sbvx.sbv2d import JumpSet, bv_poincare_check, synthesize, total_variation_parts


def _ladder_covers(dom, region, tol=1e-9):
    """The covers ladder that ExponentField carried before regions answered it."""
    if isinstance(dom, Disk):
        c = np.asarray(dom.center)
        if isinstance(region, Disk):
            return np.linalg.norm(np.asarray(region.center) - c) + region.radius <= dom.radius + tol
        if isinstance(region, Rect):
            corners = np.array(
                [[region.x0, region.y0], [region.x0, region.y1],
                 [region.x1, region.y0], [region.x1, region.y1]]
            )
            return bool(np.all(np.linalg.norm(corners - c, axis=1) <= dom.radius + tol))
        return np.linalg.norm(np.asarray(region.center) - c) + region.r_outer <= dom.radius + tol
    if isinstance(dom, Rect):
        if isinstance(region, Rect):
            return (
                region.x0 >= dom.x0 - tol and region.x1 <= dom.x1 + tol
                and region.y0 >= dom.y0 - tol and region.y1 <= dom.y1 + tol
            )
        c = np.asarray(region.center)
        r = region.radius if isinstance(region, Disk) else region.r_outer
        return (
            c[0] - r >= dom.x0 - tol and c[0] + r <= dom.x1 + tol
            and c[1] - r >= dom.y0 - tol and c[1] + r <= dom.y1 + tol
        )
    return False


coord = st.floats(-1.0, 1.0)
size = st.floats(0.05, 1.5)
factors = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def regions(draw, f):
    """A Disk, Annulus or Rect of unit scale, dilated by f."""
    kind = draw(st.sampled_from(["disk", "annulus", "rect"]))
    cx, cy, r = f * draw(coord), f * draw(coord), f * draw(size)
    if kind == "disk":
        return Disk((cx, cy), r)
    if kind == "annulus":
        return Annulus((cx, cy), r * draw(st.floats(0.0, 0.95)), r)
    return Rect(cx - r, cx + f * draw(size), cy - f * draw(size), cy + r)


@st.composite
def region_pairs(draw):
    f = draw(factors)
    return draw(regions(f)), draw(regions(f))


def _points_of(region, rng):
    """Uniform samples where the region can be sampled, and its rule points."""
    pts = [region.rule(3)[0]]
    if not isinstance(region, Annulus):
        pts.append(region.sample(64, rng))
    return np.concatenate(pts)


@settings(max_examples=300, deadline=None)
@given(region_pairs())
def test_covers_equals_the_type_ladder(pair):
    outer, inner = pair
    assert outer.covers(inner) == bool(_ladder_covers(outer, inner))


@settings(max_examples=200, deadline=None)
@given(region_pairs(), st.integers(0, 2**32 - 1))
def test_a_covered_region_lies_in_the_covering_one(pair, seed):
    """covers allows COVER_TOL of slack, so membership gets the same slack."""
    outer, inner = pair
    if outer.covers(inner):
        assert np.all(outer.contains(_points_of(inner, np.random.default_rng(seed)), COVER_TOL))


@settings(max_examples=100, deadline=None)
@given(factors.flatmap(regions))
def test_json_round_trips_disk_and_rect_exactly(region):
    if isinstance(region, Annulus):
        with pytest.raises(ToolkitError):
            region.to_json()
        return
    back = region_from_json(json.loads(json.dumps(region.to_json())))
    assert type(back) is type(region) and repr(back) == repr(region)


def test_unknown_region_type_is_rejected():
    with pytest.raises(ToolkitError, match="unknown region type"):
        region_from_json({"type": "annulus", "center": [0, 0], "r_inner": 0.1, "r_outer": 1})


@settings(max_examples=150, deadline=None)
@given(factors, st.integers(0, 2**32 - 1), st.floats(0.0, 0.95), st.floats(0.1, 1.0))
@example(1e-3, 0, 0.5, 0.5)
def test_annulus_jump_length_is_outer_minus_inner(f, seed, frac, r_outer):
    """Segments of unit-scale length up to 1e-3, so that at a dilation of
    1e-3 some are shorter than 1e-6 and must still be measured."""
    rng = np.random.default_rng(seed)
    a = f * rng.uniform(-1, 1, (24, 2))
    b = a + f * rng.uniform(-1, 1, (24, 2)) * np.repeat([0.5, 1e-3], 12)[:, None]
    J = JumpSet.from_segments(a, b, np.ones((24, 1)), np.zeros((24, 1)))
    c = tuple(f * rng.uniform(-0.5, 0.5, 2))
    ann = Annulus(c, frac * f * r_outer, f * r_outer)
    outer, inner = Disk(c, ann.r_outer), Disk(c, ann.r_inner)
    expect = J.length_in(outer) - J.length_in(inner)
    assert J.length_in(ann) == pytest.approx(expect, rel=1e-12, abs=1e-15 * f)
    # a disk that holds every segment measures all of the jump
    assert J.length_in(Disk((0.0, 0.0), 4 * f)) == pytest.approx(J.total_length, rel=1e-12)


def _half_plane_clip_length(rect, a, b):
    """Length of segment a->b in the closed rect, cutting it at one edge line
    after the other and keeping the piece on the inner side."""
    for k, edge, inner in ((0, rect.x0, 1), (0, rect.x1, -1), (1, rect.y0, 1), (1, rect.y1, -1)):
        fa, fb = inner * (a[k] - edge), inner * (b[k] - edge)
        if fa < 0 and fb < 0:
            return 0.0
        if fa < 0 or fb < 0:
            cut = a + fa / (fa - fb) * (b - a)
            a, b = (cut, b) if fa < 0 else (a, cut)
    return float(np.linalg.norm(b - a))


def _rect_segments(rng, rect, n):
    """n segments about rect: random ones, axis-parallel ones (inside, on an
    edge line and outside), and degenerate ones."""
    lo, hi = np.array([rect.x0, rect.y0]), np.array([rect.x1, rect.y1])
    pad = 0.5 * (hi - lo)
    a = rng.uniform(lo - pad, hi + pad, (n, 2))
    b = rng.uniform(lo - pad, hi + pad, (n, 2))
    i, k = np.arange(n // 4), rng.integers(0, 2, n // 4)
    b[i, k] = a[i, k]  # axis-parallel
    a[: n // 8, 0] = b[: n // 8, 0] = rect.x1  # on the right edge line
    b[-2:] = a[-2:]
    return a, b


@settings(max_examples=150, deadline=None)
@given(factors, st.integers(0, 2**32 - 1))
def test_rect_segment_lengths_equal_the_half_plane_clip(f, seed):
    rng = np.random.default_rng(seed)
    cx, cy = f * rng.uniform(-1, 1, 2)
    w, h = f * rng.uniform(0.05, 1.5, 2)
    rect = Rect(cx - w, cx + w, cy - h, cy + h)
    a, b = _rect_segments(rng, rect, 32)
    want = [_half_plane_clip_length(rect, p, q) for p, q in zip(a, b)]
    assert rect.segment_lengths(a, b) == pytest.approx(want, rel=1e-12, abs=1e-14 * f)


@settings(max_examples=100, deadline=None)
@given(factors, st.integers(0, 2**32 - 1))
def test_rect_segment_lengths_scale_with_a_dilation(f, seed):
    rng = np.random.default_rng(seed)
    rect = Rect(-0.4, 0.7, -0.9, 0.2)
    a, b = _rect_segments(rng, rect, 32)
    big = Rect(f * rect.x0, f * rect.x1, f * rect.y0, f * rect.y1)
    assert big.segment_lengths(f * a, f * b) == pytest.approx(
        f * rect.segment_lengths(a, b), rel=1e-12, abs=1e-14 * f
    )


def test_bv_poincare_check_measures_the_jump_on_a_rect():
    u = synthesize("random-cells-with-random-polyline", {"budget": 0.3, "k": 2}, seed=5)
    rect = Rect(-0.3, 0.3, -0.3, 0.3)
    lhs, ratio = bv_poincare_check(u, rect)
    assert np.isfinite(lhs) and np.isfinite(ratio) and ratio > 0
    bulk, jump = total_variation_parts(u, rect)
    assert jump > 0
    half = Rect(-0.3, 0.0, -0.3, 0.3), Rect(0.0, 0.3, -0.3, 0.3)
    assert jump == pytest.approx(sum(total_variation_parts(u, r)[1] for r in half), rel=1e-12)


# Type tests that decide a policy, not a region's geometry, as (module, function).
REGION_TYPE_POLICIES = {
    ("vexp", "_pair_cloud"),  # log-radial probes towards a disk's centre
    ("vexp", "log_holder_diagnose"),  # radial pairs towards a disk's centre
    ("vexp", "embedding_constant"),  # an annulus is sampled over p's whole domain
    ("cli", "_pipe_norms"),  # a rect domain's field is drawn on the unit disk
}
REGION_TYPES = {"Disk", "Annulus", "Rect"}


def _region_type_tests(tree):
    """(top-level function, line) of every isinstance naming a region type
    and every hasattr(..., "r_inner") in a module's syntax tree."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "isinstance" and len(node.args) == 2:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                hit = bool(names & REGION_TYPES)
            elif node.func.id == "hasattr" and len(node.args) == 2:
                hit = isinstance(node.args[1], ast.Constant) and node.args[1].value == "r_inner"
            else:
                continue
            if hit:
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_no_region_type_tests_outside_quadrature():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "sbvx"
    offending, policies = [], 0
    for path in sorted(src.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for func, line in _region_type_tests(ast.parse(path.read_text())):
            if (path.stem, func) in REGION_TYPE_POLICIES:
                policies += 1
            else:
                offending.append(f"{path.name}:{line} in {func}")
    assert not offending, "region type tests outside quadrature.py: " + ", ".join(offending)
    assert policies <= len(REGION_TYPE_POLICIES)


def test_region_type_guard_finds_a_ladder():
    tree = ast.parse(
        "def f(region):\n"
        "    if isinstance(region, (Disk, Annulus)):\n"
        "        return 1\n"
        "    return hasattr(region, 'r_inner') or isinstance(region, quadrature.Rect)\n"
    )
    assert sorted(_region_type_tests(tree)) == [("f", 2), ("f", 4), ("f", 4)]

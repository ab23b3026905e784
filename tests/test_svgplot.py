import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sbvx.cli import run_scenario
from sbvx.quadrature import Disk
from sbvx.svgplot import SvgCanvas, draw_field, draw_profile
from sbvx.vexp import ExponentField


def _draw_field_per_rect(p, domain, size: int = 320, n: int = 48):
    """draw_field with one rectangle formatted per inside cell in turn: the
    former body, the oracle of the batched one."""
    c = np.asarray(domain.center)
    R = domain.radius
    cv = SvgCanvas(size, (c[0] - 1.05 * R, c[0] + 1.05 * R, c[1] - 1.05 * R, c[1] + 1.05 * R))
    xs = np.linspace(c[0] - R, c[0] + R, n)
    ys = np.linspace(c[1] - R, c[1] + R, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    inside = np.linalg.norm(pts - c, axis=1) <= R
    vals = np.full(len(pts), np.nan)
    vals[inside] = p(pts[inside])
    vmin = np.nanmin(vals)
    vmax = np.nanmax(vals)
    span = max(vmax - vmin, 1e-12)
    h = xs[1] - xs[0]
    for i, pt in enumerate(pts):
        if not inside[i]:
            continue
        t = (vals[i] - vmin) / span
        r_ = int(40 + 215 * t)
        b_ = int(255 - 215 * t)
        lo, hi = pt - h / 2, pt + h / 2
        x, y = cv._px((lo[0], hi[1]))
        x2, y2 = cv._px((hi[0], lo[1]))
        cv.elems.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{x2 - x:.2f}" height="{y2 - y:.2f}" '
            f'fill="rgb({r_},80,{b_})" opacity="1.0"/>'
        )
    cv.circle(c, R, stroke="#000000", width=1.0)
    cv.text((c[0] - R, c[1] + R), f"p range [{vmin:.3f}, {vmax:.3f}]", size=11)
    return cv


def _field(kind: str, disk: Disk) -> ExponentField:
    """An exponent field of the kind on the disk, with its variation scaled to the radius."""
    c, R = np.asarray(disk.center), disk.radius
    if kind == "constant":
        return ExponentField.constant(1.6, disk)
    if kind == "grid":
        vals = 1.3 + 0.4 * np.random.default_rng(3).random((6, 5))
        return ExponentField("grid", disk, 1.3, 1.7, {
            "x0": c[0] - R, "y0": c[1] - R, "dx": 2 * R / 4, "dy": 2 * R / 5, "values": vals,
        })
    a = np.array([0.1, 0.05]) / R
    u = np.array([0.6, 0.8])
    params, bounds = {
        "affine": ({"form": "affine", "p0": 1.5 - float(a @ c), "a": list(a)}, (1.3, 1.7)),
        "radial_log": ({"form": "radial_log", "p0": 1.3, "c": 0.1, "x0": list(c), "r_cap": 0.5},
                       (1.3, 1.45)),
        "radial_power": ({"form": "radial_power", "p0": 1.2, "c": 0.7 / R, "x0": list(c)},
                         (1.2, 1.9)),
        "ridge_power": ({"form": "ridge_power", "p0": 1.3, "c": 0.4 / R, "u": list(u),
                         "b": float(u @ c)}, (1.3, 1.7)),
    }[kind]
    return ExponentField("closed_form", disk, *bounds, params)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["constant", "grid", "affine", "radial_log", "radial_power", "ridge_power"]),
    st.floats(-2.0, 2.0),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_draw_field_equals_the_per_rect_loop(kind, log_r, offset):
    R = 10.0**log_r
    disk = Disk((R * offset[0], R * offset[1] + 0.5), R)
    p = _field(kind, disk)
    assert draw_field(p, disk).tostring() == _draw_field_per_rect(p, disk).tostring()


def test_norms_figure_on_a_rect_domain_equals_the_per_rect_loop(tmp_path):
    field = {
        "kind": "closed_form",
        "domain": {"type": "rect", "x0": -1.0, "x1": 1.0, "y0": -1.0, "y1": 1.0},
        "p_minus": 1.3, "p_plus": 1.7,
        "params": {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]},
    }
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"name": "n", "seed": 7, "pipeline": "norms",
                                "exponent_field": field, "params": {"n_functions": 4}}))
    assert run_scenario(str(path), out_dir=str(tmp_path / "o")) == 0
    got = (tmp_path / "o" / "n" / "figures" / "exponent_field.svg").read_text()
    want = _draw_field_per_rect(ExponentField.from_json(field), Disk((0.0, 0.0), 1.0))
    assert got == want.tostring()


def test_draw_profile_plots_negative_values_where_they_are():
    """A negative y is drawn at its own height: the middle of -1, 0, 1 sits
    at the middle of the canvas."""
    cv = draw_profile([(0.0, -1.0), (1.0, 0.0), (2.0, 1.0)], size=640)
    circles = [e for e in cv.elems if e.startswith("<circle")]
    assert 'cy="320.00"' in circles[1]

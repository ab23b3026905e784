"""Tiny deterministic SVG writer for jump sets, ball covers, profile curves
and exponent fields. No timestamps, no generated ids: byte-identical output for
identical input."""
from __future__ import annotations

import numpy as np

FAMILY_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
]


class SvgCanvas:
    def __init__(self, size: int = 640, bounds=(-1.1, 1.1, -1.1, 1.1)):
        self.size = size
        self.x0, self.x1, self.y0, self.y1 = bounds
        self.elems: list[str] = []

    def _px(self, pt):
        sx = self.size / (self.x1 - self.x0)
        sy = self.size / (self.y1 - self.y0)
        return (
            (pt[0] - self.x0) * sx,
            self.size - (pt[1] - self.y0) * sy,
        )

    def _scale(self, r: float) -> float:
        return r * self.size / (self.x1 - self.x0)

    def circle(self, center, radius, stroke="#333333", fill="none", width=1.0, opacity=1.0):
        cx, cy = self._px(center)
        self.elems.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{self._scale(radius):.2f}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{width}" opacity="{opacity}"/>'
        )

    def line(self, a, b, stroke="#000000", width=1.0, opacity=1.0):
        ax, ay = self._px(a)
        bx, by = self._px(b)
        self.elems.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}" opacity="{opacity}"/>'
        )

    def polyline(self, pts, stroke="#000000", width=1.2, opacity=1.0):
        s = " ".join("%.2f,%.2f" % self._px(p) for p in pts)
        self.elems.append(
            f'<polyline points="{s}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}" opacity="{opacity}"/>'
        )

    def rects(self, lo, hi, fills, opacity=1.0):
        """One rectangle [lo_i, hi_i] of fill fills[i] per row of the (n, 2)
        arrays lo and hi, converted to pixels as arrays and formatted in one pass."""
        x, y = self._px((lo[:, 0], hi[:, 1]))
        x2, y2 = self._px((hi[:, 0], lo[:, 1]))
        self.elems += [
            f'<rect x="{a:.2f}" y="{b:.2f}" width="{c:.2f}" height="{d:.2f}" '
            f'fill="{fill}" opacity="{opacity}"/>'
            for a, b, c, d, fill in zip(
                x.tolist(), y.tolist(), (x2 - x).tolist(), (y2 - y).tolist(), fills
            )
        ]

    def text(self, pos, s, size=12, fill="#000000"):
        x, y = self._px(pos)
        self.elems.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" fill="{fill}" '
            f'font-family="monospace">{s}</text>'
        )

    def tostring(self) -> str:
        body = "\n".join(self.elems)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.tostring())


def draw_map(u, family=None, path=None, size: int = 640):
    """Domain, patch circles, jump set (trace-side colouring) and optional
    ball cover."""
    c = np.asarray(u.domain.center)
    R = u.domain.radius
    cv = SvgCanvas(size, (c[0] - 1.1 * R, c[0] + 1.1 * R, c[1] - 1.1 * R, c[1] + 1.1 * R))
    cv.circle(c, R, stroke="#222222", width=1.5)
    for patch in u.patches[1:]:
        cv.circle(patch.circle.center, patch.circle.radius, stroke="#2ca02c", width=0.8, opacity=0.7)
    if family is not None and len(family) > 0:
        for x, r, f in zip(family.centers, family.radii, family.family_index):
            cv.circle(x, r, stroke=FAMILY_COLORS[(f - 1) % len(FAMILY_COLORS)], width=1.2)
    if len(u.jump) > 0:
        amp = np.linalg.norm(u.jump.trace_plus - u.jump.trace_minus, axis=1)
        amax = max(float(amp.max()), 1e-12)
        for i in range(len(u.jump)):
            w = 1.0 + 2.0 * amp[i] / amax
            cv.line(u.jump.a[i], u.jump.b[i], stroke="#d62728", width=w)
            mid = 0.5 * (u.jump.a[i] + u.jump.b[i])
            nv = u.jump.normal[i] * 0.02 * R
            cv.line(mid, mid + nv, stroke="#1f77b4", width=0.8)
            cv.line(mid, mid - nv, stroke="#ff7f0e", width=0.8)
    if path:
        cv.save(path)
    return cv


def draw_profile(rows, path=None, size: int = 640):
    """Polyline chart of (x, y) rows, e.g. (rho, F/rho) or (R, margin)."""
    xs = [float(x) for x, _ in rows]
    ys = [float(y) for _, y in rows]
    pad_x = 0.05 * (max(xs) - min(xs) + 1e-12)
    pad_y = 0.05 * (max(ys) - min(ys) + 1e-12)
    cv = SvgCanvas(size, (min(xs) - pad_x, max(xs) + pad_x, min(ys) - pad_y, max(ys) + pad_y))
    cv.polyline(list(zip(xs, ys)), stroke="#1f77b4", width=1.5)
    for x, y in zip(xs, ys):
        cv.circle((x, y), 0.006 * (max(xs) - min(xs) + 1e-12), stroke="#1f77b4", fill="#1f77b4")
    if path:
        cv.save(path)
    return cv


def draw_field(p, domain, path=None, size: int = 320, n: int = 48):
    """Heat map of an exponent field on a disk domain."""
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
    t = (vals[inside] - vmin) / span
    reds = (40 + 215 * t).astype(int).tolist()
    blues = (255 - 215 * t).astype(int).tolist()
    cells = pts[inside]
    cv.rects(cells - h / 2, cells + h / 2, [f"rgb({r},80,{b})" for r, b in zip(reds, blues)])
    cv.circle(c, R, stroke="#000000", width=1.0)
    cv.text((c[0] - R, c[1] + R), f"p range [{vmin:.3f}, {vmax:.3f}]", size=11)
    if path:
        cv.save(path)
    return cv

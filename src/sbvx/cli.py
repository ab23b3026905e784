"""Scenario runner: config ingestion, pipeline execution, artifact output.

Subcommands:
    run     execute one scenario file; writes report.json, data.csv, and
            figures/*.svg into the output directory; exit 0 iff every
            asserted inequality holds, 1 on an assertion failure (named),
            2 on a schema violation.
    corpus  expand a generator spec into a directory of scenario files.
    render  run a scenario as run does, exit codes included, but write
            only its figures: no report.json, data.csv or meta.json.

Timestamps and host info live in meta.json so report.json stays
byte-identical across reruns of the same scenario.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from .counterex3d import build_complex, verify_violation
from .energy import DensityProbeConfig, density_probe, jump_criterion_profile, scale_map_values
from .errors import ToolkitError
from .quadrature import Disk
from .retract import RetractionConfig, project_w
from .sbv2d import DiscreteSbvMap
from .sobolev_approx import RESID_TOL_FACTOR, cover_jump, global_approx
from .svgplot import draw_field, draw_map, draw_profile
from .synth import KINDS, synthesize
from .vexp import ExponentField, modulars_and_norms

PIPELINES = ("norms", "approximate", "cover", "retract", "energy-probe", "counterexample")
OUT_ENV = "SBVX_OUT"


class SchemaError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class AssertionFailure(Exception):
    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def _require(obj: dict, key: str, path: str, typ=None):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{path}.{key}", f"expected {typ}, got {type(val).__name__}")
    return val


def _check_numbers(obj: dict, path: str, arrays=("radii", "off_point")):
    """A SchemaError naming path.key unless each value of obj is a number,
    or for a key in arrays nested lists of numbers of one shape."""
    for key, val in obj.items():
        try:
            arr = np.asarray(val)
        except ValueError:  # ragged lists
            arr = np.asarray(None)
        if arr.dtype.kind not in "biuf" or (arr.ndim > 0 and key not in arrays):
            raise SchemaError(f"{path}.{key}", f"expected {'numbers' if key in arrays else 'a number'}, got {val!r}")


def _sanitize(obj):
    """Make report objects JSON-serialisable and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def load_scenario(path: str) -> dict:
    try:
        with open(path) as f:
            sc = json.load(f)
    except FileNotFoundError:
        raise SchemaError(path, "scenario file not found")
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"invalid JSON: {e}")
    if not isinstance(sc, dict):
        raise SchemaError("scenario", f"expected a JSON object, got {type(sc).__name__}")
    _require(sc, "name", "scenario", str)
    _require(sc, "seed", "scenario", int)
    pipeline = _require(sc, "pipeline", "scenario", str)
    if pipeline not in PIPELINES:
        raise SchemaError("scenario.pipeline", f"must be one of {PIPELINES}")
    if pipeline != "counterexample":
        _require(sc, "exponent_field", "scenario", dict)
    if "tolerances" in sc:
        raise SchemaError("scenario.tolerances", "not read: each check's slack is fixed (docs/schema.md)")
    sc.setdefault("params", {})
    _check_numbers(_require(sc, "params", "scenario", dict), "scenario.params")
    return sc


def _field_from_scenario(sc: dict) -> ExponentField:
    try:
        return ExponentField.from_json(sc["exponent_field"])
    except (KeyError, TypeError, ValueError, ToolkitError) as e:  # parsing outside input
        raise SchemaError("scenario.exponent_field", f"{type(e).__name__}: {e}")


def _map_from_scenario(sc: dict, seed: int) -> DiscreteSbvMap:
    spec = _require(sc, "map", "scenario", dict)
    if "file" in spec:
        try:
            with open(spec["file"]) as f:
                return DiscreteSbvMap.from_json(json.load(f))
        except (OSError, ValueError, KeyError, TypeError) as e:  # unreadable, not JSON, or not a map
            raise SchemaError("scenario.map.file", f"no map in {spec['file']}: {type(e).__name__}: {e}")
    kind = _require(spec, "kind", "scenario.map", str)
    if kind not in KINDS:
        raise SchemaError("scenario.map.kind", f"must be one of {KINDS}")
    spec.setdefault("params", {})
    params = dict(_require(spec, "params", "scenario.map", dict))
    path = "scenario.map.params"
    _check_numbers({k: v for k, v in params.items() if k != "domain"}, path, tuple(_MAP_SHAPES))
    for key in (key for key in _MAP_COUNTS if key in params):
        if isinstance(params[key], bool) or not isinstance(params[key], int) or params[key] < 1:
            raise SchemaError(f"{path}.{key}", f"expected a positive integer, got {params[key]!r}")
    for key, shape in _MAP_SHAPES.items():
        if key in params:
            params[key] = np.asarray(params[key], dtype=float)
            want = tuple(params.get("k", 2) if n == "k" else n for n in shape)
            if params[key].shape != want:
                raise SchemaError(f"{path}.{key}", f"expected shape {want}, got {params[key].shape}")
    if kind == "piecewise-constant-with-arc-jump":
        _require(params, "budget", path)
    if "domain" in params:
        dom = _require(params, "domain", path, dict)
        center, radius = _require(dom, "center", f"{path}.domain"), _require(dom, "radius", f"{path}.domain")
        _check_numbers({"center": center, "radius": radius}, f"{path}.domain", ("center",))
        if np.shape(center) != (2,) or not radius > 0:
            raise SchemaError(f"{path}.domain", f"expected a centre [x, y] and a radius > 0, got {dom!r}")
        params["domain"] = Disk.from_json(dom)
    return synthesize(kind, params, seed)


# the synthesizers' params that count something, and the shape of each array
# param ("k": the map's dimension, param k, default 2)
_MAP_COUNTS = ("k", "n_rings", "n_sides", "n_points", "jump_segments", "slit_segments")
_MAP_SHAPES = {"G": ("k", 2), "u0": ("k",), "c_in": ("k",), "c_out": ("k",), "loop_center": (2,)}


# ---------------------------------------------------------------------------
# pipelines: each returns (report dict, data rows, figure painter, records)
# ---------------------------------------------------------------------------

# A record (name, lhs, rhs, slack, detail) asserts lhs <= rhs + slack. The slacks are fixed: no_new_jump and
# jump_free_srho allow RESID_TOL_FACTOR times the domain radius, outside_identity and annulus_lower_bound 0.
ROUND_OFF_SLACK = 1e-12  # the cover_* and family_* bounds, union_containment
NORM_MODULAR_SLACK = 1e-8
SUP_SLACK = 1e-9  # linf_nonexpansion, sphere_constraint; chebyshev_surrogate times the mean
STRICT = -np.nextafter(0.0, 1.0)  # total_measure: a negative slack, so rhs - lhs must be > 0


def check(records) -> list[dict]:
    """The report's checks: name, lhs, rhs, slack and margin rhs - lhs of each
    record. AssertionFailure(name, detail) at the first that fails; a NaN fails."""
    for name, lhs, rhs, slack, detail in records:
        if not (rhs - lhs >= -slack):
            raise AssertionFailure(name, detail)
    return [{"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "margin": rhs - lhs}
            for name, lhs, rhs, slack, _ in records]


def _pipe_norms(sc, seed):
    p = _field_from_scenario(sc)
    params = sc["params"]
    n_funcs = int(params.get("n_functions", 50))
    rng = np.random.default_rng(seed)
    dom = p.domain
    rows = [("index", "modular", "norm", "branch", "lower", "upper", "margin")]

    def draw():
        amp = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        freq = rng.uniform(0.5, 4.0, 2)
        phase = 2 * np.pi * rng.random()

        def f(pts):  # amp * (0.3 + |sin(pts @ freq + phase)|), in place
            x = pts[:, 0] * freq[0]  # elementwise, not a BLAS gemv: no dependence on BLAS threads
            x += pts[:, 1] * freq[1]
            x += phase
            np.sin(x, out=x)
            np.abs(x, out=x)
            x += 0.3
            x *= amp
            return x

        return f

    fs = [draw() for _ in range(n_funcs)]
    for i, (m, nrm) in enumerate(modulars_and_norms(fs, p, dom)):
        if nrm > 1:
            lo, hi = m ** (1 / p.p_plus), m ** (1 / p.p_minus)
            branch = ">1"
        else:
            lo, hi = m ** (1 / p.p_minus), m ** (1 / p.p_plus)
            branch = "<=1"
        rows.append((i, m, nrm, branch, lo, hi, min(nrm - lo, hi - nrm)))
    margins = [row[-1] for row in rows[1:]]
    records = []
    if margins:  # the worst function; argmin finds a NaN first
        i, m, nrm, _, lo, hi, _ = rows[1 + int(np.argmin(margins))]
        records.append(("norm_modular_inequality", *((lo, nrm) if nrm - lo <= hi - nrm else (nrm, hi)),
                        NORM_MODULAR_SLACK, f"function {i}: norm {nrm:.12g} outside [{lo:.12g}, {hi:.12g}]"))
    report = {"pipeline": "norms", "n_functions": n_funcs, "worst_margin": min(margins, default=np.inf),
              "tolerance": NORM_MODULAR_SLACK, "p_minus": p.p_minus, "p_plus": p.p_plus}

    def figures(figdir):
        # figure policy: the field is drawn on a disk, a rect domain's on the unit disk
        draw_field(p, dom if isinstance(dom, Disk) else Disk((0, 0), 1.0),
                   path=os.path.join(figdir, "exponent_field.svg"))

    return report, rows, figures, records


def _pipe_cover(sc, seed):
    p = _field_from_scenario(sc)
    u = _map_from_scenario(sc, seed)
    params = sc["params"]
    s = float(params.get("s", 0.75))
    eta = float(params.get("eta", 0.05))
    fam = cover_jump(u, s, eta, seed=seed)
    st = dict(fam.stats) if len(fam) else {}
    report = {"pipeline": "cover", "n_balls": len(fam), "xi_hat": fam.xi_hat, "stats": st}
    records = [
        ("cover_perimeter", st["total_perimeter"], st["perimeter_bound"], ROUND_OFF_SLACK,
         "perimeter bound violated"),
        ("cover_area", st["total_area"], st["area_bound_min_form"], ROUND_OFF_SLACK, "min-form area bound violated"),
        ("cover_containment", st["max_center_norm_plus_radius"], (1 + s) / 2 * u.domain.radius, ROUND_OFF_SLACK,
         "union escapes B_(1+s)rho/2"),
    ] if len(fam) else []
    rows = [("center_x", "center_y", "radius", "family")]
    for c, r, f in zip(fam.centers, fam.radii, fam.family_index):
        rows.append((c[0], c[1], r, int(f)))

    def figures(figdir):
        draw_map(u, family=fam, path=os.path.join(figdir, "cover.svg"))

    return report, rows, figures, records


def _pipe_approximate(sc, seed):
    p = _field_from_scenario(sc)
    u = _map_from_scenario(sc, seed)
    params = sc["params"]
    s = float(params.get("s", 0.75))
    eta = float(params.get("eta", 0.05))
    rep = global_approx(u, p, s, eta, seed=seed, h_max=int(params.get("h_max", 5)))
    e = rep.estimates
    resid = RESID_TOL_FACTOR * u.domain.radius
    records = [
        ("no_new_jump", e["jump_new"], 0.0, resid, f"jump_new = {e['jump_new']:.3g}"),
        ("jump_free_srho", e["jump_residual_srho"], 0.0, resid, f"residual = {e['jump_residual_srho']:.3g}"),
        ("outside_identity", e["outside_identity_max_error"], 0.0, 0.0,
         f"max error {e['outside_identity_max_error']:.3g}"),
        ("linf_nonexpansion", e["linf_out"], e["linf_in"], SUP_SLACK, f"{e['linf_out']:.9g} vs {e['linf_in']:.9g}"),
    ]
    if len(rep.family):
        records += [
            ("family_perimeter", e["family_perimeter"], e["family_perimeter_bound"], ROUND_OFF_SLACK,
             f"{e['family_perimeter']:.6g} vs {e['family_perimeter_bound']:.6g}"),
            ("family_area", e["family_area"], e["family_area_bound_min_form"], ROUND_OFF_SLACK,
             f"{e['family_area']:.6g} vs {e['family_area_bound_min_form']:.6g}"),
            ("union_containment", 0.0, e["union_containment_margin"], ROUND_OFF_SLACK,
             f"margin {e['union_containment_margin']:.6g}"),
        ]
    report = {"pipeline": "approximate", "estimates": e}
    rows = [("key", "value")] + [(k, v) for k, v in sorted(e.items()) if np.isscalar(v)]

    def figures(figdir):
        draw_map(u, family=rep.family, path=os.path.join(figdir, "before.svg"))
        draw_map(rep.w, family=rep.family, path=os.path.join(figdir, "after.svg"))

    return report, rows, figures, records


def _pipe_retract(sc, seed):
    p = _field_from_scenario(sc)
    u = _map_from_scenario(sc, seed)
    params = sc["params"]
    scale = float(params.get("value_scale", 1.0))
    if scale != 1.0:
        u = scale_map_values(u, scale)
    sup_u = max(np.linalg.norm(q.values, axis=1).max() for q in u.patches)
    cfg = RetractionConfig(
        k=u.k,
        sigma=float(params.get("sigma", 0.05)),
        shift_samples=int(params.get("shift_samples", 64)),
        M_bound=float(params.get("M_bound", max(1.0, sup_u * (1 + 1e-9)))),
    )
    wt, rep = project_w(u, p, cfg, seed=seed)
    unit_dev = float(np.max([np.max(np.abs(np.linalg.norm(q.values, axis=1) - 1.0)) for q in wt.patches]))
    low, mean = rep["shift_modular_min"], rep["shift_modular_mean"]
    records = [
        ("sphere_constraint", unit_dev, 0.0, SUP_SLACK, f"unit deviation {unit_dev:.3g}"),
        ("chebyshev_surrogate", low, mean, SUP_SLACK * mean, f"min {low:.9g} exceeds mean {mean:.9g}"),
    ]
    report = {"pipeline": "retract", "projection": rep, "unit_deviation": unit_dev,
              "lambda_lip": cfg.lambda_lip}
    rows = [("key", "value")] + [(k, v) for k, v in sorted(rep.items()) if np.isscalar(v)]

    def figures(figdir):
        draw_map(wt, path=os.path.join(figdir, "projected.svg"))

    return report, rows, figures, records


def _pipe_energy_probe(sc, seed):
    p = _field_from_scenario(sc)
    u = _map_from_scenario(sc, seed)
    params = sc["params"]
    radii = params.get("radii", [0.08, 0.05, 0.032, 0.02, 0.0125, 0.008])
    probe = DensityProbeConfig(
        delta=float(params.get("delta", 0.1)),
        theta_delta=float(params.get("theta_delta", 0.5)),
        rho_prime=float(params.get("rho_prime", 0.1)),
        kappa_prime=float(params.get("kappa_prime", 1.0)),
    )
    rows = [("rho", "F_over_rho", "point")]
    profs = {}
    if len(u.jump):
        mid = 0.5 * (u.jump.a[0] + u.jump.b[0])
        prof, verdict, slope = jump_criterion_profile(u, p, mid, radii)
        profs["on_jump"] = {"verdict": verdict, "slope": slope,
                            "profile": [[r, v] for r, v in prof]}
        for r, v in prof:
            rows.append((r, v, "on_jump"))
        pts = 0.5 * (u.jump.a + u.jump.b)
        dp = density_probe(u, p, probe, pts[: int(params.get("n_probe_points", 8))])
        profs["density"] = {"theta_hat": dp["theta_hat"], "n_violations": len(dp["violations"])}
    x_off = np.asarray(params.get("off_point", np.asarray(u.domain.center)))
    prof2, verdict2, slope2 = jump_criterion_profile(u, p, x_off, radii)
    profs["off_point"] = {"verdict": verdict2, "slope": slope2,
                          "profile": [[r, v] for r, v in prof2]}
    for r, v in prof2:
        rows.append((r, v, "off_point"))
    report = {"pipeline": "energy-probe", "profiles": profs}

    def figures(figdir):
        draw_profile(prof2, path=os.path.join(figdir, "profile_off.svg"))
        if "on_jump" in profs:
            draw_profile(profs["on_jump"]["profile"], path=os.path.join(figdir, "profile_on.svg"))

    return report, rows, figures, []


def _pipe_counterexample(sc, seed):
    params = sc["params"]
    eps = float(params.get("epsilon", 0.1))
    C = float(params.get("C_target", 5.0))
    cx = build_complex(eps, C, int(params.get("axis_count", 64)), seed=seed)
    rep = verify_violation(cx, h=cx.h0)  # the rows at h0, with no raise of its own
    worst = rep["rows"][int(np.argmin([r["margin"] for r in rep["rows"]]))]
    h2 = cx.total_surface_measure()
    # a margin is the band's area over C eps delta^2; the construction enforces H2 < eps too
    records = [
        ("annulus_lower_bound", 1.0, worst["margin"], 0.0,
         f"min margin {worst['margin']:.4g} at R = {worst['R']:.6g}"),
        ("total_measure", h2, eps, STRICT, f"H2 = {h2:.4g} >= eps"),
    ]
    report = {
        "pipeline": "counterexample", "epsilon": eps, "C_target": C,
        "kappa": cx.kappa, "h0": cx.h0, "n_cones": len(cx.axes),
        "H2_total": h2, "min_margin": rep["min_margin"],
    }
    rows = [("R", "delta", "area", "bound", "margin")]
    for r in rep["rows"]:
        rows.append((r["R"], r["delta"], r["area"], r["bound"], r["margin"]))

    def figures(figdir):
        draw_profile([(r["R"], r["margin"]) for r in rep["rows"]],
                     path=os.path.join(figdir, "margins.svg"))
        if params.get("export_obj"):
            with open(os.path.join(figdir, "cones.obj"), "w") as f:
                f.write(cx.to_obj())

    return report, rows, figures, records


_PIPE_FUNCS = {
    "norms": _pipe_norms,
    "cover": _pipe_cover,
    "approximate": _pipe_approximate,
    "retract": _pipe_retract,
    "energy-probe": _pipe_energy_probe,
    "counterexample": _pipe_counterexample,
}


def run_scenario(scenario_path: str, out_dir: str | None = None,
                 seed_override: int | None = None, figures_only: bool = False) -> int:
    """Execute a scenario; returns the process exit code."""
    try:
        sc = load_scenario(scenario_path)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    out = out_dir or sc.get("out_dir") or os.environ.get(OUT_ENV) or "out"
    out_path = Path(out) / sc["name"]
    figdir = out_path / "figures"
    figdir.mkdir(parents=True, exist_ok=True)
    seed = int(seed_override if seed_override is not None else sc["seed"])
    t_start = time.time()
    try:
        report, rows, figures, records = _PIPE_FUNCS[sc["pipeline"]](sc, seed)
        report["checks"] = check(records)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except AssertionFailure as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 1
    except ToolkitError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return 1

    report["scenario"] = {"name": sc["name"], "seed": seed, "pipeline": sc["pipeline"]}
    if not figures_only:
        with open(out_path / "report.json", "w") as f:
            json.dump(_sanitize(report), f, sort_keys=True, indent=2)
            f.write("\n")
        with open(out_path / "data.csv", "w", newline="") as f:
            csv.writer(f).writerows(rows)
        with open(out_path / "meta.json", "w") as f:
            json.dump(
                {
                    "elapsed_s": time.time() - t_start,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "platform": platform.platform(),
                },
                f, indent=2,
            )
            f.write("\n")
    figures(str(figdir))
    return 0


def build_corpus(spec_path: str, out_dir: str | None = None) -> int:
    """Expand a corpus spec into scenario files with derived seeds."""
    try:
        with open(spec_path) as f:
            spec = json.load(f)
        if not isinstance(spec, dict):
            raise SchemaError("corpus", f"expected a JSON object, got {type(spec).__name__}")
        base_seed = _require(spec, "base_seed", "corpus", int)
        groups = _require(spec, "groups", "corpus", list)
        for gi, grp in enumerate(groups):
            if not isinstance(grp, dict):
                raise SchemaError(f"corpus.groups[{gi}]", f"expected an object, got {type(grp).__name__}")
            _check_numbers({"count": grp.get("count", 1)}, f"corpus.groups[{gi}]", ())
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as e:
        print(f"schema error: {spec_path}: {e}", file=sys.stderr)
        return 2
    out = Path(out_dir or spec.get("out_dir") or os.environ.get(OUT_ENV) or "corpus")
    out.mkdir(parents=True, exist_ok=True)
    n_written = 0
    for gi, grp in enumerate(groups):
        count = int(grp.get("count", 1))
        for i in range(count):
            sc = {k: v for k, v in grp.items() if k not in ("count",)}
            sc["name"] = f"{grp.get('name', 'scenario')}_{i:03d}"
            sc["seed"] = base_seed + 1000 * gi + i
            path = out / f"{sc['name']}.json"
            with open(path, "w") as f:
                json.dump(_sanitize(sc), f, sort_keys=True, indent=2)
                f.write("\n")
            n_written += 1
    print(f"wrote {n_written} scenarios to {out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sbvx", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed-override", type=int, default=None)

    cor_p = sub.add_parser("corpus", help="generate scenario files")
    cor_p.add_argument("--spec", required=True)
    cor_p.add_argument("--out", default=None)

    ren_p = sub.add_parser("render", help="regenerate scenario figures")
    ren_p.add_argument("--scenario", required=True)
    ren_p.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    if args.cmd == "run":
        return run_scenario(args.scenario, args.out, args.seed_override)
    if args.cmd == "corpus":
        return build_corpus(args.spec, args.out)
    if args.cmd == "render":
        return run_scenario(args.scenario, args.out, figures_only=True)
    return 2


if __name__ == "__main__":
    sys.exit(main())

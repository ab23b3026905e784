import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import sbvx
from sbvx import cli
from sbvx.cli import build_corpus, main, run_scenario
from sbvx.counterex3d import ConeComplex
from sbvx.energy import scale_map_values

FIELD = {
    "kind": "closed_form",
    "domain": {"type": "disk", "center": [0, 0], "radius": 1.0},
    "p_minus": 1.3, "p_plus": 1.7,
    "params": {"form": "affine", "p0": 1.5, "a": [0.1, 0.05]},
}


def write_scenario(path, **kw):
    sc = {
        "name": kw.pop("name", "t"),
        "seed": kw.pop("seed", 7),
        "pipeline": kw.pop("pipeline"),
        "exponent_field": FIELD,
    }
    sc.update(kw)
    with open(path, "w") as f:
        json.dump(sc, f)
    return path


def test_run_affine_approximate_exit_zero(tmp_path):
    p = write_scenario(
        tmp_path / "a.json", name="aff", pipeline="approximate",
        map={"kind": "affine", "params": {"G": [[0.4, 0.1], [0.0, 0.2]]}},
        params={"s": 0.75, "eta": 0.05},
    )
    rc = run_scenario(str(p), out_dir=str(tmp_path / "out"))
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "aff" / "report.json").read_text())
    assert rep["estimates"]["l1_distance"] < 1e-10
    assert (tmp_path / "out" / "aff" / "data.csv").exists()
    assert (tmp_path / "out" / "aff" / "meta.json").exists()


def test_run_counterexample_margins(tmp_path):
    p = write_scenario(
        tmp_path / "c.json", name="ctr", pipeline="counterexample",
        params={"epsilon": 0.1, "C_target": 5.0},
    )
    rc = run_scenario(str(p), out_dir=str(tmp_path / "out"))
    assert rc == 0
    rows = (tmp_path / "out" / "ctr" / "data.csv").read_text().strip().splitlines()
    assert len(rows) == 33  # header + 32 radii
    margins = [float(r.split(",")[-1]) for r in rows[1:]]
    assert all(m >= 1.0 for m in margins)


def test_run_missing_seed_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "pipeline": "norms", "exponent_field": FIELD}))
    assert run_scenario(str(bad), out_dir=str(tmp_path / "out")) == 2


def test_run_unknown_pipeline_exit_two(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"name": "x", "seed": 1, "pipeline": "nope",
                               "exponent_field": FIELD}))
    assert run_scenario(str(bad), out_dir=str(tmp_path / "out")) == 2


def test_run_missing_file_exit_two(tmp_path):
    assert run_scenario(str(tmp_path / "absent.json"), out_dir=str(tmp_path / "out")) == 2


@pytest.mark.parametrize("content", [None, "{not json", '{"patches": []}', "[1, 2]"],
                         ids=["missing", "invalid_json", "missing_key", "not_an_object"])
def test_run_bad_map_file_exit_two(tmp_path, capsys, content):
    """A map.file that cannot be read, is not JSON, is not a JSON object or
    lacks a field of the map is a schema violation of scenario.map.file."""
    map_file = tmp_path / "map.json"
    if content is not None:
        map_file.write_text(content)
    p = write_scenario(tmp_path / "c.json", name="bad_map", pipeline="cover",
                       map={"file": str(map_file)}, params={"s": 0.75, "eta": 0.05})
    assert run_scenario(str(p), out_dir=str(tmp_path / "out")) == 2
    assert "schema error: scenario.map.file" in capsys.readouterr().err


GOOD_COVER = {"name": "g", "seed": 7, "pipeline": "cover", "exponent_field": FIELD,
              "map": {"kind": "affine", "params": {"G": [[0.4, 0.1], [0.0, 0.2]]}},
              "params": {"s": 0.75, "eta": 0.05}}


@pytest.mark.parametrize("scenario, path", [
    (5, "scenario"),
    ({**GOOD_COVER, "params": [1]}, "scenario.params"),
    ({**GOOD_COVER, "params": {"s": "abc"}}, "scenario.params.s"),
    ({**GOOD_COVER, "tolerances": 3}, "scenario.tolerances"),
    ({**GOOD_COVER, "tolerances": {"residual": 1}}, "scenario.tolerances"),
    ({**GOOD_COVER, "map": {"params": {"G": "x"}}}, "scenario.map.kind"),
    ({**GOOD_COVER, "map": {"kind": "affine", "params": {"G": "x"}}}, "scenario.map.params.G"),
    ({**GOOD_COVER, "map": {"kind": "affine", "params": {"k": "2"}}}, "scenario.map.params.k"),
    ({**GOOD_COVER, "map": {"kind": "random-cells-with-random-polyline", "params": {"budget": 0.01, "k": 2.5}}},
     "scenario.map.params.k"),
    ({**GOOD_COVER, "map": {"kind": "affine", "params": {"n_rings": 2.5}}}, "scenario.map.params.n_rings"),
    ({**GOOD_COVER, "map": {"kind": "piecewise-constant-with-arc-jump", "params": {"k": 2}}},
     "scenario.map.params.budget"),
    ({**GOOD_COVER, "map": {"kind": "affine", "params": {"domain": {"center": [0.0, 0.0]}}}},
     "scenario.map.params.domain.radius"),
    ({**GOOD_COVER, "map": {"kind": "affine", "params": {"G": [1.0, 2.0]}}}, "scenario.map.params.G"),
    ({**GOOD_COVER, "map": {"kind": "spiral", "params": {}}}, "scenario.map.kind"),
    ({**GOOD_COVER, "exponent_field": {**FIELD, "p_minus": "x"}}, "scenario.exponent_field"),
], ids=["number", "params_list", "param_string", "tolerances_number", "tolerances_override", "map_without_kind",
        "map_G_string", "map_k_string", "map_k_fraction", "map_n_rings_fraction", "map_without_budget",
        "domain_without_radius", "map_G_vector", "map_unknown_kind", "field_bound_string"])
def test_malformed_scenario_exit_two(tmp_path, capsys, scenario, path):
    """A malformed scenario is a schema violation that names the field's
    path (exit 2), never a traceback; the good scenario it is made from
    runs (exit 0)."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    assert run_scenario(str(bad), out_dir=str(tmp_path / "out")) == 2
    assert f"schema error: {path}:" in capsys.readouterr().err


def test_good_cover_scenario_exit_zero(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_COVER))
    assert run_scenario(str(good), out_dir=str(tmp_path / "out")) == 0


@pytest.mark.parametrize("spec, path", [
    (5, "corpus"),
    ({"base_seed": 1, "groups": [3]}, "corpus.groups[0]"),
    ({"base_seed": 1, "groups": [{"name": "a", "count": "x"}]}, "corpus.groups[0].count"),
], ids=["number", "group_number", "count_string"])
def test_malformed_corpus_spec_exit_two(tmp_path, capsys, spec, path):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    assert build_corpus(str(spath), str(tmp_path / "corp")) == 2
    assert f"schema error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pipeline,extra",
    [
        ("norms", {"params": {"n_functions": 8}}),
        ("cover", {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}},
                   "params": {"s": 0.75, "eta": 0.05}}),
        ("approximate", {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}},
                         "params": {"s": 0.75, "eta": 0.05}}),
        ("retract", {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.01}},
                     "params": {"value_scale": 0.9, "M_bound": 1.0}}),
        ("energy-probe", {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.05}},
                          "params": {"off_point": [-0.4, -0.4]}}),
        ("counterexample", {"params": {"epsilon": 0.1, "C_target": 5.0}}),
    ],
)
def test_determinism_all_pipelines(tmp_path, pipeline, extra):
    p = write_scenario(tmp_path / f"{pipeline}.json", name=f"d_{pipeline}",
                       pipeline=pipeline, **extra)
    assert run_scenario(str(p), out_dir=str(tmp_path / "o1")) == 0
    assert run_scenario(str(p), out_dir=str(tmp_path / "o2")) == 0
    r1 = (tmp_path / "o1" / f"d_{pipeline}" / "report.json").read_bytes()
    r2 = (tmp_path / "o2" / f"d_{pipeline}" / "report.json").read_bytes()
    assert r1 == r2
    d1 = (tmp_path / "o1" / f"d_{pipeline}" / "data.csv").read_bytes()
    d2 = (tmp_path / "o2" / f"d_{pipeline}" / "data.csv").read_bytes()
    assert d1 == d2
    figs = sorted(os.listdir(tmp_path / "o1" / f"d_{pipeline}" / "figures"))
    for f in figs:
        b1 = (tmp_path / "o1" / f"d_{pipeline}" / "figures" / f).read_bytes()
        b2 = (tmp_path / "o2" / f"d_{pipeline}" / "figures" / f).read_bytes()
        assert b1 == b2


def test_import_and_cover_run_load_no_scipy_spatial(tmp_path):
    """import sbvx and sbvx.cli, a cover run, a criterion-1 local_phi call
    on an affine map and an approximate run leave scipy.spatial unloaded. A
    fresh interpreter, since this test process has loaded it."""
    p = write_scenario(
        tmp_path / "c.json", name="cold", pipeline="cover",
        map={"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}},
        params={"s": 0.75, "eta": 0.05},
    )
    a = write_scenario(
        tmp_path / "a.json", name="cold_a", pipeline="approximate",
        map={"kind": "piecewise-constant-with-arc-jump", "params": {"budget": 0.003, "k": 2}},
        params={"s": 0.75, "eta": 0.05},
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    code = textwrap.dedent(f"""
        import sys
        import sbvx, sbvx.cli
        assert "scipy.spatial" not in sys.modules, "loaded by import"
        assert sbvx.cli.run_scenario({str(p)!r}, out_dir={str(tmp_path / "out")!r}) == 0
        assert "scipy.spatial" not in sys.modules, "loaded by the cover run"
        sys.path.insert(0, {tests!r})
        from test_acceptance import P_VAR, criterion_1_maps
        from sbvx.sobolev_approx import local_phi
        i, u = next(criterion_1_maps())
        local_phi(u, P_VAR, eta=0.05, seed=i)
        assert "scipy.spatial" not in sys.modules, "loaded by local_phi"
        assert sbvx.cli.run_scenario({str(a)!r}, out_dir={str(tmp_path / "out")!r}) == 0
        assert "scipy.spatial" not in sys.modules, "loaded by the approximate run"
    """)
    src = os.path.dirname(os.path.dirname(sbvx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_seed_override_changes_report(tmp_path):
    p = write_scenario(
        tmp_path / "s.json", name="sd", pipeline="cover",
        map={"kind": "random-cells-with-random-polyline", "params": {"budget": 0.003, "k": 2}},
        params={"s": 0.75, "eta": 0.05},
    )
    run_scenario(str(p), out_dir=str(tmp_path / "o1"))
    run_scenario(str(p), out_dir=str(tmp_path / "o2"), seed_override=1234)
    r1 = json.loads((tmp_path / "o1" / "sd" / "report.json").read_text())
    r2 = json.loads((tmp_path / "o2" / "sd" / "report.json").read_text())
    assert r1["scenario"]["seed"] != r2["scenario"]["seed"]


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SBVX_OUT", str(tmp_path / "envout"))
    p = write_scenario(tmp_path / "e.json", name="env", pipeline="norms",
                       params={"n_functions": 4})
    assert run_scenario(str(p)) == 0
    assert (tmp_path / "envout" / "env" / "report.json").exists()


def test_corpus_generation(tmp_path):
    spec = {
        "base_seed": 100,
        "groups": [
            {"name": "pw", "count": 30, "pipeline": "approximate",
             "exponent_field": FIELD,
             "map": {"kind": "piecewise-constant-with-arc-jump",
                     "params": {"budget": 0.003, "k": 2}},
             "params": {"s": 0.75, "eta": 0.05}},
            {"name": "vx", "count": 3, "pipeline": "cover",
             "exponent_field": FIELD,
             "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.002}},
             "params": {"s": 0.5, "eta": 0.05}},
        ],
    }
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    assert build_corpus(str(spath), str(tmp_path / "corp")) == 0
    files = sorted(os.listdir(tmp_path / "corp"))
    assert len(files) == 33
    seeds = set()
    for f in files:
        sc = json.loads((tmp_path / "corp" / f).read_text())
        seeds.add(sc["seed"])
    assert len(seeds) == 33  # all distinct
    # byte-identical rerun
    assert build_corpus(str(spath), str(tmp_path / "corp2")) == 0
    for f in files:
        assert (tmp_path / "corp" / f).read_bytes() == (tmp_path / "corp2" / f).read_bytes()


def test_render_subcommand(tmp_path):
    p = write_scenario(tmp_path / "r.json", name="rnd", pipeline="norms",
                       params={"n_functions": 4})
    rc = main(["render", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 0
    figs = os.listdir(tmp_path / "out" / "rnd" / "figures")
    assert figs
    assert not (tmp_path / "out" / "rnd" / "report.json").exists()


def test_main_run_subcommand(tmp_path):
    p = write_scenario(tmp_path / "m.json", name="m", pipeline="norms",
                       params={"n_functions": 4})
    rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "m" / "meta.json").read_text())
    assert set(meta) == {"elapsed_s", "timestamp", "platform"}


# ---------------------------------------------------------------------------
# every check fires: a measurement pushed past its bound exits 1 by name
# ---------------------------------------------------------------------------


def _assert_fails(tmp_path, capsys, scenario, name):
    assert run_scenario(str(scenario), out_dir=str(tmp_path / "out")) == 1
    assert f"assertion failed: {name}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "f" / "report.json").exists()


def test_short_annulus_band_fails_annulus_lower_bound(tmp_path, capsys, monkeypatch):
    band = ConeComplex.lateral_band_area
    monkeypatch.setattr(ConeComplex, "lateral_band_area",
                        lambda self, R, delta: 1e-3 * band(self, R, delta))
    p = write_scenario(tmp_path / "c.json", name="f", pipeline="counterexample",
                       params={"epsilon": 0.1, "C_target": 5.0})
    _assert_fails(tmp_path, capsys, p, "annulus_lower_bound")


def test_surface_measure_at_epsilon_fails_total_measure(tmp_path, capsys, monkeypatch):
    build = cli.build_complex

    def built(*args, **kw):  # the measure moves once the complex has passed its own checks
        cx = build(*args, **kw)
        monkeypatch.setattr(ConeComplex, "total_surface_measure", lambda self: self.epsilon)
        return cx

    monkeypatch.setattr(cli, "build_complex", built)
    p = write_scenario(tmp_path / "c.json", name="f", pipeline="counterexample",
                       params={"epsilon": 0.1, "C_target": 5.0})
    _assert_fails(tmp_path, capsys, p, "total_measure")


def test_norm_outside_its_modular_bounds_fails_norm_modular_inequality(tmp_path, capsys, monkeypatch):
    solve = cli.modulars_and_norms

    def solved(fs, p, region):
        out = solve(fs, p, region)
        m = out[3][0]  # function 3 gets a norm above both of its bounds
        out[3] = (m, 2 * max(1.0, m ** (1 / p.p_minus), m ** (1 / p.p_plus)))
        return out

    monkeypatch.setattr(cli, "modulars_and_norms", solved)
    p = write_scenario(tmp_path / "n.json", name="f", pipeline="norms", params={"n_functions": 6})
    _assert_fails(tmp_path, capsys, p, "norm_modular_inequality: function 3")


@pytest.mark.parametrize("key, bound, name", [
    ("total_perimeter", "perimeter_bound", "cover_perimeter"),
    ("total_area", "area_bound_min_form", "cover_area"),
    ("max_center_norm_plus_radius", None, "cover_containment"),
], ids=["cover_perimeter", "cover_area", "cover_containment"])
def test_cover_measure_past_its_bound_fails(tmp_path, capsys, monkeypatch, key, bound, name):
    cover = cli.cover_jump

    def covered(u, s, eta, seed):
        fam = cover(u, s, eta, seed=seed)
        limit = fam.stats[bound] if bound else (1 + s) / 2 * u.domain.radius
        return dataclasses.replace(fam, stats={**fam.stats, key: limit + 1e-9})

    monkeypatch.setattr(cli, "cover_jump", covered)
    p = write_scenario(tmp_path / "c.json", name="f", pipeline="cover",
                       map={"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}},
                       params={"s": 0.75, "eta": 0.05})
    _assert_fails(tmp_path, capsys, p, name)


def test_values_off_the_sphere_fail_sphere_constraint(tmp_path, capsys, monkeypatch):
    project = cli.project_w

    def projected(u, p, cfg, seed):
        wt, rep = project(u, p, cfg, seed=seed)
        return scale_map_values(wt, 1 + 1e-6), rep

    monkeypatch.setattr(cli, "project_w", projected)
    p = write_scenario(tmp_path / "r.json", name="f", pipeline="retract",
                       map={"kind": "sphere-vortex-with-slit", "params": {"budget": 0.01}},
                       params={"value_scale": 0.9, "M_bound": 1.0})
    _assert_fails(tmp_path, capsys, p, "sphere_constraint")


# the scenarios of the checks below: criterion 10's, with a covering family in approximate
CHECKED = {
    "norms": {"params": {"n_functions": 6}},
    "cover": {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}},
              "params": {"s": 0.75, "eta": 0.05}},
    "approximate": {"map": {"kind": "piecewise-constant-with-arc-jump", "params": {"budget": 0.003, "k": 2}},
                    "params": {"s": 0.75, "eta": 0.05}},
    "retract": {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.01}},
                "params": {"value_scale": 0.9, "M_bound": 1.0}},
    "energy-probe": {"map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.05}},
                     "params": {"off_point": [-0.4, -0.4]}},
    "counterexample": {"params": {"epsilon": 0.1, "C_target": 5.0}},
}
CHECK_NAMES = {
    "norms": ["norm_modular_inequality"],
    "cover": ["cover_perimeter", "cover_area", "cover_containment"],
    "approximate": ["no_new_jump", "jump_free_srho", "outside_identity", "linf_nonexpansion", "family_perimeter",
                    "family_area", "union_containment"],
    "retract": ["sphere_constraint", "chebyshev_surrogate"],
    "energy-probe": [],
    "counterexample": ["annulus_lower_bound", "total_measure"],
}


@pytest.mark.parametrize("pipeline", list(CHECKED))
def test_report_holds_each_check_with_its_margin_in_pipeline_order(tmp_path, pipeline):
    p = write_scenario(tmp_path / "s.json", name="ok", pipeline=pipeline, **CHECKED[pipeline])
    assert run_scenario(str(p), out_dir=str(tmp_path / "out")) == 0
    checks = json.loads((tmp_path / "out" / "ok" / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES[pipeline]
    for c in checks:
        assert set(c) == {"name", "lhs", "rhs", "slack", "margin"}
        assert c["margin"] == c["rhs"] - c["lhs"] and c["margin"] >= -c["slack"]


def _fails_through(tmp_path, capsys, monkeypatch, pipeline, seam, change, name):
    """Route what the pipeline reads from cli.<seam> through change, and
    expect the run to fail the check name."""
    fn = getattr(cli, seam)
    monkeypatch.setattr(cli, seam, lambda *args, **kw: change(fn(*args, **kw)))
    p = write_scenario(tmp_path / "s.json", name="f", pipeline=pipeline, **CHECKED[pipeline])
    _assert_fails(tmp_path, capsys, p, name)


def _nan_norm(out):
    out[3] = (out[3][0], np.nan)
    return out


def _stats(key, value):
    return lambda fam: dataclasses.replace(fam, stats={**fam.stats, key: value})


def _projection(key, value_of):
    return lambda out: (out[0], {**out[1], key: value_of(out[1])})


@pytest.mark.parametrize("pipeline, seam, change, name", [
    ("norms", "modulars_and_norms", _nan_norm, "norm_modular_inequality: function 3"),
    ("cover", "cover_jump", _stats("total_perimeter", np.nan), "cover_perimeter"),
    ("cover", "cover_jump", _stats("total_area", np.nan), "cover_area"),
    ("cover", "cover_jump", _stats("max_center_norm_plus_radius", np.nan), "cover_containment"),
    ("retract", "project_w", lambda out: (scale_map_values(out[0], np.nan), out[1]), "sphere_constraint"),
    ("retract", "project_w", _projection("shift_modular_min", lambda rep: np.nan), "chebyshev_surrogate"),
], ids=["norm_modular_inequality", "cover_perimeter", "cover_area", "cover_containment", "sphere_constraint",
        "chebyshev_surrogate"])
def test_a_nan_measurement_fails_its_check(tmp_path, capsys, monkeypatch, pipeline, seam, change, name):
    _fails_through(tmp_path, capsys, monkeypatch, pipeline, seam, change, name)


def _estimates(**changes):
    """global_approx's report with each named estimate replaced by a function of the estimates."""
    return lambda rep: dataclasses.replace(
        rep, estimates={**rep.estimates, **{key: f(rep.estimates) for key, f in changes.items()}})


@pytest.mark.parametrize("pipeline, seam, change, name", [
    ("approximate", "global_approx", _estimates(jump_new=lambda e: 1e-6), "no_new_jump"),
    ("approximate", "global_approx", _estimates(jump_residual_srho=lambda e: 1e-6), "jump_free_srho"),
    ("approximate", "global_approx", _estimates(outside_identity_max_error=lambda e: 1e-15), "outside_identity"),
    ("approximate", "global_approx", _estimates(linf_out=lambda e: e["linf_in"] + 1e-6), "linf_nonexpansion"),
    ("approximate", "global_approx", _estimates(family_perimeter=lambda e: e["family_perimeter_bound"] + 1e-9),
     "family_perimeter"),
    ("approximate", "global_approx", _estimates(family_area=lambda e: e["family_area_bound_min_form"] + 1e-9),
     "family_area"),
    ("approximate", "global_approx", _estimates(union_containment_margin=lambda e: -1e-9), "union_containment"),
    ("retract", "project_w", _projection("shift_modular_min", lambda rep: rep["shift_modular_mean"] * (1 + 1e-6)),
     "chebyshev_surrogate"),
    ("approximate", "global_approx",
     _estimates(union_containment_margin=lambda e: -1e-9, jump_new=lambda e: 1e-6), "no_new_jump"),
], ids=["no_new_jump", "jump_free_srho", "outside_identity", "linf_nonexpansion", "family_perimeter",
        "family_area", "union_containment", "chebyshev_surrogate", "two_fail_the_first_is_named"])
def test_an_estimate_past_its_bound_fails_its_check(tmp_path, capsys, monkeypatch, pipeline, seam, change, name):
    _fails_through(tmp_path, capsys, monkeypatch, pipeline, seam, change, name)

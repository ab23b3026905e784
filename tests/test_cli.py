import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import sbvx
from sbvx.cli import build_corpus, main, run_scenario

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
        params={"epsilon": 0.1, "C_target": 5.0, "mc_samples": 200000},
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
        ("counterexample", {"params": {"epsilon": 0.1, "C_target": 5.0, "mc_samples": 100000}}),
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

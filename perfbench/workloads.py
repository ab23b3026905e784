"""The three benchmark workloads: inputs from a seed, one item at a time,
and the correctness check of every item.

Each workload is a closed loop with one client. A *pass* is a fixed list of
items, and a run repeats passes k = 0, 1, ... on fresh inputs. Seed 0,
pass 0 reproduces the inputs of tests/test_acceptance.py. Items raise
ItemFailed when their output breaks a check of that suite.

On corpus_global and cli_pipelines the maps rotate with the pass index and
the seed draws the exponent field, so every seed does the same search and
quadrature work; on local_affine the seed draws the maps, whose cost does
not depend on them.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

import sbvx
from sbvx import cli, sobolev_approx

PASS_STRIDE = 100_000  # local_affine: pass k of seed n uses rng 42 + n + PASS_STRIDE k


class ItemFailed(Exception):
    """An item ran but its output broke a check of the acceptance suite."""


def exponent_field(seed: int):
    """The affine exponent field of the acceptance suite for seed 0; for
    other seeds a slope drawn from the seed, inside the bounds [1.3, 1.7]."""
    a = (0.1, 0.05)
    if seed:
        rng = np.random.default_rng(seed)
        r, t = 0.18 * np.sqrt(rng.random()), 2 * np.pi * rng.random()
        a = (float(r * np.cos(t)), float(r * np.sin(t)))
    return sbvx.ExponentField("closed_form", sbvx.Disk((0.0, 0.0), 1.0), 1.3, 1.7,
                              {"form": "affine", "p0": 1.5, "a": list(a)})


def _corpus_instances():
    """The 50-instance criterion-3 corpus, as (idx, s, eta, kind, params)."""
    kinds = ("piecewise-constant-with-arc-jump", "sphere-vortex-with-slit",
             "random-cells-with-random-polyline")
    idx = 0
    for s in (0.5, 0.75, 0.9):
        for i in range(17 if s != 0.9 else 16):
            eta = 0.05
            budget = (0.3, 0.55, 0.8)[i % 3] * eta * (1 - s) / 2
            kind = kinds[i % 3 if i < 9 else (i + 1) % 3]
            yield idx, s, eta, kind, {"budget": budget, "k": 2}
            idx += 1


CORPUS = list(_corpus_instances())
CORPUS_STEP = 5  # every 5th instance keeps all three map kinds and all three s


def _check_global(u, rep, eta):
    """Criterion 3, inequalities (a)-(e), with the acceptance tolerances."""
    e = rep.estimates
    rho = u.domain.radius
    bad = []
    if e["jump_new"] > 1e-9 * rho:
        bad.append("a_new_jump")
    if e["jump_residual_srho"] > 1e-9 * rho:
        bad.append("a_residual")
    if e["outside_identity_max_error"] != 0.0:
        bad.append("b_outside")
    if e["linf_out"] > e["linf_in"] + 1e-9:
        bad.append("c_linf")
    if len(rep.family):
        if e["family_perimeter"] > 2 * np.pi * e["xi_hat"] / eta * e["jump_in"] + 1e-12:
            bad.append("d_perimeter")
        bound = min(2 * np.pi * e["xi_hat"] / eta * rho * e["jump_in"],
                    np.pi * (e["xi_hat"] / eta * e["jump_in"]) ** 2)
        if e["family_area"] > bound + 1e-12:
            bad.append("d_area")
        if e["union_containment_margin"] < -1e-12:
            bad.append("e_union")
    if bad:
        raise ItemFailed(", ".join(bad))


class CorpusGlobal:
    """synthesize + global_approx over every 5th criterion-3 instance.

    Pass k runs the instances idx = k mod 5, 5 + k mod 5, ... with their
    acceptance seeds 1000 + 17 idx, under the seed's exponent field.
    """

    name = "corpus_global"

    def __init__(self, seed: int, workdir: str):
        self.p = exponent_field(seed)

    def pass_items(self, k: int):
        return [(f"corpus[{idx}]", (s, eta, kind, params, 1000 + 17 * idx, self.p))
                for idx, s, eta, kind, params in CORPUS[k % CORPUS_STEP::CORPUS_STEP]]

    @staticmethod
    def run_item(inp):
        s, eta, kind, params, seed, p = inp
        u = sbvx.synthesize(kind, params, seed=seed)
        rep = sobolev_approx.global_approx(u, p, s, eta, seed=seed + 1)
        _check_global(u, rep, eta)


class LocalAffine:
    """Criterion 1: local_phi on affine maps with a sphere-tangent gradient."""

    name = "local_affine"
    calls_per_pass = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.p = exponent_field(0)

    def pass_items(self, k: int):
        rng = np.random.default_rng(42 + self.seed + PASS_STRIDE * k)
        items = []
        for i in range(self.calls_per_pass):
            u0 = rng.standard_normal(2)
            u0 /= np.linalg.norm(u0)
            tangent = np.array([-u0[1], u0[0]])
            G = np.outer(tangent, rng.standard_normal(2))
            u = sbvx.synthesize("affine", {"G": G, "u0": u0}, seed=int(rng.integers(1 << 30)))
            items.append((f"affine[{i}]", (u, self.p, i)))
        return items

    @staticmethod
    def run_item(inp):
        u, p, i = inp
        _, _, rep = sobolev_approx.local_phi(u, p, eta=0.05, seed=i)
        if not rep["max_pointwise_distance"] < 1e-10:
            raise ItemFailed(f"max_pointwise_distance {rep['max_pointwise_distance']:.3g}")


# Criterion 10's scenarios; norms and counterexample keep the schema-default
# sizes (n_functions 50, mc_samples 1e6).
SCENARIOS = [
    {"name": "norms", "pipeline": "norms"},
    {"name": "cover", "pipeline": "cover", "params": {"s": 0.75, "eta": 0.05},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.003}}},
    {"name": "approximate", "pipeline": "approximate", "params": {"s": 0.75, "eta": 0.05},
     "map": {"kind": "piecewise-constant-with-arc-jump", "params": {"budget": 0.003, "k": 2}}},
    {"name": "retract", "pipeline": "retract",
     "params": {"value_scale": 0.9, "M_bound": 1.0},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.01}}},
    {"name": "energy-probe", "pipeline": "energy-probe", "params": {"off_point": [-0.4, -0.4]},
     "map": {"kind": "sphere-vortex-with-slit", "params": {"budget": 0.05}}},
    {"name": "counterexample", "pipeline": "counterexample",
     "params": {"epsilon": 0.1, "C_target": 5.0}},
]
PIPELINES = [sc["name"] for sc in SCENARIOS]


class CliPipelines:
    """The six CLI pipelines through sbvx.cli.run_scenario.

    Pass k runs every scenario with scenario seed 11 + k, under the seed's
    exponent field, into a fresh output directory.
    """

    name = "cli_pipelines"

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.paths = {}
        scdir = os.path.join(workdir, "scenarios")
        os.makedirs(scdir, exist_ok=True)
        field = exponent_field(seed).to_json()
        for sc in SCENARIOS:
            sc = {"seed": 11, "exponent_field": field, **sc}
            path = os.path.join(scdir, f"{sc['name']}.json")
            with open(path, "w") as f:
                json.dump(sc, f)
            self.paths[sc["name"]] = path

    def pass_items(self, k: int):
        out = tempfile.mkdtemp(prefix=f"pass{k}-", dir=self.workdir)
        return [(name, (path, os.path.join(out, name), 11 + k))
                for name, path in self.paths.items()]

    @staticmethod
    def run_item(inp):
        path, out, seed = inp
        code = cli.run_scenario(path, out_dir=out, seed_override=seed)
        if code != 0:
            raise ItemFailed(f"exit code {code}")
        name = os.path.splitext(os.path.basename(path))[0]
        with open(os.path.join(out, name, "report.json")) as f:
            json.load(f)


WORKLOADS = {w.name: w for w in (CorpusGlobal, LocalAffine, CliPipelines)}

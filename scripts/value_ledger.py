#!/usr/bin/env python3
"""Write a ledger of the reported values, or compare two ledgers.

    python scripts/value_ledger.py --out ledger.json
    python scripts/value_ledger.py --diff a.json b.json

--out runs the instances of tests/test_acceptance.py with the sbvx on the
import path and writes three sections:

- values: every criterion 1-4 report value, floats as float.hex. Criteria 1
  and 2 are local_phi's report on each of their 20 instances (criterion 2
  adds the interpolant's largest gradient entry); criteria 3 and 4 are
  global_approx's estimates on the 50-instance corpus under the variable and
  the constant exponent. criterion_4_dilated is global_approx's estimates
  on instances 30 and 35 dilated by 1e-6 under the constant exponent 1.6,
  as test_criterion_3_holds_on_instances_dilated_by_1e_6 runs them, so that
  a value that depends on the absolute scale shows. split_rows is, for each
  criterion-3 instance, the number of rows and of whole cells in the cell
  split of its final map over B_rho, so that a change in which rows exist
  shows. A key reads criterion/instance/name.
- files: the SHA-256 of each file that the six criterion-10 scenarios write
  at scenario seeds 11, 12 and 13: report.json, data.csv and the figures.
  meta.json holds the run's time and is left out. The same is hashed for
  norms at the size the cli_pipelines benchmark runs (50 functions), under
  the keys perfbench_size/.
- bounds: for each frozen bound of the suite (K_MODULAR, XI_CAP_CORPUS,
  RETRACT_RATIO_BOUND), the worst measured value and its margin to the bound.

--diff prints, for each key family (a key without its instance), the largest
relative change |b - a| / |a| and the key it occurs at: first the families
that moved, largest change first, then apart the families whose every key
moved at round-off only, |b - a| <= 1e-14 max(1, |a|), then the unchanged
ones; then the keys only one ledger has, the files that differ and both
ledgers' bounds. It exits 1 when a value or a file differs, 0 otherwise.

To compare a change with its parent, write a ledger with each tree's src/
first on PYTHONPATH and diff them:

    PYTHONPATH=../parent/src python scripts/value_ledger.py --out parent.json
    PYTHONPATH=src python scripts/value_ledger.py --out change.json
    python scripts/value_ledger.py --diff parent.json change.json
"""
import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

SEEDS = (11, 12, 13)
DILATED = ((30, 35), 1e-6)  # the instances and the factor of criterion_4_dilated
ROUND_OFF = 1e-14  # a change |b - a| <= ROUND_OFF max(1, |a|) is at round-off
# norms at the benchmark's size, the schema default
PERFBENCH_SIZE_SCENARIOS = [{"name": "n50", "pipeline": "norms", "params": {"n_functions": 50}}]


def _flatten(prefix, obj, out):
    """Store obj under prefix: floats as float.hex, containers key by key."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}/{k}", v, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}/{i}", v, out)
    elif isinstance(obj, (bool, np.bool_)):
        out[prefix] = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        out[prefix] = int(obj)
    elif isinstance(obj, (float, np.floating)):
        out[prefix] = float(obj).hex()
    else:
        out[prefix] = str(obj)


def _values_and_bounds():
    from test_acceptance import (
        K_MODULAR, P_CONST, P_VAR, RETRACT_RATIO_BOUND, XI_CAP_CORPUS, corpus_instances,
        criterion_1_maps, criterion_2_maps,
    )
    from test_retract import wobble_map

    from sbvx.quadrature import Disk
    from sbvx.retract import RetractionConfig, project_w
    from sbvx.sbv2d import dilate_map, synthesize
    from sbvx.sobolev_approx import global_approx, local_phi
    from sbvx.vexp import ExponentField

    values = {}
    for i, u in criterion_1_maps():
        _flatten(f"criterion_1/{i:02d}", local_phi(u, P_VAR, eta=0.05, seed=i)[2], values)
    for i, u in criterion_2_maps():
        _, phi, rep = local_phi(u, P_VAR, eta=0.05, seed=i)
        _flatten(f"criterion_2/{i:02d}", {**rep, "max_interpolant_grad": np.max(np.abs(phi.patches[-1].grads))},
                 values)
    worst_var = worst_const = 0.0
    worst_xi = 0
    for idx, s, eta, kind, params, seed in corpus_instances():
        u = synthesize(kind, params, seed=seed)
        for name, p in (("criterion_3", P_VAR), ("criterion_4", P_CONST)):
            rep = global_approx(u, p, s, eta, seed=seed + 1)
            e = rep.estimates
            _flatten(f"{name}/{idx:02d}", e, values)
            if e["modular_in"] > 1e-12:
                if p is P_VAR:
                    worst_var = max(worst_var, e["modular_bound_const_var"])
                else:
                    worst_const = max(worst_const, e["modular_bound_const_stripped"])
            if p is P_VAR:
                split = rep.w._split([Disk(u.domain.center, u.domain.radius)])
                _flatten(f"split_rows/{idx:02d}", {"rows": len(split.w), "whole_cells": len(split.whole)}, values)
                if len(rep.family):
                    worst_xi = max(worst_xi, e["xi_hat"])
        if idx in DILATED[0]:
            small = dilate_map(u, DILATED[1])
            rep = global_approx(small, ExponentField.constant(1.6, small.domain), s, eta, seed=seed + 1)
            _flatten(f"criterion_4_dilated/{idx:02d}", rep.estimates, values)
    cfg = RetractionConfig(k=2, sigma=0.05, M_bound=2.0)
    ratio = max(project_w(wobble_map(seed=seed), P_VAR, cfg, seed=seed)[1]["energy_ratio"] for seed in range(12))
    worst_k = max(worst_var, worst_const)
    bounds = {
        "K_MODULAR": {"bound": K_MODULAR, "worst": worst_k, "margin": K_MODULAR - worst_k,
                      "worst_var": worst_var, "worst_const_stripped": worst_const},
        "XI_CAP_CORPUS": {"bound": XI_CAP_CORPUS, "worst": worst_xi, "margin": XI_CAP_CORPUS - worst_xi},
        "RETRACT_RATIO_BOUND": {"bound": RETRACT_RATIO_BOUND, "worst": ratio,
                                "margin": RETRACT_RATIO_BOUND - ratio},
    }
    return values, bounds


def _file_hashes():
    from test_acceptance import CRITERION_10_FIELD, CRITERION_10_SCENARIOS

    from sbvx.cli import run_scenario

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for prefix, scenarios in (("criterion_10", CRITERION_10_SCENARIOS),
                                  ("perfbench_size", PERFBENCH_SIZE_SCENARIOS)):
            for sc in scenarios:
                path = tmp / f"{sc['name']}.json"
                path.write_text(json.dumps({"seed": SEEDS[0], "exponent_field": CRITERION_10_FIELD, **sc}))
                for seed in SEEDS:
                    out = tmp / f"seed_{seed}"
                    if run_scenario(str(path), out_dir=str(out), seed_override=seed) != 0:
                        raise SystemExit(f"scenario {sc['name']} at seed {seed} failed")
                    for f in sorted((out / sc["name"]).rglob("*")):
                        if f.is_file() and f.name != "meta.json":
                            key = f"{prefix}/seed_{seed}/{f.relative_to(out).as_posix()}"
                            hashes[key] = hashlib.sha256(f.read_bytes()).hexdigest()
    return hashes


def write_ledger(path):
    values, bounds = _values_and_bounds()
    ledger = {"values": values, "files": _file_hashes(), "bounds": bounds}
    Path(path).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} values, {len(ledger['files'])} file hashes and "
          f"{len(bounds)} bounds to {path}")


def _number(v):
    """A ledger value as a number where it is one: float.hex back to float."""
    try:
        return float.fromhex(v) if isinstance(v, str) else v
    except ValueError:
        return v


def relative_change(a, b) -> float:
    """|b - a| / |a| of two ledger values: 0 when they are equal (nan to
    nan included), inf when a is 0 and b is not or either is not a number."""
    a, b = _number(a), _number(b)
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) or a == 0:
        return math.inf
    return abs(b - a) / abs(a)


def at_round_off(a, b) -> bool:
    """Whether two numeric ledger values differ by at most ROUND_OFF max(1, |a|)."""
    a, b = _number(a), _number(b)
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) or not math.isfinite(a - b):
        return False
    return abs(b - a) <= ROUND_OFF * max(1.0, abs(a))


def diff_ledgers(a: dict, b: dict):
    """(lines, differs): the --diff report of ledgers a and b."""
    lines, differs = [], False
    va, vb = a["values"], b["values"]
    families, moved = {}, set()
    for key in sorted(va.keys() & vb.keys()):
        criterion, _, *name = key.split("/")
        family = "/".join([criterion, *name])
        change = relative_change(va[key], vb[key])
        if change > 0 and not at_round_off(va[key], vb[key]):
            moved.add(family)
        if family not in families or change > families[family][0]:
            families[family] = (change, key)
    changed = sum(change > 0 for change, _ in families.values())
    differs |= changed > 0
    lines.append(f"values: {len(va.keys() & vb.keys())} keys in both, {changed} of {len(families)} "
                 f"families changed ({changed - len(moved)} at round-off only); "
                 "largest relative change per family:")
    by_change = sorted(families.items(), key=lambda item: (-item[1][0], item[0]))
    round_off = [(f, c) for f, c in by_change if c[0] > 0 and f not in moved]
    lines += [f"  {family}: {change:.3g} at {key}" for family, (change, key) in by_change if family in moved]
    if round_off:
        lines.append(f"  at round-off, |b - a| <= {ROUND_OFF:g} max(1, |a|) at every key:")
        lines += [f"  {family}: {change:.3g} at {key}" for family, (change, key) in round_off]
    lines += [f"  {family}: 0" for family, (change, _) in sorted(families.items()) if change == 0]
    for name, only in (("a", va.keys() - vb.keys()), ("b", vb.keys() - va.keys())):
        differs |= bool(only)
        lines += [f"  only in {name}: {key}" for key in sorted(only)]
    fa, fb = a["files"], b["files"]
    moved = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
    differs |= bool(moved)
    lines.append(f"files: {len(fa.keys() & fb.keys())} in both, {len(moved)} differ")
    lines += [f"  {key}" + ("" if key in fa and key in fb else " (in one ledger only)") for key in moved]
    lines.append("bounds (worst, margin):")
    for name in sorted(a["bounds"].keys() | b["bounds"].keys()):
        ba, bb = a["bounds"].get(name, {}), b["bounds"].get(name, {})
        lines.append(f"  {name} = {ba.get('bound', bb.get('bound'))}: "
                     f"{ba.get('worst')}, {ba.get('margin')} -> {bb.get('worst')}, {bb.get('margin')}")
    return lines, differs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="LEDGER")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.out:
        write_ledger(args.out)
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in args.diff)
    lines, differs = diff_ledgers(a, b)
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

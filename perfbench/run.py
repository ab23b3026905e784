"""sbvx benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload corpus_global --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports sbvx from
./src. With --trace 0 it runs whole passes of the workload until --seconds
have elapsed and reports the end-to-end metrics. With --trace 1 it runs
each item of the first pass twice, untraced and traced, reports per-layer
metrics and the tracing overhead, and writes the spans to .perfbench_out/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import SPAN_FIELDS, Tracer, wrapper_costs

# BLAS pinned through the process environment, before numpy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5  # this process plus four child processes
# Time of _reference_s() on a 2-core Xeon host at typical load; item times
# are divided by the measured reference time over this value.
REF_NOMINAL_S = 0.018


def _setup(workload: str, seed: int, workdir: str):
    """Import sbvx from the checkout and build the first pass's inputs."""
    if not os.path.isfile(os.path.join(SRC, "sbvx", "__init__.py")):
        raise SystemExit(f"error: no sbvx sources under {SRC}")
    sys.path.insert(0, SRC)
    import sbvx  # noqa: F401
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload](seed, workdir)
    return wl, wl.pass_items(0)


def _child_setup_times(args, n: int) -> list[float]:
    """Set-up time measured in n fresh interpreters, one after another."""
    times = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def _run_item(wl, name, inp):
    """Run one item; returns (name, seconds, error or None)."""
    t0 = time.perf_counter()
    err = None
    try:
        wl.run_item(inp)
    except Exception as e:  # a failed item is counted, never dropped
        err = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    return name, time.perf_counter() - t0, err


def _reference_s() -> float:
    """Wall time of a fixed mix of interpreter work and small-array numpy.

    Timed between items to follow the host's speed: on a shared machine the
    same work takes tens of percent longer or shorter from minute to minute.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.random.default_rng(0).random((64, 64))
    for _ in range(200):
        a = np.sqrt(a @ a.T + 1.0)
        a /= a.max()
    return time.perf_counter() - t0


def end_to_end(wl, items, seconds: float):
    """Whole passes, each on fresh inputs, until the corrected item time
    reaches seconds.

    Returns the item rows with their corrected times, and per item the
    host's slowdown: the mean of the reference times just before and just
    after the item, over REF_NOMINAL_S.
    """
    rows, slowdown, k = [], [], 0
    _reference_s()  # warm-up
    ref = _reference_s()
    while True:
        for name, inp in items:
            name, secs, err = _run_item(wl, name, inp)
            after = _reference_s()
            slowdown.append((ref + after) / 2 / REF_NOMINAL_S)
            rows.append((name, secs / slowdown[-1], err))
            ref = after
        k += 1
        if sum(r[1] for r in rows) >= seconds:
            return rows, slowdown
        items = wl.pass_items(k)


def traced_pass(wl, items, tracer):
    """Each item of the first pass twice, untraced and traced on fresh inputs.

    The order alternates from item to item, so that warm-up and drift of
    the host's speed fall on both sides of the overhead estimate.
    """
    untraced, traced = [], []
    for i, (plain, fresh) in enumerate(zip(items, wl.pass_items(0))):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.item = fresh[0]
                with tracer.installed():
                    traced.append(_run_item(wl, *fresh))
            else:
                untraced.append(_run_item(wl, *plain))
    return untraced, traced


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


# Per-layer metrics: span name -> statistics reported for it. "failed" counts
# spans that raised; other keys are counts summed by the wrapper.
LAYERS = {
    "sbv2d.bulk_samples": ("calls", "s", "self_s", "samples"),
    "sbv2d.cell_samples": ("calls", "s"),
    "sbv2d.value_at": ("calls", "s", "points"),
    "sbv2d.JumpSet.length_in": ("calls", "s"),
    "sbv2d.synthesize": ("calls", "s"),
    "dyadic_grid.adapt_to_jump": ("calls", "s", "failed"),
    "dyadic_grid.build_grid": ("calls", "s"),
    "dyadic_grid.select_good_radius": ("calls", "s", "failed"),
    "sobolev_approx.global_approx": ("calls", "s", "self_s"),
    "sobolev_approx.cover_jump": ("calls", "s", "balls"),
    "sobolev_approx.local_phi": ("calls", "s", "self_s"),
    "retract.choose_shift": ("calls", "s"),
    "retract.project_w": ("calls", "s", "self_s"),
    "retract.invert_shifted_retraction": ("calls", "s"),
    "energy.functional": ("calls", "s"),
    "energy.jump_criterion_profile": ("calls", "s"),
    "energy.density_probe": ("calls", "s"),
    "vexp.modular": ("calls", "s"),
    "vexp.luxembourg_norm": ("calls", "s"),
    "counterex3d.build_complex": ("calls", "s"),
    "counterex3d.annulus_measure": ("calls", "s"),
    "counterex3d.verify_violation": ("calls", "s"),
    "cli.run_scenario": ("calls", "s", "self_s"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "failed": "count", "samples": "count",
         "points": "count", "balls": "count"}


def layer_metrics(tracer, untraced, traced):
    """Per-layer metrics of the traced pass, from its spans and counts."""
    from workloads import PIPELINES

    spans = tracer.spans
    agg = {name: {"calls": 0, "s": 0.0, "child": 0.0, "failed": 0} for name in LAYERS}
    for sid, name, t0, t1, parent, item, error in spans:
        a = agg[name]
        a["calls"] += 1
        a["s"] += t1 - t0
        a["failed"] += error is not None
        if parent is not None:
            agg[spans[parent][1]]["child"] += t1 - t0
    m = {}
    for name, stats in LAYERS.items():
        a = agg[name]
        for stat in stats:
            if stat == "self_s":
                v = a["s"] - a["child"]
            elif stat in a:
                v = a[stat]
            else:
                v = tracer.extra[name, stat]
            m[f"{name}.{stat}"] = _metric(v, UNITS[stat])
    adapt = agg["dyadic_grid.adapt_to_jump"]
    m["dyadic_grid.adapt_to_jump.success_ratio"] = _metric(
        (adapt["calls"] - adapt["failed"]) / adapt["calls"] if adapt["calls"] else 0.0, "ratio")
    shifts = tracer.extra["retract.choose_shift", "shift_samples"]
    m["retract.choose_shift.admissible_ratio"] = _metric(
        tracer.extra["retract.choose_shift", "admissible"] / shifts if shifts else 0.0, "ratio")
    m["cli.output_bytes"] = _metric(tracer.extra["cli.run_scenario", "output_bytes"], "bytes")
    for pipe in PIPELINES:
        m[f"cli.run_scenario.{pipe}.s"] = _metric(
            sum(t1 - t0 for _, name, t0, t1, _, item, _ in spans
                if name == "cli.run_scenario" and item == pipe), "s")
    pda = tracer.calls["geom.polygon_disk_area"]
    cost = wrapper_costs()
    m["geom.polygon_disk_area.calls"] = _metric(pda, "count")
    m["geom.polygon_disk_area.count_overhead_s"] = _metric(pda * cost["count"], "s")
    m["trace.span_overhead_s"] = _metric(len(spans) * cost["span"], "s")
    t_plain = sum(r[1] for r in untraced)
    t_traced = sum(r[1] for r in traced)
    m["trace.untraced_s"] = _metric(t_plain, "s")
    m["trace.traced_s"] = _metric(t_traced, "s")
    m["trace.overhead_s"] = _metric(t_traced - t_plain, "s")
    m["trace.overhead_frac"] = _metric((t_traced - t_plain) / t_plain, "ratio")
    m["trace.spans"] = _metric(len(spans), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        wl, items = _setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(setup_s)
            return 0
        env = _environment()
        if args.trace:
            tracer = Tracer()
            untraced, traced = traced_pass(wl, items, tracer)
            rows = untraced + traced
            metrics = layer_metrics(tracer, untraced, traced)
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                           "fields": SPAN_FIELDS, "spans": tracer.spans}, f)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        else:
            setups = [setup_s] + _child_setup_times(args, SETUP_REPEATS - 1)
            rows, slowdown = end_to_end(wl, items, args.seconds)
            times = [r[1] for r in rows]
            raw = [t * f for t, f in zip(times, slowdown)]
            print(f"raw item time: items_per_s {len(raw) / sum(raw):.6g} 1/s, "
                  f"item_s_p50 {statistics.median(raw):.6g} s; host slowdown "
                  f"median {statistics.median(slowdown):.4g}, "
                  f"range {min(slowdown):.4g}-{max(slowdown):.4g}")
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "items_per_s": _metric(len(rows) / sum(times), "1/s"),
                "item_s_p50": _metric(statistics.median(times), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r[2] is not None for r in rows)
    _summary(args, env, rows, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0


def _summary(args, env, rows, metrics):
    """Human-readable lines ahead of the result line."""
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rows)} items (the sample count of item_s_p50)")
    for name, secs, err in rows:
        if err is not None:
            print(f"  FAILED {name}: {err}")
    print(f"  failed_frac {sum(r[2] is not None for r in rows) / len(rows):.4g} ratio")
    if not args.trace and args.workload == "cli_pipelines":
        by_item = {}
        for name, secs, _ in rows:
            by_item.setdefault(name, []).append(secs)
        for name, ts in by_item.items():
            print(f"  pipeline_s.{name} {statistics.median(ts):.4g} s (median of {len(ts)})")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())

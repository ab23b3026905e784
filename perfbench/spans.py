"""Spans around the public functions of each sbvx module, recorded from
outside the package.

`Tracer.installed()` replaces each target function in every loaded sbvx
module that holds a reference to it (and each target method on its class)
by a wrapper that records a span: id, name, start, end, parent span id, the
item id set by the benchmark loop, and the exception class if the call
raised. Spans stay in memory; the benchmark writes them out when it ends.
`_geom.polygon_disk_area` runs thousands of times per item, so it is only
counted, without a span.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "item", "error")


def _n_points(args, kwargs, out):
    return {"points": len(args[1])}


def _n_samples(args, kwargs, out):
    return {"samples": len(out[0])}


def _n_balls(args, kwargs, out):
    return {"balls": len(out)}


def _shift_samples(args, kwargs, out):
    rep = out[1]
    return {"admissible": rep["n_admissible"], "shift_samples": rep["n_samples"]}


def _output_bytes(args, kwargs, out):
    # meta.json holds the run's timestamp and elapsed time, so its size varies
    total = 0
    for root, _, files in os.walk(kwargs["out_dir"]):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f != "meta.json")
    return {"output_bytes": total}


# (module, attribute path, span name, extra counts taken from the call)
TARGETS = [
    ("sbvx.sbv2d", "DiscreteSbvMap.bulk_samples", "sbv2d.bulk_samples", _n_samples),
    ("sbvx.sbv2d", "DiscreteSbvMap.cell_samples", "sbv2d.cell_samples", None),
    ("sbvx.sbv2d", "DiscreteSbvMap.value_at", "sbv2d.value_at", _n_points),
    ("sbvx.sbv2d", "JumpSet.length_in", "sbv2d.JumpSet.length_in", None),
    ("sbvx.sbv2d", "synthesize", "sbv2d.synthesize", None),
    ("sbvx.dyadic_grid", "adapt_to_jump", "dyadic_grid.adapt_to_jump", None),
    ("sbvx.dyadic_grid", "build_grid", "dyadic_grid.build_grid", None),
    ("sbvx.dyadic_grid", "select_good_radius", "dyadic_grid.select_good_radius", None),
    ("sbvx.sobolev_approx", "global_approx", "sobolev_approx.global_approx", None),
    ("sbvx.sobolev_approx", "cover_jump", "sobolev_approx.cover_jump", _n_balls),
    ("sbvx.sobolev_approx", "local_phi", "sobolev_approx.local_phi", None),
    ("sbvx.retract", "choose_shift", "retract.choose_shift", _shift_samples),
    ("sbvx.retract", "project_w", "retract.project_w", None),
    ("sbvx.retract", "invert_shifted_retraction", "retract.invert_shifted_retraction", None),
    ("sbvx.energy", "functional", "energy.functional", None),
    ("sbvx.energy", "jump_criterion_profile", "energy.jump_criterion_profile", None),
    ("sbvx.energy", "density_probe", "energy.density_probe", None),
    ("sbvx.vexp", "modular", "vexp.modular", None),
    ("sbvx.vexp", "luxembourg_norm", "vexp.luxembourg_norm", None),
    ("sbvx.counterex3d", "build_complex", "counterex3d.build_complex", None),
    ("sbvx.counterex3d", "annulus_measure", "counterex3d.annulus_measure", None),
    ("sbvx.counterex3d", "verify_violation", "counterex3d.verify_violation", None),
    ("sbvx.cli", "run_scenario", "cli.run_scenario", _output_bytes),
]
COUNTED = [("sbvx._geom", "polygon_disk_area", "geom.polygon_disk_area")]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # rows in SPAN_FIELDS order
        self.extra = Counter()  # (span name, key) -> summed count
        self.calls = Counter()  # counted-only functions
        self.item = None
        self._stack = []

    def _span_wrapper(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                error = type(e).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, name, t0, t1, parent, self.item, error)
            if extra is not None:
                for key, v in extra(args, kwargs, out).items():
                    self.extra[name, key] += v
            return out

        return wrapper

    def _count_wrapper(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore them afterwards."""
        sbvx_modules = [mod for name, mod in sys.modules.items()
                        if name == "sbvx" or name.startswith("sbvx.")]
        wrappers = [(m, a, self._span_wrapper, (n, x)) for m, a, n, x in TARGETS]
        wrappers += [(m, a, self._count_wrapper, (n,)) for m, a, n in COUNTED]
        patches = []  # (namespace, attribute, original, wrapper)
        for modname, attr, make, margs in wrappers:
            owner = sys.modules[modname]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[fname]
            wrapper = make(orig, *margs)
            if cls_path:
                patches.append((owner, fname, orig, wrapper))
            else:
                # the defining module and every module that imported the name
                patches += [(mod, fname, orig, wrapper) for mod in sbvx_modules
                            if mod.__dict__.get(fname) is orig]
        try:
            for ns, name, _, wrapper in patches:
                setattr(ns, name, wrapper)
            yield self
        finally:
            for ns, name, orig, _ in patches:
                setattr(ns, name, orig)


def wrapper_costs(n: int = 100_000) -> dict:
    """Seconds one call through each wrapper adds, net of the call itself.

    Best of three rounds of n calls to a no-op function, on a throwaway
    tracer; used to state the tracing overhead apart from host noise.
    """
    def noop(*args):
        return None

    tracer = Tracer()
    fns = {"plain": noop, "span": tracer._span_wrapper(noop, "calibration", None),
           "count": tracer._count_wrapper(noop, "calibration")}
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(3):
        for kind, fn in fns.items():
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(n):
                fn(1, 2, 3)
            best[kind] = min(best[kind], time.perf_counter() - t0)
    return {kind: max(best[kind] - best["plain"], 0.0) / n for kind in ("span", "count")}

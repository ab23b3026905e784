#!/usr/bin/env python3
"""Sweep the vertex adaptation of global_approx over the acceptance corpus.

Runs the 50 criterion-3 instances with their synthesize seeds offset by 0,
2000 and 4000 (150 runs, global_approx at synthesize seed + 1 under the
variable exponent field of the suite), then the 10 instances of the every-5th
slice dilated by 1e-6 under the constant exponent 1.6, then synthesize seed
5416 under the 17 random-cells parameter sets of the corpus. Prints the
adapt_to_jump calls and failures and the errors of each part. Exits non-zero
if any of the 150 runs or of the 10 dilated runs raises; the seed-5416 part
is reported only.

    python scripts/adaptation_sweep.py
"""
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_acceptance import P_CONST, P_VAR, corpus_instances  # noqa: E402

from sbvx import sobolev_approx  # noqa: E402
from sbvx.errors import AdaptationError  # noqa: E402
from sbvx.sbv2d import dilate_map, synthesize  # noqa: E402

OFFSETS = (0, 2000, 4000)
DILATION = 1e-6
HARD_SEED = 5416
HARD_KIND = "random-cells-with-random-polyline"


class _CountedAdapt:
    """adapt_to_jump, counting its calls and the AdaptationErrors they raise."""

    def __init__(self, fn):
        self.fn, self.calls, self.failed = fn, 0, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        try:
            return self.fn(*args, **kwargs)
        except AdaptationError:
            self.failed += 1
            raise


def _sweep(runs):
    """Run global_approx under p on each (label, kind, params, s, eta, seed,
    factor, p), the map dilated by factor about its centre; returns (calls,
    failed, errors) with errors as [(label, exception class name)]."""
    counted = _CountedAdapt(sobolev_approx.adapt_to_jump)
    sobolev_approx.adapt_to_jump = counted
    errors = []
    try:
        for label, kind, params, s, eta, seed, factor, p in runs:
            u = synthesize(kind, params, seed=seed)
            if factor != 1.0:
                u = dilate_map(u, factor)
            try:
                sobolev_approx.global_approx(u, p, s, eta, seed=seed + 1)
            except Exception as err:  # every error is reported, not only adaptation
                errors.append((label, type(err).__name__))
    finally:
        sobolev_approx.adapt_to_jump = counted.fn
    return counted.calls, counted.failed, errors


def _print(title, n, calls, failed, errors):
    print(f"{title}: {n} runs, adapt_to_jump {calls} calls, {failed} failed, "
          f"{len(errors)} errors {dict(Counter(name for _, name in errors))}")
    for label, name in errors:
        print(f"  {label}: {name}")


def main():
    corpus = list(corpus_instances())
    sweep = [
        (f"idx {idx} seed {seed + off}", kind, params, s, eta, seed + off, 1.0, P_VAR)
        for off in OFFSETS
        for idx, s, eta, kind, params, seed in corpus
    ]
    dilated = [
        (f"idx {idx} seed {seed} x {DILATION:g}", kind, params, s, eta, seed, DILATION, P_CONST)
        for idx, s, eta, kind, params, seed in corpus[::5]
    ]
    hard = [
        (f"idx {idx} seed {HARD_SEED}", kind, params, s, eta, HARD_SEED, 1.0, P_VAR)
        for idx, s, eta, kind, params, _ in corpus
        if kind == HARD_KIND
    ]
    calls, failed, errors = _sweep(sweep)
    _print("sweep", len(sweep), calls, failed, errors)
    calls, failed, small_errors = _sweep(dilated)
    _print(f"every 5th dilated by {DILATION:g}, p = 1.6", len(dilated), calls, failed, small_errors)
    _print(f"seed {HARD_SEED} (reported, not gated)", len(hard), *_sweep(hard))
    return 1 if errors or small_errors else 0


if __name__ == "__main__":
    sys.exit(main())

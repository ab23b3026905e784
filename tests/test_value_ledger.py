"""The value ledger's comparison (scripts/value_ledger.py --diff)."""
import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "value_ledger", Path(__file__).resolve().parents[1] / "scripts" / "value_ledger.py"
)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def _ledger(values, files=None):
    bounds = {"K_MODULAR": {"bound": 1.05, "worst": 1.0, "margin": 0.05}}
    return {"values": values, "files": files or {"c10/report.json": "ab"}, "bounds": bounds}


def test_relative_change_of_ledger_values():
    assert ledger.relative_change((0.5).hex(), (0.5).hex()) == 0.0
    assert ledger.relative_change(math.nan.hex(), math.nan.hex()) == 0.0
    assert ledger.relative_change((2.0).hex(), (2.5).hex()) == pytest.approx(0.25)
    assert ledger.relative_change((0.0).hex(), (1e-300).hex()) == math.inf
    assert ledger.relative_change(3, 3) == 0.0 and ledger.relative_change(3, 4) == pytest.approx(1 / 3)
    assert ledger.relative_change(True, False) == math.inf


def test_diff_reports_the_largest_change_per_family_and_the_files_that_differ():
    a = _ledger({"criterion_3/00/k": (1.0).hex(), "criterion_3/01/k": (2.0).hex(), "criterion_1/00/r": 7})
    same, differs = ledger.diff_ledgers(a, a)
    assert not differs and "files: 1 in both, 0 differ" in same
    b = _ledger({"criterion_3/00/k": (1.0).hex(), "criterion_3/01/k": (2.2).hex()}, {"c10/report.json": "cd"})
    lines, differs = ledger.diff_ledgers(a, b)
    assert differs
    assert any(line.startswith("  criterion_3/k: 0.1 at criterion_3/01/k") for line in lines)
    assert "  only in a: criterion_1/00/r" in lines
    assert "  c10/report.json" in lines


def test_diff_lists_real_moves_before_the_families_at_round_off():
    """A family whose every key moved by at most 1e-14 max(1, |a|) is printed
    apart, after a real move, however large its relative change."""
    a = _ledger({
        "criterion_1/00/trace_band": (2.3e-16).hex(), "criterion_1/01/trace_band": (1e-16).hex(),
        "criterion_3/00/l1_distance": (5.63602e-5).hex(), "criterion_3/01/l1_distance": (1.0).hex(),
        "criterion_3/00/k": (1.0).hex(),
    })
    b = _ledger({
        "criterion_1/00/trace_band": (4.4e-16).hex(), "criterion_1/01/trace_band": (1e-16).hex(),
        "criterion_3/00/l1_distance": (5.63536e-5).hex(), "criterion_3/01/l1_distance": (1.0 + 2e-14).hex(),
        "criterion_3/00/k": (1.0).hex(),
    })
    lines, differs = ledger.diff_ledgers(a, b)
    assert differs  # a value moved, so --diff still exits 1
    assert "2 of 3 families changed (1 at round-off only)" in lines[0]
    real = next(i for i, line in enumerate(lines) if line.startswith("  criterion_3/l1_distance: "))
    apart = next(i for i, line in enumerate(lines) if line.startswith("  at round-off"))
    noise = next(i for i, line in enumerate(lines) if line.startswith("  criterion_1/trace_band: 0.913"))
    assert 0 < real < apart < noise
    assert lines[real] == f"  criterion_3/l1_distance: {(5.63602e-5 - 5.63536e-5) / 5.63602e-5:.3g} at criterion_3/00/l1_distance"
    assert "  criterion_3/k: 0" in lines
    assert ledger.at_round_off((1.0).hex(), (1.0 + 1e-14).hex()) and not ledger.at_round_off((1.0).hex(), (1.0 + 2e-14).hex())
    assert ledger.at_round_off((1e-20).hex(), (1e-15).hex()) and not ledger.at_round_off(True, False)

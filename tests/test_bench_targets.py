"""The functions that perfbench/spans.py wraps resolve as its tracer
resolves them, and sbv2d re-exports the names that moved out of it as the
same objects, so a move that breaks the tracer fails here."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sbvx
from sbvx import sbv2d, synth

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)
for _module in {t[0] for t in spans.TARGETS + spans.COUNTED}:  # the tracer reads them from sys.modules
    importlib.import_module(_module)


@pytest.mark.parametrize("module, attr", [t[:2] for t in spans.TARGETS + spans.COUNTED])
def test_wrap_target_resolves(module, attr):
    """sys.modules[module], then __dict__ along the attribute path."""
    owner = sys.modules[module]
    *cls_path, fname = attr.split(".")
    for part in cls_path:
        owner = owner.__dict__[part]
    assert callable(owner.__dict__[fname])


def test_sbv2d_reexports_the_synthesizers():
    for name in synth.__all__:
        assert sbv2d.__dict__[name] is synth.__dict__[name]
    assert sbvx.synthesize is synth.synthesize
    assert set(sbv2d.__all__) <= set(sbv2d.__dict__)


def test_traced_synthesize_records_a_span():
    tracer = spans.Tracer()
    with tracer.installed():
        sbvx.synthesize("affine", {}, seed=0)
        sbv2d.synthesize("affine", {}, seed=0)
    assert [row[1] for row in tracer.spans] == ["sbv2d.synthesize"] * 2
    assert sbvx.synthesize is synth.synthesize  # restored

"""The benchmark's tracer finds every function it spans.

``perfbench/tracer.py`` patches besearch functions by name; a renamed or
deleted one is reported as absent and its layer metrics read as absent,
which the benchmark's own self-check does not fail on. This test does.
"""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_spanned_function(monkeypatch):
    # tracer.py imports its sibling ``reference`` by plain name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had_reference = "reference" in sys.modules
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    tr.patch()
    try:
        assert tr.absent == []
    finally:
        tr.unpatch()
        if not had_reference:
            sys.modules.pop("reference", None)

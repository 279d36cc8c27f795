"""The benchmark's traced run finds every function it wraps.

``perfbench/spans.py`` is loaded as it stands.  A package edit that renames
or folds away a traced function fails here, before the benchmark's own
selftest runs."""

import importlib.util
import sys
from pathlib import Path

import chargeplan  # noqa: F401  (every module the spans target is loaded)
import chargeplan.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_is_present(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()

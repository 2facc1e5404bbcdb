"""The library keeps every name the benchmark's tracer wraps.

bench/tracing.py replaces each WRAPS entry, looked up as
``owner.__dict__[attr]`` where its caller finds it; a name that leaves the
library breaks every traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def test_every_wrapped_name_is_where_the_tracer_looks(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (target, attr)
        for target, attr, _, _ in tracing.WRAPS
        if attr not in tracing._resolve(target).__dict__
    ]
    assert len(tracing.WRAPS) > 0 and missing == []

"""Every kgqa name the traced benchmark run wraps still exists.

`benchmarks/spans.py` looks each (owner, attribute) pair of its SPAN_TARGETS
and TOTAL_TARGETS up with `getattr` when it installs its wrappers, so renaming
or deleting one of those names in `src/` breaks every `--trace 1` run. The pairs
are read from spans.py itself, so this test follows it when a wrap is dropped.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_wrapped_name_exists():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    targets = [(owner, attr) for owner, attr, *_ in spans.SPAN_TARGETS + spans.TOTAL_TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert targets and not missing, missing

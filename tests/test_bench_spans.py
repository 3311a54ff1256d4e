"""The benchmark's tracer wraps module-level library names by their string
names; a refactor that drops or renames one must fail here, not only under
``benchmarks/run.py --trace 1``."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_tracer_wraps_and_restores_every_library_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer:
        assert tracer._originals
    assert tracer.restored()

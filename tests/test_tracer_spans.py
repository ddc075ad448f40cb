"""Every layer that perfbench's tracer times still exists in the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_span_has_a_target():
    # the tracer reports a missing target as absent, not as an error, and its
    # metric then drops out of every traced benchmark run; a refactor that
    # removes or renames a traced function or method fails here instead
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().absent_names == set()

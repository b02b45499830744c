"""The benchmark tracer's wrap targets still name functions of the package."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_target_resolves():
    # loaded by path, so the benchmark's own import setup is not needed
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracing.TARGETS and missing == []

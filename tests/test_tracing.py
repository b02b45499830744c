"""The benchmark still runs against the package: the tracer's wrap targets
name its functions, and the benchmark's own self-test passes."""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_target_resolves():
    # loaded by path, so the benchmark's own import setup is not needed
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracing.TARGETS and missing == []


def test_benchmark_selftest_passes():
    # each benchmark check must pass this checkout's real outputs and reject
    # a tampered copy; the self-test writes only under perfbench/out/selftest
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

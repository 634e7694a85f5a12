"""The benchmark harness in perfbench/ must keep working against the package."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"fuskit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fuskit.{layer}.{name}"


def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""The benchmark's self-test (``benchmark/smoke.py``, about 15 s) as a test.

A refactor that renames a function the traced runs patch, or that breaks one
of their closed-form call counts (SGD steps, predicts per sample,
``compute_roc`` calls, ...), fails here instead of only when the benchmark
is run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_smoke_passes_with_every_traced_function():
    done = subprocess.run([sys.executable, "benchmark/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    shown = done.stdout[-3000:] + done.stderr[-3000:]
    assert done.returncode == 0, shown
    assert "traced functions missing" not in done.stdout, shown

"""A fresh golden run against ``tests/golden_run.json`` (see
``tests/golden_run.py``): on any BLAS kernel the scores to 1e-6 relative
and the metrics to 1e-4, and the output bytes where the run's numpy and
BLAS kernel are the recorded ones.

Across the kernels OpenBLAS can pick on one x86-64 machine (Haswell,
Sandybridge and Katmai against SkylakeX), the scores differed by at most
6.3e-7 relative and the metrics by 1.5e-5, since the denoiser predicts in
float32: a KS p-value moves some 25 times as much as the scores it is
computed from."""

import json
import math

import pytest

from golden_run import EXPECTED, run

SCORE_RTOL, METRIC_RTOL = 1e-6, 1e-4


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return run(tmp_path_factory.mktemp("golden")), json.loads(EXPECTED.read_text())


def mismatches(got, want, rtol, where=""):
    """Where two JSON values differ: floats by more than ``rtol`` relative,
    anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for key in want for m in mismatches(got[key], want[key], rtol, f"{where}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, rtol, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=rtol) else [(where, got, want)]
    return [] if got == want else [(where, got, want)]


def _parsed(scores):
    """Score rows with their ``repr`` cells read back as floats."""
    return {kind: [[sample_id, label, *map(float, cells)] for sample_id, label, *cells in rows]
            for kind, rows in scores.items()}


def test_scores_and_metrics_match_to_tolerance(golden):
    got, want = golden
    bad = mismatches(_parsed(got["scores"]), _parsed(want["scores"]), SCORE_RTOL)
    bad += mismatches(got["metrics"], want["metrics"], METRIC_RTOL)
    assert not bad, bad[:5]


def test_output_bytes_match_on_the_recorded_numpy_and_kernel(golden):
    got, want = golden
    for key, name in (("numpy", "numpy"), ("blas_core", "OpenBLAS core")):
        if got[key] != want[key]:
            pytest.skip(f"{name} {got[key]}, the expected file's is {want[key]}")
    assert got["sha256"] == want["sha256"]

"""The golden run and its expected file.

The golden run is ``freqmia run`` on the default config with 50 members,
50 hold-outs and 300 epochs. ``tests/test_golden_run.py`` checks a fresh
run against ``tests/golden_run.json``, which holds every score as its
``repr``, the metrics files, the sha256 of every output and the numpy
version it came from. Regenerate the file only for a declared numerics
change, and name the change in CHANGES.md:

    PYTHONPATH=src python tests/golden_run.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from freqmia.attacks import read_score_csv
from freqmia.cli import main
from freqmia.experiment import ExperimentConfig

EXPECTED = Path(__file__).with_name("golden_run.json")
OVERRIDES = {"n_member": 50, "n_holdout": 50, "epochs": 300}


def run(work: Path) -> dict:
    """Run the golden config under ``work``; its outputs in the form of the
    expected file."""
    out = work / "out"
    ExperimentConfig(out_dir=str(out), **OVERRIDES).to_file(work / "golden.ini")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(work / "golden.ini")])
    if code != 0:
        raise RuntimeError(f"freqmia run exited {code}")
    return {
        "numpy": np.__version__,
        "config": OVERRIDES,
        "scores": {path.stem.removeprefix("scores_"): [
            [r.sample_id, r.membership, *map(repr, (r.score_raw, r.score_filtered, r.hf_content))]
            for r in read_score_csv(path)] for path in sorted(out.glob("scores_*.csv"))},
        "metrics": {path.name: json.loads(path.read_text())
                    for path in sorted(out.glob("metrics_*.json"))},
        "sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())},
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        EXPECTED.write_text(json.dumps(run(Path(work)), indent=1) + "\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)

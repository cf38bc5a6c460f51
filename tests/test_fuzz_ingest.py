"""Seeded mutation fuzzing of every file the CLI reads.

One tiny run on a PGM dataset (8x8 images, 4 members and 4 hold-outs,
T=200) writes the seven files the CLI reads back: the config, the weight
file, a score CSV, a metrics JSON, the loss trace, a PGM and the manifest.
Each case mutates one of them in a fresh copy of that run (a byte flip,
deletion or insertion, a truncation, or a splice of ``nan``, ``inf``,
``\\xff`` or ``1e999``) and runs the command that reads it through
``cli.main``. Whatever the bytes, the command exits 0 or 1, with an
``error:`` line and no traceback, and an exit-1 message names the mutated
file. Only the weight file may also exit 2: weights that are finite but
huge overflow in the attack stage. The corpus is stdlib ``random`` with a
fixed seed per file.
"""

import random
import shutil

import pytest

from freqmia.cli import main
from test_experiment import tiny_config

CASES_PER_FILE = 56
SPLICES = (b"nan", b"inf", b"\xff", b"1e999")

# mutated file -> the command that reads it (run from the case directory)
TARGETS = {
    "config.ini": ["eval", "--config", "config.ini", "--out", "out"],
    "out/model.fmia": ["attack", "--config", "config.ini"],
    "out/scores_pia.csv": ["eval", "--config", "config.ini"],
    "out/metrics_pia_raw.json": ["report", "--out", "out"],
    "out/train_loss.csv": ["eval", "--config", "config.ini"],
    "dataset/sample_0000.pgm": ["attack", "--config", "config.ini"],
    "dataset/manifest.csv": ["attack", "--config", "config.ini"],
}


def mutate(blob: bytes, rng: random.Random) -> bytes:
    """One seeded mutation of ``blob``."""
    kind = rng.choice(("flip", "delete", "insert", "truncate", "splice", "overwrite"))
    at = rng.randrange(len(blob))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1:]
    if kind == "delete":
        return blob[:at] + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at:]
    if kind == "truncate":
        return blob[:at]
    splice = rng.choice(SPLICES)
    return blob[:at] + splice + blob[at + (len(splice) if kind == "overwrite" else 0):]


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """A finished tiny run: ``config.ini``, ``dataset/`` and ``out/``."""
    base = tmp_path_factory.mktemp("fuzz_base")
    common = dict(n_member=4, n_holdout=4, timesteps=200, epochs=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        tiny_config(".", **common).to_file("synthetic.ini")
        assert main(["gen-data", "--config", "synthetic.ini"]) == 0
        (base / "synthetic.ini").unlink()
        tiny_config("out", dataset_kind="pgm_dir", dataset_path="dataset",
                    **common).to_file("config.ini")
        for command in ("train", "attack", "eval"):
            assert main([command, "--config", "config.ini"]) == 0
    return base


@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_ends_in_a_named_error(target, base_run, tmp_path, monkeypatch, capsys):
    original = (base_run / target).read_bytes()
    name = target.rsplit("/", 1)[-1]
    rng = random.Random(f"fuzz:{target}")
    codes = (0, 1, 2) if target.endswith(".fmia") else (0, 1)
    failures = []
    for case in range(CASES_PER_FILE):
        work = tmp_path / str(case)
        shutil.copytree(base_run, work)
        (work / target).write_bytes(mutate(original, rng))
        monkeypatch.chdir(work)
        capsys.readouterr()
        try:
            code = main(TARGETS[target])
        except Exception as exc:  # what the CLI would print as a traceback
            failures.append((case, "raised", repr(exc)))
            continue
        err = capsys.readouterr().err
        if code not in codes or "Traceback" in err or (code and not err.startswith("error:")):
            failures.append((case, code, err))
        elif code == 1 and name not in err:
            failures.append((case, "unnamed", err))
        shutil.rmtree(work)
    assert not failures, failures[:5]

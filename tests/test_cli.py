import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import freqmia
from freqmia.cli import main
from test_experiment import nan_at_secmi_rung, tiny_config


@pytest.fixture()
def config_path(tmp_path):
    config = tiny_config(tmp_path / "out")
    path = tmp_path / "config.ini"
    config.to_file(path)
    return path


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(freqmia.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "freqmia", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: freqmia ") and "verify-prop" in done.stdout
    bad = subprocess.run([sys.executable, "-m", "freqmia", "run", "--config", "ghost.ini"],
                         env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert bad.returncode == 1 and "ghost.ini" in bad.stderr


class TestRunCommand:
    def test_full_pipeline_and_determinism(self, tmp_path, config_path, capsys):
        out_a = tmp_path / "ra"
        out_b = tmp_path / "rb"
        assert main(["run", "--config", str(config_path), "--seed", "7",
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--seed", "7",
                     "--out", str(out_b)]) == 0
        for name in ("scores_naive.csv", "scores_pia.csv", "scores_secmi.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert "auc=" in capsys.readouterr().out

    def test_missing_config_exits_1_with_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.ini"
        assert main(["run", "--config", str(missing)]) == 1
        assert "ghost.ini" in capsys.readouterr().err

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bogus-flag"])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, tmp_path, config_path, capsys, monkeypatch):
        # a model that predicts NaN on one of secmi's rungs fails mid-experiment
        nan_at_secmi_rung(monkeypatch)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert "attack:secmi" in capsys.readouterr().err

    def test_filter_overrides_change_outputs(self, tmp_path, config_path):
        out_a = tmp_path / "fa"
        out_b = tmp_path / "fb"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b),
                     "--s", "0.0", "--rt", "1.0"]) == 0
        a = (out_a / "scores_naive.csv").read_text()
        b = (out_b / "scores_naive.csv").read_text()
        assert a != b
        # raw column identical, only the filtered column moves
        for line_a, line_b in zip(a.splitlines()[1:], b.splitlines()[1:]):
            assert line_a.split(",")[:3] == line_b.split(",")[:3]


class TestStagedCommands:
    def test_gen_train_attack_eval_report(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(config_path)]) == 0
        assert (out / "dataset" / "manifest.csv").is_file()
        assert len(list((out / "dataset").glob("*.pgm"))) == 16

        assert main(["train", "--config", str(config_path)]) == 0
        assert (out / "model.fmia").is_file()
        assert (out / "train_loss.csv").read_text().startswith("epoch,loss")

        assert main(["attack", "--config", str(config_path)]) == 0
        assert (out / "scores_naive.csv").is_file()

        assert main(["eval", "--config", str(config_path)]) == 0
        assert (out / "metrics_naive_raw.json").is_file()
        assert (out / "comparison.csv").is_file()

        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "naive" in shown and "secmi" in shown and "avg+" in shown

    def test_staged_scores_match_run_scores(self, tmp_path, config_path):
        # train -> attack -> eval writes exactly the csv/json files of run
        for command in ("train", "attack", "eval"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "full")]) == 0

        def outputs(out):
            return {p.name: p.read_bytes() for p in out.iterdir() if p.suffix in (".csv", ".json")}

        staged, full = outputs(tmp_path / "out"), outputs(tmp_path / "full")
        assert "experiment.json" in staged and "failed_hf.json" in staged
        assert sorted(staged) == sorted(full)
        for name in full:
            assert staged[name] == full[name], name

    def test_staged_stage_failure_reported_like_run(self, tmp_path, config_path, capsys,
                                                    monkeypatch):
        nan_at_secmi_rung(monkeypatch)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r")]) == 2
        from_run = capsys.readouterr().err
        assert main(["train", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["attack", "--config", str(config_path)]) == 2
        from_attack = capsys.readouterr().err
        assert "stage 'attack:secmi' failed" in from_attack
        assert from_attack == from_run
        assert (tmp_path / "out" / "partial" / "scores_naive.csv").is_file()
        assert (tmp_path / "out" / "model.fmia").is_file()

    def test_attack_requires_model(self, tmp_path, config_path, capsys):
        assert main(["attack", "--config", str(config_path),
                     "--out", str(tmp_path / "empty")]) == 1
        assert "model" in capsys.readouterr().err

    def test_eval_requires_scores(self, tmp_path, config_path, capsys):
        assert main(["eval", "--config", str(config_path),
                     "--out", str(tmp_path / "empty")]) == 1
        assert "scores_" in capsys.readouterr().err


class TestMalformedInputs:
    """A malformed input file is an input error: exit 1, the file named."""

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text("[training]\nepoch = 3\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "epoch" in capsys.readouterr().err

    def test_pixel_above_maxval_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(4):
            (data / f"s{i}.pgm").write_bytes(b"P5\n8 8\n15\n" + bytes([i] * 64))
        (data / "bad.pgm").write_bytes(b"P5\n8 8\n15\n" + bytes([16] * 64))
        names = [f"s{i}.pgm" for i in range(4)] + ["bad.pgm"]
        (data / "manifest.csv").write_text(
            "".join(f"{name},{i % 2}\n" for i, name in enumerate(names)))
        config = tiny_config(tmp_path / "out", dataset_kind="pgm_dir", dataset_path=str(data))
        config.to_file(tmp_path / "pgm.ini")
        assert main(["train", "--config", str(tmp_path / "pgm.ini")]) == 1
        assert "bad.pgm" in capsys.readouterr().err

    def test_repeated_manifest_entry_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(4):
            (data / f"s{i}.pgm").write_bytes(b"P5\n8 8\n15\n" + bytes([i] * 64))
        (data / "manifest.csv").write_text("s0.pgm,1\ns1.pgm,0\ns2.pgm,1\ns0.pgm,0\ns3.pgm,0\n")
        config = tiny_config(tmp_path / "out", dataset_kind="pgm_dir", dataset_path=str(data))
        config.to_file(tmp_path / "pgm.ini")
        assert main(["train", "--config", str(tmp_path / "pgm.ini")]) == 1
        err = capsys.readouterr().err
        assert "manifest.csv:4" in err and "'s0.pgm' repeats line 1" in err

    def test_repeated_sample_id_in_score_csv_exits_1(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for kind in ("naive", "pia", "secmi"):
            (out / f"scores_{kind}.csv").write_text(
                "sample_id,membership,score_raw,score_filtered,hf_content\n"
                "a,1,0.5,,0.25\nb,0,0.7,,0.25\na,1,0.5,,0.25\n")
        assert main(["eval", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "scores_naive.csv, line 4: sample_id 'a' repeats line 2" in err
        assert not list(out.glob("metrics_*.json"))

    def test_short_score_row_names_missing_column_exits_1(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for kind in ("naive", "pia", "secmi"):
            (out / f"scores_{kind}.csv").write_text(
                "sample_id,membership,score_raw,score_filtered,hf_content\n"
                "a,1,0.5,,0.25\nb,0\nc,1\n")
        assert main(["eval", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "scores_naive.csv, line 3: score_raw: missing, the row has 2 cell(s)" in err
        assert not list(out.glob("metrics_*.json"))

    @pytest.mark.parametrize("t_attack, message", [
        ("5000", "attack naive: t_attack: timesteps must be integers in [0, 50), got 5000"),
        ("7", "attack secmi: secmi needs t > 0, t % stride == 0"),
    ], ids=["beyond_T", "off_secmi_ladder"])
    def test_invalid_attack_timestep_exits_1_before_any_stage(self, tmp_path, config_path,
                                                              capsys, t_attack, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--t-attack", t_attack]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["train", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["attack", "--config", str(config_path), "--t-attack", t_attack]) == 1
        assert message in capsys.readouterr().err
        assert not list(out.glob("scores_*.csv"))

    def test_non_finite_model_parameter_exits_1(self, tmp_path, config_path, capsys):
        assert main(["train", "--config", str(config_path)]) == 0
        model = tmp_path / "out" / "model.fmia"
        blob = bytearray(model.read_bytes())
        blob[-8 * 3:-8 * 2] = struct.pack("<d", float("nan"))  # the third parameter from the end
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["attack", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "model.fmia: parameter" in err and "is not finite (nan)" in err
        assert not list((tmp_path / "out").glob("scores_*.csv"))

    def test_truncated_model_exits_1(self, tmp_path, config_path, capsys):
        assert main(["train", "--config", str(config_path)]) == 0
        model = tmp_path / "out" / "model.fmia"
        model.write_bytes(model.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["attack", "--config", str(config_path)]) == 1
        assert "model.fmia" in capsys.readouterr().err

    @pytest.mark.parametrize("header, rows", [
        ("sample_id,membership,score_raw,hf_content", "a,1,0.5,0.25"),
        ("sample_id,membership,score_raw,score_filtered,hf_content", "a,1,0.5,nan?,0.25"),
        ("sample_id,membership,score_raw,score_filtered,hf_content",
         "a,1,0.5,0.4,0.25\nb,0,0.7,,0.25"),
        ("sample_id,membership,score_raw,score_filtered,hf_content",
         "a,1,0.5,,0.25\nb,2,0.7,,0.25"),
        ("sample_id,membership,score_raw,score_filtered,hf_content",
         "a,1,0.5,0.4,0.25\nb,0,nan,0.6,0.25"),
    ])
    def test_malformed_score_csv_exits_1(self, tmp_path, config_path, capsys, header, rows):
        out = tmp_path / "out"
        out.mkdir()
        for kind in ("naive", "pia", "secmi"):
            (out / f"scores_{kind}.csv").write_text(f"{header}\n{rows}\n")
        assert main(["eval", "--config", str(config_path)]) == 1
        assert "scores_naive.csv" in capsys.readouterr().err

    def test_unknown_attack_kind_exits_1_before_training(self, tmp_path, config_path, capsys):
        text = config_path.read_text()
        assert "kinds = naive,pia,secmi\n" in text
        config_path.write_text(text.replace("kinds = naive,pia,secmi", "kinds = naive,pai"))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "config.ini" in err and "'pai'" in err
        assert not (tmp_path / "out" / "model.fmia").exists()

    @pytest.mark.parametrize("last_row", ["0,abc", "0"])
    def test_malformed_loss_trace_exits_1_before_any_stage(self, tmp_path, config_path, capsys,
                                                           last_row):
        for command in ("train", "attack"):
            assert main([command, "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        trace = out / "train_loss.csv"
        trace.write_text(trace.read_text() + last_row + "\n")
        line = len(trace.read_text().splitlines())
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path)]) == 1
        assert f"train_loss.csv, line {line}: " in capsys.readouterr().err
        assert not list(out.glob("metrics_*.json")) and not (out / "partial").exists()

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"[training]\nepochs = 3 # \xff\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "latin.ini" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            (data / f"s{i}.pgm").write_bytes(b"P5\n8 8\n15\n" + bytes([i] * 64))
        (data / "manifest.csv").write_bytes(b"s0.pgm,1\ns1.pgm,0\n\xff.pgm,1\n")
        config = tiny_config(tmp_path / "out", dataset_kind="pgm_dir", dataset_path=str(data))
        config.to_file(tmp_path / "pgm.ini")
        assert main(["train", "--config", str(tmp_path / "pgm.ini")]) == 1
        assert "manifest.csv: not UTF-8" in capsys.readouterr().err

    def test_manifest_name_the_file_system_cannot_encode_exits_1(self, tmp_path):
        src = str(Path(freqmia.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "LC_ALL": "C",
               "PYTHONCOERCECLOCALE": "0"}
        probe = subprocess.run([sys.executable, "-c", "import sys; print(sys.getfilesystemencoding())"],
                               env=env, capture_output=True, text=True, timeout=60)
        if probe.stdout.strip().lower().replace("-", "") == "utf8":
            pytest.skip("the file system encoding stays UTF-8 under LC_ALL=C here")
        data = tmp_path / "data"
        data.mkdir()
        for name in ("s0.pgm", "s1.pgm", "\u00e90.pgm"):
            (data / name).write_bytes(b"P5\n8 8\n15\n" + bytes([1] * 64))
        (data / "manifest.csv").write_text("s0.pgm,1\ns1.pgm,0\n\u00e90.pgm,1\n", encoding="utf-8")
        config = tiny_config(tmp_path / "out", dataset_kind="pgm_dir", dataset_path=str(data))
        config.to_file(tmp_path / "pgm.ini")
        done = subprocess.run([sys.executable, "-m", "freqmia", "train", "--config",
                               str(tmp_path / "pgm.ini")], env=env, capture_output=True, timeout=120)
        err = done.stderr.decode("utf-8", "replace")
        assert done.returncode == 1, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "manifest.csv:3" in err and "no such file" not in err
        assert probe.stdout.strip() in err

    def test_non_utf8_score_csv_exits_1(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for kind in ("naive", "pia", "secmi"):
            (out / f"scores_{kind}.csv").write_bytes(
                b"sample_id,membership,score_raw,score_filtered,hf_content\n"
                b"a,1,0.5,,0.25\n\xff,0,0.7,,0.25\n")
        assert main(["eval", "--config", str(config_path)]) == 1
        assert "scores_naive.csv: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("override, model_value, config_value", [
        ({"timesteps": 40}, "T=50", "T=40"),
        ({"size": 16}, "(1, 8, 8)", "(1, 16, 16)"),
    ])
    def test_model_not_matching_config_exits_1(self, tmp_path, config_path, capsys,
                                               override, model_value, config_value):
        assert main(["train", "--config", str(config_path)]) == 0
        tiny_config(tmp_path / "out", **override).to_file(tmp_path / "other.ini")
        capsys.readouterr()
        assert main(["attack", "--config", str(tmp_path / "other.ini")]) == 1
        err = capsys.readouterr().err
        assert "model.fmia" in err and model_value in err and config_value in err
        assert not list((tmp_path / "out").glob("scores_*.csv"))

    @pytest.mark.parametrize("name, body", [
        ("metrics_naive_raw.json", '{"asr": 0.5, "auc": 0.5,'),
        ("metrics_naive_raw.json", '{"asr": 0.5, "auc": 0.5, "tpr_at_1pct_fpr": 0.0}'),
        ("metrics_naive_raw.json",
         '{"asr": 0.5, "auc": "high", "tpr_at_1pct_fpr": 0.0, "sigma_ratio": null}'),
        ("metrics_naive_raw.json", "[0.5, 0.5, 0.0, null]"),
        ("metrics_naive.json",
         '{"asr": 0.5, "auc": 0.5, "tpr_at_1pct_fpr": 0.0, "sigma_ratio": null}'),
    ], ids=["truncated", "no_sigma_ratio", "string_auc", "not_an_object", "misnamed"])
    def test_malformed_metrics_json_exits_1(self, tmp_path, capsys, name, body):
        (tmp_path / name).write_text(body)
        assert main(["report", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""


class TestVerifyProp:
    def test_satisfied_case(self, capsys):
        assert main(["verify-prop", "--lm", "1", "--lh", "1.2", "--hm", "0.5",
                     "--hh", "0.5", "--n-samples", "20000", "--n-trials", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["constraint_satisfied"]
        assert report["fraction"] > 0.99
        assert report["population_holds"]

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-prop", "--lm", "1"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("flags", [
        ["--n-samples", "1"],
        ["--n-trials", "0"],
        ["--lm", "-1"],
        ["--hh", "-0.5"],
        ["--seed", "-1"],
    ], ids=["n_samples_1", "n_trials_0", "negative_lm", "negative_hh", "negative_seed"])
    def test_invalid_flag_value_exits_1(self, capsys, flags):
        args = {"--lm": "1", "--lh": "1.2", "--hm": "0.5", "--hh": "0.5",
                "--n-samples": "20000", "--n-trials": "5"}
        args.update(zip(flags[::2], flags[1::2]))
        assert main(["verify-prop", *[item for pair in args.items() for item in pair]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from freqmia import experiment
from freqmia.attacks import run_attack, write_score_csv
from freqmia.datasets import LabeledSample, generate_dataset
from freqmia.denoiser import ToyDenoiser, train_toy_denoiser
from freqmia.diffusion import linear_schedule
from freqmia.errors import ConfigurationError, ExperimentError, TrainingError
from freqmia.evaluation import auc, compute_roc
from freqmia.experiment import (ExperimentConfig, Pipeline, attack_stage, evaluate_stage,
                                load_inputs, report_stage, run_experiment)
from freqmia.spectral import FilterSpec


def tiny_config(out_dir, seed=0, **overrides):
    """A seconds-scale experiment for plumbing tests."""
    base = dict(
        seed=seed,
        out_dir=str(out_dir),
        dataset_kind="sharpened",
        size=8,
        gamma_min=1.5,
        gamma_max=3.0,
        n_member=8,
        n_holdout=8,
        timesteps=50,
        beta_start=1e-3,
        beta_end=0.05,
        epochs=5,
        batch_size=4,
        learning_rate=0.01,
        hidden_sizes=(16,),
        embedding_dim=8,
        naive_t=10,
        pia_t=10,
        secmi_t=10,
        secmi_stride=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def nan_at_secmi_rung(monkeypatch):
    """Make every ToyDenoiser predict NaN at t=15: of tiny_config's attacks
    only secmi (t=10, stride 5) visits that timestep, so the run trains and
    scores naive and pia, then fails at run time in secmi's stage."""
    call = ToyDenoiser.__call__

    def predict(self, x, t):
        eps = call(self, x, t)
        return np.full_like(eps, np.nan) if t == 15 else eps

    monkeypatch.setattr(ToyDenoiser, "__call__", predict)


EXPECTED_FILES = [
    "model.fmia",
    "train_loss.csv",
    "scores_naive.csv",
    "scores_pia.csv",
    "scores_secmi.csv",
    "metrics_naive_raw.json",
    "metrics_naive_filtered.json",
    "metrics_pia_raw.json",
    "metrics_pia_filtered.json",
    "metrics_secmi_raw.json",
    "metrics_secmi_filtered.json",
    "roc_naive_raw.csv",
    "roc_naive_filtered.csv",
    "roc_pia_raw.csv",
    "roc_pia_filtered.csv",
    "roc_secmi_raw.csv",
    "roc_secmi_filtered.csv",
    "failed_hf.json",
    "comparison.csv",
    "experiment.json",
]


class TestRunExperiment:
    def test_produces_all_outputs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        report = run_experiment(config)
        for name in EXPECTED_FILES:
            assert (tmp_path / "out" / name).is_file(), name
        assert set(report["attacks"]) == {"naive", "pia", "secmi"}
        for variants in report["attacks"].values():
            assert set(variants) == {"raw", "filtered"}
            for metrics in variants.values():
                assert 0.0 <= metrics["auc"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        config_a = tiny_config(tmp_path / "a", seed=3)
        config_b = tiny_config(tmp_path / "b", seed=3)
        run_experiment(config_a)
        run_experiment(config_b)
        for name in EXPECTED_FILES:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_different_seeds_differ(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "a", seed=1))
        run_experiment(tiny_config(tmp_path / "b", seed=2))
        a = (tmp_path / "a" / "scores_naive.csv").read_bytes()
        b = (tmp_path / "b" / "scores_naive.csv").read_bytes()
        assert a != b

    def test_failure_persists_partials_and_names_stage(self, tmp_path, monkeypatch):
        # a model that predicts NaN on one of secmi's rungs fails the secmi stage
        nan_at_secmi_rung(monkeypatch)
        config = tiny_config(tmp_path / "out")
        with pytest.raises(ExperimentError, match="attack:secmi.*non-finite"):
            run_experiment(config)
        partial = tmp_path / "out" / "partial"
        assert (partial / "model.fmia").is_file()
        assert (partial / "scores_naive.csv").is_file()
        assert not (tmp_path / "out" / "model.fmia").exists()

    def test_half_written_file_moves_under_partial(self, tmp_path, monkeypatch):
        # a score write that fails after 12 of 16 rows leaves no truncated
        # scores_naive.csv for a later eval to take for the run's output
        expected = tmp_path / "first_12.csv"

        def write_then_fail(records, path):
            write_score_csv(records[:12], expected)
            write_score_csv(records[:12], path)
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(experiment, "write_score_csv", write_then_fail)
        out = tmp_path / "out"
        with pytest.raises(ExperimentError, match="attack:naive.*No space left on device"):
            run_experiment(tiny_config(out, attack_kinds=("naive",)))
        assert not (out / "scores_naive.csv").exists()
        written = (out / "partial" / "scores_naive.csv").read_bytes()
        assert written == expected.read_bytes()
        assert len(written.splitlines()) == 1 + 12

    def test_stage_failing_before_its_first_write_leaves_no_out(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingError("loss diverged at epoch 0")

        monkeypatch.setattr(experiment, "train_toy_denoiser", diverge)
        with pytest.raises(ExperimentError, match="stage 'train' failed: loss diverged"):
            run_experiment(tiny_config(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_comparison_table_shape(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        run_experiment(config)
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("attack,asr_raw,asr_filtered,asr_delta,auc_raw")
        assert len(lines) == 1 + 3 + 1  # header, three attacks, avg row
        assert lines[-1].startswith("avg+")

    def test_failed_hf_uses_null_for_absent_groups(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        run_experiment(config)
        data = json.loads((tmp_path / "out" / "failed_hf.json").read_text())
        for kind in ("naive", "pia", "secmi"):
            for variant in ("raw", "filtered"):
                entry = data[kind][variant]
                assert set(entry) == {"member", "holdout"}
                for value in entry.values():
                    assert value is None or 0.0 <= value <= 1.0

    def test_metrics_json_round_trips_into_report(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        report = run_experiment(config)
        on_disk = json.loads((tmp_path / "out" / "metrics_pia_raw.json").read_text())
        in_report = {k: v for k, v in report["attacks"]["pia"]["raw"].items() if k != "tau"}
        assert on_disk == in_report


class TestPipeline:
    def test_makes_out_with_its_first_path(self, tmp_path):
        out = tmp_path / "a" / "out"
        pipe = Pipeline(tiny_config(out))
        assert not (tmp_path / "a").exists()
        assert pipe.path("x.csv") == out / "x.csv"
        assert out.is_dir() and not (out / "x.csv").exists()

    def test_failed_stage_moves_an_older_file_it_was_handed(self, tmp_path):
        # the path is recorded before it is written, so an older run's file
        # of that name cannot pass for this run's output
        out = tmp_path / "out"
        out.mkdir()
        (out / "scores_naive.csv").write_text("older run\n")
        (out / "scores_pia.csv").write_text("older run\n")
        pipe = Pipeline(tiny_config(out))
        with pytest.raises(ExperimentError, match="stage 'attack:naive' failed: disk full"):
            with pipe.stage("attack:naive"):
                pipe.path("scores_naive.csv")
                raise OSError("disk full")
        assert (out / "partial" / "scores_naive.csv").read_text() == "older run\n"
        assert not (out / "scores_naive.csv").exists()
        assert (out / "scores_pia.csv").is_file()


class TestInjectedDenoiser:
    def test_perfect_stub_gives_asr_one(self, tmp_path):
        # a stub that knows each member's noised state and drawn noise
        # scores members at exactly zero, so any tau >= 0 separates; it
        # replaces training in the stages run_experiment composes
        config = tiny_config(tmp_path / "out", seed=4, attack_kinds=("naive",))
        from freqmia.diffusion import q_sample
        from freqmia.seeding import derive_rng, derive_seed

        samples, sched = load_inputs(config)
        attack_cfg, = config.attack_configs()
        lookup = {}
        for sample in samples:
            if sample.membership != 1:
                continue
            seed = derive_seed(attack_cfg.seed, "attack-sample", sample.sample_id)
            eps = derive_rng(seed, "naive-eps").standard_normal(sample.image.shape)
            x_t = q_sample(sample.image, attack_cfg.t_attack, eps, sched)
            lookup[x_t.tobytes()] = eps

        def stub(x, t):
            return lookup.get(x.tobytes(), np.zeros_like(x)).copy()

        pipe = Pipeline(config)
        records = attack_stage(pipe, attack_cfg, samples, stub, sched)
        report = report_stage(pipe, {"naive": evaluate_stage(pipe, "naive", records)}, None)
        naive = report["attacks"]["naive"]["raw"]
        assert naive["asr"] == 1.0
        assert naive["auc"] == 1.0


class TestUntrainedControl:
    def test_no_training_means_no_signal(self, tmp_path):
        # 0-epoch model: per-attack AUC averaged over seeds stays near
        # chance, individual seeds within wide sampling noise
        aucs = {}
        for seed in range(5):
            config = tiny_config(tmp_path / f"c{seed}", seed=seed, size=16,
                                 n_member=100, n_holdout=100, epochs=0,
                                 timesteps=200, beta_start=1e-4, beta_end=0.02,
                                 hidden_sizes=(64,), embedding_dim=16,
                                 naive_t=40, pia_t=40, secmi_t=20, secmi_stride=10)
            report = run_experiment(config)
            for kind, variants in report["attacks"].items():
                value = variants["raw"]["auc"]
                assert 0.3 <= value <= 0.7, (seed, kind, value)
                aucs.setdefault(kind, []).append(value)
        for kind, values in aucs.items():
            assert 0.4 <= np.mean(values) <= 0.6, (kind, values)


class TestPairedDesign:
    def test_raw_scores_unchanged_by_filter_config(self, tmp_path):
        # raw and filtered columns come from the same per-sample pairs, so
        # changing the filter's attenuation moves only the filtered column
        config = tiny_config(tmp_path / "out", seed=5)
        samples = generate_dataset(config.dataset_spec())
        sched = linear_schedule(config.timesteps, config.beta_start, config.beta_end)
        members = [s.image for s in samples if s.membership == 1]
        den, _ = train_toy_denoiser(members, config.training_config(), sched,
                                    hidden_sizes=config.hidden_sizes,
                                    emb_dim=config.embedding_dim)
        for attack_cfg in config.attack_configs():
            assert attack_cfg.filter == FilterSpec(s=0.2, r_t=5.0)
            attenuated = run_attack(samples, attack_cfg, den, sched)
            identity = run_attack(samples, dataclasses.replace(
                attack_cfg, filter=FilterSpec(s=1.0, r_t=5.0)), den, sched)
            assert [r.score_raw for r in attenuated] == [r.score_raw for r in identity]
            assert [r.score_filtered for r in attenuated] != [r.score_filtered for r in identity]


class TestLabelExchangeability:
    def test_swapping_roles_gives_similar_signal(self, tmp_path):
        # members and hold-outs come from one distribution; which half is
        # trained on must not matter beyond seed noise
        diffs = []
        for seed in range(3):
            aucs = []
            for swap in (False, True):
                config = tiny_config(tmp_path / f"s{seed}{int(swap)}", seed=seed,
                                     n_member=16, n_holdout=16, epochs=150)
                samples = generate_dataset(config.dataset_spec())
                if swap:
                    samples = [LabeledSample(s.sample_id, s.image, 1 - s.membership)
                               for s in samples]
                sched = linear_schedule(config.timesteps, config.beta_start, config.beta_end)
                members = [s.image for s in samples if s.membership == 1]
                den, _ = train_toy_denoiser(members, config.training_config(), sched,
                                            hidden_sizes=config.hidden_sizes,
                                            emb_dim=config.embedding_dim)
                recs = run_attack(samples, config.attack_configs()[1], den, sched)
                aucs.append(auc(compute_roc(recs)))
            diffs.append(aucs[0] - aucs[1])
        assert abs(np.mean(diffs)) < 0.15


class TestConfigFile:
    def test_round_trip_is_lossless(self, tmp_path):
        config = tiny_config(tmp_path / "out", seed=9, learning_rate=0.0125,
                             gamma_min=1.75, attack_kinds=("naive", "secmi"))
        path = tmp_path / "config.ini"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_percent_sign_round_trips(self, tmp_path):
        config = tiny_config(tmp_path / "run%1", dataset_path="data%2")
        path = tmp_path / "config.ini"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_defaults_round_trip(self, tmp_path):
        config = ExperimentConfig(seed=11, out_dir=str(tmp_path / "o"))
        path = tmp_path / "c.ini"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nope.ini"):
            ExperimentConfig.from_file(tmp_path / "nope.ini")

    def test_defaults_write_the_shipped_file(self, tmp_path):
        path = tmp_path / "default.ini"
        ExperimentConfig().to_file(path)
        shipped = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
        assert path.read_bytes() == shipped.read_bytes()

    @pytest.mark.parametrize("text, named", [
        ("[training]\nepoch = 3\n", "'epoch' in \\[training\\]"),
        ("[dataset]\nepochs = 3\n", "'epochs' in \\[dataset\\]"),
        ("[trainng]\nepochs = 3\n", "\\[trainng\\]"),
        ("[DEFAULT]\nseed = 3\n", "\\[DEFAULT\\]"),
    ])
    def test_unknown_key_or_section_rejected(self, tmp_path, text, named):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=named):
            ExperimentConfig.from_file(path)

    def test_unparsable_value_names_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nepochs = many\n")
        with pytest.raises(ConfigurationError, match="epochs"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("text, message", [
        ("[dataset]\nsize = 12\n", "image size must be 8, 16 or 32, got 12"),
        ("[dataset]\nkind = pgm_dir\n", "pgm_dir dataset needs a path"),
    ])
    def test_bad_dataset_value_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as info:
            ExperimentConfig.from_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nseed = 4\n\n[training]\nepochs = 7\n")
        config = ExperimentConfig.from_file(path)
        assert config.seed == 4
        assert config.epochs == 7
        assert config.dataset_kind == ExperimentConfig().dataset_kind

    @pytest.mark.parametrize("kinds, message", [
        ((), "experiment needs at least one attack"),
        (("pia", "pia"), "attack 'pia' is listed more than once"),
        (("naive", "secmi", "naive"), "attack 'naive' is listed more than once"),
    ], ids=["empty", "repeated", "repeated_later"])
    def test_empty_or_repeated_attack_list_rejected_when_made(self, kinds, message):
        with pytest.raises(ConfigurationError, match=message):
            tiny_config("x", attack_kinds=kinds)

    @pytest.mark.parametrize("kinds", [("pai",), ("naive", "pai"), ("naive", "pia", "secmi", "")])
    def test_unknown_attack_kind_rejected_when_made(self, kinds):
        with pytest.raises(ConfigurationError, match="unknown attack kind"):
            tiny_config("x", attack_kinds=kinds)

    @pytest.mark.parametrize("overrides, message", [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"momentum": 1.0}, r"momentum must be in \[0, 1\), got 1.0"),
        ({"learning_rate": float("nan")}, "learning_rate must be >= 0, got nan"),
        ({"embedding_dim": 3}, "embedding dim must be even and >= 0, got 3"),
        ({"embedding_dim": -2}, "embedding dim must be even and >= 0, got -2"),
        ({"hidden_sizes": (8, 0)}, r"layer widths must be >= 1, got \[8, 0\]"),
        ({"hidden_sizes": (-3,)}, r"layer widths must be >= 1, got \[-3\]"),
        ({"boundary_radius": -1.0}, "boundary_radius: boundary radius must be >= 0, got -1.0"),
        ({"boundary_radius": float("nan")}, "boundary_radius: boundary radius must be >= 0"),
    ])
    def test_bad_training_architecture_or_radius_rejected_when_made(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            tiny_config("x", **overrides)

    @pytest.mark.parametrize("overrides, message", [
        ({"naive_t": 50}, "attack naive: t_attack: .*got 50"),
        ({"pia_t": -1}, "attack pia: t_attack: .*got -1"),
        ({"secmi_t": 13}, "attack secmi: secmi needs .*got t=13, stride=5, T=50"),
        ({"secmi_t": 45}, "attack secmi: secmi needs .*got t=45, stride=5, T=50"),
        ({"timesteps": 1}, "T must be >= 2"),
        ({"beta_end": 1.0}, "need 0 < beta_start <= beta_end < 1"),
    ])
    def test_bad_schedule_or_attack_timestep_rejected_when_made(self, tmp_path, overrides,
                                                                message):
        with pytest.raises(ConfigurationError, match=message):
            tiny_config("x", **overrides)
        valid = tiny_config("x")
        path = tmp_path / "bad.ini"
        valid.to_file(path)
        (key, value), = overrides.items()
        line = f"{key} = {getattr(valid, key)}\n"
        assert line in path.read_text()
        path.write_text(path.read_text().replace(line, f"{key} = {value}\n"))
        with pytest.raises(ConfigurationError, match=f"bad.ini: {message}"):
            ExperimentConfig.from_file(path)

    def test_sub_seeds_derive_from_global_seed(self):
        a = tiny_config("x", seed=1)
        b = tiny_config("x", seed=2)
        assert a.dataset_spec().seed != b.dataset_spec().seed
        assert a.training_config().seed != b.training_config().seed
        assert a.dataset_spec().seed != a.training_config().seed
        kinds = {cfg.kind: cfg.seed for cfg in a.attack_configs()}
        assert len(set(kinds.values())) == 3

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from freqmia.datasets import LabeledSample, generate_dataset
from freqmia.denoiser import ToyDenoiser, train_toy_denoiser
from freqmia.diffusion import linear_schedule
from freqmia.errors import ConfigurationError, ExperimentError
from freqmia.evaluation import auc, compute_roc
from freqmia.experiment import ExperimentConfig, default_config, run_experiment
from freqmia.attacks import run_attack


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


class TestInjectedDenoiser:
    def test_perfect_stub_gives_asr_one(self, tmp_path):
        # a stub that knows each member's noised state and drawn noise
        # scores members at exactly zero, so any tau >= 0 separates
        config = tiny_config(tmp_path / "out", seed=4, attack_kinds=("naive",))
        from freqmia.diffusion import q_sample
        from freqmia.seeding import derive_rng, derive_seed

        def factory(members, cfg, sched):
            attack_cfg = cfg.attack_configs()[0]
            samples = generate_dataset(cfg.dataset_spec())
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

            return stub

        report = run_experiment(config, denoiser_factory=factory)
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
        # turning the filter off must not move the raw column
        config = tiny_config(tmp_path / "out", seed=5)
        samples = generate_dataset(config.dataset_spec())
        sched = linear_schedule(config.timesteps, config.beta_start, config.beta_end)
        members = [s.image for s in samples if s.membership == 1]
        den, _ = train_toy_denoiser(members, config.training_config(), sched,
                                    hidden_sizes=config.hidden_sizes,
                                    emb_dim=config.embedding_dim)
        for attack_cfg in config.attack_configs():
            with_filter = run_attack(samples, attack_cfg, den, sched)
            without = run_attack(samples, dataclasses.replace(attack_cfg, filter=None),
                                 den, sched)
            assert [r.score_raw for r in with_filter] == [r.score_raw for r in without]
            assert all(r.score_filtered is None for r in without)


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

    def test_default_config_round_trips(self, tmp_path):
        config = default_config(seed=11, out_dir=str(tmp_path / "o"))
        path = tmp_path / "c.ini"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nope.ini"):
            ExperimentConfig.from_file(tmp_path / "nope.ini")

    def test_default_config_writes_the_shipped_file(self, tmp_path):
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

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nseed = 4\n\n[training]\nepochs = 7\n")
        config = ExperimentConfig.from_file(path)
        assert config.seed == 4
        assert config.epochs == 7
        assert config.dataset_kind == default_config().dataset_kind

    @pytest.mark.parametrize("kinds", [("pai",), ("naive", "pai"), ("naive", "pia", "secmi", "")])
    def test_unknown_attack_kind_rejected_when_made(self, kinds):
        with pytest.raises(ConfigurationError, match="unknown attack kind"):
            tiny_config("x", attack_kinds=kinds)

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

import warnings

import numpy as np
import pytest

from conftest import make_const_denoiser, zero_denoiser
from freqmia import attacks
from freqmia.attacks import (
    AttackConfig,
    ScorePair,
    ScoreRecord,
    naive_pair,
    paradigm_score,
    pia_pair,
    read_score_csv,
    run_attack,
    secmi_pair,
    write_score_csv,
)
from freqmia.datasets import LabeledSample
from freqmia.denoiser import ToyDenoiser, TrainingConfig, train_toy_denoiser
from freqmia.errors import ConfigurationError, ContractViolation, IngestionError
from freqmia.seeding import derive_rng
from freqmia.spectral import FilterSpec, apply_filter


FILTER = FilterSpec(s=0.2, r_t=5.0)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(123)
    return rng.uniform(-1.0, 1.0, size=(4, 1, 8, 8))


class TestParadigmScore:
    def test_identical_pair_scores_zero(self, images):
        pair = ScorePair(predicted=images[0][None], target=images[0][None].copy())
        assert paradigm_score(pair, q=2)[0] == 0.0
        assert paradigm_score(pair, q=1)[0] == 0.0
        assert paradigm_score(pair, q=2, filt=FilterSpec(s=0.2, r_t=5.0))[0] == 0.0

    def test_unit_impulse_l2(self):
        target = np.zeros((1, 8, 8))
        predicted = target.copy()
        predicted[0, 3, 4] = 1.0
        assert paradigm_score(ScorePair(predicted[None], target[None]), q=2)[0] == pytest.approx(1.0)

    def test_l1_norm(self):
        target = np.zeros((1, 4, 4))
        predicted = np.full((1, 4, 4), 0.5)
        assert paradigm_score(ScorePair(predicted[None], target[None]), q=1)[0] == pytest.approx(8.0)

    def test_filter_path_equivalence(self, images):
        # filtering the difference must match filtering both tensors
        filt = FilterSpec(s=0.2, r_t=5.0)
        pair = ScorePair(predicted=images[0][None], target=images[1][None])
        fast = paradigm_score(pair, q=2, filt=filt)[0]
        both = np.sqrt(np.sum((apply_filter(images[0], filt) - apply_filter(images[1], filt)) ** 2))
        assert abs(fast - both) < 1e-9

    def test_explicit_pipeline_oracle(self, images):
        filt = FilterSpec(s=0.2, r_t=5.0)
        pair = ScorePair(predicted=images[2][None], target=images[3][None])
        from freqmia.spectral import build_mask, forward_dft, inverse_dft
        mask = build_mask(filt, 8, 8)
        fp = inverse_dft(forward_dft(images[2]) * mask)
        ft = inverse_dft(forward_dft(images[3]) * mask)
        oracle = np.sqrt(np.sum((fp - ft) ** 2))
        assert abs(paradigm_score(pair, q=2, filt=filt)[0] - oracle) < 1e-9

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ContractViolation):
            ScorePair(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))

    def test_bad_norm_rejected(self, images):
        with pytest.raises(ContractViolation):
            paradigm_score(ScorePair(images[0], images[1]), q=3)


class TestNaivePair:
    def test_perfect_stub_scores_zero(self, small_sched, images):
        seed = 77
        eps = derive_rng(seed, "naive-eps").standard_normal(images[0].shape)
        pair = naive_pair(images[0][None], 10, make_const_denoiser(eps), small_sched, seeds=[seed])
        assert paradigm_score(pair, q=2)[0] == 0.0

    def test_target_recovers_x0(self, small_sched, images):
        pair = naive_pair(images[0][None], 10, zero_denoiser, small_sched, seeds=[5])
        assert np.max(np.abs(pair.target[0] - images[0])) < 1e-9

    def test_scale_identity(self, small_sched, images):
        # the image-space score equals the eps-space error scaled by
        # sqrt(1-abar)/sqrt(abar)
        t, seed = 20, 11
        eps_hat = np.random.default_rng(1).standard_normal(images[0].shape)
        den = make_const_denoiser(eps_hat)
        pair = naive_pair(images[0][None], t, den, small_sched, seeds=[seed])
        score = paradigm_score(pair, q=2)[0]

        eps = derive_rng(seed, "naive-eps").standard_normal(images[0].shape)
        abar = small_sched.alpha_bar[t]
        oracle = np.sqrt((1 - abar) / abar) * np.sqrt(np.sum((eps - eps_hat) ** 2))
        assert abs(score - oracle) < 1e-9

    def test_seed_determinism(self, small_sched, images):
        den = zero_denoiser
        a = paradigm_score(naive_pair(images[0][None], 10, den, small_sched, seeds=[3]), q=2)[0]
        b = paradigm_score(naive_pair(images[0][None], 10, den, small_sched, seeds=[3]), q=2)[0]
        c = paradigm_score(naive_pair(images[0][None], 10, den, small_sched, seeds=[4]), q=2)[0]
        assert a == b
        assert a != c


class TestPiaPair:
    def test_state_independent_denoiser_scores_zero(self, small_sched, images):
        den = make_const_denoiser(np.random.default_rng(2).standard_normal(images[0].shape))
        pair = pia_pair(images[0][None], 15, den, small_sched)
        assert paradigm_score(pair, q=2)[0] == 0.0

    def test_repeated_calls_bit_identical(self, small_sched, images):
        den = _affine_denoiser()
        a = pia_pair(images[1][None], 15, den, small_sched)
        b = pia_pair(images[1][None], 15, den, small_sched)
        assert np.array_equal(a.predicted, b.predicted)
        assert np.array_equal(a.target, b.target)

    def test_scale_identity(self, small_sched, images):
        t = 20
        den = _affine_denoiser()
        pair = pia_pair(images[0][None], t, den, small_sched)
        score = paradigm_score(pair, q=2)[0]

        from freqmia.diffusion import q_sample
        eps0 = den(images[0], 0)
        x_t = q_sample(images[0], t, eps0, small_sched)
        abar = small_sched.alpha_bar[t]
        oracle = np.sqrt((1 - abar) / abar) * np.sqrt(np.sum((eps0 - den(x_t, t)) ** 2))
        assert abs(score - oracle) < 1e-9


def _affine_denoiser():
    """Deterministic state-dependent stub: a fixed linear map of the input."""
    def den(x, t):
        return 0.5 * x + 0.1 * np.roll(x, 1, axis=-1) + 0.01 * t
    return den


class TestSecmiPair:
    def test_constant_stub_round_trips_exactly(self, small_sched, images):
        den = make_const_denoiser(np.random.default_rng(3).standard_normal(images[0].shape))
        pair = secmi_pair(images[0][None], 10, den, small_sched, stride=5)
        assert paradigm_score(pair, q=2)[0] < 1e-12

    def test_zero_stub_round_trips_exactly(self, small_sched, images):
        pair = secmi_pair(images[0][None], 10, zero_denoiser, small_sched, stride=5)
        assert paradigm_score(pair, q=2)[0] < 1e-12

    def test_unreachable_t_rejected(self, small_sched, images):
        with pytest.raises(ConfigurationError):
            secmi_pair(images[0][None], 7, zero_denoiser, small_sched, stride=5)
        with pytest.raises(ConfigurationError):
            secmi_pair(images[0][None], 45, zero_denoiser, small_sched, stride=10)

    def test_overfit_model_separates_members(self, small_sched):
        rng = np.random.default_rng(9)
        members = rng.uniform(-1, 1, size=(4, 1, 8, 8))
        holdout = rng.uniform(-1, 1, size=(4, 1, 8, 8))
        config = TrainingConfig(epochs=600, batch_size=4, learning_rate=0.01, seed=21)
        den, _ = train_toy_denoiser(members, config, small_sched, hidden_sizes=(96,), emb_dim=8)
        member_errors = [paradigm_score(secmi_pair(x[None], 10, den, small_sched, stride=5), q=2)[0]
                         for x in members]
        holdout_errors = [paradigm_score(secmi_pair(x[None], 10, den, small_sched, stride=5), q=2)[0]
                          for x in holdout]
        assert np.mean(member_errors) < np.mean(holdout_errors)


def _make_samples(images, memberships):
    return [LabeledSample(f"s{i:03d}", img, m)
            for i, (img, m) in enumerate(zip(images, memberships))]


class TestRunAttack:
    def test_perfect_stub_gives_zero_member_score(self, small_sched, images):
        den = make_const_denoiser(np.random.default_rng(4).standard_normal(images[0].shape))
        samples = _make_samples(images[:1], [1])
        config = AttackConfig(kind="pia", t_attack=10, q=2, seed=0,
                              filter=FilterSpec(s=0.2, r_t=5.0))
        records = run_attack(samples, config, den, small_sched)
        assert records[0].score_raw == 0.0
        assert records[0].score_filtered == 0.0
        # classified member under the score <= tau rule for any tau >= 0
        assert records[0].score_raw <= 0.0

    def test_records_follow_input_order_and_permute(self, small_sched, images):
        den = _affine_denoiser()
        samples = _make_samples(images, [1, 1, 0, 0])
        config = AttackConfig(kind="naive", t_attack=10, q=2, seed=42, filter=FILTER)
        records = run_attack(samples, config, den, small_sched)
        assert [r.sample_id for r in records] == [s.sample_id for s in samples]

        perm = [2, 0, 3, 1]
        permuted = run_attack([samples[i] for i in perm], config, den, small_sched)
        by_id = {r.sample_id: r for r in records}
        for rec in permuted:
            assert rec.score_raw == by_id[rec.sample_id].score_raw

    def test_deterministic_given_config(self, small_sched, images):
        den = _affine_denoiser()
        samples = _make_samples(images, [1, 0, 1, 0])
        config = AttackConfig(kind="naive", t_attack=10, q=2, seed=7,
                              filter=FilterSpec(s=0.2, r_t=5.0))
        a = run_attack(samples, config, den, small_sched)
        b = run_attack(samples, config, den, small_sched)
        assert a == b

    def test_scores_nonnegative_and_hf_in_range(self, small_sched, images):
        den = _affine_denoiser()
        samples = _make_samples(images, [1, 0, 1, 0])
        for kind, t in (("naive", 10), ("pia", 10), ("secmi", 10)):
            config = AttackConfig(kind=kind, t_attack=t, stride=5, q=2, seed=1,
                                  filter=FilterSpec(s=0.2, r_t=5.0))
            for rec in run_attack(samples, config, den, small_sched):
                assert rec.score_raw >= 0.0
                assert rec.score_filtered >= 0.0
                assert 0.0 <= rec.hf_content <= 1.0

    def test_empty_dataset_rejected(self, small_sched):
        config = AttackConfig(kind="naive", t_attack=10, filter=FILTER)
        with pytest.raises(ConfigurationError):
            run_attack([], config, zero_denoiser, small_sched)

    @pytest.mark.parametrize("pair", [
        lambda x, sched: naive_pair(x, 10, zero_denoiser, sched, []),
        lambda x, sched: pia_pair(x, 10, zero_denoiser, sched),
        lambda x, sched: secmi_pair(x, 10, zero_denoiser, sched, 5),
    ], ids=["naive", "pia", "secmi"])
    def test_empty_image_stack_rejected(self, small_sched, pair):
        with pytest.raises(ContractViolation, match=r"at least one image, got shape \(0, 1, 4, 4\)"):
            pair(np.zeros((0, 1, 4, 4)), small_sched)

    def test_config_validation(self, small_sched):
        with pytest.raises(ConfigurationError, match="unknown attack kind"):
            AttackConfig(kind="unknown", t_attack=10, filter=FILTER)
        with pytest.raises(ConfigurationError, match="norm order"):
            AttackConfig(kind="naive", t_attack=10, q=3, filter=FILTER)
        with pytest.raises(ConfigurationError, match="stride"):
            AttackConfig(kind="secmi", t_attack=10, stride=0, filter=FILTER)
        samples = _make_samples(np.zeros((1, 1, 4, 4)), [1])
        for t in (-1, small_sched.T, 99):
            bad_t = AttackConfig(kind="naive", t_attack=t, filter=FILTER)
            with pytest.raises(ConfigurationError, match=f"t_attack: .*got {t}"):
                run_attack(samples, bad_t, zero_denoiser, small_sched)
        bad_ladder = AttackConfig(kind="secmi", t_attack=13, stride=5, filter=FILTER)
        with pytest.raises(ConfigurationError):
            run_attack(samples, bad_ladder, zero_denoiser, small_sched)

    def test_filter_is_required_and_keyword_only(self):
        with pytest.raises(TypeError, match="filter"):
            AttackConfig(kind="naive", t_attack=10)
        with pytest.raises(TypeError):
            AttackConfig("naive", 10, 10, 2, 0, FILTER)
        assert AttackConfig("naive", 10, 10, 2, 0, filter=FILTER).filter == FILTER

    @pytest.mark.parametrize("kind", ["naive", "pia", "secmi"])
    def test_nan_prediction_for_one_sample_raises(self, small_sched, images, kind):
        # every score, raw and filtered, comes through the filter's check
        calls_per_sample = {"naive": 1, "pia": 2, "secmi": 10 // 5 + 2}[kind]
        calls = []

        def den(x, t):
            # NaN from call 2 * calls_per_sample + 1, inside the one chunk
            calls.append(t)
            eps = _affine_denoiser()(x, t)
            return np.full_like(eps, np.nan) if len(calls) == 2 * calls_per_sample + 1 else eps

        samples = _make_samples(images, [1, 0, 1, 0])
        config = AttackConfig(kind=kind, t_attack=10, stride=5, seed=1, filter=FILTER)
        with pytest.raises(ContractViolation, match="non-finite"):
            run_attack(samples, config, den, small_sched)
        assert len(calls) == 4 * calls_per_sample

    @pytest.mark.parametrize("warning_action", ["error", "ignore"])
    def test_finite_pair_whose_score_overflows_raises(self, small_sched, images,
                                                      warning_action):
        affine = _affine_denoiser()
        calls = []

        def den(x, t):
            # huge but finite from the third sample's one call on
            calls.append(t)
            return affine(x, t) * (1e200 if len(calls) >= 3 else 1.0)

        samples = _make_samples(images, [1, 0, 1, 0])
        config = AttackConfig(kind="naive", t_attack=10, seed=1, filter=FILTER)
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action)
            with pytest.raises(ContractViolation,
                               match="^the score of sample 's002' overflows float64$"):
                run_attack(samples, config, den, small_sched)

    def test_threshold_rule_monotone_in_tau(self, small_sched, images):
        den = _affine_denoiser()
        samples = _make_samples(images, [1, 0, 1, 0])
        config = AttackConfig(kind="pia", t_attack=10, filter=FILTER)
        scores = [r.score_raw for r in run_attack(samples, config, den, small_sched)]
        previous = set()
        for tau in sorted(scores) + [max(scores) + 1.0]:
            classified = {i for i, s in enumerate(scores) if s <= tau}
            assert previous <= classified
            previous = classified


class TestCallCounts:
    """The benchmark's closed forms, checked in seconds: per sample and
    attack, 1/2/(t/stride + 2) outermost denoiser calls (``__call__`` or
    ``predict_batch``, not counting one made inside the other) for
    naive/pia/secmi, and one ``high_frequency_content`` call."""

    N = 70  # more than one scoring chunk

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"predict": 0, "hf": 0}
        depth = [0]

        def counted(method):
            def call(*args, **kwargs):
                counts["predict"] += depth[0] == 0
                depth[0] += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        for name in ("__call__", "predict_batch"):
            monkeypatch.setattr(ToyDenoiser, name, counted(getattr(ToyDenoiser, name)))
        hf = attacks.high_frequency_content

        def counted_hf(*args, **kwargs):
            counts["hf"] += 1
            return hf(*args, **kwargs)

        monkeypatch.setattr(attacks, "high_frequency_content", counted_hf)
        return counts

    def test_denoiser_and_hf_calls_per_sample(self, std_sched, counts):
        den = ToyDenoiser.initialize((1, 4, 4), (8,), 4, std_sched.T, seed=0)
        rng = np.random.default_rng(0)
        samples = [LabeledSample(f"s{i}", rng.uniform(size=(1, 4, 4)), i % 2)
                   for i in range(self.N)]
        predicts = {}
        for kind, t in (("naive", 200), ("pia", 200), ("secmi", 100)):
            before = counts["predict"]
            config = AttackConfig(kind=kind, t_attack=t, stride=10, seed=1,
                                  filter=FilterSpec(s=0.2, r_t=1.0))
            run_attack(samples, config, den, std_sched)
            predicts[kind] = (counts["predict"] - before) / self.N
        assert predicts == {"naive": 1.0, "pia": 2.0, "secmi": 100 / 10 + 2}
        assert counts["hf"] == 3 * self.N


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        records = [
            ScoreRecord("a", 1, 0.123456789012345, 0.0012345, 0.25),
            ScoreRecord("b", 0, 1.5e-7, 2.5e-9, 0.75),
        ]
        path = tmp_path / "scores.csv"
        write_score_csv(records, path)
        body = path.read_text()
        assert body.splitlines()[0] == "sample_id,membership,score_raw,score_filtered,hf_content"
        assert "\r" not in body
        loaded = read_score_csv(path)
        assert [r.sample_id for r in loaded] == ["a", "b"]
        assert loaded == records

    def test_floats_written_with_repr(self, tmp_path):
        records = [ScoreRecord("a", 1, 1.0 / 3.0, np.float64(2.0 / 3.0), 0.1 + 0.2)]
        path = tmp_path / "scores.csv"
        write_score_csv(records, path)
        assert path.read_text().splitlines()[1] == f"a,1,{1.0 / 3.0!r},{2.0 / 3.0!r},{0.1 + 0.2!r}"

    @pytest.mark.parametrize("body, line", [
        ("a,1,0.5,0.4,0.25\nb,0,0.7,,0.25\n", 3),
        ("a,1,0.5,,0.25\nb,0,0.7,0.6,0.25\n", 2),
    ], ids=["later_row", "first_row"])
    def test_empty_filtered_cell_rejected(self, tmp_path, body, line):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,score_filtered,hf_content\n" + body)
        message = f"scores.csv, line {line}: score_filtered: could not convert string to float: ''"
        with pytest.raises(IngestionError) as excinfo:
            read_score_csv(path)
        assert str(excinfo.value).endswith(message)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_score_csv([], path)
        with pytest.raises(IngestionError, match="no score rows"):
            read_score_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,hf_content\na,1,0.5,0.25\n")
        with pytest.raises(IngestionError, match="score_filtered"):
            read_score_csv(path)

    @pytest.mark.parametrize("row, column", [
        ("a,1,nan,0.4,0.25", "score_raw"),
        ("a,1,0.5,inf,0.25", "score_filtered"),
        ("a,1,0.5,0.4,-inf", "hf_content"),
    ])
    def test_non_finite_cell_rejected(self, tmp_path, row, column):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,score_filtered,hf_content\n"
                        "b,0,0.7,0.6,0.25\n" + row + "\n")
        with pytest.raises(IngestionError, match=rf"scores\.csv, line 3: {column} must be finite"):
            read_score_csv(path)

    @pytest.mark.parametrize("row", ["a,1,oops,0.4,0.25", "a,yes,0.5,0.4,0.25", "a,1",
                                     "a,2,0.5,0.4,0.25"])
    def test_malformed_cell_rejected(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,score_filtered,hf_content\n" + row + "\n")
        with pytest.raises(IngestionError, match="line 2"):
            read_score_csv(path)

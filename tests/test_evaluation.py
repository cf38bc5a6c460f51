import json
import math
import re

import numpy as np
import pytest

from freqmia import evaluation
from freqmia.attacks import ScoreRecord
from freqmia.errors import EvaluationError
from freqmia.evaluation import (
    PropositionInputs,
    auc,
    build_metrics_report,
    compute_asr,
    compute_roc,
    failed_sample_hf_analysis,
    kolmogorov_sf,
    ks_normality_test,
    membership_advantage,
    proposition_constraint,
    proposition_mc_verify,
    sigma_ratio,
    tpr_at_fpr,
    write_metrics_json,
    write_roc_csv,
)


def make_records(member_scores, holdout_scores, hf_member=None, hf_holdout=None):
    records = []
    for i, s in enumerate(member_scores):
        hf = hf_member[i] if hf_member is not None else 0.5
        records.append(ScoreRecord(f"m{i:03d}", 1, float(s), None, hf))
    for i, s in enumerate(holdout_scores):
        hf = hf_holdout[i] if hf_holdout is not None else 0.5
        records.append(ScoreRecord(f"h{i:03d}", 0, float(s), None, hf))
    return records


def balanced_accuracy(member, holdout, tau):
    tpr = np.mean(member <= tau)
    tnr = np.mean(holdout > tau)
    return (tpr + tnr) / 2.0


def asr_oracle(member, holdout):
    """Exhaustive sweep over every score, midpoint, and +-inf."""
    member, holdout = np.asarray(member), np.asarray(holdout)
    pooled = np.unique(np.concatenate([member, holdout]))
    candidates = np.concatenate([[-np.inf], pooled, (pooled[:-1] + pooled[1:]) / 2, [np.inf]])
    return max(balanced_accuracy(member, holdout, tau) for tau in candidates)


def auc_oracle(member, holdout):
    """Pairwise comparison statistic with half credit for ties."""
    wins = sum(1.0 for m in member for h in holdout if m < h)
    ties = sum(1.0 for m in member for h in holdout if m == h)
    return (wins + 0.5 * ties) / (len(member) * len(holdout))


def tpr_at_fpr_oracle(member, holdout, budget):
    member, holdout = np.asarray(member), np.asarray(holdout)
    best = 0.0
    for tau in np.concatenate([[-np.inf], np.unique(np.concatenate([member, holdout]))]):
        if np.mean(holdout <= tau) <= budget:
            best = max(best, np.mean(member <= tau))
    return best


def broadcast_asr_roc(member, holdout):
    """compute_asr and compute_roc by (thresholds x n) comparison matrices."""
    distinct = np.unique(np.concatenate([member, holdout]))
    taus = np.concatenate([[-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]])
    balanced = (np.mean(member[None, :] <= taus[:, None], axis=1)
                + np.mean(holdout[None, :] > taus[:, None], axis=1)) / 2.0
    best = int(np.argmax(balanced))
    thresholds = np.concatenate([[-np.inf], distinct])
    tpr = np.mean(member[None, :] <= thresholds[:, None], axis=1)
    fpr = np.mean(holdout[None, :] <= thresholds[:, None], axis=1)
    return float(balanced[best]), float(taus[best]), thresholds, fpr, tpr


class TestAsr:
    def test_perfect_separation(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        asr, tau = compute_asr(records)
        assert asr == 1.0
        assert 0.2 < tau < 0.3

    def test_counting_example(self):
        records = make_records([1.0, 2.0, 3.0], [2.5, 3.5, 4.5])
        asr, tau = compute_asr(records)
        assert asr == pytest.approx(5.0 / 6.0)
        assert tau == pytest.approx(2.25)  # tie broken toward the smaller tau

    def test_identical_multisets(self):
        records = make_records([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        asr, _ = compute_asr(records)
        assert asr == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            compute_asr([ScoreRecord("a", 1, 0.5, None, 0.0)])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n_m, n_h = rng.integers(2, 30, size=2)
        member = np.round(rng.normal(0.0, 1.0, n_m), 1)  # rounding forces ties
        holdout = np.round(rng.normal(0.5, 1.2, n_h), 1)
        records = make_records(member, holdout)
        asr, tau = compute_asr(records)
        assert asr == pytest.approx(asr_oracle(member, holdout), abs=1e-12)
        # the returned tau must achieve the returned asr
        assert balanced_accuracy(member, holdout, tau) == pytest.approx(asr, abs=1e-12)

    def test_asr_at_least_accuracy_at_any_fixed_tau(self):
        rng = np.random.default_rng(99)
        member = rng.normal(0, 1, 25)
        holdout = rng.normal(0.3, 1, 25)
        records = make_records(member, holdout)
        asr, _ = compute_asr(records)
        for tau in np.linspace(-3, 3, 50):
            assert asr >= balanced_accuracy(member, holdout, tau) - 1e-12
        assert asr >= 0.5


class TestRocAuc:
    def test_perfect_separation(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        assert auc(compute_roc(records)) == pytest.approx(1.0)

    def test_identical_distributions(self):
        records = make_records([1.0, 2.0], [1.0, 2.0])
        assert auc(compute_roc(records)) == pytest.approx(0.5)

    def test_interleaved_example(self):
        records = make_records([1.0, 3.0], [2.0, 4.0])
        assert auc(compute_roc(records)) == pytest.approx(0.75)

    def test_curve_shape_invariants(self):
        rng = np.random.default_rng(5)
        records = make_records(rng.normal(0, 1, 20), rng.normal(1, 1, 25))
        curve = compute_roc(records)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_auc_equals_pairwise_statistic(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_m, n_h = rng.integers(2, 40, size=2)
        member = np.round(rng.normal(0, 1, n_m), 1)
        holdout = np.round(rng.normal(0.4, 1, n_h), 1)
        records = make_records(member, holdout)
        assert abs(auc(compute_roc(records)) - auc_oracle(member, holdout)) <= 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_sorted_counts_match_broadcast_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_m, n_h = rng.integers(1, 60, size=2)
        member = np.round(rng.normal(0, 1, n_m), 1)  # rounding makes ties
        holdout = np.round(rng.normal(0.3, 1, n_h), 1)
        records = make_records(member, holdout)
        asr, tau, thresholds, fpr, tpr = broadcast_asr_roc(member, holdout)
        assert compute_asr(records) == (asr, tau)
        curve = compute_roc(records)
        for got, expected in ((curve.thresholds, thresholds), (curve.fpr, fpr), (curve.tpr, tpr)):
            assert got.tobytes() == expected.tobytes()

    def test_nan_score_rejected(self):
        records = make_records([0.1, math.nan], [0.3, 0.4])
        for compute in (compute_asr, compute_roc):
            with pytest.raises(EvaluationError, match="m001"):
                compute(records)

    def test_monotone_transform_leaves_metrics_invariant(self):
        rng = np.random.default_rng(6)
        member = rng.uniform(0.1, 2.0, 30)
        holdout = rng.uniform(0.2, 2.5, 30)
        base = make_records(member, holdout)
        transformed = make_records(np.exp(member), np.exp(holdout))
        assert compute_asr(base)[0] == pytest.approx(compute_asr(transformed)[0], abs=1e-12)
        curve_a, curve_b = compute_roc(base), compute_roc(transformed)
        assert auc(curve_a) == pytest.approx(auc(curve_b), abs=1e-12)
        assert np.array_equal(curve_a.fpr, curve_b.fpr)
        assert np.array_equal(curve_a.tpr, curve_b.tpr)
        assert tpr_at_fpr(curve_a, 0.01) == tpr_at_fpr(curve_b, 0.01)


class TestTprAtFpr:
    def test_full_budget_is_one(self):
        records = make_records([1.0, 2.0], [1.5, 2.5])
        assert tpr_at_fpr(compute_roc(records), 1.0) == 1.0

    def test_perfect_separation_at_tight_budget(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        assert tpr_at_fpr(compute_roc(records), 0.01) == 1.0

    def test_interleaved_grid_matches_sweep_oracle(self):
        member = np.arange(1.0, 101.0)
        holdout = member + 0.5
        records = make_records(member, holdout)
        curve = compute_roc(records)
        for budget in (0.0, 0.01, 0.05, 0.1, 0.5, 1.0):
            assert tpr_at_fpr(curve, budget) == pytest.approx(
                tpr_at_fpr_oracle(member, holdout, budget), abs=1e-12)

    def test_nondecreasing_in_budget(self):
        rng = np.random.default_rng(8)
        records = make_records(rng.normal(0, 1, 30), rng.normal(0.5, 1, 30))
        curve = compute_roc(records)
        values = [tpr_at_fpr(curve, b) for b in np.linspace(0, 1, 21)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestMembershipAdvantage:
    def test_perfect_separation(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        assert membership_advantage(records, 0.25) == pytest.approx(1.0)

    def test_tau_below_everything(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        assert membership_advantage(records, 0.0) == 0.0

    def test_counting_example(self):
        records = make_records([1.0, 2.0, 3.0], [2.5, 3.5, 4.5])
        assert membership_advantage(records, 2.4) == pytest.approx(2.0 / 3.0)

    def test_advantage_at_best_tau_equals_2asr_minus_1(self):
        rng = np.random.default_rng(9)
        records = make_records(rng.normal(0, 1, 40), rng.normal(0.6, 1, 40))
        asr, tau = compute_asr(records)
        assert membership_advantage(records, tau) == pytest.approx(2 * asr - 1, abs=1e-12)


class TestSigmaRatio:
    def test_simple_ratio(self):
        records = make_records([0.0, 2.0], [0.0, 4.0])
        sm, sh, ratio = sigma_ratio(records)
        assert sm == pytest.approx(math.sqrt(2.0))
        assert sh == pytest.approx(2.0 * math.sqrt(2.0))
        assert ratio == pytest.approx(2.0)

    def test_degenerate_member_scores_rejected(self):
        records = make_records([1.0, 1.0, 1.0], [0.5, 1.5])
        with pytest.raises(EvaluationError):
            sigma_ratio(records)

    def test_unbiased_estimator(self):
        rng = np.random.default_rng(10)
        member = rng.normal(0, 1, 10)
        holdout = rng.normal(0, 1, 10)
        sm, sh, _ = sigma_ratio(make_records(member, holdout))
        assert sm == pytest.approx(np.std(member, ddof=1))
        assert sh == pytest.approx(np.std(holdout, ddof=1))


class TestKsNormality:
    def test_three_point_sample_against_standard_normal(self):
        result = ks_normality_test([-1.0, 0.0, 1.0], mean=0.0, std=1.0)
        expected = 1.0 / 3.0 - (1.0 - 0.8413447460685429)
        assert result.statistic == pytest.approx(expected, abs=1e-12)
        assert result.statistic == pytest.approx(0.1746, abs=1e-4)

    def test_quantile_construction_has_tiny_statistic(self):
        # sample placed exactly at the normal quantiles of ranks (i-0.5)/n
        from statistics import NormalDist
        n = 40
        sample = [NormalDist().inv_cdf((i - 0.5) / n) for i in range(1, n + 1)]
        result = ks_normality_test(sample, mean=0.0, std=1.0)
        assert result.statistic <= 0.5 / n + 1e-12

    def test_decision_at_five_percent(self):
        rng = np.random.default_rng(11)
        normal_scores = rng.normal(5.0, 2.0, 200)
        result = ks_normality_test(normal_scores)
        assert result.normal_at_5pct
        assert result.p_value >= 0.05
        bimodal = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(5, 0.1, 100)])
        result = ks_normality_test(bimodal)
        assert not result.normal_at_5pct

    def test_too_few_samples_rejected(self):
        with pytest.raises(EvaluationError):
            ks_normality_test([0.0, 1.0])

    def test_sf_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for lam in (0.01, 0.1, 0.3, 0.5, 0.8, 1.0, 1.425, 2.0, 3.0):
            assert kolmogorov_sf(lam) == pytest.approx(
                float(scipy_special.kolmogorov(lam)), abs=1e-12)

    def test_sf_basic_shape(self):
        assert kolmogorov_sf(0.0) == 1.0
        values = [kolmogorov_sf(x) for x in np.linspace(0.05, 3.0, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert kolmogorov_sf(3.0) < 1e-6


class TestPropositionConstraint:
    def test_formula_matches_direct_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            l_m, hh = rng.uniform(0.2, 3.0, size=2)
            delta = rng.uniform(-0.2, 1.0)
            l_h = l_m + delta
            if l_h <= 0:
                continue
            hm = rng.uniform(0.1, 3.0)
            inputs = PropositionInputs(l_m=l_m, l_h=l_h, h_m=hm, h_h=hh)
            result = proposition_constraint(inputs)
            f_direct = 1.0 + (2.0 * delta / hh**2) * (
                l_m + 2.0 * delta - math.sqrt((l_m + 2.0 * delta) ** 2 + hh**2))
            assert result.f == pytest.approx(f_direct, abs=1e-12)
            assert result.k_sq == pytest.approx((hm / hh) ** 2, abs=1e-12)
            assert result.satisfied == (result.k_sq > result.f)

    def test_k_equal_one_with_positive_delta_satisfied(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.3, h_m=0.5, h_h=0.5)
        result = proposition_constraint(inputs)
        assert result.f < 1.0
        assert result.satisfied

    def test_f_at_most_one_for_nonnegative_delta(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            l_m = rng.uniform(0.2, 3.0)
            delta = rng.uniform(0.0, 1.0)
            inputs = PropositionInputs(l_m=l_m, l_h=l_m + delta, h_m=1.0,
                                       h_h=rng.uniform(0.2, 2.0))
            assert proposition_constraint(inputs).f <= 1.0 + 1e-15

    def test_f_equals_one_at_zero_delta(self):
        inputs = PropositionInputs(l_m=1.5, l_h=1.5, h_m=1.0, h_h=1.0)
        assert proposition_constraint(inputs).f == pytest.approx(1.0, abs=1e-15)

    def test_reference_magnitudes(self):
        # constraint decision at k^2 ~ 1.139 vs f ~ 0.924
        inputs = PropositionInputs(l_m=1.0, l_h=1.1046, h_m=math.sqrt(1.139), h_h=1.0)
        result = proposition_constraint(inputs)
        assert result.k_sq == pytest.approx(1.139, abs=1e-12)
        assert 0.92 < result.f < 0.93
        assert result.satisfied


class TestPropositionMcVerify:
    def test_clear_margin_case_passes(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        report = proposition_mc_verify(inputs, n_samples=20_000, seed=0, n_trials=50)
        assert report.precondition_met
        assert report.fraction > 0.99

    def test_degenerate_high_band_flagged(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.0, h_h=0.0)
        report = proposition_mc_verify(inputs, n_samples=10_000, seed=1, n_trials=10)
        assert report.degenerate
        assert not report.precondition_met
        assert report.fraction == 0.0  # ratios identical pre/post, never strictly greater

    def test_closed_form_cross_check(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        report = proposition_mc_verify(inputs, n_samples=20_000, seed=2, n_trials=50)
        pre = math.sqrt(1.2**2 + 0.25) / math.sqrt(1.0 + 0.25)
        post = 1.2
        assert report.population_ratio_pre == pytest.approx(pre, abs=1e-12)
        assert report.population_ratio_post == pytest.approx(post, abs=1e-12)
        assert report.population_holds
        assert abs(report.mc_ratio_pre_mean - pre) < 3 * report.mc_ratio_pre_se
        assert abs(report.mc_ratio_post_mean - post) < 3 * report.mc_ratio_post_se

    def test_unmet_precondition_flagged_not_asserted(self):
        # k far below the threshold: constraint fails, report still returned
        inputs = PropositionInputs(l_m=2.0, l_h=2.01, h_m=0.1, h_h=1.0)
        assert not proposition_constraint(inputs).satisfied
        report = proposition_mc_verify(inputs, n_samples=10_000, seed=3, n_trials=10)
        assert not report.precondition_met

    def test_deterministic_given_seed(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        a = proposition_mc_verify(inputs, n_samples=10_000, seed=5, n_trials=10)
        b = proposition_mc_verify(inputs, n_samples=10_000, seed=5, n_trials=10)
        assert a == b

    def test_small_sample_count_rejected(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        with pytest.raises(EvaluationError):
            proposition_mc_verify(inputs, n_samples=100, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", -1),
        ("seed", 1.5),
        ("n_samples", 10_000.0),
        ("n_trials", 2.0),
        ("n_trials", True),
    ], ids=["negative_seed", "float_seed", "float_n_samples", "float_n_trials", "bool_n_trials"])
    def test_non_integer_or_negative_argument_rejected_before_any_draw(
            self, monkeypatch, name, value):
        def no_stream(*args, **kwargs):
            raise AssertionError("a random stream was made")

        monkeypatch.setattr(evaluation.np.random, "SeedSequence", no_stream)
        monkeypatch.setattr(evaluation.np.random, "PCG64", no_stream)
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        kwargs = {"n_samples": 10_000, "seed": 0, "n_trials": 2, name: value}
        with pytest.raises(EvaluationError, match=f"{name} must be an integer"):
            proposition_mc_verify(inputs, **kwargs)

    @pytest.mark.parametrize("values", [
        (math.inf, 1.2, 0.5, 0.5),
        (1.0, 1.2, math.nan, 0.5),
        (1.0, 1.2, 0.5, -math.inf),
    ], ids=["inf_l_m", "nan_h_m", "minus_inf_h_h"])
    def test_non_finite_input_rejected(self, values):
        with pytest.raises(EvaluationError, match="must be finite"):
            PropositionInputs(*values)

    @pytest.mark.parametrize("values, what", [
        ((1e200, 1e200, 0.5, 0.5), "k^2 or f"),
        ((1.0, 1.2, 1e200, 1e-200), "k^2 or f"),
        ((1.0, 1.2, 1e200, 0.0), "population ratio"),
        ((1e-200, 1e-200, 0.0, 0.0), "population ratio"),
        ((1e153, 1e153, 0.0, 0.0), "Monte-Carlo variance ratio"),
    ], ids=["constraint_overflow", "constraint_divisor_underflow", "population_overflow",
            "population_divisor_underflow", "variance_overflow"])
    def test_out_of_range_arithmetic_raises_evaluation_error(self, values, what):
        inputs = PropositionInputs(*values)
        with pytest.raises(EvaluationError, match=f"{re.escape(what)} of .* out of float64 range"):
            proposition_mc_verify(inputs, n_samples=10_000, seed=0, n_trials=3)

    def test_numpy_integer_arguments_accepted(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)
        want = proposition_mc_verify(inputs, n_samples=10_000, seed=5, n_trials=3)
        got = proposition_mc_verify(inputs, n_samples=np.int64(10_000), seed=np.uint32(5),
                                    n_trials=np.int16(3))
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


class TestFailedSampleHf:
    def test_perfect_separation_has_no_failures(self):
        records = make_records([0.1, 0.2], [0.3, 0.4])
        _, tau = compute_asr(records)
        mean_m, mean_h = failed_sample_hf_analysis(records, tau)
        assert mean_m is None
        assert mean_h is None

    def test_counts_misclassified_groups(self):
        records = make_records(
            [1.0, 2.0, 5.0], [3.0, 6.0, 7.0],
            hf_member=[0.1, 0.2, 0.9], hf_holdout=[0.05, 0.5, 0.6],
        )
        # tau = 4: member with score 5 fails (hf 0.9), holdout with score 3
        # fails (hf 0.05)
        mean_m, mean_h = failed_sample_hf_analysis(records, 4.0)
        assert mean_m == pytest.approx(0.9)
        assert mean_h == pytest.approx(0.05)

    def test_direction_on_hf_correlated_failures(self):
        # members fail when hf-rich, hold-outs fail when hf-poor
        rng = np.random.default_rng(14)
        hf_m = rng.uniform(0, 1, 50)
        hf_h = rng.uniform(0, 1, 50)
        member = 1.0 + hf_m + rng.normal(0, 0.2, 50)
        holdout = 1.8 + hf_h + rng.normal(0, 0.2, 50)
        records = make_records(member, holdout, hf_member=hf_m, hf_holdout=hf_h)
        _, tau = compute_asr(records)
        mean_m, mean_h = failed_sample_hf_analysis(records, tau)
        assert mean_m is not None and mean_h is not None
        assert mean_m > mean_h


class TestMetricsReport:
    def test_fields_and_serialization(self, tmp_path):
        rng = np.random.default_rng(15)
        records = make_records(rng.normal(1.0, 0.5, 50), rng.normal(2.0, 0.8, 50))
        report = build_metrics_report(records)
        assert report.sigma_ratio == pytest.approx(
            report.sigma_holdout / report.sigma_member, abs=1e-12)
        assert -1.0 <= report.advantage <= 1.0
        path = tmp_path / "metrics.json"
        write_metrics_json(report, path)
        loaded = json.loads(path.read_text())
        assert list(loaded.keys()) == [
            "asr", "auc", "tpr_at_1pct_fpr", "sigma_member", "sigma_holdout",
            "sigma_ratio", "ks_member", "ks_holdout", "advantage",
        ]
        assert loaded["asr"] == report.asr
        assert loaded["ks_member"] == [report.ks_member[0], report.ks_member[1]]

    def test_roc_csv_format(self, tmp_path):
        records = make_records([1.0, 2.0], [1.5, 2.5])
        curve = compute_roc(records)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("-inf,0,0")
        assert len(lines) == 1 + len(curve.thresholds)

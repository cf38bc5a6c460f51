"""Attack metrics and the variance-ratio analysis of the filter.

Scores follow the "lower means member" convention throughout: a sample is
classified as a member iff its score is <= tau. The positive class is the
member class, so TPR counts members correctly kept and FPR counts hold-out
samples wrongly admitted.

Besides the usual ASR / ROC AUC / TPR-at-budget metrics, this module
implements the statistical apparatus around the high-frequency filter: the
hold-out/member score standard-deviation ratio, a one-sample normality
test, the closed-form constraint under which removing the high-frequency
score component provably raises that ratio, and a Monte-Carlo verifier for
the same claim.

Everything here is a pure function of immutable record lists. The
Monte-Carlo verifier draws each trial from its own spawned child stream,
so results for trial i do not depend on how many trials run in total.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import EvaluationError

__all__ = [
    "RocCurve",
    "MetricsReport",
    "PropositionInputs",
    "ConstraintResult",
    "KsResult",
    "McVerifyReport",
    "compute_asr",
    "compute_roc",
    "auc",
    "tpr_at_fpr",
    "membership_advantage",
    "sigma_ratio",
    "ks_normality_test",
    "kolmogorov_sf",
    "proposition_constraint",
    "proposition_mc_verify",
    "failed_sample_hf_analysis",
    "build_metrics_report",
    "write_metrics_json",
    "write_roc_csv",
]


def _split_scores(records, use_filtered: bool):
    column = "score_filtered" if use_filtered else "score_raw"
    member, holdout = [], []
    for rec in records:
        value = getattr(rec, column)
        if value is None or math.isnan(value):
            raise EvaluationError(f"record {rec.sample_id} has no {column} (got {value})")
        (member if rec.membership == 1 else holdout).append(float(value))
    if not member or not holdout:
        raise EvaluationError("need scores from both classes")
    return np.asarray(member), np.asarray(holdout)


def _count_at_or_below(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many scores are <= each threshold."""
    return np.searchsorted(np.sort(scores), thresholds, side="right")


@dataclass(frozen=True, eq=False)
class RocCurve:
    """ROC vertices of the score <= tau classifier, one per distinct score,
    plus the (0, 0) start; each point keeps its generating threshold."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray


def compute_asr(records, use_filtered: bool = False):
    """Best balanced accuracy over all thresholds and the tau achieving it.

    Candidate thresholds sit midway between adjacent distinct scores, plus
    -inf and +inf. Ties are broken toward the smaller tau.
    """
    member, holdout = _split_scores(records, use_filtered)
    distinct = np.unique(np.concatenate([member, holdout]))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    taus = np.concatenate([[-np.inf], mids, [np.inf]])
    tprs = _count_at_or_below(member, taus) / member.size
    tnrs = (holdout.size - _count_at_or_below(holdout, taus)) / holdout.size
    balanced = (tprs + tnrs) / 2.0
    best = int(np.argmax(balanced))  # argmax takes the first, i.e. smallest tau
    return float(balanced[best]), float(taus[best])


def compute_roc(records, use_filtered: bool = False) -> RocCurve:
    """ROC of the score <= tau rule, tied scores grouped into one vertex."""
    member, holdout = _split_scores(records, use_filtered)
    distinct = np.unique(np.concatenate([member, holdout]))
    thresholds = np.concatenate([[-np.inf], distinct])
    tpr = _count_at_or_below(member, thresholds) / member.size
    fpr = _count_at_or_below(holdout, thresholds) / holdout.size
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def auc(curve: RocCurve) -> float:
    """Area under the ROC by trapezoidal integration."""
    return float(np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) / 2.0))


def tpr_at_fpr(curve: RocCurve, fpr_budget: float) -> float:
    """Largest achieved TPR among vertices with FPR <= budget (no interpolation)."""
    if not 0.0 <= fpr_budget <= 1.0:
        raise EvaluationError(f"fpr budget must be in [0, 1], got {fpr_budget}")
    eligible = curve.tpr[curve.fpr <= fpr_budget]
    return float(eligible.max()) if eligible.size else 0.0


def membership_advantage(records, tau: float, use_filtered: bool = False) -> float:
    """Pr[score <= tau | member] - Pr[score <= tau | hold-out]."""
    member, holdout = _split_scores(records, use_filtered)
    return float(np.mean(member <= tau) - np.mean(holdout <= tau))


def sigma_ratio(records, use_filtered: bool = False):
    """Per-class score standard deviations (n-1 denominator) and their
    hold-out / member ratio."""
    member, holdout = _split_scores(records, use_filtered)
    if member.size < 2 or holdout.size < 2:
        raise EvaluationError("need at least 2 samples per class for standard deviations")
    sigma_m = float(np.std(member, ddof=1))
    sigma_h = float(np.std(holdout, ddof=1))
    if sigma_m == 0.0:
        raise EvaluationError("member scores are degenerate (zero standard deviation)")
    return sigma_m, sigma_h, sigma_h / sigma_m


_erf = np.vectorize(math.erf, otypes=[np.float64])


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the asymptotic Kolmogorov distribution.

    Uses the alternating series for moderate arguments and the Jacobi
    theta form near zero, where the alternating series converges too
    slowly.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 0.4:
        # 1 - sqrt(2 pi)/lam * sum exp(-(2k-1)^2 pi^2 / (8 lam^2))
        total = 0.0
        for k in range(1, 20):
            total += math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam**2))
        return max(0.0, min(1.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * total))
    total = 0.0
    for k in range(1, 101):
        term = (-1.0) ** (k - 1) * math.exp(-2.0 * k**2 * lam**2)
        total += term
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            break
    return max(0.0, min(1.0, 2.0 * total))


class KsResult(NamedTuple):
    statistic: float
    p_value: float
    normal_at_5pct: bool


def ks_normality_test(scores, mean: Optional[float] = None, std: Optional[float] = None) -> KsResult:
    """One-sample KS test of the scores against a normal distribution.

    When mean/std are not supplied they are estimated from the sample
    (n-1 denominator). The p-value comes from the asymptotic Kolmogorov
    distribution at sqrt(n) * D, which assumes a fully specified null.
    With the mean and sd estimated from the same sample it is
    conservative: the p-value is too large and normality is rejected too
    rarely (Lilliefors 1967). The alpha = 0.05 decision is reported
    alongside.
    """
    x = np.sort(np.asarray(scores, dtype=np.float64))
    n = x.size
    if n < 3:
        raise EvaluationError(f"KS test needs at least 3 samples, got {n}")
    mu = float(np.mean(x)) if mean is None else float(mean)
    sd = float(np.std(x, ddof=1)) if std is None else float(std)
    if sd <= 0.0:
        raise EvaluationError("KS test needs a positive scale")
    cdf = _normal_cdf((x - mu) / sd)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    d = float(max(upper, lower))
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(statistic=d, p_value=p, normal_at_5pct=p >= 0.05)


@dataclass(frozen=True)
class PropositionInputs:
    """Component standard deviations of the scores: low/high frequency,
    member/hold-out. Delta and k are derived."""

    l_m: float
    l_h: float
    h_m: float
    h_h: float

    def __post_init__(self):
        if not (self.l_m > 0.0 and self.l_h > 0.0):
            raise EvaluationError("low-frequency standard deviations must be positive")
        if self.h_m < 0.0 or self.h_h < 0.0:
            raise EvaluationError("high-frequency standard deviations must be nonnegative")

    @property
    def delta(self) -> float:
        return self.l_h - self.l_m

    @property
    def k(self) -> float:
        if self.h_h == 0.0:
            raise EvaluationError("k undefined for h_h = 0")
        return self.h_m / self.h_h


class ConstraintResult(NamedTuple):
    k_sq: float
    f: float
    satisfied: bool


def proposition_constraint(inputs: PropositionInputs) -> ConstraintResult:
    """Evaluate the filter-improvement constraint k^2 > f with

        f = 1 + (2 Delta / h_h^2) (l_m + 2 Delta - sqrt((l_m + 2 Delta)^2 + h_h^2)).

    The bracketed term is strictly negative, so f <= 1 whenever
    Delta >= 0 and any k >= 1 satisfies the constraint in that regime.
    """
    if inputs.h_h == 0.0:
        raise EvaluationError("constraint undefined for h_h = 0 (degenerate high band)")
    lm, d, hh = inputs.l_m, inputs.delta, inputs.h_h
    f = 1.0 + (2.0 * d / hh**2) * (lm + 2.0 * d - math.sqrt((lm + 2.0 * d) ** 2 + hh**2))
    k_sq = inputs.k**2
    return ConstraintResult(k_sq=k_sq, f=f, satisfied=k_sq > f)


@dataclass(frozen=True)
class McVerifyReport:
    """Outcome of the Monte-Carlo check that filtering raises the
    hold-out/member sigma ratio."""

    fraction: float
    n_trials: int
    n_samples: int
    precondition_met: bool
    degenerate: bool
    constraint: Optional[ConstraintResult]
    population_ratio_pre: float
    population_ratio_post: float
    population_holds: bool
    mc_ratio_pre_mean: float
    mc_ratio_post_mean: float
    mc_ratio_pre_se: float
    mc_ratio_post_se: float

    def to_json_dict(self) -> dict:
        d = {
            "fraction": self.fraction,
            "n_trials": self.n_trials,
            "n_samples": self.n_samples,
            "precondition_met": self.precondition_met,
            "degenerate": self.degenerate,
            "population_ratio_pre": self.population_ratio_pre,
            "population_ratio_post": self.population_ratio_post,
            "population_holds": self.population_holds,
            "mc_ratio_pre_mean": self.mc_ratio_pre_mean,
            "mc_ratio_post_mean": self.mc_ratio_post_mean,
            "mc_ratio_pre_se": self.mc_ratio_pre_se,
            "mc_ratio_post_se": self.mc_ratio_post_se,
        }
        if self.constraint is not None:
            d["k_sq"] = self.constraint.k_sq
            d["f"] = self.constraint.f
            d["constraint_satisfied"] = self.constraint.satisfied
        return d


def proposition_mc_verify(inputs: PropositionInputs, n_samples: int, seed: int,
                          n_trials: int = 100) -> McVerifyReport:
    """Simulate scores as independent normal low + high components and
    count how often filtering (dropping the high component) raises the
    hold-out/member standard-deviation ratio.

    Each trial draws ``n_samples`` scores per class from its own child
    stream and compares the empirical pre-filter ratio against the
    post-filter one. When the constraint holds with margin and n_samples
    is at least 1e5 the reported fraction exceeds 0.99. If the
    constraint fails (or is undefined) the report only flags it; nothing
    is asserted.
    """
    if n_samples < 10_000:
        raise EvaluationError(f"n_samples must be >= 10000, got {n_samples}")
    if n_trials < 1:
        raise EvaluationError(f"n_trials must be >= 1, got {n_trials}")
    degenerate = inputs.h_m == 0.0 and inputs.h_h == 0.0
    constraint = None if inputs.h_h == 0.0 else proposition_constraint(inputs)

    pop_pre = math.sqrt(inputs.l_h**2 + inputs.h_h**2) / math.sqrt(inputs.l_m**2 + inputs.h_m**2)
    pop_post = inputs.l_h / inputs.l_m

    children = np.random.SeedSequence(int(seed)).spawn(n_trials)
    hits = 0
    pre_ratios = np.empty(n_trials)
    post_ratios = np.empty(n_trials)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        low_m = rng.standard_normal(n_samples, dtype=np.float32) * inputs.l_m
        high_m = rng.standard_normal(n_samples, dtype=np.float32) * inputs.h_m
        low_h = rng.standard_normal(n_samples, dtype=np.float32) * inputs.l_h
        high_h = rng.standard_normal(n_samples, dtype=np.float32) * inputs.h_h
        sigma_m = np.std(low_m + high_m, ddof=1)
        sigma_h = np.std(low_h + high_h, ddof=1)
        sigma_m_post = np.std(low_m, ddof=1)
        sigma_h_post = np.std(low_h, ddof=1)
        pre_ratios[i] = sigma_h / sigma_m
        post_ratios[i] = sigma_h_post / sigma_m_post
        if post_ratios[i] > pre_ratios[i]:
            hits += 1

    return McVerifyReport(
        fraction=hits / n_trials,
        n_trials=n_trials,
        n_samples=n_samples,
        precondition_met=constraint.satisfied if constraint is not None else False,
        degenerate=degenerate,
        constraint=constraint,
        population_ratio_pre=pop_pre,
        population_ratio_post=pop_post,
        population_holds=pop_post > pop_pre,
        mc_ratio_pre_mean=float(np.mean(pre_ratios)),
        mc_ratio_post_mean=float(np.mean(post_ratios)),
        mc_ratio_pre_se=float(np.std(pre_ratios, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
        mc_ratio_post_se=float(np.std(post_ratios, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
    )


def failed_sample_hf_analysis(records, tau: float, use_filtered: bool = False):
    """Mean high-frequency content of the misclassified samples at tau.

    Failed members score above tau; failed hold-outs score at or below
    it. An empty failure group is reported as None, never as 0.
    """
    _split_scores(records, use_filtered)  # both classes must be present
    column = "score_filtered" if use_filtered else "score_raw"
    failed_member = [r.hf_content for r in records
                     if r.membership == 1 and getattr(r, column) > tau]
    failed_holdout = [r.hf_content for r in records
                      if r.membership == 0 and getattr(r, column) <= tau]
    mean_m = float(np.mean(failed_member)) if failed_member else None
    mean_h = float(np.mean(failed_holdout)) if failed_holdout else None
    return mean_m, mean_h


@dataclass(frozen=True)
class MetricsReport:
    """Headline metrics of one attack run on one score column.

    Statistics that are undefined on the given scores (deviation ratio
    with a degenerate member column, normality test on a constant
    sample) are recorded as None rather than invented.
    """

    asr: float
    auc: float
    tpr_at_1pct_fpr: float
    sigma_member: Optional[float]
    sigma_holdout: Optional[float]
    sigma_ratio: Optional[float]
    ks_member: Optional[tuple]
    ks_holdout: Optional[tuple]
    advantage: float

    def to_json_dict(self) -> dict:
        return {
            "asr": self.asr,
            "auc": self.auc,
            "tpr_at_1pct_fpr": self.tpr_at_1pct_fpr,
            "sigma_member": self.sigma_member,
            "sigma_holdout": self.sigma_holdout,
            "sigma_ratio": self.sigma_ratio,
            "ks_member": None if self.ks_member is None else list(self.ks_member),
            "ks_holdout": None if self.ks_holdout is None else list(self.ks_holdout),
            "advantage": self.advantage,
        }


def build_metrics_report(records, use_filtered: bool = False) -> MetricsReport:
    """Compute the full metric set for one score column.

    The membership advantage is evaluated at the ASR-optimal threshold.
    """
    member, holdout = _split_scores(records, use_filtered)
    asr, tau = compute_asr(records, use_filtered)
    curve = compute_roc(records, use_filtered)
    try:
        sm, sh, ratio = sigma_ratio(records, use_filtered)
    except EvaluationError:
        sm = sh = ratio = None
    try:
        ks_m = ks_normality_test(member)
        ks_member = (ks_m.statistic, ks_m.p_value)
    except EvaluationError:
        ks_member = None
    try:
        ks_h = ks_normality_test(holdout)
        ks_holdout = (ks_h.statistic, ks_h.p_value)
    except EvaluationError:
        ks_holdout = None
    return MetricsReport(
        asr=asr,
        auc=auc(curve),
        tpr_at_1pct_fpr=tpr_at_fpr(curve, 0.01),
        sigma_member=sm,
        sigma_holdout=sh,
        sigma_ratio=ratio,
        ks_member=ks_member,
        ks_holdout=ks_holdout,
        advantage=membership_advantage(records, tau, use_filtered),
    )


def write_metrics_json(report: MetricsReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def write_roc_csv(curve: RocCurve, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "fpr", "tpr"])
        for tau, f, t in zip(curve.thresholds, curve.fpr, curve.tpr):
            writer.writerow([f"{tau:.12g}", f"{f:.12g}", f"{t:.12g}"])

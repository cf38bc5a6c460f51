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

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import EvaluationError, IngestionError, reading

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


def _field(records, name: str, dtype) -> np.ndarray:
    """One field of every record, in record order."""
    return np.fromiter(map(attrgetter(name), records), dtype, len(records))


def _scores_and_members(records, use_filtered: bool):
    """The chosen score column as float64 and the member mask (membership
    1; anything else is a hold-out), in record order. A missing or NaN
    score, or a class without scores, raises :class:`EvaluationError`."""
    column = "score_filtered" if use_filtered else "score_raw"
    scores = _field(records, column, np.float64)  # None reads as NaN
    missing = np.flatnonzero(np.isnan(scores))
    if missing.size:
        rec = records[missing[0]]
        raise EvaluationError(f"record {rec.sample_id} has no {column} (got {getattr(rec, column)})")
    is_member = _field(records, "membership", np.int64) == 1
    if is_member.all() or not is_member.any():  # all() holds for no records
        raise EvaluationError("need scores from both classes")
    return scores, is_member


def _split_scores(records, use_filtered: bool):
    """Member and hold-out scores, each in record order."""
    scores, is_member = _scores_and_members(records, use_filtered)
    return scores[is_member], scores[~is_member]


def _class_counts(records, use_filtered: bool, thresholds):
    """``(taus, at_m, n_m, at_h, n_h)``: the thresholds ``thresholds``
    makes of the column's distinct scores, then for members and for
    hold-outs how many scores are <= each threshold and the class size."""
    member, holdout = _split_scores(records, use_filtered)
    taus = thresholds(np.unique(np.concatenate([member, holdout])))
    at_m, at_h = (np.searchsorted(np.sort(c), taus, side="right") for c in (member, holdout))
    return taus, at_m, member.size, at_h, holdout.size


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
    taus, at_m, n_m, at_h, n_h = _class_counts(
        records, use_filtered, lambda d: np.concatenate([[-np.inf], (d[:-1] + d[1:]) / 2.0, [np.inf]]))
    balanced = (at_m / n_m + (n_h - at_h) / n_h) / 2.0
    best = int(np.argmax(balanced))  # argmax takes the first, i.e. smallest tau
    return float(balanced[best]), float(taus[best])


def compute_roc(records, use_filtered: bool = False) -> RocCurve:
    """ROC of the score <= tau rule, tied scores grouped into one vertex."""
    thresholds, at_m, n_m, at_h, n_h = _class_counts(
        records, use_filtered, lambda d: np.concatenate([[-np.inf], d]))
    return RocCurve(thresholds=thresholds, fpr=at_h / n_h, tpr=at_m / n_m)


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
        if not all(map(math.isfinite, (self.l_m, self.l_h, self.h_m, self.h_h))):
            raise EvaluationError(f"standard deviations must be finite, got {self}")
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


def _in_range(what: str, inputs: PropositionInputs, compute):
    """``compute()``, whose floats must all be finite: an overflow, a
    divisor that underflowed to zero or a non-finite value raises
    :class:`EvaluationError` naming ``what`` and the inputs."""
    try:
        values = compute()
        if np.isfinite(values).all():
            return values
    except ArithmeticError:  # OverflowError, ZeroDivisionError
        pass
    raise EvaluationError(f"{what} of {inputs} out of float64 range")


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
    f, k_sq = _in_range("k^2 or f", inputs, lambda: (
        1.0 + (2.0 * d / hh**2) * (lm + 2.0 * d - math.sqrt((lm + 2.0 * d) ** 2 + hh**2)),
        inputs.k**2))
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
        """Every field in field order, the constraint's three values last."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "constraint"}
        if self.constraint is not None:
            d["k_sq"] = self.constraint.k_sq
            d["f"] = self.constraint.f
            d["constraint_satisfied"] = self.constraint.satisfied
        return d


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as a Python int: a Python or numpy integer, not a bool,
    of at least ``minimum``."""
    if (type(value) is int or isinstance(value, np.integer)) and value >= minimum:
        return int(value)
    raise EvaluationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _trial_ratios(inputs: PropositionInputs, n_samples: int, seed: int, n_trials: int):
    """Each trial's pre- and post-filter hold-out/member ratio, by trial.

    A class's ratios depend on its ``n_samples`` draws of (low, high) only
    through their 2x2 sample covariance; ``n - 1`` times it is
    Wishart(n - 1, diag(l^2, h^2)), which Bartlett's decomposition draws
    exactly from c1^2 ~ chi2(n - 1), c2^2 ~ chi2(n - 2) and z ~ N(0, 1):
    (n - 1) var(low) = l^2 c1^2 and (n - 1) var(low + high) =
    l^2 c1^2 + h^2 (z^2 + c2^2) + 2 l h c1 z. The 1/(n - 1) cancels in the
    ratios. Each trial draws member then hold-out from its own child
    stream, so trial i does not depend on how many trials run.
    """
    pre_ratios = np.empty(n_trials)
    post_ratios = np.empty(n_trials)
    classes = ((inputs.l_m, inputs.h_m), (inputs.l_h, inputs.h_h))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.Generator(np.random.PCG64(child))
        pre, post = [], []
        for l_sd, h_sd in classes:
            c1_sq = rng.chisquare(n_samples - 1)
            c2_sq = rng.chisquare(n_samples - 2)
            z = rng.standard_normal()
            post.append(l_sd * l_sd * c1_sq)
            # h = 0 leaves pre bitwise equal to post
            pre.append(post[-1] + h_sd * h_sd * (z * z + c2_sq)
                       + 2.0 * l_sd * h_sd * math.sqrt(c1_sq) * z)
        pre_ratios[i] = math.sqrt(pre[1] / pre[0])
        post_ratios[i] = math.sqrt(post[1] / post[0])
    return pre_ratios, post_ratios


def proposition_mc_verify(inputs: PropositionInputs, n_samples: int, seed: int,
                          n_trials: int = 100) -> McVerifyReport:
    """Simulate scores as independent normal low + high components and
    count how often filtering (dropping the high component) raises the
    hold-out/member standard-deviation ratio.

    Each trial simulates ``n_samples`` scores per class from its own
    child stream and compares the empirical pre-filter ratio against the
    post-filter one. When the constraint holds with margin and n_samples
    is at least 1e5 the reported fraction exceeds 0.99. If the
    constraint fails (or is undefined) the report only flags it; nothing
    is asserted.

    ``n_samples``, ``seed`` and ``n_trials`` must be Python or numpy
    integers (not bools) with ``n_samples >= 10000``, ``seed >= 0`` and
    ``n_trials >= 1``, else :class:`EvaluationError`. A trial costs the
    same at any ``n_samples``: it draws each class's sample covariance, not
    its scores (see :func:`_trial_ratios`). Inputs whose constraint,
    population ratios or sample variances leave float64's range raise
    :class:`EvaluationError`.
    """
    n_samples = _check_count("n_samples", n_samples, 10_000)
    seed = _check_count("seed", seed, 0)
    n_trials = _check_count("n_trials", n_trials, 1)
    degenerate = inputs.h_m == 0.0 and inputs.h_h == 0.0
    constraint = None if inputs.h_h == 0.0 else proposition_constraint(inputs)

    pop_pre, pop_post = _in_range("population ratio", inputs, lambda: (
        math.sqrt(inputs.l_h**2 + inputs.h_h**2) / math.sqrt(inputs.l_m**2 + inputs.h_m**2),
        inputs.l_h / inputs.l_m))
    pre_ratios, post_ratios = _in_range(
        "Monte-Carlo variance ratio", inputs, lambda: _trial_ratios(inputs, n_samples, seed, n_trials))
    hits = int(np.count_nonzero(post_ratios > pre_ratios))

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
    scores, is_member = _scores_and_members(records, use_filtered)
    hf = _field(records, "hf_content", np.float64)
    failed_member = hf[is_member & (scores > tau)]
    failed_holdout = hf[~is_member & (scores <= tau)]
    mean_m = float(np.mean(failed_member)) if failed_member.size else None
    mean_h = float(np.mean(failed_holdout)) if failed_holdout.size else None
    return mean_m, mean_h


@dataclass(frozen=True)
class MetricsReport:
    """Headline metrics of one attack run on one score column.

    Statistics that are undefined on the given scores (deviation ratio
    with a degenerate member column, normality test on a constant
    sample) are recorded as None rather than invented. ``tau`` is the
    ASR-optimal threshold, where the advantage is taken; the metrics file
    leaves it out.
    """

    asr: float
    tau: float
    auc: float
    tpr_at_1pct_fpr: float
    sigma_member: Optional[float]
    sigma_holdout: Optional[float]
    sigma_ratio: Optional[float]
    ks_member: Optional[tuple]
    ks_holdout: Optional[tuple]
    advantage: float

    def to_json_dict(self) -> dict:
        """Every field but ``tau``, in field order; the KS pairs as lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "tau")
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _ks_pair(scores) -> Optional[tuple]:
    """``(statistic, p_value)`` of the normality test, None where undefined."""
    try:
        return ks_normality_test(scores)[:2]
    except EvaluationError:
        return None


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
    ks_member, ks_holdout = map(_ks_pair, (member, holdout))
    return MetricsReport(
        asr=asr,
        tau=tau,
        auc=auc(curve),
        tpr_at_1pct_fpr=tpr_at_fpr(curve, 0.01),
        sigma_member=sm,
        sigma_holdout=sh,
        sigma_ratio=ratio,
        ks_member=ks_member,
        ks_holdout=ks_holdout,
        advantage=membership_advantage(records, tau, use_filtered),
    )


def _write_json(obj, path) -> None:
    """``obj`` as JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_metrics_json(report: MetricsReport, path) -> None:
    _write_json(report.to_json_dict(), path)


def _read_report_metrics(path):
    """``(attack, variant, metrics)`` of a ``metrics_<attack>_<variant>.json``
    that ``report`` shows, checked for the fields it prints;
    :class:`IngestionError` naming the file otherwise."""
    path = Path(path)
    with reading(path):
        if path.stem.count("_") < 2:
            raise IngestionError("not named metrics_<attack>_<variant>.json")
        with open(path, encoding="utf-8-sig") as fh:
            try:
                metrics = json.load(fh)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"not a metrics JSON file ({exc})") from exc
        if not isinstance(metrics, dict):
            raise IngestionError("expected a JSON object")
        for key in ("asr", "auc", "tpr_at_1pct_fpr", "sigma_ratio"):
            if key not in metrics:
                raise IngestionError(f"no {key!r} field")
            value = metrics[key]
            if not (value is None and key == "sigma_ratio") and (
                    isinstance(value, bool) or not isinstance(value, (int, float))):
                raise IngestionError(f"{key!r} is {value!r}, not a number")
    _, kind, variant = path.stem.split("_", 2)
    return kind, variant, metrics


def write_roc_csv(curve: RocCurve, path) -> None:
    """``threshold,fpr,tpr`` with 12 significant digits, LF line endings."""
    columns = (curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fpr,tpr\n")
        fh.writelines(map("{:.12g},{:.12g},{:.12g}\n".format, *columns))

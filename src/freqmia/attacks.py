"""Error-based membership scoring under a single distance paradigm.

Each attack builds a (predicted, target) image pair for a sample; the
membership score is the q-norm of their difference, optionally after
passing both through the high-frequency filter. Lower scores indicate
membership. Three instantiations are provided:

* naive: compare sampled noise against the model's noise prediction,
  mapped to image space.
* pia: like naive but the noise is the model's own prediction at t=0,
  making the attack fully deterministic.
* secmi: reconstruction error of one deterministic reverse/denoise
  round trip at the attack timestep.

Samples are scored independently; scoring may run in parallel as long as
output order follows input order. The denoiser is only read.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffusion import NoiseSchedule, ddim_denoise_chain, ddim_reverse_chain, predict_x0, q_sample
from .errors import ConfigurationError, ContractViolation, IngestionError
from .seeding import derive_rng, derive_seed
from .spectral import FilterSpec, apply_filter, high_frequency_content

__all__ = [
    "ATTACK_KINDS",
    "AttackConfig",
    "ScorePair",
    "ScoreRecord",
    "paradigm_score",
    "naive_pair",
    "pia_pair",
    "secmi_pair",
    "run_attack",
    "write_score_csv",
    "read_score_csv",
]

ATTACK_KINDS = ("naive", "pia", "secmi")


@dataclass(frozen=True)
class AttackConfig:
    """One attack's scoring parameters.

    ``stride`` only matters for secmi, where the attack timestep must be a
    positive multiple of it. ``filter`` enables the filtered score column;
    when absent only raw scores are produced.
    """

    kind: str
    t_attack: int
    stride: int = 10
    q: int = 2
    seed: int = 0
    filter: Optional[FilterSpec] = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        if self.q not in (1, 2):
            raise ConfigurationError(f"norm order q must be 1 or 2, got {self.q}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")

    def validate_for_schedule(self, sched: NoiseSchedule) -> None:
        if not 0 <= self.t_attack <= sched.T - 1:
            raise ConfigurationError(f"t_attack {self.t_attack} outside schedule [0, {sched.T - 1}]")
        if self.kind == "secmi":
            if self.t_attack == 0 or self.t_attack % self.stride != 0:
                raise ConfigurationError(
                    f"secmi t_attack {self.t_attack} not reachable with stride {self.stride}"
                )
            if self.t_attack + self.stride > sched.T - 1:
                raise ConfigurationError(
                    f"secmi needs t_attack + stride <= T-1, got {self.t_attack + self.stride}"
                )


@dataclass(frozen=True, eq=False)
class ScorePair:
    """Model-predicted image and its target at the attack timestep."""

    predicted: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        if self.predicted.shape != self.target.shape:
            raise ContractViolation(
                f"predicted shape {self.predicted.shape} != target shape {self.target.shape}"
            )


@dataclass(frozen=True)
class ScoreRecord:
    """One sample's membership label and scores."""

    sample_id: str
    membership: int
    score_raw: float
    score_filtered: Optional[float]
    hf_content: float


def paradigm_score(pair: ScorePair, q: int = 2, filt: Optional[FilterSpec] = None) -> float:
    """q-norm distance between predicted and target, optionally filtered.

    By linearity of the filter, the difference is filtered once instead of
    filtering both tensors; the two paths agree to round-off.
    """
    if q not in (1, 2):
        raise ContractViolation(f"norm order q must be 1 or 2, got {q}")
    diff = pair.predicted - pair.target
    if filt is not None:
        diff = apply_filter(diff, filt)
    if q == 1:
        return float(np.sum(np.abs(diff)))
    return float(np.sqrt(np.sum(diff**2)))


def naive_pair(x0, t: int, denoiser, sched: NoiseSchedule, seed: int) -> ScorePair:
    """Sampled-noise prediction error mapped to image space.

    The seed fixes the drawn noise, so identical seeds give identical
    scores. The target equals x0 up to round-off.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = derive_rng(seed, "naive-eps").standard_normal(x0.shape)
    x_t = q_sample(x0, t, eps, sched)
    target = predict_x0(x_t, eps, t, sched)
    predicted = predict_x0(x_t, denoiser(x_t, int(t)), t, sched)
    return ScorePair(predicted=predicted, target=target)


def pia_pair(x0, t: int, denoiser, sched: NoiseSchedule) -> ScorePair:
    """Proximal-initialization variant: the noise is the model's own
    prediction at timestep 0, so no randomness is involved."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps0 = np.asarray(denoiser(x0, 0), dtype=np.float64)
    x_t = q_sample(x0, t, eps0, sched)
    target = predict_x0(x_t, eps0, t, sched)
    predicted = predict_x0(x_t, denoiser(x_t, int(t)), t, sched)
    return ScorePair(predicted=predicted, target=target)


def secmi_pair(x0, t: int, denoiser, sched: NoiseSchedule, stride: int) -> ScorePair:
    """Posterior-estimation error at t: deterministically invert x0 up to
    t, then apply one reverse macro-step followed by one denoise
    macro-step and compare against the inverted state."""
    if t == 0 or t % stride != 0:
        raise ConfigurationError(f"t={t} not reachable from 0 with stride {stride}")
    if t + stride > sched.T - 1:
        raise ConfigurationError(f"t + stride = {t + stride} exceeds schedule top {sched.T - 1}")
    x_tilde = ddim_reverse_chain(x0, 0, t, denoiser, sched, stride)
    up = ddim_reverse_chain(x_tilde, t, t + stride, denoiser, sched, stride)
    predicted = ddim_denoise_chain(up, t + stride, t, denoiser, sched, stride)
    return ScorePair(predicted=predicted, target=x_tilde)


def _build_pair(sample, config: AttackConfig, denoiser, sched: NoiseSchedule) -> ScorePair:
    if config.kind == "naive":
        return naive_pair(sample.image, config.t_attack, denoiser, sched,
                          seed=derive_seed(config.seed, "attack-sample", sample.sample_id))
    if config.kind == "pia":
        return pia_pair(sample.image, config.t_attack, denoiser, sched)
    return secmi_pair(sample.image, config.t_attack, denoiser, sched, config.stride)


def run_attack(samples, config: AttackConfig, denoiser, sched: NoiseSchedule,
               hf_boundary_radius: float = 2.0) -> list[ScoreRecord]:
    """Score every labeled sample; one record per sample in input order.

    Raw and filtered scores come from the same pair, so they differ only
    by the filter. Per-sample noise is keyed by (config seed, sample id),
    making the output independent of dataset ordering.
    """
    samples = list(samples)
    if not samples:
        raise ConfigurationError("cannot attack an empty dataset")
    config.validate_for_schedule(sched)
    records = []
    for sample in samples:
        pair = _build_pair(sample, config, denoiser, sched)
        raw = paradigm_score(pair, config.q, None)
        filtered = paradigm_score(pair, config.q, config.filter) if config.filter else None
        hf = high_frequency_content(sample.image, hf_boundary_radius)
        records.append(ScoreRecord(sample.sample_id, int(sample.membership), raw, filtered, hf))
    return records


_COLUMNS = ["sample_id", "membership", "score_raw", "score_filtered", "hf_content"]


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def write_score_csv(records, path) -> None:
    """Scores as CSV with LF line endings. Floats are written with
    ``repr``, so :func:`read_score_csv` gets back the exact values."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow([rec.sample_id, rec.membership, _fmt(rec.score_raw),
                             _fmt(rec.score_filtered), _fmt(rec.hf_content)])


def read_score_csv(path) -> list[ScoreRecord]:
    """Inverse of :func:`write_score_csv`. A missing column, a cell that
    does not parse, a membership other than 0 or 1, a ``score_filtered``
    column filled on some rows only, or a file without rows raises
    :class:`IngestionError` naming the file."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
        columns = [header.index(c) for c in _COLUMNS]
        for row in reader:
            if not row:
                continue
            try:
                sample_id, membership, raw, filtered, hf = (row[i] for i in columns)
                record = ScoreRecord(sample_id, int(membership), float(raw),
                                     float(filtered) if filtered else None, float(hf))
                if record.membership not in (0, 1):
                    raise ValueError(f"membership must be 0 or 1, got {membership!r}")
                if records and (not filtered) != (records[0].score_filtered is None):
                    raise ValueError("score_filtered must be filled on every row or on none")
                records.append(record)
            except (IndexError, ValueError) as exc:
                raise IngestionError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not records:
        raise IngestionError(f"{path}: no score rows")
    return records

"""Error-based membership scoring under a single distance paradigm.

Each attack builds a (predicted, target) pair for a stack of samples; the
membership scores are the q-norm of each sample's difference as it is (raw)
and after the high-frequency filter (filtered). Lower scores indicate
membership. Three instantiations are provided:

* naive: compare sampled noise against the model's noise prediction,
  mapped to image space.
* pia: like naive but the noise is the model's own prediction at t=0,
  making the attack fully deterministic.
* secmi: reconstruction error of one deterministic reverse/denoise
  round trip at the attack timestep.

The denoiser is called once per image and only read, so every score has
the bits of its sample scored alone, whatever stack it is in.
"""

import csv
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .diffusion import (
    NoiseSchedule,
    check_timesteps,
    ddim_denoise_chain,
    ddim_reverse_chain,
    predict_x0,
    q_sample,
)
from .errors import ConfigurationError, ContractViolation, IngestionError, reading
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
    positive multiple of it. ``filter`` is required and keyword-only: every
    attack scores each pair raw and filtered.
    """

    kind: str
    t_attack: int
    stride: int = 10
    q: int = 2
    seed: int = 0
    filter: FilterSpec = field(kw_only=True)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        if self.q not in (1, 2):
            raise ConfigurationError(f"norm order q must be 1 or 2, got {self.q}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")

    def validate_for_schedule(self, sched: NoiseSchedule) -> None:
        try:
            check_timesteps(self.t_attack, sched.T)
        except ContractViolation as exc:
            raise ConfigurationError(f"t_attack: {exc}") from exc
        if self.kind == "secmi":
            _check_secmi_ladder(self.t_attack, self.stride, sched.T)


def _check_secmi_ladder(t: int, stride: int, T: int) -> None:
    """secmi's rule: t is a positive multiple of the stride, and the rung
    above it, t + stride, is still a timestep of the schedule."""
    if not (stride >= 1 and t > 0 and t % stride == 0 and t + stride <= T - 1):
        raise ConfigurationError(f"secmi needs t > 0, t % stride == 0 and t + stride <= T-1, "
                                 f"got t={t}, stride={stride}, T={T}")


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


class ScoreRecord(NamedTuple):
    """One sample's membership label and scores."""

    sample_id: str
    membership: int
    score_raw: float
    score_filtered: float
    hf_content: float


def paradigm_score(pair: ScorePair, q: int = 2, filt: Optional[FilterSpec] = None) -> np.ndarray:
    """q-norm distance between each predicted image and its target,
    optionally filtered: one float64 per entry of the leading axis, bitwise
    that of the entry alone. By linearity of the filter, the difference is
    filtered once instead of filtering both tensors; the two paths agree to
    round-off."""
    if q not in (1, 2):
        raise ContractViolation(f"norm order q must be 1 or 2, got {q}")
    diff = pair.predicted - pair.target
    if filt is not None:
        diff = apply_filter(diff, filt)
    axes = tuple(range(1, diff.ndim))
    if q == 1:
        return np.sum(np.abs(diff), axis=axes)
    return np.sqrt(np.sum(diff**2, axis=axes))


def _image_stack(x0) -> np.ndarray:
    """``x0`` as a float64 stack of images, which must hold at least one."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 0 or len(x0) == 0:
        raise ContractViolation(f"need a stack of at least one image, got shape {x0.shape}")
    return x0


def _per_image(denoiser):
    """The denoiser over a stack of images: one call per image, stacked."""
    return lambda x, t: np.stack([denoiser(image, t) for image in x])


def naive_pair(x0, t: int, denoiser, sched: NoiseSchedule, seeds) -> ScorePair:
    """Sampled-noise prediction error mapped to image space, for a stack of
    images with one seed each. An image's seed fixes its drawn noise, so
    identical seeds give identical scores. The target equals x0 up to
    round-off."""
    x0 = _image_stack(x0)
    eps = np.stack([derive_rng(seed, "naive-eps").standard_normal(x0.shape[1:]) for seed in seeds])
    return _noise_error_pair(x0, t, eps, _per_image(denoiser), sched)


def pia_pair(x0, t: int, denoiser, sched: NoiseSchedule) -> ScorePair:
    """Proximal-initialization variant over a stack of images: the noise is
    the model's own prediction at timestep 0, so no randomness is involved."""
    x0 = _image_stack(x0)
    denoiser = _per_image(denoiser)
    return _noise_error_pair(x0, t, denoiser(x0, 0), denoiser, sched)


def _noise_error_pair(x0, t: int, eps, denoiser, sched: NoiseSchedule) -> ScorePair:
    """x0 noised with ``eps`` to t, then mapped back to image space once with
    ``eps`` (the target) and once with the model's prediction."""
    x_t = q_sample(x0, t, eps, sched)
    target = predict_x0(x_t, eps, t, sched)
    predicted = predict_x0(x_t, denoiser(x_t, int(t)), t, sched)
    return ScorePair(predicted=predicted, target=target)


def secmi_pair(x0, t: int, denoiser, sched: NoiseSchedule, stride: int) -> ScorePair:
    """Posterior-estimation error at t: deterministically invert a stack of
    images up to t in lockstep, then apply one reverse macro-step followed
    by one denoise macro-step and compare against the inverted state."""
    _check_secmi_ladder(t, stride, sched.T)
    x0 = _image_stack(x0)
    denoiser = _per_image(denoiser)
    x_tilde = ddim_reverse_chain(x0, 0, t, denoiser, sched, stride)
    up = ddim_reverse_chain(x_tilde, t, t + stride, denoiser, sched, stride)
    predicted = ddim_denoise_chain(up, t + stride, t, denoiser, sched, stride)
    return ScorePair(predicted=predicted, target=x_tilde)


# samples scored as one stack: enough to spread the FFT's and the chains'
# per-call cost, and a 16x16 stack's spectrum is 256 KB
_SCORE_CHUNK = 64


def run_attack(samples, config: AttackConfig, denoiser, sched: NoiseSchedule,
               hf_boundary_radius: float = 2.0) -> list[ScoreRecord]:
    """Score every labeled sample; one record per sample in input order.

    Raw and filtered scores come from the same pair, so they differ only
    by the filter. Per-sample noise is keyed by (config seed, sample id),
    making the output independent of dataset ordering. Every
    ``_SCORE_CHUNK`` samples get one pair call and two
    :func:`paradigm_score` calls, raw and filtered, so no score's bits
    depend on the chunk it is in. A pair with a non-finite value, such as
    a prediction that overflowed the model's float32, and a finite pair
    whose norm overflows each raise :class:`ContractViolation` naming the
    first such sample, under any warning filter.
    """
    samples = list(samples)
    if not samples:
        raise ConfigurationError("cannot attack an empty dataset")
    config.validate_for_schedule(sched)
    records = []
    for start in range(0, len(samples), _SCORE_CHUNK):
        chunk = samples[start:start + _SCORE_CHUNK]
        images = np.stack([sample.image for sample in chunk])
        # an overflowed prediction or norm is reported below, whatever the warning filter
        with np.errstate(over="ignore", invalid="ignore"):
            if config.kind == "naive":
                seeds = [derive_seed(config.seed, "attack-sample", s.sample_id) for s in chunk]
                pair = naive_pair(images, config.t_attack, denoiser, sched, seeds)
            elif config.kind == "pia":
                pair = pia_pair(images, config.t_attack, denoiser, sched)
            else:
                pair = secmi_pair(images, config.t_attack, denoiser, sched, config.stride)
            axes = tuple(range(1, pair.predicted.ndim))
            finite = np.isfinite(pair.predicted).all(axes) & np.isfinite(pair.target).all(axes)
            if not finite.all():
                bad = chunk[np.argmin(finite)].sample_id
                raise ContractViolation(f"the pair of sample {bad!r} is non-finite")
            raw = paradigm_score(pair, config.q)
            filtered = paradigm_score(pair, config.q, config.filter)
        finite = np.isfinite(raw) & np.isfinite(filtered)
        if not finite.all():
            raise ContractViolation(f"the score of sample {chunk[np.argmin(finite)].sample_id!r} "
                                    f"overflows float64")
        for sample, r, f in zip(chunk, raw.tolist(), filtered.tolist()):
            hf = high_frequency_content(sample.image, hf_boundary_radius)
            records.append(ScoreRecord(sample.sample_id, int(sample.membership), r, f, hf))
    return records


_COLUMNS = ScoreRecord._fields


def _fmt(x: float) -> str:
    """A Python float's ``repr``; numpy 2's ``repr`` of an ``np.float64`` names its type."""
    return repr(float(x))


def write_score_csv(records, path) -> None:
    """Scores as CSV with LF line endings. Floats are written with
    ``repr``, so :func:`read_score_csv` gets back the exact values. All
    rows go out in one ``writerows`` call, which quotes a sample id as
    ``csv`` does."""
    sample_id, membership, *scores = ([*map(attrgetter(c), records)] for c in _COLUMNS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(zip(sample_id, membership, *(map(_fmt, col) for col in scores)))


def _convert(cells, name: str, convert, check: int, failures: list, finite: bool = False) -> list:
    """``convert`` over a column of cells, up to the first cell it rejects
    (with ``finite``, a non-finite value too). Returns the values before
    that cell and adds the cell to ``failures`` as ``(position, check,
    message)``."""
    values = []
    try:
        values.extend(map(convert, cells))  # extend keeps what came before a bad cell
    except ValueError as exc:
        failures.append((len(values), check, f"{name}: {exc}"))
    if finite:
        ok = np.isfinite(np.array(values, dtype=np.float64))
        if not ok.all():
            k = int(np.argmin(ok))
            failures.append((k, check, f"{name} must be finite, got {cells[k]!r}"))
    return values


def _line_number(path, row: int) -> int:
    """The line on which data row ``row`` (0-based, blank lines skipped)
    of a CSV file ends, as ``csv.reader`` counts lines."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(islice(filter(None, reader), row, None))
        return reader.line_num


def read_score_csv(path) -> list[ScoreRecord]:
    """Inverse of :func:`write_score_csv`. A missing column, a cell that
    does not parse, a non-finite score or ``hf_content``, a membership
    other than 0 or 1, a repeated sample id, or a file without rows raises
    :class:`IngestionError` naming the file (and, for a bad row, its line
    and column; for a row with too few cells, the first column it lacks and
    its cell count). When several rows are bad, the first one is reported.

    The file is read in one pass and parsed column by column: one
    conversion and one array check per column. The raw cells are freed as
    their column is parsed, before the records are built.
    """
    with reading(path):
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(filter(None, reader))  # a blank line reads as []
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"missing column(s) {', '.join(missing)}")
        index = [header.index(c) for c in _COLUMNS]
        if not rows:
            raise IngestionError("no score rows")

        # (row, check, message); check numbers the checks in the order one row
        # is read, so the smallest triple is the first bad row's first failure
        failures = []
        short = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) <= max(index))
        if short.size:
            cells = len(rows[short[0]])
            lacks = next(c for c, i in zip(_COLUMNS, index) if i >= cells)
            failures.append((int(short[0]), 0, f"{lacks}: missing, the row has {cells} cell(s)"))
            del rows[short[0]:]
        ids, labels, raw, filtered, hf = ([*map(itemgetter(i), rows)] for i in index)
        del rows

        membership = _convert(labels, "membership", int, 1, failures)
        in_range = np.fromiter(map((0, 1).__contains__, membership), bool, len(membership))
        if not in_range.all():
            k = int(np.argmin(in_range))
            failures.append((k, 5, f"membership must be 0 or 1, got {labels[k]!r}"))
        del labels
        raw = _convert(raw, "score_raw", float, 2, failures, finite=True)
        filtered = _convert(filtered, "score_filtered", float, 3, failures, finite=True)
        hf = _convert(hf, "hf_content", float, 4, failures, finite=True)
        if len(set(ids)) < len(ids):
            first = {}
            for k, sample_id in enumerate(ids):
                j = first.setdefault(sample_id, k)
                if j != k:
                    message = f"sample_id {sample_id!r} repeats line {_line_number(path, j)}"
                    failures.append((k, 6, message))
                    break

        if failures:
            row, _, message = min(failures)
            raise IngestionError(message, line=_line_number(path, row))
        return list(map(ScoreRecord._make, zip(ids, membership, raw, filtered, hf)))

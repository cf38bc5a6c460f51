"""Noise schedules, DDPM forward/loss math, and deterministic DDIM stepping.

A denoiser is any callable ``eps_hat = denoiser(x_t, t)`` mapping a noised
image and an integer timestep to a noise prediction of the same shape.
Timesteps index the schedule arrays directly: ``0 <= t < T``, the contract
:func:`check_timesteps` enforces for this module and the denoiser.

All stepping here is the eta = 0 (deterministic) variant, composed into
strided chains; a chain with ``stride=1`` takes single steps.
:func:`predict_x0` is the one place that maps a noise estimate back to
image space.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolation

__all__ = [
    "NoiseSchedule",
    "linear_schedule",
    "check_timesteps",
    "q_sample",
    "predict_x0",
    "ddim_reverse_chain",
    "ddim_denoise_chain",
]


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-timestep diffusion coefficients.

    ``alpha_bar[t]`` is the running product of ``1 - beta`` up to and
    including t. Instances built by :func:`linear_schedule` satisfy the
    validity checks in :meth:`validate`; tests may construct degenerate
    schedules directly.

    ``sqrt_abar`` and ``sqrt_one_minus_abar`` are the read-only tables
    ``sqrt(alpha_bar)`` and ``sqrt(1 - alpha_bar)``, built on first use;
    every formula here indexes them instead of taking roots per call.
    """

    T: int
    alpha_bar: np.ndarray

    def validate(self) -> None:
        """T >= 2 entries, strictly decreasing inside (0, 1); a beta near 1
        underflows ``alpha_bar`` to 0 and fails the second check."""
        if self.T < 2 or self.alpha_bar.shape != (self.T,):
            raise ConfigurationError(f"schedule must have T >= 2 entries, got T={self.T}")
        abar = self.alpha_bar
        if not (np.all(np.diff(abar) < 0.0) and abar[0] < 1.0 and abar[-1] > 0.0):
            raise ConfigurationError("alpha_bar must be strictly decreasing inside (0, 1)")

    @cached_property
    def sqrt_abar(self) -> np.ndarray:
        root = np.sqrt(self.alpha_bar)
        root.flags.writeable = False
        return root

    @cached_property
    def sqrt_one_minus_abar(self) -> np.ndarray:
        root = np.sqrt(1.0 - self.alpha_bar)
        root.flags.writeable = False
        return root


def linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly interpolated beta schedule, endpoints included."""
    if T < 2:
        raise ConfigurationError(f"T must be >= 2, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigurationError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    alpha_bar = np.cumprod(1.0 - np.linspace(beta_start, beta_end, T))
    sched = NoiseSchedule(T=T, alpha_bar=alpha_bar)
    sched.validate()
    return sched


def check_timesteps(t, T: int):
    """The package's one timestep contract: integers in ``[0, T)``.

    ``t`` is a Python or numpy integer, returned as a Python int, or a 1-D
    numpy integer array, returned as is. Bools and floats are rejected,
    integral floats such as ``3.0`` too. Raises :class:`ContractViolation`.
    """
    if type(t) is int or isinstance(t, np.integer):  # not isinstance(t, int): a bool is one
        if 0 <= t < T:
            return int(t)
    elif isinstance(t, np.ndarray) and t.dtype.kind in "iu" and t.ndim == 1:
        steps = t.tolist()  # Python ints compare faster than array reductions at B=1
        if not steps or 0 <= min(steps) and max(steps) < T:
            return t
    raise ContractViolation(f"timesteps must be integers in [0, {T}), got {t!r}")


def q_sample(x0, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """Noise x0 to timestep t in one jump: sqrt(abar_t) x0 + sqrt(1-abar_t) eps."""
    t = check_timesteps(t, sched.T)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ContractViolation(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    return sched.sqrt_abar[t] * x0 + sched.sqrt_one_minus_abar[t] * eps


def predict_x0(x_t, eps_hat, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Invert q_sample given a noise estimate: (x_t - sqrt(1-abar_t) eps) / sqrt(abar_t)."""
    t = check_timesteps(t, sched.T)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - sched.sqrt_one_minus_abar[t] * eps_hat) / sched.sqrt_abar[t]


def _ddim_step(x, t_src: int, t_dst: int, denoiser, sched: NoiseSchedule) -> np.ndarray:
    """One deterministic step from t_src to t_dst using eps predicted at t_src."""
    x = np.asarray(x, dtype=np.float64)
    eps_hat = np.asarray(denoiser(x, int(t_src)), dtype=np.float64)
    if eps_hat.shape != x.shape:
        raise ContractViolation(f"denoiser output shape {eps_hat.shape} != state shape {x.shape}")
    x0_hat = predict_x0(x, eps_hat, t_src, sched)
    return sched.sqrt_abar[t_dst] * x0_hat + sched.sqrt_one_minus_abar[t_dst] * eps_hat


def _ladder(s: int, t: int, stride: int, sched: NoiseSchedule) -> list[int]:
    s, t = check_timesteps(s, sched.T), check_timesteps(t, sched.T)
    if type(stride) is not int and not isinstance(stride, np.integer):  # a bool is an int
        raise ContractViolation(f"stride must be an integer, got {stride!r}")
    stride = int(stride)
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if not s < t:
        raise ContractViolation(f"need s < t, got s={s}, t={t}")
    if (t - s) % stride != 0:
        raise ConfigurationError(f"span {t - s} not divisible by stride {stride}")
    return list(range(s, t + 1, stride))


def ddim_reverse_chain(x_s, s: int, t: int, denoiser, sched: NoiseSchedule, stride: int) -> np.ndarray:
    """Compose reverse macro-steps along the ladder s, s+stride, ..., t (Phi)."""
    rungs = _ladder(s, t, stride, sched)
    x = np.asarray(x_s, dtype=np.float64)
    for src, dst in zip(rungs[:-1], rungs[1:]):
        x = _ddim_step(x, src, dst, denoiser, sched)
    return x


def ddim_denoise_chain(x_t, t: int, s: int, denoiser, sched: NoiseSchedule, stride: int) -> np.ndarray:
    """Compose denoise macro-steps along the ladder t, t-stride, ..., s (Psi)."""
    rungs = _ladder(s, t, stride, sched)
    x = np.asarray(x_t, dtype=np.float64)
    for src, dst in zip(rungs[::-1][:-1], rungs[::-1][1:]):
        x = _ddim_step(x, src, dst, denoiser, sched)
    return x

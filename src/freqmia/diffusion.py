"""Noise schedules, DDPM forward/loss math, and deterministic DDIM stepping.

A denoiser is any callable ``eps_hat = denoiser(x_t, t)`` mapping a noised
image and an integer timestep to a noise prediction of the same shape.
Timesteps index the schedule arrays directly: ``0 <= t < T``.

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
    "q_sample",
    "predict_x0",
    "ddim_reverse_chain",
    "ddim_denoise_chain",
]


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-timestep diffusion coefficients.

    ``alpha[t] = 1 - beta[t]`` and ``alpha_bar[t]`` is the running product
    of ``alpha`` up to and including t. Instances built by
    :func:`linear_schedule` satisfy the validity checks in
    :meth:`validate`; tests may construct degenerate schedules directly.

    ``sqrt_abar`` and ``sqrt_one_minus_abar`` are the read-only tables
    ``sqrt(alpha_bar)`` and ``sqrt(1 - alpha_bar)``, built on first use;
    every formula here indexes them instead of taking roots per call.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @classmethod
    def from_beta(cls, beta) -> "NoiseSchedule":
        beta = np.asarray(beta, dtype=np.float64)
        alpha = 1.0 - beta
        return cls(T=beta.shape[0], beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))

    def validate(self) -> None:
        if self.T < 2 or self.beta.shape != (self.T,):
            raise ConfigurationError(f"schedule must have T >= 2 entries, got T={self.T}")
        if not (np.all(self.beta > 0.0) and np.all(self.beta < 1.0)):
            raise ConfigurationError("beta values must lie in (0, 1)")
        if not np.allclose(self.alpha, 1.0 - self.beta, rtol=0.0, atol=0.0):
            raise ConfigurationError("alpha[t] must equal 1 - beta[t] exactly")
        if not np.all(np.diff(self.alpha_bar) < 0.0):
            raise ConfigurationError("alpha_bar must be strictly decreasing")
        recomputed = np.cumprod(self.alpha)
        if np.max(np.abs(recomputed - self.alpha_bar)) > 1e-12:
            raise ConfigurationError("alpha_bar inconsistent with cumulative product of alpha")

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
    sched = NoiseSchedule.from_beta(np.linspace(beta_start, beta_end, T))
    sched.validate()
    return sched


def _check_t(t: int, sched: NoiseSchedule, lo: int = 0, hi: int | None = None) -> int:
    hi = sched.T - 1 if hi is None else hi
    t = int(t)
    if not lo <= t <= hi:
        raise ContractViolation(f"timestep {t} outside [{lo}, {hi}]")
    return t


def q_sample(x0, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """Noise x0 to timestep t in one jump: sqrt(abar_t) x0 + sqrt(1-abar_t) eps."""
    t = _check_t(t, sched)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ContractViolation(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    return sched.sqrt_abar[t] * x0 + sched.sqrt_one_minus_abar[t] * eps


def predict_x0(x_t, eps_hat, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Invert q_sample given a noise estimate: (x_t - sqrt(1-abar_t) eps) / sqrt(abar_t)."""
    t = _check_t(t, sched)
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
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if not 0 <= s < t <= sched.T - 1:
        raise ContractViolation(f"need 0 <= s < t <= T-1, got s={s}, t={t}, T={sched.T}")
    if (t - s) % stride != 0:
        raise ConfigurationError(f"span {t - s} not divisible by stride {stride}")
    return list(range(s, t + 1, stride))


def ddim_reverse_chain(x_s, s: int, t: int, denoiser, sched: NoiseSchedule, stride: int) -> np.ndarray:
    """Compose reverse macro-steps along the ladder s, s+stride, ..., t (Phi)."""
    rungs = _ladder(int(s), int(t), int(stride), sched)
    x = np.asarray(x_s, dtype=np.float64)
    for src, dst in zip(rungs[:-1], rungs[1:]):
        x = _ddim_step(x, src, dst, denoiser, sched)
    return x


def ddim_denoise_chain(x_t, t: int, s: int, denoiser, sched: NoiseSchedule, stride: int) -> np.ndarray:
    """Compose denoise macro-steps along the ladder t, t-stride, ..., s (Psi)."""
    rungs = _ladder(int(s), int(t), int(stride), sched)
    x = np.asarray(x_t, dtype=np.float64)
    for src, dst in zip(rungs[::-1][:-1], rungs[::-1][1:]):
        x = _ddim_step(x, src, dst, denoiser, sched)
    return x

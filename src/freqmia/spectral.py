"""2D discrete Fourier analysis, radial masks, and the high-frequency filter.

Images are real arrays whose last two axes are (H, W); a leading channel
axis is allowed and transformed per channel. Spectra are complex arrays of
the same shape with the zero-frequency (DC) coefficient stored at the grid
center ``(H // 2, W // 2)``, so a coefficient's distance from the center is
directly its frequency radius.

All functions are pure and hold no state; they are safe to call from many
threads concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation

__all__ = [
    "FilterSpec",
    "forward_dft",
    "inverse_dft",
    "radial_grid",
    "build_mask",
    "apply_filter",
    "high_frequency_content",
]


@dataclass(frozen=True)
class FilterSpec:
    """Radial attenuation filter: coefficients beyond radius ``r_t`` are
    scaled by ``s``, everything at or inside the radius passes unchanged.

    ``s = 1`` is the identity filter; ``s = 0`` removes the high band.
    """

    s: float
    r_t: float

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ConfigurationError(f"attenuation s must be in [0, 1], got {self.s}")
        if not self.r_t >= 0.0:
            raise ConfigurationError(f"threshold radius must be >= 0, got {self.r_t}")


def _check_image(image) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim < 2:
        raise ContractViolation(f"image must have at least 2 dims, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("image contains non-finite values")
    return arr


def forward_dft(image) -> np.ndarray:
    """Per-channel 2D DFT with the DC coefficient shifted to the grid center.

    Linear in the image. Unnormalized convention: a constant image of value
    c maps to a single coefficient c*H*W at the center.
    """
    arr = _check_image(image)
    return np.fft.fftshift(np.fft.fft2(arr, axes=(-2, -1)), axes=(-2, -1))


def inverse_dft(spec) -> np.ndarray:
    """Invert :func:`forward_dft` and return the real part.

    For spectra obtained from real images the imaginary residue is at
    round-off level (< 1e-6 everywhere) and is discarded.
    """
    arr = np.asarray(spec, dtype=np.complex128)
    if arr.ndim < 2:
        raise ContractViolation(f"spectrum must have at least 2 dims, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("spectrum contains non-finite values")
    back = np.fft.ifft2(np.fft.ifftshift(arr, axes=(-2, -1)), axes=(-2, -1))
    return back.real


def radial_grid(height: int, width: int) -> np.ndarray:
    """(H, W) grid of frequency radii measured from the DC center."""
    u = np.arange(height)[:, None] - height // 2
    v = np.arange(width)[None, :] - width // 2
    return np.sqrt(u.astype(np.float64) ** 2 + v.astype(np.float64) ** 2)


def build_mask(filt: FilterSpec, height: int, width: int) -> np.ndarray:
    """Radial mask: 1 where radius <= r_t, s strictly beyond it."""
    r = radial_grid(height, width)
    return np.where(r > filt.r_t, filt.s, 1.0)


def apply_filter(image, filt: FilterSpec) -> np.ndarray:
    """Attenuate the image's high-frequency band: IFFT(FFT(x) * mask).

    Applied per channel; linear in the image. ``s = 1`` reproduces the
    input to within round-off.
    """
    spec = forward_dft(image)
    mask = build_mask(filt, spec.shape[-2], spec.shape[-1])
    return inverse_dft(spec * mask)


def high_frequency_content(image, boundary_radius: float) -> float:
    """Fraction of spectral energy strictly beyond the boundary radius.

    Energy is the squared coefficient magnitude summed over all channels.
    An all-zero image has no energy to partition and returns 0 by
    convention. The result is invariant under global intensity scaling.
    """
    if not boundary_radius >= 0.0:
        raise ContractViolation(f"boundary radius must be >= 0, got {boundary_radius}")
    spec = forward_dft(image)
    power = np.abs(spec) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    high = radial_grid(spec.shape[-2], spec.shape[-1]) > boundary_radius
    return float(power[..., high].sum() / total)

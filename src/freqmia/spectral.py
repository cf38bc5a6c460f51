"""2D discrete Fourier analysis, radial masks, and the high-frequency filter.

Images are real arrays whose last two axes are (H, W); a leading channel
axis is allowed and transformed per channel. Spectra are complex arrays of
the same shape with the zero-frequency (DC) coefficient stored at the grid
center ``(H // 2, W // 2)``, so a coefficient's distance from the center is
directly its frequency radius.

:func:`apply_filter` and :func:`high_frequency_content` never shift: they
work on the unshifted spectrum, multiplying it by a mask cached already
``ifftshift``-ed and summing power through a cached fftshift permutation,
so their results are bit for bit those of the centered formulas.

All functions are pure; the only state is the read-only masks and index
tables cached per shape, so they are safe to call from many threads
concurrently.
"""

from dataclasses import dataclass
from functools import lru_cache

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


def _check_image(image, dtype=np.float64, what: str = "image") -> np.ndarray:
    """``image`` as a ``dtype`` array of at least 2 dims and finite values."""
    arr = np.asarray(image, dtype=dtype)
    if arr.ndim < 2:
        raise ContractViolation(f"{what} must have at least 2 dims, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{what} contains non-finite values")
    return arr


def forward_dft(image) -> np.ndarray:
    """Per-channel 2D DFT with the DC coefficient shifted to the grid center.

    Linear in the image. Unnormalized convention: a constant image of value
    c maps to a single coefficient c*H*W at the center.
    """
    arr = _check_image(image)
    return np.fft.fftshift(_fft2(arr), axes=(-2, -1))


def inverse_dft(spec) -> np.ndarray:
    """Invert :func:`forward_dft` and return the real part.

    For spectra obtained from real images the imaginary residue is at
    round-off level (< 1e-6 everywhere) and is discarded.
    """
    arr = _check_image(spec, np.complex128, "spectrum")
    return _ifft2(np.fft.ifftshift(arr, axes=(-2, -1))).real


def radial_grid(height: int, width: int) -> np.ndarray:
    """(H, W) grid of frequency radii measured from the DC center."""
    u = np.arange(height)[:, None] - height // 2
    v = np.arange(width)[None, :] - width // 2
    return np.sqrt(u.astype(np.float64) ** 2 + v.astype(np.float64) ** 2)


def build_mask(filt: FilterSpec, height: int, width: int) -> np.ndarray:
    """Radial mask: 1 where radius <= r_t, s strictly beyond it."""
    r = radial_grid(height, width)
    return np.where(r > filt.r_t, filt.s, 1.0)


def _fft2(arr: np.ndarray) -> np.ndarray:
    """The two 1-D passes ``np.fft.fft2`` makes over the last two axes."""
    return np.fft.fft(np.fft.fft(arr, axis=-1), axis=-2)


def _ifft2(spec: np.ndarray) -> np.ndarray:
    """The two 1-D passes ``np.fft.ifft2`` makes over the last two axes."""
    return np.fft.ifft(np.fft.ifft(spec, axis=-1), axis=-2)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def _unshifted_mask(filt: FilterSpec, height: int, width: int) -> np.ndarray:
    """:func:`build_mask` moved to the unshifted (DC at ``[0, 0]``) layout."""
    return _read_only(np.fft.ifftshift(build_mask(filt, height, width)))


@lru_cache(maxsize=64)
def _band_indices(height: int, width: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an unshifted (H, W) spectrum: every coefficient in
    fftshift order, and the coefficients beyond ``radius`` in that order."""
    order = np.fft.fftshift(np.arange(height * width).reshape(height, width))
    high = order[radial_grid(height, width) > radius]
    return _read_only(order.ravel()), _read_only(high)


def apply_filter(image, filt: FilterSpec) -> np.ndarray:
    """Attenuate the image's high-frequency band: IFFT(FFT(x) * mask).

    Applied per channel; linear in the image. ``s = 1`` reproduces the
    input to within round-off. The mask is cached per (filter, H, W) in
    unshifted layout and is read-only, so concurrent calls are safe.
    """
    arr = _check_image(image)
    spec = _fft2(arr) * _unshifted_mask(filt, arr.shape[-2], arr.shape[-1])
    if not np.all(np.isfinite(spec)):
        raise ContractViolation("spectrum contains non-finite values")
    return _ifft2(spec).real


def _check_boundary_radius(radius: float) -> None:
    if not radius >= 0.0:
        raise ContractViolation(f"boundary radius must be >= 0, got {radius}")


def high_frequency_content(image, boundary_radius: float) -> float:
    """Fraction of spectral energy strictly beyond the boundary radius.

    Energy is the squared coefficient magnitude summed over all channels.
    An all-zero image has no energy to partition and returns 0 by
    convention. The result is invariant under global intensity scaling.
    Both sums add in the order of the centered spectrum, through index
    tables cached per (H, W, radius); the tables are read-only, so
    concurrent calls are safe.
    """
    _check_boundary_radius(boundary_radius)
    arr = _check_image(image)
    height, width = arr.shape[-2:]
    power = (np.abs(_fft2(arr)) ** 2).reshape(*arr.shape[:-2], height * width)
    order, high = _band_indices(height, width, boundary_radius)
    # np.take yields the C-ordered array fftshift would; the boolean pick
    # of the centered formula and the fancy index below share one layout
    total = float(np.take(power, order, axis=-1).reshape(arr.shape).sum())
    if total == 0.0:
        return 0.0
    return float(power[..., high].sum() / total)

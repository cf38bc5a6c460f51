import numpy as np
import pytest

from freqmia.errors import ConfigurationError, ContractViolation
from freqmia.spectral import (
    FilterSpec,
    _fft2,
    _ifft2,
    _unshifted_mask,
    apply_filter,
    build_mask,
    forward_dft,
    high_frequency_content,
    inverse_dft,
    radial_grid,
)


def dft_oracle(img):
    """Direct evaluation of the transform sum via explicit DFT matrices,
    independent of any FFT code path, with a hand-rolled center shift."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    fu = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    fv = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    standard = fu @ img.astype(complex) @ fv.T
    centered = np.empty_like(standard)
    for u in range(h):
        for v in range(w):
            centered[u, v] = standard[(u - h // 2) % h, (v - w // 2) % w]
    return centered


def dft_quad_loop(img):
    """Literal quadruple-loop DFT for tiny images; cross-checks dft_oracle."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    standard = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0.0j
            for y in range(h):
                for x in range(w):
                    acc += img[y, x] * np.exp(-2j * np.pi * (u * y / h + v * x / w))
            standard[u, v] = acc
    centered = np.empty_like(standard)
    for u in range(h):
        for v in range(w):
            centered[u, v] = standard[(u - h // 2) % h, (v - w // 2) % w]
    return centered


def centered_radii(h, w):
    u = np.arange(h)[:, None] - h // 2
    v = np.arange(w)[None, :] - w // 2
    return np.sqrt(u.astype(np.float64) ** 2 + v.astype(np.float64) ** 2)


def centered_filter(img, s, r_t):
    """The filter as computed on the centered spectrum: shift, mask, shift
    back; the cached path must reproduce it bit for bit."""
    spec = np.fft.fftshift(np.fft.fft2(img, axes=(-2, -1)), axes=(-2, -1))
    masked = spec * np.where(centered_radii(*img.shape[-2:]) > r_t, s, 1.0)
    return np.fft.ifft2(np.fft.ifftshift(masked, axes=(-2, -1)), axes=(-2, -1)).real


def centered_hf_content(img, radius):
    """High-frequency share summed over the centered power spectrum."""
    spec = np.fft.fftshift(np.fft.fft2(img, axes=(-2, -1)), axes=(-2, -1))
    power = np.abs(spec) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    return float(power[..., centered_radii(*img.shape[-2:]) > radius].sum() / total)


CACHED_SHAPES = [(16, 16), (15, 17), (3, 8, 8)]


def band_energy_oracle(img, radius):
    """(high, total) spectral energy split computed over the oracle spectrum."""
    spec = dft_oracle(img)
    h, w = spec.shape
    power = np.abs(spec) ** 2
    high = 0.0
    for u in range(h):
        for v in range(w):
            if np.hypot(u - h // 2, v - w // 2) > radius:
                high += power[u, v]
    return high, float(power.sum())


class TestForwardDft:
    def test_unit_impulse_has_flat_magnitude(self):
        img = np.zeros((2, 2))
        img[0, 0] = 1.0
        spec = forward_dft(img)
        assert np.allclose(np.abs(spec), 1.0)

    def test_constant_image_is_dc_only(self):
        img = np.full((4, 6), 2.5)
        spec = forward_dft(img)
        assert spec[2, 3] == pytest.approx(2.5 * 24)
        off_dc = spec.copy()
        off_dc[2, 3] = 0.0
        assert np.max(np.abs(off_dc)) < 1e-9

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(42)
        img = rng.uniform(-1.0, 1.0, size=(4, 4))
        assert np.max(np.abs(forward_dft(img) - dft_oracle(img))) < 1e-9

    def test_oracle_agrees_with_quadruple_loop(self):
        rng = np.random.default_rng(7)
        img = rng.standard_normal((4, 5))
        assert np.max(np.abs(dft_oracle(img) - dft_quad_loop(img))) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        lhs = forward_dft(a + b)
        rhs = forward_dft(a) + forward_dft(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_channels_transform_independently(self):
        rng = np.random.default_rng(5)
        img = rng.standard_normal((3, 6, 6))
        spec = forward_dft(img)
        for c in range(3):
            assert np.allclose(spec[c], forward_dft(img[c]))

    def test_rejects_non_finite(self):
        img = np.ones((4, 4))
        img[1, 2] = np.nan
        with pytest.raises(ContractViolation):
            forward_dft(img)


class TestInverseDft:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (8, 8), (3, 16, 16)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        img = rng.uniform(-1.0, 1.0, size=shape)
        assert np.max(np.abs(inverse_dft(forward_dft(img)) - img)) < 1e-6

    def test_zero_spectrum_gives_zero_image(self):
        assert np.all(inverse_dft(np.zeros((6, 6), dtype=complex)) == 0.0)

    def test_dc_only_spectrum_gives_constant_image(self):
        spec = np.zeros((4, 4), dtype=complex)
        spec[2, 2] = 3.0 * 16
        assert np.allclose(inverse_dft(spec), 3.0)

    def test_imaginary_residue_small_for_real_images(self):
        rng = np.random.default_rng(11)
        img = rng.standard_normal((8, 8))
        spec = forward_dft(img)
        back = np.fft.ifft2(np.fft.ifftshift(spec))
        assert np.max(np.abs(back.imag)) < 1e-6

    def test_parseval(self):
        rng = np.random.default_rng(13)
        for shape in [(4, 4), (5, 5), (8, 16)]:
            img = rng.standard_normal(shape)
            spec = forward_dft(img)
            pixels = np.sum(img**2)
            coeffs = np.sum(np.abs(spec) ** 2) / (shape[0] * shape[1])
            assert abs(pixels - coeffs) / pixels < 1e-6


class TestRadialGeometry:
    def test_center_is_zero(self):
        assert radial_grid(16, 16)[8, 8] == 0.0

    def test_axis_offset(self):
        assert radial_grid(16, 16)[11, 8] == pytest.approx(3.0)

    def test_three_four_five(self):
        assert radial_grid(16, 16)[11, 12] == pytest.approx(5.0)

    def test_grid_matches_pointwise(self):
        grid = radial_grid(6, 9)
        assert grid.shape == (6, 9)
        for u in range(6):
            for v in range(9):
                assert grid[u, v] == pytest.approx(np.hypot(u - 6 // 2, v - 9 // 2))


class TestBuildMask:
    def test_s_one_is_all_ones(self):
        assert np.all(build_mask(FilterSpec(s=1.0, r_t=3.0), 8, 8) == 1.0)

    def test_huge_radius_is_all_ones(self):
        assert np.all(build_mask(FilterSpec(s=0.0, r_t=100.0), 8, 8) == 1.0)

    def test_zero_radius_keeps_only_dc(self):
        mask = build_mask(FilterSpec(s=0.0, r_t=0.0), 4, 4)
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.array_equal(mask, expected)

    def test_boundary_is_strict(self):
        # r_t exactly equal to a grid radius: that ring must pass unfiltered
        mask = build_mask(FilterSpec(s=0.5, r_t=1.0), 5, 5)
        assert mask[2, 3] == 1.0  # radius exactly 1
        assert mask[3, 3] == 0.5  # radius sqrt(2) > 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterSpec(s=1.5, r_t=1.0)
        with pytest.raises(ConfigurationError):
            FilterSpec(s=0.5, r_t=-1.0)


class TestApplyFilter:
    def test_constant_image_unchanged(self):
        img = np.full((1, 8, 8), 0.7)
        out = apply_filter(img, FilterSpec(s=0.0, r_t=0.0))
        assert np.max(np.abs(out - img)) < 1e-9

    def test_s_one_is_identity(self):
        rng = np.random.default_rng(17)
        img = rng.uniform(-1, 1, size=(2, 8, 8))
        out = apply_filter(img, FilterSpec(s=1.0, r_t=2.0))
        assert np.max(np.abs(out - img)) < 1e-6

    def test_hard_cut_removes_high_band_energy(self):
        rng = np.random.default_rng(19)
        img = rng.uniform(-1, 1, size=(8, 8))
        out = apply_filter(img, FilterSpec(s=0.0, r_t=2.0))
        high_out, _ = band_energy_oracle(out, 2.0)
        _, total_in = band_energy_oracle(img, 2.0)
        assert high_out < 1e-10 * total_in

    def test_linearity(self):
        rng = np.random.default_rng(23)
        filt = FilterSpec(s=0.2, r_t=5.0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        lhs = apply_filter(a, filt) - apply_filter(b, filt)
        rhs = apply_filter(a - b, filt)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_high_band_energy_nondecreasing_in_s(self):
        rng = np.random.default_rng(29)
        img = rng.standard_normal((16, 16))
        energies = []
        for s in np.linspace(0.0, 1.0, 6):
            out = apply_filter(img, FilterSpec(s=s, r_t=3.0))
            high, _ = band_energy_oracle(out, 3.0)
            energies.append(high)
        assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))


class TestHighFrequencyContent:
    def test_constant_image_is_zero(self):
        assert high_frequency_content(np.full((1, 8, 8), 1.3), 2.0) == 0.0

    def test_zero_image_is_zero(self):
        assert high_frequency_content(np.zeros((1, 8, 8)), 2.0) == 0.0

    def test_checkerboard_is_all_high(self):
        size = 8
        checker = (np.indices((size, size)).sum(axis=0) % 2) * 2.0 - 1.0
        corner_radius = np.hypot(size // 2, size // 2)
        value = high_frequency_content(checker, corner_radius - 0.5)
        assert value > 1.0 - 1e-9

    def test_matches_band_energy_oracle(self):
        rng = np.random.default_rng(31)
        img = rng.uniform(-1, 1, size=(16, 16))
        high, total = band_energy_oracle(img, 5.0)
        assert abs(high_frequency_content(img, 5.0) - high / total) < 1e-9

    def test_invariant_under_intensity_scaling(self):
        rng = np.random.default_rng(37)
        img = rng.standard_normal((1, 16, 16))
        base = high_frequency_content(img, 2.0)
        for scale in (0.01, 3.0, 250.0):
            assert high_frequency_content(scale * img, 2.0) == pytest.approx(base, abs=1e-12)

    def test_band_partition_sums_to_total(self):
        rng = np.random.default_rng(41)
        img = rng.standard_normal((16, 16))
        for boundary in (0.0, 2.0, 5.0, 8.0):
            high = high_frequency_content(img, boundary)
            spec = forward_dft(img)
            power = np.abs(spec) ** 2
            low = power[radial_grid(16, 16) <= boundary].sum()
            assert abs(low / power.sum() + high - 1.0) < 1e-6


class TestCachedPathsAreBitwise:
    @pytest.mark.parametrize("shape", CACHED_SHAPES)
    def test_fft_passes_match_numpy_2d(self, shape):
        img = np.random.default_rng(sum(shape)).standard_normal(shape)
        spec = _fft2(img)
        assert np.array_equal(spec, np.fft.fft2(img, axes=(-2, -1)))
        assert np.array_equal(_ifft2(spec), np.fft.ifft2(spec, axes=(-2, -1)))

    @pytest.mark.parametrize("shape", CACHED_SHAPES)
    @pytest.mark.parametrize("s", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("r_t", [0.0, 2.0, 5.0])
    def test_filter_matches_centered_formula(self, shape, s, r_t):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):  # every call after the first reads the cached mask
            img = rng.standard_normal(shape)
            expected = centered_filter(img, s, r_t)
            assert np.array_equal(apply_filter(img, FilterSpec(s=s, r_t=r_t)), expected)

    @pytest.mark.parametrize("shape", CACHED_SHAPES)
    @pytest.mark.parametrize("radius", [0.0, 2.0, 5.0])
    def test_hf_content_matches_centered_sums(self, shape, radius):
        # summing in unshifted order changes about a third of these sums in
        # the last bit, so ten images per case expose it
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            img = rng.standard_normal(shape)
            assert high_frequency_content(img, radius) == centered_hf_content(img, radius)

    def test_cached_mask_is_read_only_and_unshifted(self):
        filt = FilterSpec(s=0.2, r_t=2.0)
        mask = _unshifted_mask(filt, 15, 17)
        assert not mask.flags.writeable
        assert np.array_equal(np.fft.fftshift(mask), build_mask(filt, 15, 17))

    def test_non_finite_spectrum_rejected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="spectrum"):
                apply_filter(np.full((4, 4), 1e308), FilterSpec(s=0.5, r_t=0.0))

import numpy as np
import pytest

from conftest import make_const_denoiser, zero_denoiser
from freqmia.denoiser import ToyDenoiser, batch_loss_and_grads
from freqmia.diffusion import (
    NoiseSchedule,
    ddim_denoise_chain,
    ddim_reverse_chain,
    linear_schedule,
    predict_x0,
    q_sample,
)
from freqmia.errors import ConfigurationError, ContractViolation


class TestLinearSchedule:
    def test_two_step_flat_beta(self):
        sched = linear_schedule(2, 0.1, 0.1)
        assert np.allclose(sched.alpha_bar, [0.9, 0.81])

    def test_standard_thousand_step(self):
        sched = linear_schedule(1000, 1e-4, 0.02)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] < 0.01
        # low-effort oracle: recompute the cumulative product directly
        direct = np.cumprod(1.0 - np.linspace(1e-4, 0.02, 1000))
        assert np.max(np.abs(direct - sched.alpha_bar)) <= 1e-12

    def test_zero_beta_start_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_schedule(10, 0.0, 0.02)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_schedule(1, 0.01, 0.02)
        with pytest.raises(ConfigurationError):
            linear_schedule(10, 0.05, 0.02)
        with pytest.raises(ConfigurationError):
            linear_schedule(10, 0.5, 1.0)

    def test_consistency_invariants(self):
        sched = linear_schedule(100, 1e-3, 0.1)
        sched.validate()
        assert np.all((sched.alpha_bar > 0) & (sched.alpha_bar < 1))


class TestRootTables:
    def test_tables_match_scalar_roots(self, std_sched):
        for t in range(std_sched.T):
            abar = std_sched.alpha_bar[t]
            assert std_sched.sqrt_abar[t] == np.sqrt(abar)
            assert std_sched.sqrt_one_minus_abar[t] == np.sqrt(1.0 - abar)

    def test_tables_cached_and_read_only(self, small_sched):
        assert small_sched.sqrt_abar is small_sched.sqrt_abar
        for table in (small_sched.sqrt_abar, small_sched.sqrt_one_minus_abar):
            assert not table.flags.writeable

    def test_directly_built_schedule_has_tables(self):
        sched = NoiseSchedule(T=2, alpha_bar=np.array([1.0, 0.5625]))
        assert np.array_equal(sched.sqrt_abar, [1.0, 0.75])
        assert np.array_equal(sched.sqrt_one_minus_abar, [0.0, np.sqrt(0.4375)])


class TestQSample:
    def test_alpha_bar_one_returns_x0_exactly(self):
        sched = NoiseSchedule(T=2, alpha_bar=np.array([1.0, 0.9]))
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        assert np.array_equal(q_sample(x0, 0, eps, sched), x0)

    def test_zero_noise_scales_x0(self, small_sched):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((1, 4, 4))
        out = q_sample(x0, 10, np.zeros_like(x0), small_sched)
        assert np.allclose(out, np.sqrt(small_sched.alpha_bar[10]) * x0)

    def test_zero_x0_scales_noise(self, small_sched):
        rng = np.random.default_rng(2)
        eps = rng.standard_normal((1, 4, 4))
        out = q_sample(np.zeros_like(eps), 20, eps, small_sched)
        expected = np.sqrt(1.0 - small_sched.alpha_bar[20]) * eps
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_shape_mismatch_rejected(self, small_sched):
        with pytest.raises(ContractViolation):
            q_sample(np.zeros((1, 4, 4)), 5, np.zeros((1, 4, 5)), small_sched)

    def test_out_of_range_t_rejected(self, small_sched):
        with pytest.raises(ContractViolation):
            q_sample(np.zeros((1, 4, 4)), 50, np.zeros((1, 4, 4)), small_sched)


def const_toy_denoiser(c, T):
    """A ToyDenoiser with zero weights whose output bias is c: it predicts
    c whatever the input, so the training loss has a closed form."""
    c = np.asarray(c, dtype=np.float64)
    den = ToyDenoiser.initialize(c.shape, (4,), 4, T, seed=0)
    den.params[:] = 0.0
    den.biases[-1][:] = c.ravel()
    return den


class TestSimpleLoss:
    """The training loss of one sample: mean squared error between the
    drawn noise and the prediction at the noised state."""

    def test_perfect_predictor_gives_zero(self, small_sched):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        den = const_toy_denoiser(eps, small_sched.T)
        loss, _ = batch_loss_and_grads(den, x0[None], [7], eps[None], small_sched)
        assert loss == 0.0

    def test_zero_predictor_on_unit_noise(self, small_sched):
        x0 = np.zeros((1, 4, 4))
        eps = np.ones((1, 4, 4))
        den = const_toy_denoiser(np.zeros((1, 4, 4)), small_sched.T)
        loss, _ = batch_loss_and_grads(den, x0[None], [7], eps[None], small_sched)
        assert loss == pytest.approx(1.0)

    def test_matches_elementwise_oracle(self, small_sched):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        pred = rng.standard_normal((1, 4, 4))
        den = const_toy_denoiser(pred, small_sched.T)
        loss, _ = batch_loss_and_grads(den, x0[None], [12], eps[None], small_sched)
        assert abs(loss - np.mean((eps - pred) ** 2)) < 1e-10


class TestPredictX0:
    def test_inverts_q_sample_with_true_noise(self, small_sched):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((1, 8, 8))
        eps = rng.standard_normal((1, 8, 8))
        for t in (0, 10, 49):
            x_t = q_sample(x0, t, eps, small_sched)
            assert np.max(np.abs(predict_x0(x_t, eps, t, small_sched) - x0)) < 1e-9

    def test_zero_noise_estimate(self, small_sched):
        rng = np.random.default_rng(6)
        x_t = rng.standard_normal((1, 4, 4))
        out = predict_x0(x_t, np.zeros_like(x_t), 9, small_sched)
        assert np.allclose(out, x_t / np.sqrt(small_sched.alpha_bar[9]))

    def test_matches_elementwise_oracle(self, small_sched):
        rng = np.random.default_rng(7)
        x_t = rng.standard_normal((1, 4, 4))
        eps_hat = rng.standard_normal((1, 4, 4))
        t = 15
        abar = small_sched.alpha_bar[t]
        expected = (x_t - np.sqrt(1 - abar) * eps_hat) / np.sqrt(abar)
        assert np.max(np.abs(predict_x0(x_t, eps_hat, t, small_sched) - expected)) < 1e-10


def denoise_step(x, t, den, sched):
    """Single deterministic denoise step t -> t-1: a chain with stride 1."""
    return ddim_denoise_chain(x, t, t - 1, den, sched, stride=1)


def reverse_step(x, t, den, sched):
    """Single deterministic inversion step t -> t+1: a chain with stride 1."""
    return ddim_reverse_chain(x, t, t + 1, den, sched, stride=1)


class TestDdimSteps:
    def test_denoise_with_zero_stub_rescales(self, small_sched):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 4, 4))
        t = 20
        out = denoise_step(x, t, zero_denoiser, small_sched)
        ratio = np.sqrt(small_sched.alpha_bar[t - 1] / small_sched.alpha_bar[t])
        assert np.max(np.abs(out - ratio * x)) < 1e-12

    def test_flat_step_is_identity_for_any_denoiser(self):
        abar = np.array([0.9, 0.9, 0.8])
        sched = NoiseSchedule(T=3, alpha_bar=abar)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        out = denoise_step(x, 1, den, sched)
        assert np.max(np.abs(out - x)) < 1e-12

    def test_denoise_matches_formula_oracle(self, small_sched):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        t = 30
        out = denoise_step(x, t, make_const_denoiser(eps), small_sched)
        a_prev, a_cur = small_sched.alpha_bar[t - 1], small_sched.alpha_bar[t]
        expected = (np.sqrt(a_prev) * (x - np.sqrt(1 - a_cur) * eps) / np.sqrt(a_cur)
                    + np.sqrt(1 - a_prev) * eps)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_reverse_with_zero_stub_rescales(self, small_sched):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 4))
        t = 20
        out = reverse_step(x, t, zero_denoiser, small_sched)
        ratio = np.sqrt(small_sched.alpha_bar[t + 1] / small_sched.alpha_bar[t])
        assert np.max(np.abs(out - ratio * x)) < 1e-12

    def test_reverse_matches_formula_oracle(self, small_sched):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        t = 25
        out = reverse_step(x, t, make_const_denoiser(eps), small_sched)
        a_next, a_cur = small_sched.alpha_bar[t + 1], small_sched.alpha_bar[t]
        expected = (np.sqrt(a_next) * (x - np.sqrt(1 - a_cur) * eps) / np.sqrt(a_cur)
                    + np.sqrt(1 - a_next) * eps)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_reverse_then_denoise_round_trip(self, small_sched):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        for t in (0, 17, 48):
            up = reverse_step(x, t, den, small_sched)
            back = denoise_step(up, t + 1, den, small_sched)
            assert np.max(np.abs(back - x)) < 1e-6

    def test_boundary_timesteps_rejected(self, small_sched):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ContractViolation):
            denoise_step(x, 0, zero_denoiser, small_sched)
        with pytest.raises(ContractViolation):
            reverse_step(x, small_sched.T - 1, zero_denoiser, small_sched)

    def test_steps_are_deterministic(self, small_sched):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        a = denoise_step(x, 5, den, small_sched)
        b = denoise_step(x, 5, den, small_sched)
        assert np.array_equal(a, b)


class TestDdimChains:
    def test_single_rung_equals_one_step(self, small_sched):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        chain = ddim_reverse_chain(x, 9, 10, den, small_sched, stride=1)
        eps = den(x, 9)
        a10 = small_sched.alpha_bar[10]
        step = np.sqrt(a10) * predict_x0(x, eps, 9, small_sched) + np.sqrt(1.0 - a10) * eps
        assert np.array_equal(chain, step)

    def test_stride_spanning_whole_range_is_one_macro_step(self, small_sched):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        out = ddim_reverse_chain(x, 0, 30, den, small_sched, stride=30)
        a0, a30 = small_sched.alpha_bar[0], small_sched.alpha_bar[30]
        eps = den(x, 0)
        expected = (np.sqrt(a30) * (x - np.sqrt(1 - a0) * eps) / np.sqrt(a0)
                    + np.sqrt(1 - a30) * eps)
        assert np.max(np.abs(out - expected)) < 1e-10

    @pytest.mark.parametrize("stride", [1, 2, 5, 10])
    def test_zero_stub_reverse_chain_closed_form(self, small_sched, stride):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 4, 4))
        out = ddim_reverse_chain(x, 0, 40, zero_denoiser, small_sched, stride=stride)
        ratio = np.sqrt(small_sched.alpha_bar[40] / small_sched.alpha_bar[0])
        assert np.max(np.abs(out - ratio * x)) < 1e-10

    @pytest.mark.parametrize("stride", [1, 2, 5, 10])
    def test_zero_stub_denoise_chain_closed_form(self, small_sched, stride):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((1, 4, 4))
        out = ddim_denoise_chain(x, 40, 0, zero_denoiser, small_sched, stride=stride)
        ratio = np.sqrt(small_sched.alpha_bar[0] / small_sched.alpha_bar[40])
        assert np.max(np.abs(out - ratio * x)) < 1e-10

    def test_denoise_chain_single_rung(self, small_sched):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        chain = ddim_denoise_chain(x, 10, 9, den, small_sched, stride=1)
        eps = den(x, 10)
        a9 = small_sched.alpha_bar[9]
        step = np.sqrt(a9) * predict_x0(x, eps, 10, small_sched) + np.sqrt(1.0 - a9) * eps
        assert np.array_equal(chain, step)

    def test_indivisible_span_rejected(self, small_sched):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ConfigurationError):
            ddim_reverse_chain(x, 0, 10, zero_denoiser, small_sched, stride=3)

    def test_reversed_order_rejected(self, small_sched):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ContractViolation):
            ddim_reverse_chain(x, 10, 5, zero_denoiser, small_sched, stride=5)


class TestTimestepContract:
    """q_sample, predict_x0 and the DDIM chains take integer timesteps in
    [0, T): a float is not truncated, even an integral one."""

    @pytest.mark.parametrize("t", [-1, 50, 2.5, 3.0, np.float64(3.0), True, "3"],
                             ids=["-1", "T", "2.5", "3.0", "float64", "bool", "str"])
    def test_non_integer_or_out_of_range_rejected(self, small_sched, t):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ContractViolation, match="timestep"):
            q_sample(x, t, x, small_sched)
        with pytest.raises(ContractViolation, match="timestep"):
            predict_x0(x, x, t, small_sched)
        with pytest.raises(ContractViolation, match="timestep"):
            ddim_reverse_chain(x, 0, t, zero_denoiser, small_sched, stride=1)
        with pytest.raises(ContractViolation, match="timestep"):
            ddim_denoise_chain(x, t, 0, zero_denoiser, small_sched, stride=1)

    def test_float_start_of_ladder_rejected(self, small_sched):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ContractViolation, match="timestep"):
            ddim_reverse_chain(x, 0.0, 10, zero_denoiser, small_sched, stride=5)
        with pytest.raises(ContractViolation, match="timestep"):
            ddim_denoise_chain(x, 10, 5.0, zero_denoiser, small_sched, stride=5)

    def test_numpy_integers_equal_python_ints(self, small_sched):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 4, 4))
        eps = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(eps)
        for t in (np.int32(7), np.int64(7), np.uint8(7)):
            assert np.array_equal(q_sample(x, t, eps, small_sched), q_sample(x, 7, eps, small_sched))
            assert np.array_equal(predict_x0(x, eps, t, small_sched),
                                  predict_x0(x, eps, 7, small_sched))
        assert np.array_equal(ddim_reverse_chain(x, np.int64(0), np.int64(10), den, small_sched, 5),
                              ddim_reverse_chain(x, 0, 10, den, small_sched, 5))

    @pytest.mark.parametrize("stride", [2.5, 2.0, np.float64(2.0), True, np.bool_(True), "2"],
                             ids=["2.5", "2.0", "float64", "bool", "numpy_bool", "str"])
    def test_non_integer_stride_rejected(self, small_sched, stride):
        x = np.zeros((1, 4, 4))
        with pytest.raises(ContractViolation, match="stride"):
            ddim_reverse_chain(x, 0, 10, zero_denoiser, small_sched, stride)
        with pytest.raises(ContractViolation, match="stride"):
            ddim_denoise_chain(x, 10, 0, zero_denoiser, small_sched, stride)

    def test_numpy_integer_stride_equals_python_int(self, small_sched):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((1, 4, 4))
        den = make_const_denoiser(rng.standard_normal((1, 4, 4)))
        for stride in (np.int32(5), np.int64(5), np.uint8(5)):
            assert np.array_equal(ddim_reverse_chain(x, 0, 10, den, small_sched, stride),
                                  ddim_reverse_chain(x, 0, 10, den, small_sched, 5))
            assert np.array_equal(ddim_denoise_chain(x, 10, 0, den, small_sched, stride),
                                  ddim_denoise_chain(x, 10, 0, den, small_sched, 5))

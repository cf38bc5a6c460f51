import numpy as np
import pytest

from freqmia.denoiser import (
    ToyDenoiser,
    TrainingConfig,
    batch_loss_and_grads,
    load_denoiser,
    save_denoiser,
    timestep_embedding,
    train_toy_denoiser,
)
from freqmia.diffusion import linear_schedule, q_sample
from freqmia.errors import ConfigurationError, ContractViolation, IngestionError, TrainingError
from freqmia.seeding import derive_rng


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(50, 1e-3, 0.05)


def smooth_images(n, size, seed):
    """Band-limited random images in [-1, 1], cheap stand-ins for data."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, 1, size, size))
    spec = np.fft.fft2(base, axes=(-2, -1))
    freq = np.hypot(*np.meshgrid(np.fft.fftfreq(size), np.fft.fftfreq(size), indexing="ij"))
    spec *= 1.0 / (1.0 + (freq * size) ** 2)
    img = np.fft.ifft2(spec, axes=(-2, -1)).real
    return img / np.max(np.abs(img), axis=(-2, -1), keepdims=True)


def mean_loss(den, images, sched, timesteps, seed):
    """Mean denoising MSE over images x timesteps; the noise for (image i,
    timestep t) depends only on the seed and the pair, so member and
    hold-out sets are compared at matched conditions."""
    losses = []
    for i, x0 in enumerate(np.asarray(images, dtype=np.float64)):
        for t in timesteps:
            eps = derive_rng(seed, "eval-eps", str(i), str(int(t))).standard_normal(x0.shape)
            losses.append(np.mean((den(q_sample(x0, t, eps, sched), int(t)) - eps) ** 2))
    return float(np.mean(losses))


class TestEmbedding:
    def test_shape_and_range(self):
        emb = timestep_embedding(np.array([0.0, 5.0, 999.0]), 16)
        assert emb.shape == (3, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_t_zero_is_sin_zero_cos_one(self):
        emb = timestep_embedding(0.0, 8)
        assert np.allclose(emb[:4], 0.0)
        assert np.allclose(emb[4:], 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            timestep_embedding(0.0, 7)


class TestToyDenoiser:
    def test_output_shape_matches_input(self, sched):
        den = ToyDenoiser.initialize((1, 8, 8), (32,), 8, sched.T, seed=0)
        out = den(np.zeros((1, 8, 8)), 3)
        assert out.shape == (1, 8, 8)
        assert np.all(np.isfinite(out))

    def test_deterministic_given_weights(self, sched):
        den = ToyDenoiser.initialize((1, 8, 8), (32,), 8, sched.T, seed=0)
        x = np.random.default_rng(1).standard_normal((1, 8, 8))
        assert np.array_equal(den(x, 3), den(x, 3))

    def test_parameter_count_reported(self):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        # (16+4)x10 + 10 + 10x16 + 16
        assert den.num_parameters == 20 * 10 + 10 + 10 * 16 + 16

    def test_wrong_input_shape_rejected(self):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        with pytest.raises(ContractViolation):
            den(np.zeros((1, 5, 5)), 0)

    def test_batch_loss_matches_simple_loss(self, sched):
        rng = np.random.default_rng(2)
        den = ToyDenoiser.initialize((1, 4, 4), (16,), 4, sched.T, seed=3)
        x0 = rng.standard_normal((1, 1, 4, 4))
        eps = rng.standard_normal((1, 1, 4, 4))
        loss, _, _ = batch_loss_and_grads(den, x0, [7], eps, sched)
        eps_hat = den(q_sample(x0[0], 7, eps[0], sched), 7)
        assert loss == pytest.approx(np.mean((eps[0] - eps_hat) ** 2), abs=1e-12)


class TestGradients:
    def test_backprop_matches_central_differences(self, sched):
        rng = np.random.default_rng(4)
        den = ToyDenoiser.initialize((1, 4, 4), (12,), 4, sched.T, seed=5)
        x0 = rng.standard_normal((4, 1, 4, 4))
        eps = rng.standard_normal((4, 1, 4, 4))
        t = rng.integers(0, sched.T, size=4)
        _, w_grads, b_grads = batch_loss_and_grads(den, x0, t, eps, sched)

        step = 1e-5
        checked = 0
        for layer in range(len(den.weights)):
            flat_w = den.weights[layer].ravel()
            for idx in rng.choice(flat_w.size, size=5, replace=False):
                original = flat_w[idx]
                flat_w[idx] = original + step
                up, _, _ = batch_loss_and_grads(den, x0, t, eps, sched)
                flat_w[idx] = original - step
                down, _, _ = batch_loss_and_grads(den, x0, t, eps, sched)
                flat_w[idx] = original
                fd = (up - down) / (2 * step)
                an = w_grads[layer].ravel()[idx]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4
                checked += 1
        assert checked == 10

    def test_bias_gradients_match_finite_differences(self, sched):
        rng = np.random.default_rng(6)
        den = ToyDenoiser.initialize((1, 4, 4), (12,), 4, sched.T, seed=7)
        x0 = rng.standard_normal((3, 1, 4, 4))
        eps = rng.standard_normal((3, 1, 4, 4))
        t = rng.integers(0, sched.T, size=3)
        _, _, b_grads = batch_loss_and_grads(den, x0, t, eps, sched)
        step = 1e-5
        for layer in range(len(den.biases)):
            idx = int(rng.integers(den.biases[layer].size))
            original = den.biases[layer][idx]
            den.biases[layer][idx] = original + step
            up, _, _ = batch_loss_and_grads(den, x0, t, eps, sched)
            den.biases[layer][idx] = original - step
            down, _, _ = batch_loss_and_grads(den, x0, t, eps, sched)
            den.biases[layer][idx] = original
            fd = (up - down) / (2 * step)
            assert abs(fd - b_grads[layer][idx]) / max(abs(fd), 1e-8) < 1e-4


class TestTraining:
    def test_single_sample_overfits(self, sched):
        images = smooth_images(1, 8, seed=10)
        holdout = smooth_images(1, 8, seed=11)
        config = TrainingConfig(epochs=4000, batch_size=1, learning_rate=0.005, seed=1)
        den, trace = train_toy_denoiser(images, config, sched, hidden_sizes=(128,), emb_dim=8)
        timesteps = [2, 5, 10, 20, 40]
        member_loss = mean_loss(den, images, sched, timesteps, seed=99)
        holdout_loss = mean_loss(den, holdout, sched, timesteps, seed=99)
        assert member_loss < 0.5 * holdout_loss
        assert trace[-1] < trace[0]

    def test_zero_epochs_has_no_membership_signal(self, sched):
        timesteps = [2, 5, 10, 20, 40]
        diffs = []
        for seed in range(6):
            members = smooth_images(4, 8, seed=100 + seed)
            holdout = smooth_images(4, 8, seed=200 + seed)
            config = TrainingConfig(epochs=0, batch_size=4, learning_rate=0.05, seed=seed)
            den, trace = train_toy_denoiser(members, config, sched, hidden_sizes=(32,), emb_dim=8)
            assert trace == []
            member_loss = mean_loss(den, members, sched, timesteps, seed=7)
            holdout_loss = mean_loss(den, holdout, sched, timesteps, seed=7)
            diffs.append(member_loss - holdout_loss)
        diffs = np.asarray(diffs)
        se = np.std(diffs, ddof=1) / np.sqrt(len(diffs))
        assert abs(np.mean(diffs)) < 3 * se

    def test_zero_learning_rate_leaves_weights_unchanged(self, sched):
        images = smooth_images(2, 8, seed=12)
        config = TrainingConfig(epochs=3, batch_size=2, learning_rate=0.0, seed=2)
        den, _ = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        fresh = ToyDenoiser.initialize((1, 8, 8), (16,), 8, sched.T, seed=config.seed)
        for got, expected in zip(den.weights, fresh.weights):
            assert np.array_equal(got, expected)

    def test_training_is_reproducible(self, sched):
        images = smooth_images(3, 8, seed=13)
        config = TrainingConfig(epochs=5, batch_size=2, learning_rate=0.05, seed=3)
        den_a, trace_a = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        den_b, trace_b = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        assert trace_a == trace_b
        for wa, wb in zip(den_a.weights, den_b.weights):
            assert np.array_equal(wa, wb)

    def test_divergence_raises_with_epoch_index(self, sched):
        images = smooth_images(2, 8, seed=14)
        config = TrainingConfig(epochs=50, batch_size=2, learning_rate=1e12, seed=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)

    def test_empty_dataset_rejected(self, sched):
        config = TrainingConfig(epochs=1, batch_size=1, learning_rate=0.1, seed=0)
        with pytest.raises(ConfigurationError):
            train_toy_denoiser(np.zeros((0, 1, 8, 8)), config, sched)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=-1, batch_size=1, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=1, batch_size=0, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=1, batch_size=1, learning_rate=0.1, momentum=1.0)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, sched, tmp_path):
        den = ToyDenoiser.initialize((1, 8, 8), (32, 16), 8, sched.T, seed=8)
        path = tmp_path / "model.fmia"
        save_denoiser(den, path)
        loaded = load_denoiser(path)
        assert loaded.T == den.T
        assert loaded.image_shape == den.image_shape
        assert loaded.emb_dim == den.emb_dim
        for wa, wb in zip(den.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        x = np.random.default_rng(9).standard_normal((1, 8, 8))
        assert np.array_equal(den(x, 5), loaded(x, 5))

    def test_header_layout(self, sched, tmp_path):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, sched.T, seed=8)
        path = tmp_path / "model.fmia"
        save_denoiser(den, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FMIA"
        n_floats = den.num_parameters
        sizes = den.layer_sizes
        assert len(blob) == 4 + 7 * 4 + len(sizes) * 4 + 8 * n_floats

    @pytest.mark.parametrize("keep", [10, 40, -8])
    def test_truncated_file_rejected(self, sched, tmp_path, keep):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, sched.T, seed=8)
        path = tmp_path / "model.fmia"
        save_denoiser(den, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(IngestionError, match="model.fmia"):
            load_denoiser(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.fmia"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            load_denoiser(path)

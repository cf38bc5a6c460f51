import struct

import numpy as np
import pytest

from freqmia.denoiser import (
    ToyDenoiser,
    TrainingConfig,
    _embedding_table,
    batch_loss_and_grads,
    layer_views,
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


def per_layer_momentum_train(images, config, sched, hidden_sizes, emb_dim):
    """Reference for train_toy_denoiser: the float32 SGD loop with one
    weight array, bias array and velocity per layer, updated out of place,
    as the denoiser trained before its parameters became one vector."""
    den = ToyDenoiser.initialize(images.shape[1:], hidden_sizes, emb_dim, sched.T,
                                 config.seed).astype(np.float32)
    images = images.astype(np.float32).reshape(len(images), -1)
    weights = [w.copy() for w in den.weights]
    biases = [b.copy() for b in den.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    rng = derive_rng(config.seed, "denoiser-train")
    flat_dim = int(np.prod(images.shape[1:]))
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(len(images))
        losses = []
        for start in range(0, len(images), config.batch_size):
            idx = order[start:start + config.batch_size]
            t = rng.integers(0, sched.T, size=len(idx))
            eps = rng.standard_normal((len(idx), flat_dim), dtype=np.float32)
            for view, own in zip(den.weights + den.biases, weights + biases):
                view[...] = own
            loss, grad = batch_loss_and_grads(den, images[idx], t, eps, sched)
            w_grads, b_grads = layer_views(grad, den.layer_sizes)
            for i in range(len(weights)):
                vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * w_grads[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * b_grads[i]
                weights[i] += vel_w[i]
                biases[i] += vel_b[i]
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    params = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return params.astype(np.float64), trace


def per_step_root_and_embedding_train(images, config, sched, hidden_sizes, emb_dim):
    """Reference for train_toy_denoiser: the float32 SGD loop with the
    noising roots and the timestep embedding computed afresh in float64 on
    every step and then cast, as the denoiser trained before it read them
    from precomputed tables."""
    den = ToyDenoiser.initialize(images.shape[1:], hidden_sizes, emb_dim, sched.T,
                                 config.seed).astype(np.float32)
    images = images.astype(np.float32)
    rng = derive_rng(config.seed, "denoiser-train")
    vel = np.zeros_like(den.params)
    flat_dim = int(np.prod(images.shape[1:]))
    for _ in range(config.epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), config.batch_size):
            idx = order[start:start + config.batch_size]
            t = rng.integers(0, sched.T, size=len(idx))
            eps = rng.standard_normal((len(idx), flat_dim), dtype=np.float32)
            abar = sched.alpha_bar[t][:, None]
            x_t = (np.sqrt(abar).astype(np.float32) * images[idx].reshape(len(idx), -1)
                   + np.sqrt(1.0 - abar).astype(np.float32) * eps)
            emb = timestep_embedding(t.astype(np.float64), emb_dim).astype(np.float32)
            acts = den._forward_batch(np.concatenate([x_t, emb], axis=1))
            grad = np.empty_like(den.params)
            w_grads, b_grads = layer_views(grad, den.layer_sizes)
            diff = acts[-1] - eps
            delta = 2.0 * diff / diff.size
            for i in range(len(den.weights) - 1, -1, -1):
                w_grads[i][...] = delta.T @ acts[i]
                b_grads[i][...] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ den.weights[i]) * (1.0 - acts[i] ** 2)
            vel *= config.momentum
            vel -= config.learning_rate * grad
            den.params += vel
    return den.params.astype(np.float64)


def out_of_place_forward(den, inputs):
    """Reference for ToyDenoiser._forward_batch: ``h @ w.T + b`` and an out
    of place tanh per layer, as the forward pass ran before its matmuls
    were turned and its activations formed in place."""
    acts = [inputs]
    h = inputs
    last = len(den.weights) - 1
    for i, (w, b) in enumerate(zip(den.weights, den.biases)):
        z = h @ w.T + b
        h = z if i == last else np.tanh(z)
        acts.append(h)
    return acts


def out_of_place_loss_and_grads(den, x0_batch, t_batch, eps_batch, sched):
    """Reference for batch_loss_and_grads: inputs built by concatenation,
    the gradient formed by temporaries and copied into the flat vector, as
    the backward pass ran before it wrote in place."""
    dtype = den.params.dtype
    x0 = np.asarray(x0_batch, dtype=dtype).reshape(len(x0_batch), -1)
    eps = np.asarray(eps_batch, dtype=dtype).reshape(len(eps_batch), -1)
    t = np.asarray(t_batch)
    x_t = (sched.sqrt_abar[t].astype(dtype, copy=False)[:, None] * x0
           + sched.sqrt_one_minus_abar[t].astype(dtype, copy=False)[:, None] * eps)
    inputs = np.concatenate([x_t, _embedding_table(den.T, den.emb_dim, dtype)[t]], axis=1)
    acts = out_of_place_forward(den, inputs)
    diff = acts[-1] - eps
    loss = float(np.mean(diff**2, dtype=np.float64))
    grad = np.empty_like(den.params)
    w_grads, b_grads = layer_views(grad, den.layer_sizes)
    delta = 2.0 * diff / diff.size
    for i in range(len(den.weights) - 1, -1, -1):
        w_grads[i][...] = delta.T @ acts[i]
        b_grads[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ den.weights[i]) * (1.0 - acts[i] ** 2)
    return loss, grad


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

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_table_rows_match_per_call_embedding(self, dim):
        for dtype in (np.dtype(np.float64), np.dtype(np.float32)):
            table = _embedding_table(1000, dim, dtype)
            assert table.shape == (1000, dim) and table.dtype == dtype
            assert not table.flags.writeable
            for t in range(1000):
                assert np.array_equal(table[t], timestep_embedding(t, dim).astype(dtype))


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
        assert den.params.size == 20 * 10 + 10 + 10 * 16 + 16

    def test_layer_views_follow_fmia_order(self):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        weights, biases = layer_views(np.arange(float(den.params.size)), den.layer_sizes)
        assert [w.shape for w in weights] == [(10, 20), (16, 10)]
        assert weights[0][1, 0] == 20 and biases[0][0] == 200
        assert weights[1][0, 0] == 210 and biases[1][-1] == den.params.size - 1
        den.params[:] = np.arange(float(den.params.size))
        for got, expected in zip(den.weights + den.biases, weights + biases):
            assert np.array_equal(got, expected)

    def test_params_not_matching_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match="layer sizes"):
            ToyDenoiser(np.zeros(385), [20, 10, 16], (1, 4, 4), 4, 50)

    @pytest.mark.parametrize("t", [-1, 50, 2.5, 3.0, True])
    def test_timestep_outside_contract_rejected(self, sched, t):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        with pytest.raises(ContractViolation, match="timestep"):
            den(np.zeros((1, 4, 4)), t)
        with pytest.raises(ContractViolation, match="timestep"):
            den.predict_batch(np.zeros((1, 16)), np.array([t]))
        x0 = np.zeros((2, 1, 4, 4))
        with pytest.raises(ContractViolation, match="timestep"):
            batch_loss_and_grads(den, x0, np.array([t, t]), x0, sched)

    def test_numpy_integer_timesteps_accepted(self):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        x = np.random.default_rng(4).standard_normal((1, 4, 4))
        assert np.array_equal(den(x, np.int32(49)), den(x, 49))
        row = den.predict_batch(x.reshape(1, -1), np.array([49], dtype=np.uint16))
        assert np.array_equal(row, den(x, 49).reshape(1, -1))

    def test_embedding_table_not_built_at_construction(self):
        # a T as large as a malformed FMIA header can carry must not allocate
        ToyDenoiser.initialize((1, 4, 4), (10,), 4, 2**32 - 1, seed=0)

    def test_wrong_input_shape_rejected(self):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, 50, seed=0)
        with pytest.raises(ContractViolation):
            den(np.zeros((1, 5, 5)), 0)

    def test_batch_loss_matches_simple_loss(self, sched):
        rng = np.random.default_rng(2)
        den = ToyDenoiser.initialize((1, 4, 4), (16,), 4, sched.T, seed=3)
        x0 = rng.standard_normal((1, 1, 4, 4))
        eps = rng.standard_normal((1, 1, 4, 4))
        loss, _ = batch_loss_and_grads(den, x0, [7], eps, sched)
        eps_hat = den(q_sample(x0[0], 7, eps[0], sched), 7)
        assert loss == pytest.approx(np.mean((eps[0] - eps_hat) ** 2), abs=1e-12)


class TestGradients:
    def test_backprop_matches_central_differences(self, sched):
        rng = np.random.default_rng(4)
        den = ToyDenoiser.initialize((1, 4, 4), (12,), 4, sched.T, seed=5)
        x0 = rng.standard_normal((4, 1, 4, 4))
        eps = rng.standard_normal((4, 1, 4, 4))
        t = rng.integers(0, sched.T, size=4)
        _, grad = batch_loss_and_grads(den, x0, t, eps, sched)
        w_grads, _ = layer_views(grad, den.layer_sizes)

        step = 1e-5
        checked = 0
        for layer in range(len(den.weights)):
            flat_w = den.weights[layer].ravel()
            for idx in rng.choice(flat_w.size, size=5, replace=False):
                original = flat_w[idx]
                flat_w[idx] = original + step
                up, _ = batch_loss_and_grads(den, x0, t, eps, sched)
                flat_w[idx] = original - step
                down, _ = batch_loss_and_grads(den, x0, t, eps, sched)
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
        _, grad = batch_loss_and_grads(den, x0, t, eps, sched)
        _, b_grads = layer_views(grad, den.layer_sizes)
        step = 1e-5
        for layer in range(len(den.biases)):
            idx = int(rng.integers(den.biases[layer].size))
            original = den.biases[layer][idx]
            den.biases[layer][idx] = original + step
            up, _ = batch_loss_and_grads(den, x0, t, eps, sched)
            den.biases[layer][idx] = original - step
            down, _ = batch_loss_and_grads(den, x0, t, eps, sched)
            den.biases[layer][idx] = original
            fd = (up - down) / (2 * step)
            assert abs(fd - b_grads[layer][idx]) / max(abs(fd), 1e-8) < 1e-4

    def test_float64_model_computes_in_float64(self, sched):
        rng = np.random.default_rng(8)
        den = ToyDenoiser.initialize((1, 4, 4), (12,), 4, sched.T, seed=9)
        x0 = rng.standard_normal((3, 1, 4, 4)).astype(np.float32)
        eps = rng.standard_normal((3, 1, 4, 4)).astype(np.float32)
        loss, grad = batch_loss_and_grads(den, x0, rng.integers(0, sched.T, size=3), eps, sched)
        assert den.params.dtype == np.float64 and grad.dtype == np.float64
        assert type(loss) is float

    def test_float32_gradient_matches_float64(self, sched):
        rng = np.random.default_rng(10)
        den32 = ToyDenoiser.initialize((1, 8, 8), (32, 16), 8, sched.T, seed=11).astype(np.float32)
        den64 = den32.astype(np.float64)  # the same weights, computed in float64
        x0 = rng.uniform(-1.0, 1.0, (6, 1, 8, 8)).astype(np.float32)
        eps = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        t = rng.integers(0, sched.T, size=6)
        loss32, grad32 = batch_loss_and_grads(den32, x0, t, eps, sched)
        loss64, grad64 = batch_loss_and_grads(den64, x0, t, eps, sched)
        assert grad32.dtype == np.float32 and den32.params.dtype == np.float32
        # float32 round-off (6e-8) grown over a few hundred summed terms
        assert np.linalg.norm(grad32 - grad64) / np.linalg.norm(grad64) < 1e-5
        assert loss32 == pytest.approx(loss64, rel=1e-5)


class TestInPlaceStepIsBitwise:
    """The forward and backward passes match their out-of-place references
    byte for byte, at the default shapes (16x16, embedding 16) and at the
    batch sizes where OpenBLAS picks different kernels."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [(256,), (64, 32)])
    @pytest.mark.parametrize("batch", [1, 7, 8, 32])
    def test_loss_and_gradient_bytes(self, std_sched, dtype, hidden, batch):
        den = ToyDenoiser.initialize((1, 16, 16), hidden, 16, std_sched.T, seed=21).astype(dtype)
        rng = np.random.default_rng(batch)
        for _ in range(3):
            x0 = rng.uniform(-1.0, 1.0, (batch, 1, 16, 16)).astype(dtype)
            eps = rng.standard_normal((batch, 1, 16, 16)).astype(dtype)
            t = rng.integers(0, std_sched.T, size=batch)
            loss, grad = batch_loss_and_grads(den, x0, t, eps, std_sched)
            want_loss, want_grad = out_of_place_loss_and_grads(den, x0, t, eps, std_sched)
            assert loss == want_loss
            assert grad.dtype == want_grad.dtype and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("hidden", [(256,), (64, 32)])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_prediction_bytes(self, std_sched, hidden, batch):
        den = ToyDenoiser.initialize((1, 16, 16), hidden, 16, std_sched.T, seed=22)
        rng = np.random.default_rng(batch)
        x = rng.uniform(-1.0, 1.0, (batch, 256))
        t = rng.integers(0, std_sched.T, size=batch)
        emb = _embedding_table(den.T, den.emb_dim, np.dtype(np.float64))[t]
        inputs = np.concatenate([x, emb], axis=1)
        want = out_of_place_forward(den, inputs)[-1]
        assert den.predict_batch(x, t).tobytes() == want.tobytes()
        for k, step in enumerate(t.tolist()):
            want_row = out_of_place_forward(den, inputs[k:k + 1])[-1]
            assert den(x[k].reshape(1, 16, 16), step).tobytes() == want_row.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arguments_and_params_not_written(self, std_sched, dtype):
        den = ToyDenoiser.initialize((1, 16, 16), (64, 32), 16, std_sched.T, seed=23).astype(dtype)
        rng = np.random.default_rng(24)
        x0 = rng.uniform(-1.0, 1.0, (7, 256)).astype(dtype)
        eps = rng.standard_normal((7, 256)).astype(dtype)
        t = rng.integers(0, std_sched.T, size=7)
        before = [a.tobytes() for a in (x0, t, eps, den.params)]
        batch_loss_and_grads(den, x0, t, eps, std_sched)
        assert [a.tobytes() for a in (x0, t, eps, den.params)] == before


class TestBatchContract:
    @pytest.fixture
    def den(self, sched):
        return ToyDenoiser.initialize((1, 4, 4), (10,), 4, sched.T, seed=0)

    def test_one_noise_row_for_many_images_rejected(self, den, sched):
        x0 = np.zeros((6, 1, 4, 4))
        with pytest.raises(ContractViolation, match="batch shapes"):
            batch_loss_and_grads(den, x0, np.arange(6), np.ones((1, 1, 4, 4)), sched)

    def test_one_timestep_for_many_images_rejected(self, den, sched):
        x0 = np.zeros((6, 1, 4, 4))
        with pytest.raises(ContractViolation, match="batch shapes"):
            batch_loss_and_grads(den, x0, [7], x0, sched)
        with pytest.raises(ContractViolation):
            batch_loss_and_grads(den, x0, 7, x0, sched)

    def test_noise_of_wrong_width_rejected(self, den, sched):
        x0 = np.zeros((2, 16))
        with pytest.raises(ContractViolation, match="batch shapes"):
            batch_loss_and_grads(den, x0, [1, 2], np.zeros((2, 15)), sched)
        with pytest.raises(ContractViolation, match="batch shapes"):
            batch_loss_and_grads(den, x0, [1, 2], np.zeros((2, 1, 4, 4)), sched)

    @pytest.mark.parametrize("shape", [(2, 1, 5, 5), (2, 15), (16,)])
    def test_image_size_not_matching_model_rejected(self, den, sched, shape):
        x0 = np.zeros(shape)
        with pytest.raises(ContractViolation, match="16 pixels"):
            batch_loss_and_grads(den, x0, np.arange(len(x0)), x0, sched)

    def test_scalar_batch_rejected(self, den, sched):
        with pytest.raises(ContractViolation, match="batch shapes"):
            batch_loss_and_grads(den, np.float64(0.5), [1], np.float64(0.5), sched)

    @pytest.mark.parametrize("shape", [(0, 1, 4, 4), (0, 16)])
    @pytest.mark.filterwarnings("error")
    def test_empty_batch_rejected(self, den, sched, shape):
        x0 = np.zeros(shape)
        with pytest.raises(ContractViolation, match="empty batch"):
            batch_loss_and_grads(den, x0, np.arange(0), x0, sched)

    def test_flat_and_image_shaped_batches_agree(self, den, sched):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((3, 1, 4, 4))
        eps = rng.standard_normal((3, 1, 4, 4))
        image = batch_loss_and_grads(den, x0, [1, 2, 3], eps, sched)
        flat = batch_loss_and_grads(den, x0.reshape(3, 16), [1, 2, 3], eps.reshape(3, 16), sched)
        assert image[0] == flat[0] and image[1].tobytes() == flat[1].tobytes()


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
        expected = fresh.astype(np.float32).astype(np.float64)
        assert den.params.tobytes() == expected.params.tobytes()

    def test_training_is_reproducible(self, sched):
        images = smooth_images(3, 8, seed=13)
        config = TrainingConfig(epochs=5, batch_size=2, learning_rate=0.05, seed=3)
        den_a, trace_a = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        den_b, trace_b = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        assert trace_a == trace_b
        for wa, wb in zip(den_a.weights, den_b.weights):
            assert np.array_equal(wa, wb)

    def test_matches_per_layer_momentum_reference(self, sched):
        images = smooth_images(5, 8, seed=15)
        config = TrainingConfig(epochs=3, batch_size=2, learning_rate=0.05, momentum=0.9, seed=6)
        den, trace = train_toy_denoiser(images, config, sched, hidden_sizes=(16, 12), emb_dim=8)
        ref_params, ref_trace = per_layer_momentum_train(images, config, sched, (16, 12), 8)
        assert den.params.tobytes() == ref_params.tobytes()
        assert trace == ref_trace

    def test_matches_per_step_root_and_embedding_reference(self, sched):
        images = smooth_images(5, 8, seed=16)
        config = TrainingConfig(epochs=3, batch_size=2, learning_rate=0.05, momentum=0.9, seed=7)
        den, _ = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        ref_params = per_step_root_and_embedding_train(images, config, sched, (16,), 8)
        assert den.params.tobytes() == ref_params.tobytes()

    def test_trained_params_are_float32_values(self, sched, tmp_path):
        images = smooth_images(3, 8, seed=17)
        config = TrainingConfig(epochs=4, batch_size=2, learning_rate=0.05, seed=8)
        den, _ = train_toy_denoiser(images, config, sched, hidden_sizes=(16,), emb_dim=8)
        assert den.params.dtype == np.float64
        assert np.array_equal(den.params, den.params.astype(np.float32).astype(np.float64))
        save_denoiser(den, tmp_path / "model.fmia")
        assert load_denoiser(tmp_path / "model.fmia").params.tobytes() == den.params.tobytes()

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
        n_floats = den.params.size
        sizes = den.layer_sizes
        assert len(blob) == 4 + 7 * 4 + len(sizes) * 4 + 8 * n_floats
        assert blob[-8 * n_floats:] == den.params.astype("<f8").tobytes()

    @pytest.mark.parametrize("keep", [10, 40, -8])
    def test_truncated_file_rejected(self, sched, tmp_path, keep):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, sched.T, seed=8)
        path = tmp_path / "model.fmia"
        save_denoiser(den, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(IngestionError, match="model.fmia"):
            load_denoiser(path)

    @pytest.mark.parametrize("bad, first", [
        ({0: np.nan}, "0 is not finite \\(nan\\)"),
        ({37: np.inf, 40: np.nan}, "37 is not finite \\(inf\\)"),
        ({385: -np.inf}, "385 is not finite \\(-inf\\)"),
    ], ids=["nan_first", "inf_before_nan", "minus_inf_last"])
    def test_non_finite_parameter_rejected(self, sched, tmp_path, bad, first):
        den = ToyDenoiser.initialize((1, 4, 4), (10,), 4, sched.T, seed=8)
        assert den.params.size == 386
        for index, value in bad.items():
            den.params[index] = value
        path = tmp_path / "model.fmia"
        save_denoiser(den, path)
        with pytest.raises(IngestionError, match=f"model.fmia: parameter {first}"):
            load_denoiser(path)

    def test_too_few_layer_sizes_rejected(self, tmp_path):
        path = tmp_path / "one_layer.fmia"
        path.write_bytes(b"FMIA" + struct.pack("<8I", 1, 50, 1, 4, 4, 4, 1, 20))
        with pytest.raises(ConfigurationError, match="layer sizes"):
            load_denoiser(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.fmia"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            load_denoiser(path)

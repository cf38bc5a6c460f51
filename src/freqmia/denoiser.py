"""A small fully-connected noise predictor trained with hand-rolled backprop.

The network maps a flattened image concatenated with a sinusoidal timestep
embedding through tanh hidden layers to a noise prediction of the image's
shape. It is deliberately tiny: the point is a denoiser that can be driven
into overfitting a small member set, deterministically, with no framework
dependence. Gradients are computed by manual backpropagation and the
optimizer is plain SGD with optional momentum.

Weight files ("FMIA" format, version 1) are flat little-endian binaries:

    magic b"FMIA" | u32 version | u32 T | u32 C | u32 H | u32 W
    | u32 emb_dim | u32 n_sizes | u32 sizes[n_sizes]
    | f64 weights...

where sizes lists the layer input/output widths (in, hidden..., out) and
the weights follow in declaration order: for each layer, the weight matrix
row-major, then the bias vector.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule
from .errors import ConfigurationError, ContractViolation, IngestionError, TrainingError
from .seeding import derive_rng

__all__ = [
    "TrainingConfig",
    "ToyDenoiser",
    "timestep_embedding",
    "batch_loss_and_grads",
    "train_toy_denoiser",
    "save_denoiser",
    "load_denoiser",
]

_MAGIC = b"FMIA"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for :func:`train_toy_denoiser`.

    The seed fixes the entire training trajectory (init, shuffling, timestep
    and noise draws). ``epochs = 0`` is allowed and yields an untrained
    (freshly initialized) model for no-signal controls.
    """

    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0.0:
            raise ConfigurationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")


def timestep_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps; dim must be even.

    Accepts a scalar or a 1-D array of timesteps and returns shape
    (..., dim) with sin halves first, then cos.
    """
    if dim % 2 != 0:
        raise ConfigurationError(f"embedding dim must be even, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


class ToyDenoiser:
    """Tanh MLP over (flattened image, timestep embedding) pairs.

    Satisfies the denoiser contract: calling an instance with an image of
    shape ``image_shape`` and an integer timestep returns a same-shaped
    noise prediction. Evaluation is read-only and thread-safe.
    """

    def __init__(self, weights, biases, image_shape, emb_dim: int, T: int):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.image_shape = tuple(int(d) for d in image_shape)
        self.emb_dim = int(emb_dim)
        self.T = int(T)
        pixels = int(np.prod(self.image_shape))
        if self.weights[0].shape[1] != pixels + self.emb_dim:
            raise ConfigurationError("first layer width does not match image + embedding size")
        if self.weights[-1].shape[0] != pixels:
            raise ConfigurationError("last layer width does not match image size")

    @classmethod
    def initialize(cls, image_shape, hidden_sizes, emb_dim: int, T: int, seed: int) -> "ToyDenoiser":
        """Xavier-scaled random initialization, deterministic in the seed."""
        pixels = int(np.prod(image_shape))
        sizes = [pixels + emb_dim, *hidden_sizes, pixels]
        rng = derive_rng(seed, "denoiser-init")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, image_shape, emb_dim, T)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def _forward_batch(self, inputs: np.ndarray) -> list[np.ndarray]:
        """Activations per layer for a (B, in) batch; last entry is the output."""
        acts = [inputs]
        h = inputs
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            h = z if i == last else np.tanh(z)
            acts.append(h)
        return acts

    def predict_batch(self, x_flat: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Noise predictions for flattened inputs (B, pixels) at timesteps (B,)."""
        emb = timestep_embedding(np.asarray(t, dtype=np.float64), self.emb_dim)
        return self._forward_batch(np.concatenate([x_flat, emb], axis=1))[-1]

    def __call__(self, x, t: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape:
            raise ContractViolation(f"input shape {x.shape} != model shape {self.image_shape}")
        out = self.predict_batch(x.reshape(1, -1), np.array([int(t)]))
        return out.reshape(self.image_shape)


def batch_loss_and_grads(den: ToyDenoiser, x0_batch, t_batch, eps_batch, sched: NoiseSchedule):
    """MSE loss on a noised batch and its gradients w.r.t. every parameter.

    Returns (loss, weight_grads, bias_grads). The loss is the mean squared
    error between the drawn and the predicted noise over all elements of
    the batch.
    """
    x0 = np.asarray(x0_batch, dtype=np.float64).reshape(len(x0_batch), -1)
    eps = np.asarray(eps_batch, dtype=np.float64).reshape(len(eps_batch), -1)
    t = np.asarray(t_batch, dtype=np.int64)
    abar = sched.alpha_bar[t][:, None]
    x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    inputs = np.concatenate([x_t, timestep_embedding(t.astype(np.float64), den.emb_dim)], axis=1)

    acts = den._forward_batch(inputs)
    pred = acts[-1]
    diff = pred - eps
    loss = float(np.mean(diff**2))

    w_grads = [np.zeros_like(w) for w in den.weights]
    b_grads = [np.zeros_like(b) for b in den.biases]
    delta = 2.0 * diff / diff.size
    for i in range(len(den.weights) - 1, -1, -1):
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ den.weights[i]) * (1.0 - acts[i] ** 2)
    return loss, w_grads, b_grads


def train_toy_denoiser(dataset, config: TrainingConfig, sched: NoiseSchedule,
                       hidden_sizes=(256,), emb_dim: int = 16):
    """Fit the toy denoiser to the member images by seeded SGD.

    Returns ``(denoiser, loss_trace)`` where the trace holds one mean batch
    loss per epoch. Two calls with the same arguments produce identical
    weights and traces. Raises :class:`TrainingError` with the epoch index
    if the loss stops being finite.
    """
    images = np.asarray(dataset, dtype=np.float64)
    if images.ndim < 3 or images.shape[0] == 0:
        raise ConfigurationError("dataset must be a nonempty array of images")
    n = images.shape[0]
    den = ToyDenoiser.initialize(images.shape[1:], hidden_sizes, emb_dim, sched.T, config.seed)
    rng = derive_rng(config.seed, "denoiser-train")
    vel_w = [np.zeros_like(w) for w in den.weights]
    vel_b = [np.zeros_like(b) for b in den.biases]
    flat_dim = int(np.prod(images.shape[1:]))

    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            t = rng.integers(0, sched.T, size=len(idx))
            eps = rng.standard_normal((len(idx), flat_dim))
            loss, w_grads, b_grads = batch_loss_and_grads(den, images[idx], t, eps, sched)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            for i in range(len(den.weights)):
                vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * w_grads[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * b_grads[i]
                den.weights[i] += vel_w[i]
                den.biases[i] += vel_b[i]
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return den, trace


def save_denoiser(den: ToyDenoiser, path) -> None:
    """Write the model in the flat FMIA v1 binary format."""
    sizes = den.layer_sizes
    c, h, w = (den.image_shape if len(den.image_shape) == 3
               else (1, *den.image_shape))
    header = _MAGIC + struct.pack(
        "<7I", _FORMAT_VERSION, den.T, c, h, w, den.emb_dim, len(sizes)
    ) + struct.pack(f"<{len(sizes)}I", *sizes)
    with open(path, "wb") as fh:
        fh.write(header)
        for weight, bias in zip(den.weights, den.biases):
            fh.write(weight.astype("<f8").tobytes(order="C"))
            fh.write(bias.astype("<f8").tobytes())


def load_denoiser(path) -> ToyDenoiser:
    """Read a model written by :func:`save_denoiser`.

    A file that is not FMIA v1 raises :class:`ConfigurationError`; one whose
    length does not match its header raises :class:`IngestionError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ConfigurationError(f"{path}: not an FMIA weight file")
    offset = 4 + 7 * 4
    if len(blob) < offset:
        raise IngestionError(f"{path}: truncated FMIA header ({len(blob)} bytes)")
    version, T, c, h, w, emb_dim, n_sizes = struct.unpack_from("<7I", blob, 4)
    if version != _FORMAT_VERSION:
        raise ConfigurationError(f"{path}: unsupported format version {version}")
    if len(blob) < offset + 4 * n_sizes:
        raise IngestionError(f"{path}: truncated FMIA header ({len(blob)} bytes)")
    sizes = struct.unpack_from(f"<{n_sizes}I", blob, offset)
    offset += n_sizes * 4
    expected = offset + 8 * sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(blob) != expected:
        raise IngestionError(f"{path}: {len(blob)} bytes, the header implies {expected}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weight = np.frombuffer(blob, dtype="<f8", count=fan_out * fan_in, offset=offset)
        offset += weight.nbytes
        bias = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        offset += bias.nbytes
        weights.append(weight.reshape(fan_out, fan_in).copy())
        biases.append(bias.copy())
    return ToyDenoiser(weights, biases, (c, h, w), emb_dim, T)

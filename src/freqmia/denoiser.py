"""A small fully-connected noise predictor trained with hand-rolled backprop.

The network maps a flattened image concatenated with a sinusoidal timestep
embedding through tanh hidden layers to a noise prediction of the image's
shape. It is deliberately tiny: the point is a denoiser that can be driven
into overfitting a small member set, deterministically, with no framework
dependence. Gradients are computed by manual backpropagation and the
optimizer is plain SGD with optional momentum. Training computes in float32
and returns float64 parameters; prediction and weight files are float64.

Weight files ("FMIA" format, version 1) are flat little-endian binaries:

    magic b"FMIA" | u32 version | u32 T | u32 C | u32 H | u32 W
    | u32 emb_dim | u32 n_sizes | u32 sizes[n_sizes]
    | f64 params...

where sizes lists the layer widths (in, hidden..., out) and the body is the
model's flat ``params``: W0 (sizes[1] x sizes[0], row-major), b0, W1, b1, and
so on. :func:`layer_views` is the only code that knows this layout.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diffusion import NoiseSchedule, check_timesteps
from .errors import ConfigurationError, ContractViolation, IngestionError, TrainingError
from .seeding import derive_rng

__all__ = [
    "TrainingConfig",
    "ToyDenoiser",
    "layer_views",
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


@lru_cache(maxsize=8)
def _embedding_table(T: int, dim: int, dtype) -> np.ndarray:
    """Read-only (T, dim) table whose row t is ``timestep_embedding(t, dim)``
    cast to ``dtype``."""
    table = timestep_embedding(np.arange(T), dim).astype(dtype, copy=False)
    table.flags.writeable = False
    return table


def _param_count(sizes) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def layer_views(flat: np.ndarray, sizes):
    """Per-layer ``(weights, biases)`` views into a flat parameter-shaped
    vector: for each layer, the (out, in) weight matrix row-major, then the
    bias. ``sizes`` lists the widths (in, hidden..., out)."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


class ToyDenoiser:
    """Tanh MLP over (flattened image, timestep embedding) pairs.

    Satisfies the denoiser contract: calling an instance with an image of
    shape ``image_shape`` and an integer timestep returns a same-shaped
    noise prediction. Evaluation is read-only and thread-safe. ``weights``
    and ``biases`` are views into the one parameter vector ``params``, which
    is float64, or float32 when given float32 (training's working copy).
    """

    def __init__(self, params, layer_sizes, image_shape, emb_dim: int, T: int):
        params = np.asarray(params)
        self.params = np.ascontiguousarray(
            params, dtype=np.float32 if params.dtype == np.float32 else np.float64)
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.image_shape = tuple(int(d) for d in image_shape)
        self.emb_dim = int(emb_dim)
        self.T = int(T)
        if len(self.layer_sizes) < 2 or self.params.shape != (_param_count(self.layer_sizes),):
            raise ConfigurationError(f"parameters do not fit layer sizes {self.layer_sizes}")
        pixels = int(np.prod(self.image_shape))
        if self.layer_sizes[0] != pixels + self.emb_dim:
            raise ConfigurationError("first layer width does not match image + embedding size")
        if self.layer_sizes[-1] != pixels:
            raise ConfigurationError("last layer width does not match image size")
        self.weights, self.biases = layer_views(self.params, self.layer_sizes)

    @classmethod
    def initialize(cls, image_shape, hidden_sizes, emb_dim: int, T: int, seed: int) -> "ToyDenoiser":
        """Xavier-scaled random weights and zero biases, deterministic in the seed."""
        pixels = int(np.prod(image_shape))
        sizes = [pixels + emb_dim, *hidden_sizes, pixels]
        rng = derive_rng(seed, "denoiser-init")
        params = np.zeros(_param_count(sizes))
        for weight in layer_views(params, sizes)[0]:
            weight[...] = rng.standard_normal(weight.shape) * np.sqrt(2.0 / sum(weight.shape))
        return cls(params, sizes, image_shape, emb_dim, T)

    def astype(self, dtype) -> "ToyDenoiser":
        """A copy of the model with its parameters cast to ``dtype``."""
        return ToyDenoiser(self.params.astype(dtype), self.layer_sizes, self.image_shape,
                           self.emb_dim, self.T)

    def _forward_batch(self, inputs: np.ndarray) -> list[np.ndarray]:
        """Activations per layer for a (B, in) batch, or one (in,) row; last
        entry is the output.

        Every activation is a fresh C-ordered array the caller owns.
        ``(w @ h.T).T`` is bitwise ``h @ w.T`` and the faster orientation for
        OpenBLAS at small B; the bias is added into a C-ordered array because
        reductions over the activations add in layout order.
        """
        acts = [inputs]
        h = inputs
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.add((w @ h.T).T, b, order="C")
            if i != last:
                np.tanh(h, out=h)
            acts.append(h)
        return acts

    def predict_batch(self, x_flat: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Noise predictions for flattened inputs (B, pixels) at integer
        timesteps (B,), each in ``[0, T)``."""
        t = check_timesteps(np.asarray(t), self.T)
        emb = _embedding_table(self.T, self.emb_dim, self.params.dtype)[t]
        return self._forward_batch(np.concatenate([x_flat, emb], axis=1))[-1]

    def __call__(self, x, t: int) -> np.ndarray:
        """The prediction for one image: bitwise ``predict_batch`` on the
        flattened image at ``[t]``, computed from one 1-D input row."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape:
            raise ContractViolation(f"input shape {x.shape} != model shape {self.image_shape}")
        t = check_timesteps(t, self.T)
        emb = _embedding_table(self.T, self.emb_dim, self.params.dtype)[t]
        row = np.concatenate((x.reshape(-1), emb))
        return self._forward_batch(row)[-1].reshape(self.image_shape)


def batch_loss_and_grads(den: ToyDenoiser, x0_batch, t_batch, eps_batch, sched: NoiseSchedule):
    """MSE loss on a noised batch and its gradients w.r.t. every parameter.

    Computes in the dtype of ``den.params``. Returns ``(loss, grad)``: the
    mean squared error between the drawn and the predicted noise over all
    elements of the batch, averaged in float64, and its gradient as one
    vector laid out like ``den.params``, in its dtype. Timesteps follow the
    contract of :meth:`ToyDenoiser.predict_batch`. The three batches must
    have one entry per sample and at least one sample, ``eps_batch`` the
    shape of ``x0_batch``, and each image the model's pixel count; otherwise
    :class:`ContractViolation`.
    No argument and no model parameter is written.
    """
    dtype = den.params.dtype
    x0 = np.asarray(x0_batch, dtype=dtype)
    eps = np.asarray(eps_batch, dtype=dtype)
    t = check_timesteps(np.asarray(t_batch), den.T)
    pixels = den.layer_sizes[-1]
    if x0.ndim == 0 or eps.shape != x0.shape or np.ndim(t) != 1 or len(t) != len(x0):
        raise ContractViolation(
            f"batch shapes do not match: x0 {x0.shape}, t {np.shape(t)}, eps {eps.shape}")
    if x0.size != len(x0) * pixels:
        raise ContractViolation(
            f"image shape {x0.shape[1:]} does not hold the model's {pixels} pixels")
    if not len(x0):
        raise ContractViolation("empty batch: the loss is a mean over at least one sample")
    x0 = x0.reshape(len(x0), pixels)
    eps = eps.reshape(len(eps), pixels)

    inputs = np.empty((len(x0), den.layer_sizes[0]), dtype)
    x_t = inputs[:, :pixels]
    np.multiply(sched.sqrt_abar[t].astype(dtype, copy=False)[:, None], x0, out=x_t)
    x_t += sched.sqrt_one_minus_abar[t].astype(dtype, copy=False)[:, None] * eps
    np.take(_embedding_table(den.T, den.emb_dim, dtype), t, axis=0, out=inputs[:, pixels:])

    acts = den._forward_batch(inputs)
    delta = np.subtract(acts[-1], eps, out=acts[-1])
    loss = float(np.mean(delta**2, dtype=np.float64))

    grad = np.empty_like(den.params)
    w_grads, b_grads = layer_views(grad, den.layer_sizes)
    delta *= 2.0
    delta /= delta.size
    for i in range(len(den.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=w_grads[i])
        np.sum(delta, axis=0, out=b_grads[i])
        if i > 0:
            slope = acts[i]  # 1 - a**2, formed in the activation this call owns
            slope *= slope
            np.subtract(1.0, slope, out=slope)
            delta = delta @ den.weights[i]
            delta *= slope
    return loss, grad


def train_toy_denoiser(dataset, config: TrainingConfig, sched: NoiseSchedule,
                       hidden_sizes=(256,), emb_dim: int = 16):
    """Fit the toy denoiser to the member images by seeded SGD.

    Returns ``(denoiser, loss_trace)`` where the trace holds one mean batch
    loss per epoch. Two calls with the same arguments produce identical
    weights and traces. The images, noise, parameters, velocity and
    gradients are float32; the returned model holds those parameters as
    float64. Raises :class:`TrainingError` with the epoch index if the loss
    stops being finite.
    """
    images = np.asarray(dataset, dtype=np.float32)
    if images.ndim < 3 or images.shape[0] == 0:
        raise ConfigurationError("dataset must be a nonempty array of images")
    n = images.shape[0]
    den = ToyDenoiser.initialize(images.shape[1:], hidden_sizes, emb_dim, sched.T,
                                 config.seed).astype(np.float32)
    rng = derive_rng(config.seed, "denoiser-train")
    vel = np.zeros_like(den.params)
    images = images.reshape(n, -1)

    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            t = rng.integers(0, sched.T, size=len(idx))
            eps = rng.standard_normal((len(idx), images.shape[1]), dtype=np.float32)
            loss, grad = batch_loss_and_grads(den, np.take(images, idx, axis=0), t, eps, sched)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            grad *= config.learning_rate
            vel *= config.momentum
            vel -= grad
            den.params += vel
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return den.astype(np.float64), trace


def save_denoiser(den: ToyDenoiser, path) -> None:
    """Write the model in the flat FMIA v1 binary format."""
    sizes = den.layer_sizes
    c, h, w = (den.image_shape if len(den.image_shape) == 3
               else (1, *den.image_shape))
    header = _MAGIC + struct.pack(
        "<7I", _FORMAT_VERSION, den.T, c, h, w, den.emb_dim, len(sizes)
    ) + struct.pack(f"<{len(sizes)}I", *sizes)
    with open(path, "wb") as fh:
        fh.write(header + den.params.astype("<f8").tobytes())


def load_denoiser(path) -> ToyDenoiser:
    """Read a model written by :func:`save_denoiser`.

    A file that is not FMIA v1 raises :class:`ConfigurationError`; one whose
    length does not match its header, or whose body holds a NaN or an
    infinity, raises :class:`IngestionError` (naming the first such
    parameter's index in ``params``).
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
    expected = offset + 8 * _param_count(sizes)
    if len(blob) != expected:
        raise IngestionError(f"{path}: {len(blob)} bytes, the header implies {expected}")
    params = np.frombuffer(blob, dtype="<f8", offset=offset).copy()
    finite = np.isfinite(params)
    if not finite.all():
        k = int(np.argmin(finite))
        raise IngestionError(f"{path}: parameter {k} is not finite ({float(params[k])})")
    return ToyDenoiser(params, sizes, (c, h, w), emb_dim, T)

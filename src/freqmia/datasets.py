"""Synthetic dataset generation and PGM directory ingestion.

Generators (all grayscale, values in [-1, 1], labels i.i.d. from one
distribution):

* ``power_law``: white noise shaped in the frequency domain with
  amplitude proportional to (1 + r)^(-gamma), DC zeroed, inverse
  transformed. gamma is drawn per sample from the configured range, so
  one dataset spans smooth and rough images.
* ``sharpened``: a power-law field pushed through a per-sample tanh
  contrast curve, tanh(a u) / tanh(a) with a drawn from [1, 10]. The
  nonlinearity creates harmonics, i.e. high-frequency content that is
  structurally tied to the low-frequency image layout (as in natural
  images) instead of having independent random phases.
* ``checkerboard_mix``: a smooth field plus a per-sample share of the
  alternating checkerboard, giving bimodal high-band energy.

External datasets enter through ``pgm_dir``: a directory of binary 8-bit
PGM (P5) files plus a ``manifest.csv`` mapping ``filename,membership``
per line.
"""

import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError
from .seeding import derive_rng
from .spectral import forward_dft, inverse_dft, radial_grid

__all__ = [
    "GENERATOR_KINDS",
    "LabeledSample",
    "DatasetSpec",
    "generate_dataset",
    "ingest_pgm_dir",
    "export_pgm_dir",
    "read_pgm",
    "write_pgm",
]

GENERATOR_KINDS = ("power_law", "sharpened", "checkerboard_mix", "pgm_dir")
MANIFEST_NAME = "manifest.csv"

# contrast exponent range of the sharpened generator; the upper end yields
# near-binary images whose harmonics fill the high band
SHARPEN_CONTRAST_RANGE = (1.0, 10.0)


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One image with its membership label (1 = member, 0 = hold-out)."""

    sample_id: str
    image: np.ndarray
    membership: int


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a labeled dataset.

    ``gamma_range`` bounds the per-sample spectral exponent and thereby
    the dataset's spread in high-frequency content. For ``pgm_dir`` the
    ``path`` points at the directory to ingest and the synthetic fields
    are ignored.
    """

    kind: str = "power_law"
    size: int = 16
    gamma_range: tuple = (0.5, 2.5)
    n_member: int = 200
    n_holdout: int = 200
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        if self.kind == "pgm_dir":
            if not self.path:
                raise ConfigurationError("pgm_dir dataset needs a path")
            return
        if self.size not in (8, 16, 32):
            raise ConfigurationError(f"image size must be 8, 16 or 32, got {self.size}")
        lo, hi = self.gamma_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigurationError(f"bad gamma range {self.gamma_range}")
        if self.n_member < 1 or self.n_holdout < 1:
            raise ConfigurationError("need at least one member and one hold-out sample")


def _normalize(img: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(img))
    return img if peak == 0.0 else img / peak


def _power_law_field(rng: np.random.Generator, size: int, gamma: float) -> np.ndarray:
    noise = rng.standard_normal((1, size, size))
    amplitude = (1.0 + radial_grid(size, size)) ** (-gamma)
    spec = forward_dft(noise) * amplitude
    spec[..., size // 2, size // 2] = 0.0  # zero-mean field
    return _normalize(inverse_dft(spec))


def _sharpened_field(rng: np.random.Generator, size: int, gamma: float) -> np.ndarray:
    base = _power_law_field(rng, size, gamma)
    contrast = rng.uniform(*SHARPEN_CONTRAST_RANGE)
    return _normalize(np.tanh(contrast * base) / np.tanh(contrast))


def _checkerboard_mix(rng: np.random.Generator, size: int) -> np.ndarray:
    smooth = _power_law_field(rng, size, gamma=2.0)
    checker = np.indices((size, size)).sum(axis=0) % 2 * 2.0 - 1.0
    weight = rng.uniform(0.0, 0.8)
    return _normalize((1.0 - weight) * smooth + weight * checker[None, :, :])


def generate_dataset(spec: DatasetSpec) -> list[LabeledSample]:
    """Deterministic labeled dataset per the spec; pgm_dir delegates to
    :func:`ingest_pgm_dir`."""
    if spec.kind == "pgm_dir":
        return ingest_pgm_dir(spec.path)
    samples = []
    total = spec.n_member + spec.n_holdout
    lo, hi = spec.gamma_range
    for i in range(total):
        sid = f"sample_{i:04d}"
        rng = derive_rng(spec.seed, "dataset", sid)
        if spec.kind == "power_law":
            image = _power_law_field(rng, spec.size, rng.uniform(lo, hi))
        elif spec.kind == "sharpened":
            image = _sharpened_field(rng, spec.size, rng.uniform(lo, hi))
        else:
            image = _checkerboard_mix(rng, spec.size)
        samples.append(LabeledSample(sid, image, 1 if i < spec.n_member else 0))
    return samples


def read_pgm(path) -> np.ndarray:
    """Parse a binary 8-bit PGM (P5) file into a (1, H, W) image in [-1, 1].

    A pixel p maps to 2 p / maxval - 1, so 0 reads as -1 and maxval as +1;
    a pixel above maxval raises :class:`IngestionError`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed, followed by a single whitespace byte
    tokens, pos = [], 0
    while len(tokens) < 4:
        match = re.match(rb"\s*(#[^\n]*\n)*\s*(\S+)", blob[pos:])
        if not match:
            raise IngestionError(f"{path}: truncated PGM header")
        tokens.append(match.group(2))
        pos += match.end()
    if tokens[0] != b"P5":
        raise IngestionError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise IngestionError(f"{path}: malformed PGM header") from exc
    if not 0 < maxval <= 255:
        raise IngestionError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    pos += 1  # single whitespace separating header from raster
    data = blob[pos:pos + width * height]
    if len(data) != width * height:
        raise IngestionError(f"{path}: raster has {len(data)} bytes, expected {width * height}")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if pixels.max(initial=0) > maxval:
        raise IngestionError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return 2.0 * pixels.astype(np.float64)[None, :, :] / maxval - 1.0


def write_pgm(path, image: np.ndarray) -> None:
    """Quantize an image in [-1, 1] to 8 bits and write it as P5."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise IngestionError(f"{path}: PGM export needs a single channel, got {arr.shape[0]}")
        arr = arr[0]
    pixels = np.clip(np.round((arr + 1.0) * 127.5), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def ingest_pgm_dir(path) -> list[LabeledSample]:
    """Load every manifest entry from a PGM directory.

    All images must share one resolution; any malformed file, missing
    or repeated entry, entry name the file system encoding cannot encode,
    or size mismatch raises :class:`IngestionError` naming the offender.
    """
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise IngestionError(f"{manifest}: manifest not found")
    samples = []
    shape = None
    listed = {}  # file name -> manifest line
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{manifest}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(f"{manifest}:{lineno}: expected 'filename,membership'")
        name, label = parts[0].strip(), parts[1].strip()
        if label not in ("0", "1"):
            raise IngestionError(f"{manifest}:{lineno}: membership must be 0 or 1, got {label!r}")
        if name in listed:
            raise IngestionError(f"{manifest}:{lineno}: {name!r} repeats line {listed[name]}")
        listed[name] = lineno
        try:
            os.fsencode(name)  # Path.is_file() would report such a name as missing
        except UnicodeEncodeError as exc:
            raise IngestionError(
                f"{manifest}:{lineno}: file name {name!r} cannot be encoded in the file system "
                f"encoding {sys.getfilesystemencoding()!r}") from exc
        file_path = root / name
        if not file_path.is_file():
            raise IngestionError(f"{manifest}:{lineno}: no such file {name!r}")
        image = read_pgm(file_path)
        if shape is None:
            shape = image.shape
        elif image.shape != shape:
            raise IngestionError(f"{file_path}: size {image.shape[1:]} differs from {shape[1:]}")
        samples.append(LabeledSample(name, image, int(label)))
    if not samples:
        raise IngestionError(f"{manifest}: no entries")
    return samples


def export_pgm_dir(samples, path) -> None:
    """Write samples as PGM files plus the manifest (inverse of ingestion
    up to 8-bit quantization)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for sample in samples:
        name = sample.sample_id if sample.sample_id.endswith(".pgm") else f"{sample.sample_id}.pgm"
        write_pgm(root / name, sample.image)
        lines.append(f"{name},{sample.membership}")
    with open(root / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

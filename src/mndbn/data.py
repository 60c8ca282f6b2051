"""Dataset ingestion: IDX image/label files, the USPS text layout, bilinear
resizing to the 28x28 frame, and seeded mini-batch iteration.

Pixels are kept as real values in [0, 1]; no binarization or other
preprocessing is applied.
"""
from __future__ import annotations

import gzip
import io
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .core import Rng
from .errors import DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
NUM_CLASSES = 10


@dataclass
class Dataset:
    """Labeled grayscale images, one flattened image per row."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        labels = np.asarray(self.labels)
        if self.images.ndim != 2:
            raise ValueError(f"images must be 2-D, got shape {self.images.shape}")
        if labels.shape != (len(self.images),):
            raise ValueError(f"need one label per image: labels of shape {labels.shape} "
                             f"for {len(self.images)} images")
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        integral = labels.dtype.kind in "iuf" and (labels == np.rint(labels)).all()
        if not integral or labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
            raise ValueError(f"labels must be integers in [0, {NUM_CLASSES})")
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, n: int) -> "Dataset":
        """First n samples, in stored order."""
        return Dataset(self.images[:n], self.labels[:n])


def _read(path) -> bytes:
    """The whole file, gunzipped when its name ends in .gz."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return gzip.decompress(raw) if str(path).endswith(".gz") else raw
    except (OSError, EOFError, zlib.error) as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """One IDX tensor of unsigned bytes: the big-endian magic, whose low
    byte is the axis count, one big-endian uint32 size per axis, then the
    payload. The promised size is checked against the bytes read before
    any array is made."""
    raw = _read(path)
    header = 4 * (1 + (magic & 0xFF))
    if len(raw) < header:
        raise DataError(f"{path}: truncated {what} header ({len(raw)} of {header} bytes)")
    found, *shape = struct.unpack(f">{header // 4}I", raw[:header])
    if found != magic:
        raise DataError(
            f"{path}: bad {what} magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})"
        )
    size = math.prod(shape)
    if size > len(raw) - header:
        raise DataError(
            f"{path}: truncated {what} payload at offset {len(raw)} "
            f"(expected {size} bytes, got {len(raw) - header})"
        )
    return np.frombuffer(raw, np.uint8, size, header).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Image files start with magic 0x00000803 then count, rows, cols and raw
    unsigned bytes; label files start with 0x00000801 then count and raw
    bytes. Pixels are scaled by 1/255. Mismatched magics, truncation, a
    count of 0, images of 0 rows or 0 columns, an image/label count mismatch
    or a label outside [0, 10) raise DataError naming the file.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label")
    count, rows, cols = images.shape
    if count == 0:
        raise DataError(f"{images_path}: no samples found")
    if rows * cols == 0:
        raise DataError(f"{images_path}: {rows}x{cols} images have no pixels")
    if labels.shape[0] != count:
        raise DataError(
            f"count mismatch: {images_path} has {count} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    if labels.max() >= NUM_CLASSES:
        raise DataError(f"{labels_path}: label {labels.max()} outside [0, {NUM_CLASSES})")
    images = images.reshape(count, rows * cols).astype(float) / 255.0
    return Dataset(images, labels.astype(np.int64))


def resize_bilinear(img, out_rows: int, out_cols: int) -> np.ndarray:
    """Bilinear resize with corner-aligned sampling, clamped to [0, 1].

    Output pixel (r, c) samples the input at
    (r * (in_rows - 1) / (out_rows - 1), c * (in_cols - 1) / (out_cols - 1)),
    so the four corners map exactly and constants stay constant. Resizing
    to the input size returns the image unchanged. img is one image or a
    stack of them over its last two axes; each image of a stack comes out
    bit for bit as it would alone.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim < 2:
        raise ValueError(f"image must be at least 2-D, got shape {img.shape}")
    in_rows, in_cols = img.shape[-2:]
    if (in_rows, in_cols) == (out_rows, out_cols):
        return img.copy()

    def positions(n_out, n_in):
        if n_out == 1:
            return np.zeros(1)
        return np.arange(n_out) * (n_in - 1) / (n_out - 1)

    rr = positions(out_rows, in_rows)
    cc = positions(out_cols, in_cols)
    r0 = np.minimum(np.floor(rr).astype(int), in_rows - 2) if in_rows > 1 else np.zeros(out_rows, int)
    c0 = np.minimum(np.floor(cc).astype(int), in_cols - 2) if in_cols > 1 else np.zeros(out_cols, int)
    fr = (rr - r0)[:, None]
    fc = (cc - c0)[None, :]
    r0, r1 = r0[:, None], np.minimum(r0 + 1, in_rows - 1)[:, None]
    c1 = np.minimum(c0 + 1, in_cols - 1)
    top = img[..., r0, c0] * (1 - fc) + img[..., r0, c1] * fc
    bot = img[..., r1, c0] * (1 - fc) + img[..., r1, c1] * fc
    out = top * (1 - fr) + bot * fr
    return np.clip(out, 0.0, 1.0)


def load_usps(path) -> Dataset:
    """Parse the USPS plain-text layout and resize to the 28x28 frame.

    Each line holds a class label followed by 256 grayscale values of a
    16x16 image in [-1, 1] (the standard distribution); values are mapped
    linearly to [0, 1]. Gzipped files are handled transparently. Malformed
    lines, non-finite values, and labels that are not integers in range
    raise DataError with the line number.
    """
    try:
        text = _read(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    rows, linenos = [], []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 257:
            raise DataError(
                f"{path}:{lineno}: expected label + 256 values, got {len(fields)} fields"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
        linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no samples found")
    values = np.array(rows)
    labels = values[:, 0]
    finite = np.isfinite(values).all(axis=1)
    integral = labels == np.rint(labels)
    bad = ~(finite & integral & (labels >= 0) & (labels < NUM_CLASSES))
    if bad.any():
        i = bad.argmax()
        if not finite[i]:
            problem = "non-finite value"
        elif not integral[i]:
            problem = f"label {labels[i]!r} is not an integer"
        else:
            problem = f"label outside [0, {NUM_CLASSES})"
        raise DataError(f"{path}:{linenos[i]}: {problem}")
    pixels = np.clip((values[:, 1:] + 1.0) / 2.0, 0.0, 1.0).reshape(-1, 16, 16)
    images = resize_bilinear(pixels, 28, 28).reshape(len(rows), -1)
    return Dataset(images, labels.astype(np.int64))


def shuffle_split(n: int, batch_size: int, rng: Rng) -> list[np.ndarray]:
    """Seeded random batch order over n samples for one epoch.

    Returns index arrays of length batch_size (the last batch keeps the
    remainder). Consecutive calls on the same stream give fresh
    permutations.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[lo : lo + batch_size] for lo in range(0, n, batch_size)]

"""Dataset ingestion: IDX image/label files, the USPS text layout, bilinear
resizing to the 28x28 frame, and seeded mini-batch iteration.

Pixels are kept as real values in [0, 1]; no binarization or other
preprocessing is applied.
"""
from __future__ import annotations

import gzip
import struct
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
    name: str = ""
    split: str = ""

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2:
            raise ValueError(f"images must be 2-D, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.images.shape[0]} images"
            )
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES):
            raise ValueError(f"labels must lie in [0, {NUM_CLASSES})")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, n: int) -> "Dataset":
        """First n samples, in stored order."""
        return Dataset(self.images[:n], self.labels[:n], self.name, self.split)


def _open_maybe_gzip(path):
    path = str(path)
    try:
        if path.endswith(".gz"):
            return gzip.open(path, "rb")
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open ({exc})") from exc


def _read_be32(fh, path, what):
    raw = fh.read(4)
    if len(raw) != 4:
        raise DataError(f"{path}: truncated while reading {what} at offset {fh.tell() - len(raw)}")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path, name: str = "idx", split: str = "") -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Image files start with magic 0x00000803 then count, rows, cols and raw
    unsigned bytes; label files start with 0x00000801 then count and raw
    bytes. Pixels are scaled by 1/255. Mismatched magics, truncation, or an
    image/label count mismatch raise DataError with the offending offset.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic = _read_be32(fh, images_path, "magic")
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(
                f"{images_path}: bad image magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{IDX_IMAGES_MAGIC:08x})"
            )
        count = _read_be32(fh, images_path, "count")
        rows = _read_be32(fh, images_path, "rows")
        cols = _read_be32(fh, images_path, "cols")
        payload = fh.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise DataError(
                f"{images_path}: truncated pixel payload at offset {16 + len(payload)} "
                f"(expected {count * rows * cols} bytes, got {len(payload)})"
            )
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    with _open_maybe_gzip(labels_path) as fh:
        magic = _read_be32(fh, labels_path, "magic")
        if magic != IDX_LABELS_MAGIC:
            raise DataError(
                f"{labels_path}: bad label magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{IDX_LABELS_MAGIC:08x})"
            )
        lab_count = _read_be32(fh, labels_path, "count")
        lab_payload = fh.read(lab_count)
        if len(lab_payload) != lab_count:
            raise DataError(
                f"{labels_path}: truncated label payload at offset {8 + len(lab_payload)}"
            )
    if lab_count != count:
        raise DataError(
            f"count mismatch: {images_path} has {count} images but "
            f"{labels_path} has {lab_count} labels"
        )
    labels = np.frombuffer(lab_payload, dtype=np.uint8).astype(np.int64)
    return Dataset(images.astype(float) / 255.0, labels, name=name, split=split)


def resize_bilinear(img, out_rows: int, out_cols: int) -> np.ndarray:
    """Bilinear resize with corner-aligned sampling, clamped to [0, 1].

    Output pixel (r, c) samples the input at
    (r * (in_rows - 1) / (out_rows - 1), c * (in_cols - 1) / (out_cols - 1)),
    so the four corners map exactly and constants stay constant. Resizing
    to the input size returns the image unchanged.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    in_rows, in_cols = img.shape
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
    r1 = np.minimum(r0 + 1, in_rows - 1)
    c1 = np.minimum(c0 + 1, in_cols - 1)
    top = img[np.ix_(r0, c0)] * (1 - fc) + img[np.ix_(r0, c1)] * fc
    bot = img[np.ix_(r1, c0)] * (1 - fc) + img[np.ix_(r1, c1)] * fc
    out = top * (1 - fr) + bot * fr
    return np.clip(out, 0.0, 1.0)


def load_usps(path, name: str = "usps", split: str = "", target_side: int = 28) -> Dataset:
    """Parse the USPS plain-text layout and resize to the 28x28 frame.

    Each line holds a class label followed by 256 grayscale values of a
    16x16 image in [-1, 1] (the standard distribution); values are mapped
    linearly to [0, 1]. Gzipped files are handled transparently. Malformed
    lines and out-of-range labels raise DataError with the line number.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    images = []
    labels = []
    try:
        fh = opener(path, "rt", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot open ({exc})") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 257:
                raise DataError(
                    f"{path}:{lineno}: expected label + 256 values, got {len(fields)} fields"
                )
            try:
                values = np.array([float(v) for v in fields], dtype=float)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
            label = int(round(values[0]))
            if not 0 <= label < NUM_CLASSES:
                raise DataError(f"{path}:{lineno}: label {label} outside [0, {NUM_CLASSES})")
            pixels = np.clip((values[1:] + 1.0) / 2.0, 0.0, 1.0).reshape(16, 16)
            resized = resize_bilinear(pixels, target_side, target_side)
            images.append(resized.ravel())
            labels.append(label)
    if not images:
        raise DataError(f"{path}: no samples found")
    return Dataset(np.array(images), np.array(labels), name=name, split=split)


def shuffle_split(data, batch_size: int, rng: Rng) -> list[np.ndarray]:
    """Seeded random batch order for one epoch.

    Accepts a Dataset, an image matrix, or a sample count. Returns index
    arrays of length batch_size (the last batch keeps the remainder).
    Consecutive calls on the same stream give fresh permutations.
    """
    if isinstance(data, (int, np.integer)):
        n = int(data)
    else:
        n = np.asarray(getattr(data, "images", data)).shape[0]
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[lo : lo + batch_size] for lo in range(0, n, batch_size)]

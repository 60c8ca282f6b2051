"""Deterministic synthetic digit-like dataset.

Ten smooth random prototypes are perturbed by small translations and pixel
noise, giving a labeled image corpus with the same shape contract as the
real digit sets. Useful for fast end-to-end runs where no data files are
available; everything is a pure function of the seed.
"""
from __future__ import annotations

import numpy as np

from .core import Rng, row_blocks
from .data import NUM_CLASSES, Dataset


def _box_blur(img: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap smoothing: average each pixel with its 4-neighborhood."""
    out = img
    for _ in range(passes):
        acc = out.copy()
        acc += np.roll(out, 1, axis=0)
        acc += np.roll(out, -1, axis=0)
        acc += np.roll(out, 1, axis=1)
        acc += np.roll(out, -1, axis=1)
        out = acc / 5.0
    return out


def _prototypes(side: int, rng: Rng) -> np.ndarray:
    """High-contrast class templates: thresholded smooth noise, soft edges."""
    protos = np.empty((NUM_CLASSES, side, side))
    for c in range(NUM_CLASSES):
        raw = rng.uniform((side, side))
        sm = _box_blur(raw, passes=2)
        mask = (sm > np.median(sm)).astype(float)
        protos[c] = _box_blur(mask, passes=1)
    return protos


def make_synthetic(
    n_train: int,
    n_test: int = 0,
    side: int = 8,
    seed: int = 0,
    noise: float = 0.1,
    max_shift: int = 1,
) -> tuple[Dataset, Dataset]:
    """Build a (train, test) pair of synthetic digit datasets.

    Each sample is a class prototype shifted by up to max_shift pixels in
    each axis (wrap-around) plus Gaussian pixel noise, clipped to [0, 1].
    Labels cycle through the 10 classes so every class is populated.

    Per image the stream gives the two shifts, then the noise. Only those
    draws run one image at a time; the shift, the sum and the clip run
    vectorised over blocks of images, with the same bytes as rolling,
    adding and clipping each image on its own.
    """
    if side < 4:
        raise ValueError(f"side must be >= 4, got {side}")
    if n_train < 1:
        raise ValueError("need at least one training sample")
    for name, value in (("n_test", n_test), ("noise", noise), ("max_shift", max_shift)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = Rng(seed)
    protos = _prototypes(side, rng)

    def draw(n):
        # One shape-2 integers call draws what two scalar calls drew. np.roll
        # is a copy and noise + prototype is the same IEEE sum as
        # prototype + noise, so the gather below gives the rolled bits.
        labels = np.arange(n, dtype=np.int64) % NUM_CLASSES
        shifts = np.empty((n, 2), dtype=np.int64)
        images = np.empty((n, side, side))
        for i in range(n):
            shifts[i] = rng.integers(-max_shift, max_shift + 1, shape=2)
            images[i] = rng.normal((side, side), std=noise)
        rows = (np.arange(side) - shifts[:, :1]) % side
        cols = (np.arange(side) - shifts[:, 1:]) % side
        for b in row_blocks(n, side * side):
            block = images[b]
            block += protos[labels[b, None, None], rows[b, :, None], cols[b, None, :]]
            np.clip(block, 0.0, 1.0, out=block)
        return Dataset(images.reshape(n, side * side), labels)

    return draw(n_train), draw(n_test)

"""Deterministic synthetic digit-like dataset.

Ten smooth random prototypes are perturbed by small translations and pixel
noise, giving a labeled image corpus with the same shape contract as the
real digit sets. Useful for fast end-to-end runs where no data files are
available; everything is a pure function of the seed.
"""
from __future__ import annotations

import numpy as np

from .core import Rng
from .data import Dataset


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
    protos = np.empty((10, side, side))
    for c in range(10):
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
    """
    if side < 4:
        raise ValueError(f"side must be >= 4, got {side}")
    if n_train < 1 or n_test < 0:
        raise ValueError("need at least one training sample")
    rng = Rng(seed)
    protos = _prototypes(side, rng)

    def draw(n, split):
        images = np.empty((n, side * side))
        labels = np.arange(n, dtype=np.int64) % 10
        for i in range(n):
            img = protos[labels[i]]
            dr = int(rng.integers(-max_shift, max_shift + 1))
            dc = int(rng.integers(-max_shift, max_shift + 1))
            img = np.roll(np.roll(img, dr, axis=0), dc, axis=1)
            img = img + rng.normal((side, side), std=noise)
            images[i] = np.clip(img, 0.0, 1.0).ravel()
        return Dataset(images, labels, name="synthetic", split=split)

    return draw(n_train, "train"), draw(n_test, "test")

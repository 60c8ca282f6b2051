"""Deterministic synthetic digit-like dataset.

Ten smooth random prototypes are perturbed by small translations and pixel
noise, giving a labeled image corpus with the same shape contract as the
real digit sets. Useful for fast end-to-end runs where no data files are
available; everything is a pure function of the seed.

The bytes are those of drawing, rolling, adding and clipping one image at a
time, but only the draws run per image, straight into the output:
- numpy's bounded integer draws take 32-bit halves from the bit
  generator's own buffer, so two scalar calls for an image's two shifts
  consume the stream as one shape-2 call would, at about half the cost;
- `normal(0, s)` computes `0 + s*z` per element, which differs from `s*z`
  only in the sign of a zero, and adding the non-negative prototype erases
  that difference. So standard normals written into the image's row and
  scaled by the noise level in the block pass give `normal`'s bytes.
"""
from __future__ import annotations

import numpy as np

from .core import Rng, require_ints, row_blocks
from .data import NUM_CLASSES, Dataset


def _box_blur(img: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap smoothing: average each pixel with its 4-neighborhood in the
    last two axes (wrap-around), so a stack of images blurs in one pass."""
    out = img
    for _ in range(passes):
        acc = out.copy()
        acc += np.roll(out, 1, axis=-2)
        acc += np.roll(out, -1, axis=-2)
        acc += np.roll(out, 1, axis=-1)
        acc += np.roll(out, -1, axis=-1)
        out = acc / 5.0
    return out


def _prototypes(side: int, rng: Rng) -> np.ndarray:
    """High-contrast class templates: thresholded smooth noise, soft edges.
    The ten (side, side) uniform draws come from one call, in class order."""
    sm = _box_blur(rng.uniform((NUM_CLASSES, side, side)), passes=2)
    mask = (sm > np.median(sm, axis=(1, 2), keepdims=True)).astype(float)
    return _box_blur(mask, passes=1)


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

    Per image the stream gives the row shift, the column shift, then the
    noise. Only those draws run one image at a time: two scalar integer
    calls, which consume what one shape-2 call would, and standard normals
    written straight into the image's output row. The scaling by noise,
    the shift, the sum and the clip run vectorised over blocks of images.
    The result has the bytes of rolling the prototype, adding
    `normal(std=noise)` draws and clipping each image on its own (see the
    module docstring for why).

    Integer settings must be integers (ConfigError naming the setting, as
    for the config objects); a value out of range, or a noise level that
    is negative or not finite, is a ValueError naming it.
    """
    require_ints(n_train=n_train, n_test=n_test, side=side, max_shift=max_shift)
    if side < 4:
        raise ValueError(f"side must be >= 4, got {side}")
    if n_train < 1:
        raise ValueError("need at least one training sample")
    for name, value in (("n_test", n_test), ("max_shift", max_shift)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not 0.0 <= noise < np.inf:  # negated, so NaN fails too
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = Rng(seed)
    protos = _prototypes(side, rng)

    def draw(n):
        labels = np.arange(n, dtype=np.int64) % NUM_CLASSES
        shifts = np.empty((n, 2), dtype=np.int64)
        images = np.empty((n, side, side))
        for i in range(n):
            shifts[i, 0] = rng.integers(-max_shift, max_shift + 1)
            shifts[i, 1] = rng.integers(-max_shift, max_shift + 1)
            rng.standard_normal(out=images[i])
        rows = (np.arange(side) - shifts[:, :1]) % side
        cols = (np.arange(side) - shifts[:, 1:]) % side
        for b in row_blocks(n, side * side):
            # np.roll is a copy, and noise + prototype is the same IEEE sum
            # as prototype + noise, so the gather gives the rolled bits.
            block = images[b]
            block *= noise
            block += protos[labels[b, None, None], rows[b, :, None], cols[b, None, :]]
            np.clip(block, 0.0, 1.0, out=block)
        return Dataset(images.reshape(n, side * side), labels)

    return draw(n_train), draw(n_test)

"""The logistic nonlinearity, seeded sampling, a finiteness check, and
the row blocking that bounds the size of temporaries.

Everything operates on float64 numpy arrays.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

SIGMOID_CLIP = 500.0

# Values per row block: a 512 KB float64 temporary stays in a typical L2
# cache (unblocked, `group_norms` on a 2000 x 2000 batch is about 2x slower).
_BLOCK_VALUES = 1 << 16

# Largest double strictly below 1; sigmoid output is capped here so that
# log(1 - p) and p * (1 - p) never degenerate.
_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))


def sigmoid(z, out=None):
    """Logistic function 1 / (1 + exp(-z)), strictly inside (0, 1).

    Inputs are clamped to [-500, 500] before exponentiation, which keeps the
    result finite without overflow; the top end is capped just below 1.0 at
    64-bit precision. Accepts scalars or arrays.

    Like a numpy ufunc, `out` names a float array shaped like z (z itself
    is allowed) that receives the result; every step then runs in place
    and no temporary is made. Without it z is left untouched and a new
    value is returned.
    """
    if out is None:
        out = z = np.array(z, dtype=float)
    np.clip(z, -SIGMOID_CLIP, SIGMOID_CLIP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.minimum(out, _ONE_BELOW_1, out=out)
    return out[()] if out.ndim == 0 else out


class Rng:
    """Seeded random stream with a hard reproducibility guarantee.

    The stream is fully specified by the seed (PCG64), so equal seeds give
    bit-identical draw sequences across runs. A stream is single-owner:
    never share one across threads; derive independent child streams with
    `spawn` for parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape=None):
        """Uniform draw(s) in [0, 1); consumes one draw per element."""
        if shape is None:
            return self._gen.random()
        return self._gen.random(shape)

    def normal(self, shape=None, std: float = 1.0):
        """Zero-mean Gaussian draw(s) with the given standard deviation."""
        return self._gen.normal(0.0, std, shape)

    def integers(self, low: int, high: int, shape=None):
        """Integer draw(s) in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int):
        """Random permutation of range(n)."""
        return self._gen.permutation(n)

    def spawn(self, index: int) -> "Rng":
        """Child stream determined only by (seed, index).

        Children are independent of each other and of any draws already
        consumed from this stream, so per-batch or per-layer work stays
        reproducible regardless of consumption order elsewhere.
        """
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._gen = np.random.Generator(np.random.PCG64(self.seed).jumped(index + 1))
        return child

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def sample_bernoulli(p, rng: Rng):
    """Draw 0/1 with success probability p; one RNG draw per element.

    Accepts a scalar probability (returns int) or an array (returns a float
    array of 0.0/1.0). Probabilities outside [0, 1], and NaN, are a
    contract violation and raise ValueError.
    """
    arr = np.asarray(p, dtype=float)
    # Negated so that NaN, which fails every comparison, is rejected too.
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(
            f"bernoulli probability outside [0, 1]: min={arr.min()}, max={arr.max()}"
        )
    if arr.ndim == 0:
        return int(rng.uniform() < float(arr))
    return (rng.uniform(arr.shape) < arr).astype(float)


def require_finite(name: str, arr) -> None:
    """Raise NumericError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values detected in {name}")


def row_blocks(n_rows: int, row_length: int) -> list:
    """Slices that cut n_rows rows into blocks of about _BLOCK_VALUES values.
    The block size only sizes temporaries; it changes no result's bits."""
    step = max(1, _BLOCK_VALUES // row_length)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]

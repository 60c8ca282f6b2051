"""The logistic nonlinearity, seeded sampling, finiteness, overflow and
integer checks, the row blocking that bounds temporaries, the worker lane
that runs independent work beside the caller, the atomic file replacement
every output goes through, and the one CSV writer.

Everything numeric operates on float64 numpy arrays.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError

SIGMOID_CLIP = 500.0

# Values per row block: a 512 KB float64 temporary stays in a typical L2
# cache (unblocked, the group norms of a 2000 x 2000 batch take about 2x as long).
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
        require_ints(seed=seed)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape=None, out=None):
        """Uniform draw(s) in [0, 1); consumes one draw per element. With
        `out` (a float array) the draws fill it in place, same stream."""
        return self._gen.random(shape, out=out)

    def normal(self, shape=None, std: float = 1.0):
        """Zero-mean Gaussian draw(s) with the given standard deviation."""
        return self._gen.normal(0.0, std, shape)

    def standard_normal(self, out):
        """Fill the float array `out` with standard Gaussian draws, in
        place; one draw per element, the draws `normal` scales."""
        return self._gen.standard_normal(out=out)

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


def sample_bernoulli(p, rng: Rng, out=None):
    """Draw 0/1 with success probability p; one RNG draw per element.

    Returns 0.0/1.0 floats shaped like p (a float for a scalar p). NaN and
    probabilities outside [0, 1] are a contract violation: ValueError.
    `out`, a float array shaped like p (not p itself), receives the draws
    and then the samples, from the same stream as without it.
    """
    arr = np.asarray(p, dtype=float)
    # Negated so that NaN, which fails every comparison, is rejected too.
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(
            f"bernoulli probability outside [0, 1]: min={arr.min()}, max={arr.max()}"
        )
    if out is None:
        out = np.empty(arr.shape)
    np.less(rng.uniform(out=out), arr, out=out)
    return out[()] if out.ndim == 0 else out


def require_finite(name: str, arr) -> None:
    """Raise NumericError if any entry is NaN or infinite. One pass, in
    blocks of _BLOCK_VALUES entries, so the bool temporary stays small."""
    flat = np.ravel(arr)
    for lo in range(0, flat.size, _BLOCK_VALUES):
        if not np.isfinite(flat[lo : lo + _BLOCK_VALUES]).all():
            raise NumericError(f"non-finite values detected in {name}")


def require_ints(**values) -> None:
    """ConfigError naming the first value that is not an integer. numpy
    integers pass; bools and floats, integral or not, do not."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@contextlib.contextmanager
def _overflow_raises(what: str):
    """Run the body with float overflow raised, as a NumericError naming
    `what`, instead of warned about and carried on as inf."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"overflow in {what}: {exc}") from exc


# One worker thread beside the caller. Its thread starts at the first
# `beside` call, not at import.
_LANE = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mndbn-lane")


def beside(fn, *args, **kwargs) -> Future:
    """Run fn(*args, **kwargs) on the worker lane, under the caller's numpy
    error state (which is per thread), and return its future. The caller
    joins with `result()`, which returns fn's value or re-raises its error,
    so an overflow under `_overflow_raises` is a NumericError here too.

    The lane is one thread, so its jobs run in the order given. Hand it
    only work independent of what the caller does until it joins: the
    gemms and ufuncs release the interpreter lock and run on the second
    core, each with its own shape and BLAS thread count, so every bit is
    what the caller would have computed. Lane work must not itself wait on
    the lane."""
    state = np.geterr()

    def run():
        with np.errstate(**state):
            return fn(*args, **kwargs)

    return _LANE.submit(run)


# A gemm goes to the lane only if it has this many multiply-adds (about
# 0.3 ms at one BLAS thread), since a hand-off to the lane and back takes
# 50-100 us: CD's positive statistic and a metrics block at 784x500 or
# 500x500 have 25-39 million, the 64x2000 layer's 4-13 million.
_LANE_MACS = 1 << 24


def matmul_beside(a, b, out):
    """np.matmul(a, b, out=out) for 2-D a and b: on the worker lane
    (`beside`) if it has at least _LANE_MACS multiply-adds, and otherwise
    on the caller when it joins. Either way the caller joins with
    `result()`, which returns out. The choice depends on the shapes alone,
    and the product's bits on neither."""
    if a.shape[0] * a.shape[1] * b.shape[1] >= _LANE_MACS:
        return beside(np.matmul, a, b, out=out)
    return _OnJoin(a, b, out)


class _OnJoin:
    """A `matmul_beside` product too small for the lane."""

    def __init__(self, a, b, out):
        self.args = a, b, out

    def result(self):
        a, b, out = self.args
        return np.matmul(a, b, out=out)


def block_rows(row_length: int) -> int:
    """Rows in one `row_blocks` block of rows of row_length values."""
    return max(1, _BLOCK_VALUES // row_length)


def row_blocks(n_rows: int, row_length: int) -> list:
    """Slices that cut n_rows rows into blocks of about _BLOCK_VALUES values
    (`block_rows` rows each; the last may be shorter). The passes that
    block their rows (`mixed_norm.penalty_grad`, the epoch metrics,
    `synth.make_synthetic`) call this once each, and hand the group kernels
    one block at a time. An elementwise result does not depend on the
    block size; a sum taken one block at a time (the epoch metrics) does,
    in its last bits."""
    step = block_rows(row_length)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


@contextlib.contextmanager
def atomic_write(path):
    """Open a new temporary file beside path for binary writing; on a clean
    exit it replaces path in one os.replace. A reader, or a process cut
    short, then finds either the old file whole or the new one whole, never
    a truncated one. On any error the temporary is removed and path is left
    as it was. The file is not fsynced: this guards against an interrupted
    process, not against losing power."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Every CSV a run writes, through atomic_write: commas, "\\n" line ends,
    quotes only where a field needs them, each value by str: a float, numpy's
    too, as its shortest round-trip repr, a numpy integer as its digits."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with atomic_write(path) as fh:
        fh.write(text.getvalue().encode("utf-8"))

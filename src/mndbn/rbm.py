"""Binary-binary RBM: energy, conditionals, CD-1 sampling, updates, and
exact oracles that enumerate the 2^J hidden states, for models with
2^J * max(I, J) <= 2^24 (784x14 or 16x16, say).

Conventions used throughout: visible values live in [0, 1] and are treated
as probabilities (grayscale pixels are fed in directly), hidden states are
sampled binary while the Gibbs chain runs, and reconstructions are kept as
probabilities, which lowers the variance of the CD statistics. All update
quantities follow the ascent direction of the data log-likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rng, matmul_beside, require_finite, sample_bernoulli, sigmoid


@dataclass
class Rbm:
    """Model parameters: weights w (visible x hidden) and the two bias
    vectors. Shapes are fixed at construction."""

    w: np.ndarray
    b_vis: np.ndarray
    a_hid: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.b_vis = np.asarray(self.b_vis, dtype=float)
        self.a_hid = np.asarray(self.a_hid, dtype=float)
        if self.w.ndim != 2:
            raise ValueError(f"w must be 2-D, got shape {self.w.shape}")
        if self.b_vis.shape != (self.w.shape[0],):
            raise ValueError(
                f"b_vis length {self.b_vis.shape} does not match w rows {self.w.shape[0]}"
            )
        if self.a_hid.shape != (self.w.shape[1],):
            raise ValueError(
                f"a_hid length {self.a_hid.shape} does not match w cols {self.w.shape[1]}"
            )

    @property
    def n_visible(self) -> int:
        return self.w.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.w.shape[1]

    @classmethod
    def init_random(cls, n_visible: int, n_hidden: int, rng: Rng, std: float = 0.01) -> "Rbm":
        """Small zero-mean Gaussian weights, zero biases."""
        w = rng.normal((n_visible, n_hidden), std=std)
        return cls(w=w, b_vis=np.zeros(n_visible), a_hid=np.zeros(n_hidden))

    def copy(self) -> "Rbm":
        return Rbm(w=self.w.copy(), b_vis=self.b_vis.copy(), a_hid=self.a_hid.copy())


@dataclass
class CdStats:
    """Batch-averaged update statistics (ascent direction), or the momentum
    state of `apply_update`; same shapes as the parameters."""

    dw: np.ndarray
    db_vis: np.ndarray
    da_hid: np.ndarray

    @classmethod
    def zeros(cls, m: Rbm) -> "CdStats":
        return cls(
            dw=np.zeros_like(m.w),
            db_vis=np.zeros_like(m.b_vis),
            da_hid=np.zeros_like(m.a_hid),
        )


def energy(m: Rbm, x, h) -> float:
    """Joint energy of one (visible, hidden) configuration."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.shape != (m.n_visible,):
        raise ValueError(f"x has length {x.shape}, expected {m.n_visible}")
    if h.shape != (m.n_hidden,):
        raise ValueError(f"h has length {h.shape}, expected {m.n_hidden}")
    return float(-(x @ m.w @ h) - m.b_vis @ x - m.a_hid @ h)


def prob_h_given_x(m: Rbm, x, out=None) -> np.ndarray:
    """Per-unit hidden activation probabilities.

    Accepts one visible vector or a batch (rows are samples); the hidden
    units are conditionally independent so the result is just the sigmoid
    of each unit's total input. `out`, a float array shaped like the
    result, receives it, and no temporary is made.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.n_visible:
        raise ValueError(f"x has last axis {x.shape[-1]}, expected {m.n_visible}")
    z = np.matmul(x, m.w, out=out)
    z += m.a_hid
    return sigmoid(z, out=z)


def prob_x_given_h(m: Rbm, h, out=None) -> np.ndarray:
    """Per-unit visible activation probabilities (mirror of the above)."""
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != m.n_hidden:
        raise ValueError(f"h has last axis {h.shape[-1]}, expected {m.n_hidden}")
    z = np.matmul(h, m.w.T, out=out)
    z += m.b_vis
    return sigmoid(z, out=z)


@dataclass
class _CdBuffers:
    """The arrays `cd_step` works in, for batches of up to `rows` rows.

    - `h0` holds the hidden probabilities at the data.
    - `chain` holds the hidden sample, then h_tilde, the hidden
      probabilities at the reconstruction.
    - `x_tilde` holds the reconstruction.
    - `stats` receives the statistics and `scratch` the negative-phase
      product x_tilde.T @ h_tilde.

    Once the statistics have been applied, the rest is free:
    `mixed_norm.penalty_grad` works in h0, chain and scratch, and
    `mixed_norm._epoch_metrics` in h0, chain and x_tilde, one row block
    at a time; `mixed_norm.train_mnrbm` sizes the buffers for the larger
    of a batch and one row block."""

    h0: np.ndarray
    chain: np.ndarray
    x_tilde: np.ndarray
    stats: CdStats
    scratch: np.ndarray

    @classmethod
    def like(cls, m: Rbm, rows: int):
        """Uninitialised buffers for `m`."""
        return cls(
            h0=np.empty((rows, m.n_hidden)),
            chain=np.empty((rows, m.n_hidden)),
            x_tilde=np.empty((rows, m.n_visible)),
            stats=CdStats(np.empty_like(m.w), np.empty_like(m.b_vis), np.empty_like(m.a_hid)),
            scratch=np.empty_like(m.w),
        )


def cd_step(m: Rbm, batch, rng: Rng, out=None) -> CdStats:
    """One-step contrastive-divergence (CD-1) statistics for one mini-batch.

    Positive phase uses the data and its hidden probabilities; negative
    phase uses the one-step reconstruction and its hidden probabilities.
    All three statistics are averaged over the batch. `out`, a `_CdBuffers`
    for at least the batch's rows, holds the chain (h0, the sample and then
    h_tilde in `chain`, x_tilde) and receives the statistics (out.stats is
    returned). Afterwards h0 still holds the data's hidden probabilities,
    while x_tilde and h_tilde have been overwritten by the differences
    batch - x_tilde and h0 - h_tilde. With `out` the step makes no array
    the size of the batch or of the weights.

    Once the caller has sampled from h0, the positive statistic
    batch.T @ h0 goes into stats.dw in a `core.matmul_beside` block (on
    the worker lane, if it is large enough to repay the hand-off), whose
    body forms x_tilde, h_tilde and the negative-phase product in scratch,
    reading batch and h0 but writing neither. The block ends before
    `stats.dw -= scratch`. The sample stays on the caller, so the Rng
    stream never leaves it, and the lane's gemm meets the caller's gemms
    rather than the sampling, which at two BLAS threads would have to
    share both cores with it.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError(f"batch must be non-empty and 2-D (samples x visibles), got {batch.shape}")
    if batch.shape[1] != m.n_visible:
        raise ValueError(f"batch has {batch.shape[1]} columns, expected {m.n_visible}")
    n = batch.shape[0]
    buf = _CdBuffers.like(m, n) if out is None else out
    stats = buf.stats
    h0_probs = prob_h_given_x(m, batch, out=buf.h0[:n])
    h = sample_bernoulli(h0_probs, rng, out=buf.chain[:n])
    with matmul_beside(batch.T, h0_probs, stats.dw):
        x_tilde = prob_x_given_h(m, h, out=buf.x_tilde[:n])
        ht_probs = prob_h_given_x(m, x_tilde, out=h)  # the sample is dead once x_tilde is formed
        np.matmul(x_tilde.T, ht_probs, out=buf.scratch)
    stats.dw -= buf.scratch
    stats.dw /= n
    np.mean(np.subtract(batch, x_tilde, out=x_tilde), axis=0, out=stats.db_vis)
    np.mean(np.subtract(h0_probs, ht_probs, out=ht_probs), axis=0, out=stats.da_hid)
    return stats


def apply_update(
    m: Rbm, stats: CdStats, lr: float, momentum: float, velocity: CdStats, out=None
) -> None:
    """Momentum step: velocity <- momentum * velocity + lr * stats, then
    parameters += velocity. Mutates the model and the velocity in place;
    `stats` is only read. `out`, a float array shaped like the weights,
    receives lr * stats.dw, so the step makes no weight-sized temporary."""
    if not lr > 0:  # negated, so NaN fails too
        raise ValueError(f"lr must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if stats.dw.shape != m.w.shape:
        raise ValueError(f"stats dw shape {stats.dw.shape} does not match w {m.w.shape}")
    velocity.dw *= momentum
    velocity.dw += np.multiply(stats.dw, lr, out=out)
    velocity.db_vis = momentum * velocity.db_vis + lr * stats.db_vis
    velocity.da_hid = momentum * velocity.da_hid + lr * stats.da_hid
    m.w += velocity.dw
    m.b_vis += velocity.db_vis
    m.a_hid += velocity.da_hid
    require_finite("rbm parameters", m.w)
    require_finite("rbm parameters", m.b_vis)
    require_finite("rbm parameters", m.a_hid)


# Exact oracles. Given h the visibles are independent, so they are summed
# out in closed form (the softplus free energy) and only the 2^J hidden
# states are visited. The largest array then holds 2^J * max(I, J) values,
# at most _ENUM_VALUES (128 MB), which admits e.g. 64x16, 784x14 and 16x16
# but not 784x16 or 8x30. The training path never calls these.

_ENUM_VALUES = 1 << 24


def _enum_states(n: int) -> np.ndarray:
    """All binary vectors of length n as a (2^n, n) float matrix."""
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(float)


def _enumerate(m: Rbm):
    """Every hidden state h once, the visibles summed out: returns log Z,
    then p(h), b + W h and h itself, one row per state. The size bound is
    checked in integers before anything is allocated."""
    i, j = m.n_visible, m.n_hidden
    if max(i, j) << j > _ENUM_VALUES:
        raise ValueError(f"model too large for exact enumeration: 2^J * max(I, J) = "
                         f"2^{j} * {max(i, j)} values > {_ENUM_VALUES}")
    hs = _enum_states(j)
    z = hs @ m.w.T + m.b_vis
    log_ph = hs @ m.a_hid + np.logaddexp(0.0, z).sum(axis=1)
    top = log_ph.max()
    p = np.exp(log_ph - top)
    total = p.sum()
    return float(top + np.log(total)), p / total, z, hs


def _visible_rows(m: Rbm, x) -> np.ndarray:
    """x as a (samples x visibles) batch of one row or more; a vector is one row."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != m.n_visible or rows.shape[0] == 0:
        raise ValueError(f"x has shape {np.shape(x)}, expected rows of length {m.n_visible}")
    return rows


def exact_log_partition_function(m: Rbm) -> float:
    """log Z by enumeration of the hidden states; finite wherever Z itself
    would overflow a float."""
    return _enumerate(m)[0]


def exact_log_likelihood(m: Rbm, x):
    """log p(x) = b.x + sum_j softplus(a_j + x.W[:, j]) - log Z: one value
    per row of a batch, or a float for a single vector."""
    rows = _visible_rows(m, x)
    log_z = _enumerate(m)[0]
    ll = rows @ m.b_vis + np.logaddexp(0.0, rows @ m.w + m.a_hid).sum(axis=1) - log_z
    return float(ll[0]) if np.ndim(x) == 1 else ll


def exact_log_likelihood_grad(m: Rbm, x) -> CdStats:
    """Exact gradient of the batch-mean log p(x), a vector being a one-row
    batch: data-clamped statistics minus the model expectation, the latter
    summed over the hidden states (E[x h^T] = sum_h p(h) sigma(b + W h) h^T).
    Same sign convention as the CD estimate (ascent on log-likelihood)."""
    rows = _visible_rows(m, x)
    _, p, z, hs = _enumerate(m)
    x_given_h, ph = sigmoid(z, out=z), prob_h_given_x(m, rows)
    return CdStats(
        dw=rows.T @ ph / rows.shape[0] - x_given_h.T @ (hs * p[:, None]),
        db_vis=rows.mean(axis=0) - p @ x_given_h,
        da_hid=ph.mean(axis=0) - p @ hs,
    )

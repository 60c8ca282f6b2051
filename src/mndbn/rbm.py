"""Binary-binary RBM: energy, conditionals, CD-k sampling, updates, and
exact enumeration oracles for tiny models.

Conventions used throughout: visible values live in [0, 1] and are treated
as probabilities (grayscale pixels are fed in directly), hidden states are
sampled binary while the Gibbs chain runs, and reconstructions are kept as
probabilities, which lowers the variance of the CD statistics. All update
quantities follow the ascent direction of the data log-likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rng, require_finite, sample_bernoulli, sigmoid


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
    """Batch-averaged update statistics (ascent direction)."""

    dw: np.ndarray
    db_vis: np.ndarray
    da_hid: np.ndarray


@dataclass
class Velocity:
    """Momentum state for `apply_update`; same shapes as the parameters."""

    dw: np.ndarray
    db_vis: np.ndarray
    da_hid: np.ndarray

    @classmethod
    def zeros(cls, m: Rbm) -> "Velocity":
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


def gibbs_chain(m: Rbm, x0, k: int, rng: Rng):
    """Run k alternating Gibbs steps from x0.

    Hidden states are sampled binary at each step; visible reconstructions
    stay as probabilities. Returns (x_tilde, h0_probs, h_tilde_probs):
    the final reconstruction probabilities, the hidden probabilities at the
    data, and the hidden probabilities at the final reconstruction. Accepts
    a single vector or a batch; k must be at least 1.
    """
    return _chain(m, np.asarray(x0, dtype=float), k, rng, None, None, None)


def _chain(m: Rbm, x, k: int, rng: Rng, h0, h, x_tilde):
    """gibbs_chain writing h0 and x_tilde into the buffers given for them
    and the chain into `h` (None makes a new one). h first receives the
    hidden sample; once x_tilde has been formed from it, the sample is dead
    and h_tilde overwrites it. With k > 1 the next sample is drawn from
    h_tilde into one spare array, and the two swap roles at each step."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    h_probs = h0 = prob_h_given_x(m, x, out=h0)
    spare = np.empty_like(h0) if k > 1 else None
    for _ in range(k):
        h = sample_bernoulli(h_probs, rng, out=h)
        x_tilde = prob_x_given_h(m, h, out=x_tilde)
        h_probs = prob_h_given_x(m, x_tilde, out=h)
        h, spare = spare, h
    return x_tilde, h0, h_probs


@dataclass
class _CdBuffers:
    """The arrays `cd_step` works in, for batches of up to `rows` rows.

    - `h0` holds the hidden probabilities at the data.
    - `chain` holds the hidden sample, then h_tilde, the hidden
      probabilities at the reconstruction (see `_chain`).
    - `x_tilde` holds the reconstruction.
    - `stats` receives the statistics and `scratch` the negative-phase
      product x_tilde.T @ h_tilde.

    Once the statistics have been applied, the rest is free:
    `mixed_norm.penalty_grad` works in h0, chain and scratch, and
    `mixed_norm._epoch_metrics` in h0, chain and x_tilde."""

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


def cd_step(m: Rbm, batch, k: int, rng: Rng, out=None) -> CdStats:
    """Contrastive-divergence statistics for one mini-batch.

    Positive phase uses the data and its hidden probabilities; negative
    phase uses the k-step reconstruction and its hidden probabilities. All
    three statistics are averaged over the batch; k must be at least 1.
    `out`, a `_CdBuffers` for at least the batch's rows, holds the chain
    (h0, the sample and then h_tilde in `chain`, x_tilde) and receives the
    statistics (out.stats is returned). Afterwards h0 still holds the
    data's hidden probabilities, while x_tilde and h_tilde have been
    overwritten by the differences batch - x_tilde and h0 - h_tilde. With
    `out` the CD-1 step makes no array the size of the batch or of the
    weights; k > 1 adds one hidden-sized array.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D (samples x visibles), got {batch.shape}")
    if batch.shape[1] != m.n_visible:
        raise ValueError(f"batch has {batch.shape[1]} columns, expected {m.n_visible}")
    n = batch.shape[0]
    buf = _CdBuffers.like(m, n) if out is None else out
    x_tilde, h0_probs, ht_probs = _chain(
        m, batch, k, rng, buf.h0[:n], buf.chain[:n], buf.x_tilde[:n]
    )
    stats = buf.stats
    np.matmul(batch.T, h0_probs, out=stats.dw)
    stats.dw -= np.matmul(x_tilde.T, ht_probs, out=buf.scratch)
    stats.dw /= n
    np.mean(np.subtract(batch, x_tilde, out=x_tilde), axis=0, out=stats.db_vis)
    np.mean(np.subtract(h0_probs, ht_probs, out=ht_probs), axis=0, out=stats.da_hid)
    return stats


def apply_update(
    m: Rbm, stats: CdStats, lr: float, momentum: float, velocity: Velocity, out=None
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


# Exact oracles. Everything below enumerates all 2^I * 2^J configurations
# and is guarded to tiny models; the training path never calls these.

_ENUM_LIMIT = 20


def _enum_states(n: int) -> np.ndarray:
    """All binary vectors of length n as a (2^n, n) float matrix."""
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(float)


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    return float(m + np.log(np.sum(np.exp(a - m))))


def _check_enum_size(m: Rbm) -> None:
    if m.n_visible + m.n_hidden > _ENUM_LIMIT:
        raise ValueError(
            f"model too large for exact enumeration: I + J = "
            f"{m.n_visible + m.n_hidden} > {_ENUM_LIMIT}"
        )


def _energy_table(m: Rbm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies of every configuration: E[s, t] for visible state s and
    hidden state t, plus the enumeration matrices."""
    xs = _enum_states(m.n_visible)
    hs = _enum_states(m.n_hidden)
    e = -(xs @ m.w @ hs.T + (xs @ m.b_vis)[:, None] + (hs @ m.a_hid)[None, :])
    return e, xs, hs


def exact_partition_function(m: Rbm) -> float:
    """Normalizing constant by brute-force enumeration, in log space."""
    _check_enum_size(m)
    e, _, _ = _energy_table(m)
    return float(np.exp(_logsumexp(-e.ravel())))


def exact_log_likelihood(m: Rbm, x) -> float:
    """log p(x) with the hidden units summed out exactly."""
    _check_enum_size(m)
    x = np.asarray(x, dtype=float)
    hs = _enum_states(m.n_hidden)
    e_x = -(x @ m.w @ hs.T + m.b_vis @ x + hs @ m.a_hid)
    e, _, _ = _energy_table(m)
    return _logsumexp(-e_x) - _logsumexp(-e.ravel())


def exact_log_likelihood_grad(m: Rbm, x) -> CdStats:
    """Exact gradient of log p(x): data-clamped statistics minus the model
    expectation, both computed by enumeration. Same sign convention as the
    CD estimate (ascent on log-likelihood)."""
    _check_enum_size(m)
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n_visible,):
        raise ValueError(f"x has length {x.shape}, expected {m.n_visible}")
    e, xs, hs = _energy_table(m)
    log_p = -e - _logsumexp(-e.ravel())
    p = np.exp(log_p)
    # model expectations
    mean_xh = xs.T @ p @ hs
    mean_x = xs.T @ p.sum(axis=1)
    mean_h = hs.T @ p.sum(axis=0)
    # data-clamped expectations
    ph = prob_h_given_x(m, x)
    dw = np.outer(x, ph) - mean_xh
    db_vis = x - mean_x
    da_hid = ph - mean_h
    return CdStats(dw=dw, db_vis=db_vis, da_hid=da_hid)

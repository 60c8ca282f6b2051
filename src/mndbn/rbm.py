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


def prob_h_given_x(m: Rbm, x) -> np.ndarray:
    """Per-unit hidden activation probabilities.

    Accepts one visible vector or a batch (rows are samples); the hidden
    units are conditionally independent so the result is just the sigmoid
    of each unit's total input.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.n_visible:
        raise ValueError(f"x has last axis {x.shape[-1]}, expected {m.n_visible}")
    z = x @ m.w
    z += m.a_hid
    return sigmoid(z, out=z)


def prob_x_given_h(m: Rbm, h) -> np.ndarray:
    """Per-unit visible activation probabilities (mirror of the above)."""
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != m.n_hidden:
        raise ValueError(f"h has last axis {h.shape[-1]}, expected {m.n_hidden}")
    z = h @ m.w.T
    z += m.b_vis
    return sigmoid(z, out=z)


def gibbs_chain(m: Rbm, x0, k: int, rng: Rng):
    """Run k alternating Gibbs steps from x0.

    Hidden states are sampled binary at each step; visible reconstructions
    stay as probabilities. Returns (x_tilde, h0_probs, h_tilde_probs):
    the final reconstruction probabilities, the hidden probabilities at the
    data, and the hidden probabilities at the final reconstruction. Accepts
    a single vector or a batch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = np.asarray(x0, dtype=float)
    h0_probs = prob_h_given_x(m, x)
    h_probs = h0_probs
    for _ in range(k):
        h_sample = sample_bernoulli(h_probs, rng)
        x = prob_x_given_h(m, h_sample)
        h_probs = prob_h_given_x(m, x)
    return x, h0_probs, h_probs


def cd_step(m: Rbm, batch, k: int, rng: Rng) -> CdStats:
    """Contrastive-divergence statistics for one mini-batch.

    Positive phase uses the data and its hidden probabilities; negative
    phase uses the k-step reconstruction and its hidden probabilities. All
    three statistics are averaged over the batch.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D (samples x visibles), got {batch.shape}")
    if batch.shape[1] != m.n_visible:
        raise ValueError(f"batch has {batch.shape[1]} columns, expected {m.n_visible}")
    n = batch.shape[0]
    x_tilde, h0_probs, ht_probs = gibbs_chain(m, batch, k, rng)
    dw = (batch.T @ h0_probs - x_tilde.T @ ht_probs) / n
    db_vis = (batch - x_tilde).mean(axis=0)
    da_hid = (h0_probs - ht_probs).mean(axis=0)
    return CdStats(dw=dw, db_vis=db_vis, da_hid=da_hid)


def apply_update(m: Rbm, stats: CdStats, lr: float, momentum: float, velocity: Velocity) -> None:
    """Momentum step: velocity <- momentum * velocity + lr * stats, then
    parameters += velocity. Mutates the model and the velocity in place."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if stats.dw.shape != m.w.shape:
        raise ValueError(f"stats dw shape {stats.dw.shape} does not match w {m.w.shape}")
    velocity.dw = momentum * velocity.dw + lr * stats.dw
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

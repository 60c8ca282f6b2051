"""Group-sparsity penalty on hidden activation probabilities and the
two-step regularized training loop.

The penalty is the sum over groups of the Euclidean norm of the group's
activation probabilities (an l1,2 mixed norm). Both the norm and its
gradient are computed straight from the per-unit probabilities through the
partition's index tables (`groups.group_norms`, `groups.divide_accumulate`);
a unit shared by several groups sums its gradient contributions over them.
The summation order is fixed: members within a group, then groups within
a sample, then a unit's groups, each in ascending order one after another.
On a batch this gives the bits of the augmented-axis formulation (see
`groups`).

Each training step is two sequential updates: a plain CD step with
momentum, then a descent step on the penalty term applied to the weights
and hidden biases only (scaled by lr * lambda). Visible biases are never
regularized.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .core import Rng, _overflow_raises, row_blocks
from .data import shuffle_split
from .errors import ConfigError
from .groups import GroupPartition, _group_sums, divide_accumulate, group_norms
from .rbm import (
    Rbm,
    Velocity,
    _CdBuffers,
    apply_update,
    cd_step,
    prob_h_given_x,
    prob_x_given_h,
)


@dataclass
class PenaltyConfig:
    """Penalty strength, group layout, and the norm-denominator floor.

    epsilon floors the per-group norm in the gradient so the all-zero group
    (where the l2 norm is not differentiable) gets a well-defined, vanishing
    subgradient.
    """

    lam: float
    partition: GroupPartition
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:  # negated, so NaN fails too
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.epsilon <= 1e-6:
            raise ValueError(f"epsilon must be in (0, 1e-6], got {self.epsilon}")


@dataclass
class TrainConfig:
    """Hyperparameters for one RBM training run. seed is the caller's: it
    makes the Rng that train_mnrbm and pretrain_greedy are handed."""

    lr: float = 0.1
    momentum: float = 0.5
    final_momentum: float = 0.9
    momentum_switch_epoch: int = 5
    batch_size: int = 100
    epochs: int = 30
    cd_k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.batch_size < 1 or self.cd_k < 1:
            raise ConfigError(
                "need epochs >= 0, batch_size >= 1 and cd_k >= 1, got "
                f"{self.epochs}, {self.batch_size} and {self.cd_k}"
            )
        momenta = (self.momentum, self.final_momentum)
        if not (self.lr > 0.0 and all(0.0 <= m < 1.0 for m in momenta)):
            raise ConfigError(
                "need lr > 0 and momentum and final_momentum in [0, 1), got "
                f"{self.lr}, {self.momentum} and {self.final_momentum}"
            )


@dataclass
class EpochStats:
    """One training-log row; wall_seconds is the only clock-derived field."""

    epoch: int
    recon_error: float
    mean_hidden_activation: float
    mixed_norm_value: float
    wall_seconds: float


def mixed_norm(h_probs, cfg: PenaltyConfig):
    """Sum over groups of the l2 norm of the group's probabilities, per
    sample: rows are samples, and a single vector is one sample (a 0-d
    result). A sample's bits do not depend on the batch it arrives in.
    """
    h_probs = np.asarray(h_probs, dtype=float)
    if h_probs.size and (h_probs.min() < 0.0 or h_probs.max() > 1.0):
        raise ValueError("activation probabilities must lie in [0, 1]")
    return _group_norm_sums(h_probs, cfg.partition)


def _group_norm_sums(h_probs: np.ndarray, part: GroupPartition) -> np.ndarray:
    """Each row's group norms added in ascending group order, one after
    another: (..., j) -> (...). All the given rows go through at once."""
    return np.cumsum(group_norms(h_probs, part), axis=-1)[..., -1].copy()


def penalty_grad(m: Rbm, x, cfg: PenaltyConfig, out=None):
    """Gradient of the penalty w.r.t. the weights and hidden biases.

    Unit j in group G contributes p_j^2 (1 - p_j) / max(||p_G||_2, epsilon);
    s_j sums that over the groups covering j, the weight column j picks up
    s_j times x, and the hidden bias picks up s_j itself. Returns (gw, ga),
    averaged over the rows of the batch x; a single vector is a one-row
    batch. The rows go through in `core.row_blocks` blocks, so the group
    sums and quotients stay in cache. With `out`, the `rbm._CdBuffers` of
    a `cd_step` whose statistics have been used, for at least x's rows,
    p, u = p^2 (1 - p) and s overwrite its h0, h_sample and h_tilde, and
    gw its scratch: no array the size of the batch or of the weights is
    made.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    part = cfg.partition
    if out is None:
        p, u, s = (np.empty((n, m.n_hidden)) for _ in range(3))
        gw = np.empty_like(m.w)
    else:
        p, u, s, gw = out.h0[:n], out.h_sample[:n], out.h_tilde[:n], out.scratch
    prob_h_given_x(m, x, out=p)
    for block in row_blocks(n, part.j_original):
        pb, ub, sb = p[block], u[block], s[block]
        # The group norms of p, as `group_norms` forms them, from u = p * p.
        denom = np.empty((len(pb), part.num_groups))
        _group_sums(np.multiply(pb, pb, out=ub), part, denom)
        np.sqrt(denom, out=denom)
        np.maximum(denom, cfg.epsilon, out=denom)
        ub *= np.subtract(1.0, pb, out=sb)
        divide_accumulate(ub, denom, part, out=sb)
    np.matmul(x.T, s, out=gw)
    gw /= n
    return gw, s.mean(axis=0)


def regularized_update(
    m: Rbm,
    batch,
    cfg: PenaltyConfig,
    lr: float,
    momentum: float,
    velocity: Velocity,
    rng: Rng,
    k: int = 1,
    out=None,
) -> Rbm:
    """One two-step training update, in place.

    Step 1 is the plain CD update with momentum. Step 2 subtracts
    lr * lambda times the batch-averaged penalty gradient from the weights
    and hidden biases, using activation probabilities recomputed from the
    post-step-1 parameters. With lambda = 0 the second step is skipped, so
    the call is indistinguishable from vanilla CD training, including RNG
    consumption. `out`, an `rbm._CdBuffers` for at least the batch's rows,
    holds every batch- and weight-sized array of the step: the penalty
    overwrites the chain's h0, h_sample and h_tilde and the scratch array
    once the CD statistics have been applied.
    """
    stats = cd_step(m, batch, k, rng, out=out)
    apply_update(m, stats, lr, momentum, velocity, out=None if out is None else out.scratch)
    if cfg.lam > 0.0:
        gw, ga = penalty_grad(m, batch, cfg, out=out)
        gw *= lr * cfg.lam
        m.w -= gw
        m.a_hid -= lr * cfg.lam * ga
    return m


def _epoch_metrics(m: Rbm, images: np.ndarray, cfg: PenaltyConfig):
    """Deterministic full-pass metrics with the current parameters.

    Reconstruction error is the mean squared error of the one-step
    mean-field reconstruction (probabilities everywhere, no sampling).
    The images go through one `core.row_blocks` block of the wider layer
    side at a time, so the pass holds one block's p and xhat (the squared
    error is formed in xhat's buffer) and block-sized temporaries whatever
    the number of images. Each sum is taken per block and the block sums
    added in order, so their last bits depend on the block size.
    """
    sq_err = 0.0
    act_sum = 0.0
    mn_sum = 0.0
    n = images.shape[0]
    blocks = row_blocks(n, max(m.n_visible, m.n_hidden))
    rows = min(n, blocks[0].stop)
    p_buf, xhat_buf = np.empty((rows, m.n_hidden)), np.empty((rows, m.n_visible))
    for block in blocks:
        xb = images[block]
        p = prob_h_given_x(m, xb, out=p_buf[: len(xb)])
        xhat = prob_x_given_h(m, p, out=xhat_buf[: len(xb)])
        np.subtract(xb, xhat, out=xhat)
        sq_err += float(np.square(xhat, out=xhat).sum())
        act_sum += float(p.sum())
        mn_sum += float(np.sum(_group_norm_sums(p, cfg.partition)))
    return (
        sq_err / (n * m.n_visible),
        act_sum / (n * m.n_hidden),
        mn_sum / n,
    )


def train_mnrbm(images, layer_size: int, cfg: PenaltyConfig, params: TrainConfig, rng: Rng):
    """Train one RBM with the group-sparsity penalty (lambda may be 0).

    `images` is a (samples x visibles) array in [0, 1]. Runs
    `params.epochs` epochs of shuffled mini-batches of `regularized_update`
    and returns (model, log), where the log holds one EpochStats per epoch,
    computed on a deterministic full pass over the training data after the
    epoch.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 2 or images.shape[0] == 0:
        raise ValueError(f"training data must be a non-empty 2-D array, got {images.shape}")
    if cfg.partition.j_original != layer_size:
        raise ValueError(
            f"partition is over {cfg.partition.j_original} units, layer has {layer_size}"
        )
    m = Rbm.init_random(images.shape[1], layer_size, rng)
    velocity = Velocity.zeros(m)
    rows = min(params.batch_size, images.shape[0])
    buf, batch_buf = _CdBuffers.like(m, rows), np.empty((rows, m.n_visible))
    log: list[EpochStats] = []
    with _overflow_raises("training"):
        for epoch in range(params.epochs):
            t0 = time.perf_counter()
            mom = (
                params.momentum
                if epoch < params.momentum_switch_epoch
                else params.final_momentum
            )
            for idx in shuffle_split(images.shape[0], params.batch_size, rng):
                # mode="clip" takes straight into the buffer (see divide_accumulate)
                batch = np.take(images, idx, axis=0, out=batch_buf[: len(idx)], mode="clip")
                regularized_update(
                    m, batch, cfg, params.lr, mom, velocity, rng, k=params.cd_k, out=buf
                )
            recon, mean_act, mn_value = _epoch_metrics(m, images, cfg)
            log.append(
                EpochStats(
                    epoch=epoch,
                    recon_error=recon,
                    mean_hidden_activation=mean_act,
                    mixed_norm_value=mn_value,
                    wall_seconds=time.perf_counter() - t0,
                )
            )
    return m, log


def write_training_log(path, log: list, row_type=EpochStats) -> None:
    """Write a per-epoch log as CSV: one column per field of row_type, in
    field order, each value written by repr so floats round-trip exactly."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(row, name)) for name in names) for row in log]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

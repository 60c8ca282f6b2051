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

from .core import Rng, row_blocks
from .data import shuffle_split
from .errors import ConfigError
from .groups import GroupPartition, divide_accumulate, group_norms
from .rbm import (
    Rbm,
    Velocity,
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
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
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
    """Sum over groups of the l2 norm of the group's probabilities.

    For a single vector returns a float; for a batch (rows are samples)
    returns the per-sample values.
    """
    h_probs = np.asarray(h_probs, dtype=float)
    if h_probs.size and (h_probs.min() < 0.0 or h_probs.max() > 1.0):
        raise ValueError("activation probabilities must lie in [0, 1]")
    total = _group_norm_sums(h_probs, cfg.partition)
    return float(total) if h_probs.ndim == 1 else total


def _group_norm_sums(h_probs: np.ndarray, part: GroupPartition) -> np.ndarray:
    """Each row's group norms added in ascending group order, one after
    another, one `group_norms` row block at a time: (..., j) -> (...). A lone
    row or vector gets numpy's pairwise sum, as a contiguous sum gives it."""
    rows = h_probs.reshape(-1, part.j_original)
    if rows.shape[0] == 1:
        return group_norms(h_probs, part).sum(axis=-1)
    out = np.empty(rows.shape[0])
    for block in row_blocks(rows.shape[0], part.j_original):
        out[block] = np.cumsum(group_norms(rows[block], part), axis=1)[:, -1]
    return out.reshape(h_probs.shape[:-1])


def penalty_grad(m: Rbm, x, cfg: PenaltyConfig):
    """Gradient of the penalty w.r.t. the weights and hidden biases.

    Unit j in group G contributes p_j^2 (1 - p_j) / max(||p_G||_2, epsilon);
    s_j sums that over the groups covering j, the weight column j picks up
    s_j times x, and the hidden bias picks up s_j itself. Returns (gw, ga),
    averaged over the rows of the batch x; a single vector is a one-row
    batch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    part = cfg.partition
    p = prob_h_given_x(m, x)
    denom = np.maximum(group_norms(p, part), cfg.epsilon)
    s_orig = divide_accumulate(p * p * (1.0 - p), denom, part)
    return x.T @ s_orig / x.shape[0], s_orig.mean(axis=0)


def regularized_update(
    m: Rbm,
    batch,
    cfg: PenaltyConfig,
    lr: float,
    momentum: float,
    velocity: Velocity,
    rng: Rng,
    k: int = 1,
) -> Rbm:
    """One two-step training update, in place.

    Step 1 is the plain CD update with momentum. Step 2 subtracts
    lr * lambda times the batch-averaged penalty gradient from the weights
    and hidden biases, using activation probabilities recomputed from the
    post-step-1 parameters. With lambda = 0 the second step is skipped, so
    the call is indistinguishable from vanilla CD training, including RNG
    consumption.
    """
    stats = cd_step(m, batch, k, rng)
    apply_update(m, stats, lr, momentum, velocity)
    if cfg.lam > 0.0:
        gw, ga = penalty_grad(m, batch, cfg)
        m.w -= lr * cfg.lam * gw
        m.a_hid -= lr * cfg.lam * ga
    return m


def _epoch_metrics(m: Rbm, images: np.ndarray, cfg: PenaltyConfig, chunk: int = 10000):
    """Deterministic full-pass metrics with the current parameters.

    Reconstruction error is the mean squared error of the one-step
    mean-field reconstruction (probabilities everywhere, no sampling).
    It holds one chunk's p and xhat (the squared error is formed in xhat's
    buffer) plus O(rows) sums at once.
    """
    sq_err = 0.0
    act_sum = 0.0
    mn_sum = 0.0
    n = images.shape[0]
    for lo in range(0, n, chunk):
        xb = images[lo : lo + chunk]
        p = prob_h_given_x(m, xb)
        xhat = prob_x_given_h(m, p)
        np.subtract(xb, xhat, out=xhat)
        sq_err += float(np.square(xhat, out=xhat).sum())
        act_sum += float(p.sum())
        mn_sum += float(np.sum(_group_norm_sums(p, cfg.partition)))
    return (
        sq_err / (n * m.n_visible),
        act_sum / (n * m.n_hidden),
        mn_sum / n,
    )


def train_mnrbm(data, layer_size: int, cfg: PenaltyConfig, params: TrainConfig, rng: Rng):
    """Train one RBM with the group-sparsity penalty (lambda may be 0).

    `data` is either a Dataset or a plain (samples x visibles) array in
    [0, 1]. Runs `params.epochs` epochs of shuffled mini-batches of
    `regularized_update` and returns (model, log), where the log holds one
    EpochStats per epoch, computed on a deterministic full pass over the
    training data after the epoch.
    """
    images = np.asarray(getattr(data, "images", data), dtype=float)
    if images.ndim != 2 or images.shape[0] == 0:
        raise ValueError(f"training data must be a non-empty 2-D array, got {images.shape}")
    if cfg.partition.j_original != layer_size:
        raise ValueError(
            f"partition is over {cfg.partition.j_original} units, layer has {layer_size}"
        )
    m = Rbm.init_random(images.shape[1], layer_size, rng)
    velocity = Velocity.zeros(m)
    log: list[EpochStats] = []
    for epoch in range(params.epochs):
        t0 = time.perf_counter()
        mom = (
            params.momentum
            if epoch < params.momentum_switch_epoch
            else params.final_momentum
        )
        for idx in shuffle_split(images.shape[0], params.batch_size, rng):
            regularized_update(
                m, images[idx], cfg, params.lr, mom, velocity, rng, k=params.cd_k
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

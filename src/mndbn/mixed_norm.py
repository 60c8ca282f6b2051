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

from .core import Rng, _overflow_raises, atomic_write, block_rows, row_blocks
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
    """Penalty strength and group layout."""

    lam: float
    partition: GroupPartition

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:  # negated, so NaN fails too
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")


@dataclass
class TrainConfig:
    """Hyperparameters for one RBM training run: CD-1 with momentum 0.5
    before epoch momentum_switch_epoch and 0.9 from it on. seed is the
    caller's: it makes the Rng that train_mnrbm and pretrain_greedy are
    handed."""

    lr: float = 0.1
    momentum_switch_epoch: int = 5
    batch_size: int = 100
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.batch_size < 1 or not self.lr > 0.0:
            raise ConfigError(
                "need epochs >= 0, batch_size >= 1 and lr > 0, got "
                f"{self.epochs}, {self.batch_size} and {self.lr}"
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
    # Negated so that NaN, which fails every comparison, is rejected too.
    if h_probs.size and not (h_probs.min() >= 0.0 and h_probs.max() <= 1.0):
        raise ValueError("activation probabilities must lie in [0, 1]")
    return _group_norm_sums(h_probs, cfg.partition)


def _group_norm_sums(h_probs: np.ndarray, part: GroupPartition, squares=None) -> np.ndarray:
    """Each row's group norms added in ascending group order, one after
    another: (..., j) -> (...). All the given rows go through at once;
    `squares` is handed to `group_norms`."""
    return np.cumsum(group_norms(h_probs, part, squares), axis=-1)[..., -1].copy()


# Floors each group norm in the gradient's denominator, so the all-zero group
# (where the l2 norm is not differentiable) gets a vanishing subgradient.
_EPSILON = 1e-8


def penalty_grad(m: Rbm, x, cfg: PenaltyConfig, out=None):
    """Gradient of the penalty w.r.t. the weights and hidden biases.

    Unit j in group G contributes p_j^2 (1 - p_j) / max(||p_G||_2, _EPSILON);
    s_j sums that over the groups covering j, the weight column j picks up
    s_j times x, and the hidden bias picks up s_j itself. Returns (gw, ga),
    averaged over the rows of the batch x; a single vector is a one-row
    batch. The rows go through in `core.row_blocks` blocks, so the group
    sums and quotients stay in cache.

    The step works in two batch arrays. p is formed in the first; per
    block, u = p * p goes into the second, the group norms are taken from
    it, and then u *= 1 - p, where 1 - p overwrites p's block (p is dead
    once u is formed). s = `divide_accumulate`(u, norms) overwrites that
    block again, and gw and the bias gradient are read from it. With
    `out`, the `rbm._CdBuffers` of a `cd_step` whose statistics have been
    applied, for at least x's rows, the two arrays are its h0 and chain
    and gw is its scratch: no array the size of the batch or of the
    weights is made. Without it, two batch arrays and gw are allocated.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    part = cfg.partition
    if out is None:
        p, u = np.empty((n, m.n_hidden)), np.empty((n, m.n_hidden))
        gw = np.empty_like(m.w)
    else:
        p, u, gw = out.h0[:n], out.chain[:n], out.scratch
    prob_h_given_x(m, x, out=p)
    for block in row_blocks(n, part.j_original):
        pb, ub = p[block], u[block]
        # The group norms of p, as `group_norms` forms them, from u = p * p.
        denom = np.empty((len(pb), part.num_groups))
        _group_sums(np.multiply(pb, pb, out=ub), part, denom)
        np.sqrt(denom, out=denom)
        np.maximum(denom, _EPSILON, out=denom)
        ub *= np.subtract(1.0, pb, out=pb)
        divide_accumulate(ub, denom, part, out=pb)
    s = p  # divide_accumulate left s in p's buffer
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
    out=None,
) -> Rbm:
    """One two-step training update, in place.

    Step 1 is the plain CD-1 update with momentum. Step 2 subtracts
    lr * lambda times the batch-averaged penalty gradient from the weights
    and hidden biases, using activation probabilities recomputed from the
    post-step-1 parameters. With lambda = 0 the second step is skipped, so
    the call is indistinguishable from vanilla CD training, including RNG
    consumption. `out`, an `rbm._CdBuffers` for at least the batch's rows,
    holds every batch- and weight-sized array of the step: `cd_step`
    works in h0, chain, x_tilde and scratch and leaves its statistics in
    stats; once `apply_update` has applied them (forming lr * dw in
    scratch), `penalty_grad` overwrites h0 and chain with its two batch
    arrays and scratch with its weight gradient.
    """
    stats = cd_step(m, batch, 1, rng, out=out)
    apply_update(m, stats, lr, momentum, velocity, out=None if out is None else out.scratch)
    if cfg.lam > 0.0:
        gw, ga = penalty_grad(m, batch, cfg, out=out)
        gw *= lr * cfg.lam
        m.w -= gw
        m.a_hid -= lr * cfg.lam * ga
    return m


def _epoch_metrics(m: Rbm, images: np.ndarray, cfg: PenaltyConfig, buf: _CdBuffers):
    """Deterministic full-pass metrics with the current parameters.

    Reconstruction error is the mean squared error of the one-step
    mean-field reconstruction (probabilities everywhere, no sampling).
    The images go through one `core.row_blocks` block of the wider layer
    side at a time, in the layer's `rbm._CdBuffers`, which are free
    between steps and must have the rows of one block (`core.block_rows`):
    p goes into h0, xhat into x_tilde (the squared error is then formed
    over it), and the squares for the mixed-norm value into chain. So the
    pass makes only group-sized temporaries, whatever the number of
    images. Each sum is taken per block and the block sums added in
    order, so their last bits depend on the block size.
    """
    sq_err = 0.0
    act_sum = 0.0
    mn_sum = 0.0
    n = images.shape[0]
    for block in row_blocks(n, max(m.n_visible, m.n_hidden)):
        xb = images[block]
        rows = len(xb)
        p = prob_h_given_x(m, xb, out=buf.h0[:rows])
        xhat = prob_x_given_h(m, p, out=buf.x_tilde[:rows])
        np.subtract(xb, xhat, out=xhat)
        sq_err += float(np.square(xhat, out=xhat).sum())
        act_sum += float(p.sum())
        mn_sum += float(np.sum(_group_norm_sums(p, cfg.partition, buf.chain[:rows])))
    return (
        sq_err / (n * m.n_visible),
        act_sum / (n * m.n_hidden),
        mn_sum / n,
    )


# Momentum before and from TrainConfig.momentum_switch_epoch.
_MOMENTUM, _FINAL_MOMENTUM = 0.5, 0.9


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
    n = images.shape[0]
    # One set of buffers holds a batch and one block of the metrics pass.
    rows = min(n, max(params.batch_size, block_rows(max(m.n_visible, layer_size))))
    buf, batch_buf = _CdBuffers.like(m, rows), np.empty((min(n, params.batch_size), m.n_visible))
    log: list[EpochStats] = []
    with _overflow_raises("training"):
        for epoch in range(params.epochs):
            t0 = time.perf_counter()
            mom = _MOMENTUM if epoch < params.momentum_switch_epoch else _FINAL_MOMENTUM
            for idx in shuffle_split(images.shape[0], params.batch_size, rng):
                # mode="clip" takes straight into the buffer (see divide_accumulate)
                batch = np.take(images, idx, axis=0, out=batch_buf[: len(idx)], mode="clip")
                regularized_update(m, batch, cfg, params.lr, mom, velocity, rng, out=buf)
            recon, mean_act, mn_value = _epoch_metrics(m, images, cfg, buf)
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
    field order, each value written by repr so floats round-trip exactly.
    The file is replaced atomically (core.atomic_write)."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(row, name)) for name in names) for row in log]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))

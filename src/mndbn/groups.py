"""Hidden-unit group layouts for the group-sparsity penalty.

Groups are windows of `group_size` consecutive hidden units whose starts
lie `stride` units apart; `make_partition` builds every layout. With zero
overlap the stride equals the group size and the windows tile the layer
exactly; with overlap a unit may lie in several windows. Each layout
carries a small index table, `cover`, that lists for every unit the
groups covering it, so the penalty kernels (`group_norms`,
`divide_accumulate`) work straight from per-unit values.

The kernels work on all the rows they are given; the passes that call
them (`mixed_norm.penalty_grad` and `mixed_norm._epoch_metrics`) choose
the row blocks. They fix their summation order, so on a batch they return
the bits of the augmented-axis formulation. There every group takes a
private copy of its members on an "augmented" axis, where the groups are
disjoint. `expand` copies unit values onto that axis and `accumulate`,
its adjoint, sums the copies back per unit; both are built from the
window arithmetic alone, and the training path never builds the axis.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import require_ints
from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Immutable description of a group layout.

    Group k covers units [k * stride, k * stride + group_size). Row t of
    the (r, j_original) table `cover` holds, for each unit, the t-th
    group covering it in ascending order, or `num_groups` where fewer than
    t + 1 groups do; r is the most groups covering any unit, and row 0 has
    no such entry.
    """

    j_original: int
    group_size: int
    num_groups: int
    stride: int
    cover: np.ndarray


def make_partition(j: int, group_size: int, overlap_fraction: float = 0.0) -> GroupPartition:
    """Windows of `group_size` units whose starts lie `stride` apart.

    `stride = group_size * (1 - overlap_fraction)` must be a positive
    integer that divides (j - group_size), so the windows cover the layer
    exactly with no ragged tail. Overlap 0 gives stride = group_size: the
    disjoint tiling, with no unit in two groups.
    """
    require_ints(j=j, group_size=group_size)
    if not 0.0 <= overlap_fraction < 1.0:
        raise ConfigError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    if not 1 <= group_size <= j:
        raise ConfigError(f"group_size must be in [1, {j}] (the layer size), got {group_size}")
    stride_f = group_size * (1.0 - overlap_fraction)
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-9:
        raise ConfigError(
            f"group_size {group_size} with overlap {overlap_fraction} gives a "
            f"non-integer stride {stride_f}"
        )
    if (j - group_size) % stride != 0:
        raise ConfigError(
            f"stride {stride} does not divide layer size {j} minus group_size "
            f"{group_size}; choose sizes so (j - group_size) / stride is integral"
        )
    m = (j - group_size) // stride + 1
    table = 8 * j * min(m, -(-group_size // stride))  # cover's bytes, before it exists
    if table > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"layer size {j} with group_size {group_size} needs a {table}-byte "
                          "group cover table, more than this machine's physical memory")
    units = np.arange(j)
    first = np.maximum((units - group_size) // stride + 1, 0)
    last = np.minimum(units // stride, m - 1)
    cover = first + np.arange(int((last - first).max()) + 1)[:, None]
    cover[cover > last] = m
    return GroupPartition(j, group_size, m, stride, cover)


def _check_last_axis(values, length: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != length:
        raise ValueError(f"expected last axis of length {length}, got {values.shape[-1]}")
    return values


# Kept here as the kernel oracles' reference; the benchmark's tracer patches both by name.
def expand(h_values, p: GroupPartition) -> np.ndarray:
    """Copy per-unit values onto the augmented axis (last axis): group k's
    copies of units [k * stride, k * stride + group_size) sit at
    [k * group_size, (k + 1) * group_size)."""
    slots = p.stride * np.arange(p.num_groups)[:, None] + np.arange(p.group_size)
    return _check_last_axis(h_values, p.j_original)[..., slots.ravel()]


def accumulate(aug_values, p: GroupPartition) -> np.ndarray:
    """Adjoint of `expand`: sum augmented-axis values per original unit.

    Each group adds its window of the augmented axis onto its units, groups
    in ascending order, starting from zero.
    """
    g = p.group_size
    aug_values = _check_last_axis(aug_values, p.num_groups * g)
    out = np.zeros(aug_values.shape[:-1] + (p.j_original,))
    for k in range(p.num_groups):
        out[..., k * p.stride : k * p.stride + g] += aug_values[..., k * g : (k + 1) * g]
    return out


def group_norms(values, p: GroupPartition, squares=None) -> np.ndarray:
    """l2 norm of each group: (..., j_original) -> (..., num_groups).

    A group's squares are added over its members in ascending order, one
    after another (`_group_sums`); a reshape-and-sum would add them
    pairwise, which rounds differently from group_size 8 on. The squares
    of all the given rows are formed at once, in `squares` when it is given
    (a (rows, j_original) float array, not values itself), so a caller
    that wants them to stay in cache passes one row block at a time.
    """
    values = _check_last_axis(values, p.j_original)
    rows = values.reshape(-1, p.j_original)
    sq = np.multiply(rows, rows, out=squares)
    out = _group_sums(sq, p, np.empty((rows.shape[0], p.num_groups)))
    np.sqrt(out, out=out)
    return out.reshape(values.shape[:-1] + (p.num_groups,))


def _group_sums(values: np.ndarray, p: GroupPartition, out: np.ndarray) -> np.ndarray:
    """Each group's members added in ascending order: (rows, j_original)
    -> out, (rows, num_groups). The loop runs over whichever is fewer:
    members, as `group_size` strided slice-adds, or groups, each a
    cumulative sum along its window, which adds in the same order."""
    if p.num_groups < p.group_size:
        for k in range(p.num_groups):
            window = values[:, k * p.stride : k * p.stride + p.group_size]
            out[:, k] = np.cumsum(window, axis=1)[:, -1]
        return out
    span = p.stride * (p.num_groups - 1) + 1
    np.copyto(out, values[:, 0:span:p.stride])
    for i in range(1, p.group_size):
        out += values[:, i : i + span : p.stride]
    return out


def divide_accumulate(u, denom, p: GroupPartition, out=None) -> np.ndarray:
    """Sum over the groups G covering unit j of u_j / denom_G.

    Equals accumulate(expand(u) / d), where d repeats each group's denom
    over its copies, without the augmented axis. Each quotient is a
    division, and a unit adds its quotients in ascending group order. `u`
    must be finite and `denom` positive. Where a unit has no t-th group,
    row t of `cover` points at a padding denominator of inf: the quotient
    is a zero of u's sign, and adding it leaves the sum's bits unchanged.
    `out`, a float array shaped like u (not u itself), receives the sums.
    The later groups' quotients go through one temporary shaped like u, so
    `penalty_grad` calls this one row block at a time.
    """
    u = _check_last_axis(u, p.j_original)
    padded = np.concatenate([denom, np.full(denom.shape[:-1] + (1,), np.inf)], axis=-1)
    # mode="clip" (the indices are in range anyway) lets take write into
    # out directly; the default mode first takes into a temporary.
    out = np.take(padded, p.cover[0], axis=-1, out=out, mode="clip")
    np.divide(u, out, out=out)
    if len(p.cover) > 1:
        q = np.empty_like(out)
        for groups in p.cover[1:]:
            out += np.divide(u, np.take(padded, groups, axis=-1, out=q, mode="clip"), out=q)
    return out

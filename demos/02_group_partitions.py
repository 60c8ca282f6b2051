"""
Group layouts: one constructor for disjoint and overlapping groups
==================================================================

A partition divides a hidden layer's units into groups for the mixed
(l1,2) sparsity norm: the sum over groups of each group's l2 norm.
`make_partition(j, group_size, overlap_fraction)` builds every layout:
windows of `group_size` units whose starts lie
`stride = group_size * (1 - overlap_fraction)` apart. Overlap 0 (the
default) gives stride = group_size, the disjoint tiling.
Each layout carries one index table, `cover`: row t lists, for every
unit, the t-th group covering it, or `num_groups` where fewer groups
do. The penalty kernels work straight from that table.
"""
import numpy as np

from mndbn import ConfigError, make_partition
from mndbn.mixed_norm import PenaltyConfig, mixed_norm

# 12 units in groups of 3 at 0% overlap: stride 3, four disjoint groups,
# no unit duplicated.
p = make_partition(12, 3)
print(f"disjoint: {p.num_groups} groups, stride {p.stride}")
print(f"cover:\n{p.cover}")

# 12 units in groups of 4 with 50% overlap: stride 2, so consecutive
# groups share half their units and interior units appear in two groups:
# cover gains a second row, padded with 5 (no second group) at the ends.
q = make_partition(12, 4, 0.5)
print(f"\noverlap:  {q.num_groups} groups, stride {q.stride}")
print(f"cover:\n{q.cover}")

# One set of checks covers every overlap: at 20% the stride 3.2 is not
# an integer, so the layout is rejected.
try:
    make_partition(12, 4, 0.2)
except ConfigError as exc:
    print(f"rejected: {exc}")

# For a fixed overall l2 norm, the sum of group norms is smallest when
# the mass sits inside a single group (triangle inequality), so the
# penalty favors activations that concentrate in few groups.
cfg = PenaltyConfig(lam=1.0, partition=p)
spread = np.full(12, 0.5)
packed = np.zeros(12)
packed[:3] = 1.0
print(f"\noverall l2, spread vs packed: {np.linalg.norm(spread):.4f} vs {np.linalg.norm(packed):.4f}")
print(f"mixed norm, activation spread over all units: {mixed_norm(spread, cfg):.4f}")
print(f"mixed norm, same l2 packed into one group:    {mixed_norm(packed, cfg):.4f}")

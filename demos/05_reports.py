"""
Reporting: weight tiles, activation histograms, and results tables
==================================================================

Trains a quick group-sparse layer and renders the three report artifacts:
a PGM image of learned filters, a CSV histogram of unit activations, and
a combined results table with published baselines for context.
"""
import os
import time

from mndbn import (
    Dbn,
    Rng,
    RunRecord,
    activation_histogram,
    make_partition,
    make_synthetic,
    read_pgm,
    results_table,
    weight_tiles,
)
from mndbn.mixed_norm import PenaltyConfig, TrainConfig, train_mnrbm

out_dir = "demo_out"
os.makedirs(out_dir, exist_ok=True)

train, _ = make_synthetic(n_train=1000, n_test=0, side=8, seed=0)
cfg = PenaltyConfig(lam=0.1, partition=make_partition(64, 8))
params = TrainConfig(epochs=10, batch_size=100, seed=0)

# The results table's cost column is CPU time, as in the paper's tables.
cpu0 = time.process_time()
m, _ = train_mnrbm(train.images, cfg, params, Rng(params.seed))
cpu_seconds = time.process_time() - cpu0

# Each hidden unit's incoming weights, rendered as an 8x8 grayscale tile
# on an 8x8 grid (per-tile contrast normalization).
tile_path = os.path.join(out_dir, "filters.pgm")
weight_tiles(m, grid=(8, 8), out_path=tile_path)
img = read_pgm(tile_path)
print(f"wrote {tile_path}: {img.shape[0]}x{img.shape[1]}, gray range {img.min()}..{img.max()}")

# How active each unit is on average: sparse layers pile up near zero. The
# histogram reads a network's top layer; here the network is the one layer.
hist_path = os.path.join(out_dir, "activations.csv")
counts, edges = activation_histogram(Dbn([m]), train.images, bins=10, out_path=hist_path)
print(f"wrote {hist_path}")
print("bin        count")
for b in range(len(counts)):
    print(f"{edges[b]:.1f}-{edges[b + 1]:.1f}    {counts[b]:5d}")

# Measured rows merge with the built-in reference table.
record = RunRecord(
    run="demo",
    architecture="mn-rbm(g8,64)",
    dataset="synthetic",
    accuracy_pct=0.0,
    cpu_seconds=cpu_seconds,
)
csv_path = os.path.join(out_dir, "results.csv")
txt_path = os.path.join(out_dir, "results.txt")
results_table([record], csv_path, txt_path)
print(f"\nwrote {csv_path} and {txt_path}:")
with open(txt_path, encoding="utf-8") as fh:
    for line in fh.read().splitlines()[:8]:
        print(line)

"""
Deep belief network: greedy pretraining and softmax fine-tuning
===============================================================

Stacks two group-sparse feature layers on synthetic digits, pretrains
them greedily bottom-up, then attaches a 10-way softmax head and
fine-tunes with mini-batch conjugate gradients.
"""
import numpy as np

from mndbn import (
    FineTuneConfig,
    Rng,
    attach_head,
    evaluate,
    fine_tune,
    make_partition,
    make_synthetic,
    predict_labels,
    pretrain_greedy,
)
from mndbn.mixed_norm import PenaltyConfig, TrainConfig

train, test = make_synthetic(n_train=2000, n_test=400, side=8, seed=0)

# One penalty config per layer; both layers use groups of 8.
layer_sizes = [64, 32]
cfgs = [
    PenaltyConfig(lam=0.1, partition=make_partition(64, 8)),
    PenaltyConfig(lam=0.1, partition=make_partition(32, 8)),
]
params = TrainConfig(epochs=10, batch_size=100, seed=0)

dbn, logs = pretrain_greedy(train, layer_sizes, cfgs, params, Rng(params.seed))
for i, log in enumerate(logs):
    print(f"layer {i}: {len(log)} epochs, final recon error {log[-1].recon_error:.4f}")

# Zero-initialized head, then supervised fine-tuning of the whole stack.
dbn = attach_head(dbn, n_classes=10)
ft_cfg = FineTuneConfig(batch_size=500, cg_iters=3)
dbn, ft_log = fine_tune(dbn, train, epochs=15, cfg=ft_cfg, rng=Rng(1), eval_dataset=test)

print("\nepoch  loss     train%  test%")
for row in ft_log:
    print(
        f"{row.epoch:5d}  {row.loss:7.4f}  {100 * row.train_accuracy:6.2f}"
        f"  {100 * row.test_accuracy:6.2f}"
    )

acc, confusion = evaluate(dbn, test)
print(f"\ntest accuracy: {100 * acc:.2f}%")
print("confusion matrix (rows true, cols predicted):")
print(confusion)

# Single predictions come straight from the softmax head.
sample = test.images[:8]
print(f"\npredicted: {predict_labels(dbn, sample)}")
print(f"true:      {test.labels[:8]}")

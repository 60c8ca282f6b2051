"""
Group-sparse feature learning: penalized vs. plain CD training
==============================================================

Trains the same layer twice on synthetic digits, once with the mixed-norm
penalty off (lambda = 0) and once on, from identical seeds. The penalty
drives hidden activation probabilities toward zero within most groups, so
the penalized layer ends up with sparser, more selective features.
"""
import numpy as np

from mndbn import Rng, make_partition, make_synthetic, prob_h_given_x
from mndbn.mixed_norm import PenaltyConfig, TrainConfig, mixed_norm, train_mnrbm

train, _ = make_synthetic(n_train=1000, n_test=0, side=8, seed=0)
partition = make_partition(64, 8)
params = TrainConfig(epochs=10, batch_size=100, seed=0)

plain_cfg = PenaltyConfig(lam=0.0, partition=partition)
sparse_cfg = PenaltyConfig(lam=0.3, partition=partition)

plain, plain_log = train_mnrbm(train.images, plain_cfg, params, Rng(params.seed))
sparse, sparse_log = train_mnrbm(train.images, sparse_cfg, params, Rng(params.seed))

print("epoch  recon(plain)  recon(sparse)  activation(plain)  activation(sparse)")
for a, b in zip(plain_log, sparse_log):
    print(
        f"{a.epoch:5d}  {a.recon_error:12.4f}  {b.recon_error:13.4f}"
        f"  {a.mean_hidden_activation:17.4f}  {b.mean_hidden_activation:19.4f}"
    )

# Both models see the same data; the penalized one is measurably sparser.
acts_plain = prob_h_given_x(plain, train.images)
acts_sparse = prob_h_given_x(sparse, train.images)
print(f"\nmean activation, plain:  {acts_plain.mean():.4f}")
print(f"mean activation, sparse: {acts_sparse.mean():.4f}")
print(f"mixed norm, plain:  {float(np.mean(mixed_norm(acts_plain, sparse_cfg))):.4f}")
print(f"mixed norm, sparse: {float(np.mean(mixed_norm(acts_sparse, sparse_cfg))):.4f}")

# Low-duty units (batch-mean activation below 25%) per model.
quiet_plain = int((acts_plain.mean(axis=0) < 0.25).sum())
quiet_sparse = int((acts_sparse.mean(axis=0) < 0.25).sum())
print(f"\nunits with mean activation < 0.25: plain {quiet_plain}, sparse {quiet_sparse}")

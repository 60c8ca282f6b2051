"""
Energy model basics: conditionals, a Gibbs step, and CD-1 training
==================================================================

Trains a tiny binary-latent energy model on two noisy prototypes and
watches the exact log likelihood improve. The model is small enough
(6 visible, 4 hidden) to enumerate all states, so no estimate is needed.
"""
import numpy as np

from mndbn import (
    CdStats,
    Rbm,
    Rng,
    apply_update,
    cd_step,
    energy,
    exact_log_likelihood,
    prob_h_given_x,
    prob_x_given_h,
    sample_bernoulli,
)

rng = Rng(0)

# Two complementary 6-pixel prototypes, repeated with bit-flip noise.
protos = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
data = protos[np.arange(200) % 2]
flips = rng.uniform((200, 6)) < 0.05
data = np.abs(data - flips)

m = Rbm.init_random(n_visible=6, n_hidden=4, rng=rng, std=0.01)

# Energy of one joint configuration, and both conditionals.
x = data[0]
h = np.array([1.0, 0.0, 1.0, 0.0])
print(f"energy(x, h)      = {energy(m, x, h):+.4f}")
print(f"p(h=1 | x)        = {np.round(prob_h_given_x(m, x), 3)}")
print(f"p(x=1 | h)        = {np.round(prob_x_given_h(m, h), 3)}")

# One Gibbs step, the chain of CD-1: sample hiddens, then reconstruct the
# visibles as probabilities.
x_tilde = prob_x_given_h(m, sample_bernoulli(prob_h_given_x(m, x), rng))
print(f"reconstruction    = {np.round(x_tilde, 3)}")

# One-step contrastive divergence (CD-1): push the data term up and the
# one-step reconstruction down.
print("\nepoch  mean log p(x)")
for epoch in range(30):
    velocity = CdStats.zeros(m)
    for start in range(0, len(data), 20):
        stats = cd_step(m, data[start : start + 20], rng=rng)
        apply_update(m, stats, lr=0.2, momentum=0.5, velocity=velocity)
    if epoch % 5 == 4:
        ll = exact_log_likelihood(m, data).mean()
        print(f"{epoch:5d}  {ll:+.4f}")

# The trained model reconstructs a corrupted prototype.
noisy = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
x_tilde = prob_x_given_h(m, sample_bernoulli(prob_h_given_x(m, noisy), rng))
print(f"\ncorrupted input   = {noisy}")
print(f"denoised          = {np.round(x_tilde, 2)}")

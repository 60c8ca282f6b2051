"""Group-sparse RBM and deep belief network training toolkit.

Feature layers are binary-latent energy models trained by contrastive
divergence, optionally regularized by a mixed norm over grouped hidden
activation probabilities (non-overlapping or overlapping groups). Stacks
pretrain greedily and fine-tune a softmax head with nonlinear conjugate
gradients.

Attribute access is lazy so that importing the package (e.g. for the
command-line entry point) does not pull in numpy before thread-count
environment variables are set.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The `mixed_norm` value function is deliberately not re-exported here: it
# would shadow the mndbn.mixed_norm submodule. Import it from the submodule.
_EXPORTS = {
    "ConfigError": "errors",
    "DataError": "errors",
    "NumericError": "errors",
    "Rng": "core",
    "sigmoid": "core",
    "sample_bernoulli": "core",
    "GroupPartition": "groups",
    "make_partition": "groups",
    "Rbm": "rbm",
    "CdStats": "rbm",
    "Velocity": "rbm",
    "energy": "rbm",
    "prob_h_given_x": "rbm",
    "prob_x_given_h": "rbm",
    "gibbs_chain": "rbm",
    "cd_step": "rbm",
    "apply_update": "rbm",
    "exact_partition_function": "rbm",
    "exact_log_likelihood": "rbm",
    "exact_log_likelihood_grad": "rbm",
    "PenaltyConfig": "mixed_norm",
    "TrainConfig": "mixed_norm",
    "EpochStats": "mixed_norm",
    "penalty_grad": "mixed_norm",
    "regularized_update": "mixed_norm",
    "train_mnrbm": "mixed_norm",
    "write_training_log": "mixed_norm",
    "Dataset": "data",
    "load_idx": "data",
    "load_usps": "data",
    "resize_bilinear": "data",
    "shuffle_split": "data",
    "make_synthetic": "synth",
    "SoftmaxLayer": "dbn",
    "Dbn": "dbn",
    "forward": "dbn",
    "attach_head": "dbn",
    "softmax_predict": "dbn",
    "predict_labels": "dbn",
    "pretrain_greedy": "dbn",
    "FineTuneConfig": "dbn",
    "fine_tune": "dbn",
    "evaluate": "dbn",
    "loss_and_grad": "dbn",
    "save_dbn": "model_io",
    "load_dbn": "model_io",
    "ReportConfig": "report",
    "RunRecord": "report",
    "REFERENCE_RESULTS": "report",
    "weight_tiles": "report",
    "read_pgm": "report",
    "activation_histogram": "report",
    "results_table": "report",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

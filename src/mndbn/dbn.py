"""Deep belief network built from stacked binary-latent feature layers.

Layers are pretrained greedily, bottom up, each on the mean-field hidden
probabilities of the layer below. Classification attaches a softmax head
on top of the deepest feature layer; supervised fine-tuning runs nonlinear
conjugate gradients (Polak-Ribiere with restarts) over mini-batches, with a
plain gradient-descent fallback. Visible biases take no part in the
feedforward pass, so fine-tuning leaves them untouched.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Rng, _overflow_raises, require_finite
from .data import NUM_CLASSES, shuffle_split
from .errors import ConfigError
from .mixed_norm import EpochStats, train_mnrbm
from .rbm import prob_h_given_x


@dataclass
class SoftmaxLayer:
    """Linear map to class logits; columns index classes."""

    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        self.w_out = np.asarray(self.w_out, dtype=float)
        self.b_out = np.asarray(self.b_out, dtype=float)
        if self.w_out.ndim != 2:
            raise ValueError(f"w_out must be 2-D, got shape {self.w_out.shape}")
        if self.b_out.shape != (self.w_out.shape[1],):
            raise ValueError(
                f"b_out shape {self.b_out.shape} does not match {self.w_out.shape[1]} classes"
            )

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[1]


@dataclass
class Dbn:
    """Feature layer stack plus an optional softmax head."""

    layers: list
    head: SoftmaxLayer | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one feature layer")
        for lower, upper in zip(self.layers, self.layers[1:]):
            if upper.n_visible != lower.n_hidden:
                raise ValueError(
                    f"layer sizes do not chain: {lower.n_hidden} hidden feeds "
                    f"{upper.n_visible} visible"
                )
        if self.head is not None and self.head.w_out.shape[0] != self.layers[-1].n_hidden:
            raise ValueError("head input size does not match top layer")

    @property
    def n_visible(self) -> int:
        return self.layers[0].n_visible

    @property
    def n_features(self) -> int:
        return self.layers[-1].n_hidden


def forward(d: Dbn, x) -> np.ndarray:
    """Mean-field pass: compose hidden probabilities layer by layer.

    No sampling is involved, so the output is a deterministic function of
    the input. Accepts a single flattened image or a batch.
    """
    out = np.asarray(x, dtype=float)
    for layer in d.layers:
        out = prob_h_given_x(layer, out)
    return out


def _forward_stack(d: Dbn, x: np.ndarray) -> list[np.ndarray]:
    """All layer activations, input first, for use by backprop."""
    acts = [x]
    for layer in d.layers:
        acts.append(prob_h_given_x(layer, acts[-1]))
    return acts


def attach_head(d: Dbn, n_classes: int) -> Dbn:
    """Put a zero-initialized softmax head on the top feature layer."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    d.head = SoftmaxLayer(np.zeros((d.n_features, n_classes)), np.zeros(n_classes))
    return d


def _head(d: Dbn) -> SoftmaxLayer:
    if d.head is None:
        raise ValueError("model has no classification head; call attach_head first")
    return d.head


def _check_labels(d: Dbn, dataset) -> None:
    """Raise ValueError if a label of `dataset` has no class in the head."""
    n_classes = _head(d).n_classes
    top = int(dataset.labels.max(initial=-1))
    if top >= n_classes:
        raise ValueError(f"the head has {n_classes} classes, but the largest label is {top}")


def _logits(d: Dbn, x) -> np.ndarray:
    _head(d)
    return _head_logits(d, forward(d, x))


def _head_logits(d: Dbn, feats: np.ndarray) -> np.ndarray:
    return feats @ d.head.w_out + d.head.b_out


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_predict(d: Dbn, x) -> np.ndarray:
    """Class probabilities for a single image or a batch (rows sum to 1)."""
    return _softmax(_logits(d, x))


def predict_labels(d: Dbn, x) -> np.ndarray:
    return np.argmax(_logits(d, x), axis=-1)


def pretrain_greedy(dataset, layer_sizes, cfgs, params, rng: Rng):
    """Train the layer stack bottom up on a Dataset's images.

    cfgs is a list of one PenaltyConfig per layer; params is the one
    TrainConfig every layer trains with. Each layer gets its own child
    generator via rng.spawn(index), so adding layers never perturbs the
    draws of the ones below. Returns the network and the per-layer
    training logs.
    """
    layer_sizes = list(layer_sizes)
    if not layer_sizes:
        raise ConfigError("layer_sizes must name at least one layer")
    if len(cfgs) != len(layer_sizes):
        raise ConfigError(f"got {len(cfgs)} penalty configs for {len(layer_sizes)} layers")
    current = dataset.images
    layers = []
    logs: list[list[EpochStats]] = []
    for idx, size in enumerate(layer_sizes):
        m, log = train_mnrbm(current, size, cfgs[idx], params, rng.spawn(idx))
        layers.append(m)
        logs.append(log)
        if idx + 1 < len(layer_sizes):
            with _overflow_raises(f"the forward pass into layer {idx + 2}"):
                current = prob_h_given_x(m, current)
    return Dbn(layers), logs


@dataclass
class FineTuneConfig:
    """Knobs for supervised fine-tuning.

    method "cg" runs cg_iters conjugate-gradient iterations per mini-batch
    with Armijo backtracking; "gd" takes the same number of fixed-step
    gradient moves instead. Every mini-batch starts from steepest descent,
    and within a batch the direction resets to steepest descent whenever
    it stops descending (Polak-Ribiere with beta clipped at zero).
    head_only moves the head alone; fine_tune says what a batch costs.

    epochs, n_classes and seed describe the run around fine_tune, as
    TrainConfig.seed does for pretraining: the caller passes them to
    fine_tune (epochs by position, as the benchmark does), attach_head
    and Rng.
    """

    batch_size: int = 1000
    cg_iters: int = 3
    method: str = "cg"
    lr: float = 0.1
    c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 30
    epochs: int = 30
    head_only: bool = False
    n_classes: int = NUM_CLASSES
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.method not in ("cg", "gd"):
            raise ConfigError(f"method must be 'cg' or 'gd', got {self.method!r}")
        if self.batch_size < 1 or self.cg_iters < 1:
            raise ConfigError("batch_size and cg_iters must be >= 1")
        if not 0.0 < self.backtrack < 1.0:
            raise ConfigError(f"backtrack factor must be in (0, 1), got {self.backtrack}")
        if not (self.lr > 0.0 and 0.0 < self.c1 < 1.0):
            raise ConfigError(f"need lr > 0 and c1 in (0, 1), got {self.lr} and {self.c1}")
        if self.max_backtracks < 1:
            raise ConfigError(f"max_backtracks must be >= 1, got {self.max_backtracks}")


@dataclass
class FineTuneEpoch:
    epoch: int
    loss: float
    train_accuracy: float
    test_accuracy: float
    wall_seconds: float


def _slots(d: Dbn, head_only: bool) -> list:
    """The arrays fine-tuning moves, as (owner, attribute) pairs in vector
    order: each layer's w then a_hid, bottom up, then the head's w_out and
    b_out. Visible biases stay out: the feedforward pass never reads them."""
    layers = [] if head_only else d.layers
    trained = [(m, name) for m in layers for name in ("w", "a_hid")]
    return trained + [(d.head, "w_out"), (d.head, "b_out")]


def _views(slots, vector: np.ndarray) -> list[np.ndarray]:
    """Consecutive pieces of vector, each reshaped like its slot's array:
    the layout of the vector _bind builds."""
    views, pos = [], 0
    for m, name in slots:
        a = getattr(m, name)
        views.append(vector[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    return views


def _bind(d: Dbn, head_only: bool) -> np.ndarray:
    """Gather the trained arrays into one new vector, rebind each as a
    reshaped view of it, and return it. The model and the vector then
    alias: an in-place write to either shows in the other."""
    slots = _slots(d, head_only)
    params = np.concatenate([getattr(m, name).ravel() for m, name in slots])
    for (m, name), view in zip(slots, _views(slots, params)):
        setattr(m, name, view)
    return params


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(y.shape[0]), y]))


def _loss_only(d: Dbn, x, y):
    """Mean cross-entropy, and the layer activations (input first) it was
    computed from: the forward half of loss_and_grad."""
    acts = _forward_stack(d, np.asarray(x, dtype=float))
    return _cross_entropy(_head_logits(d, acts[-1]), y), acts


def loss_and_grad(d: Dbn, x, y, head_only: bool = False, forward=None):
    """Mean cross-entropy of the softmax output and its gradient.

    The gradient comes back flat, in the vector order of _slots: each
    block is written straight into its piece of one vector. Backprop
    multiplies by p(1-p) at each sigmoid layer, in the incoming gradient's
    buffer; no gradient is formed for the input. forward, when given, is the (loss, activations) pair that
    _loss_only returned for this x at the model's current parameters; only
    the backward pass then runs.
    """
    y = np.asarray(y, dtype=np.int64)
    loss, acts = forward if forward is not None else _loss_only(d, x, y)
    n = y.shape[0]
    d_logits = _softmax(_head_logits(d, acts[-1]))
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    slots = _slots(d, head_only)
    grad = np.empty(sum(getattr(m, name).size for m, name in slots))
    *layer_views, w_out, b_out = _views(slots, grad)
    np.matmul(acts[-1].T, d_logits, out=w_out)
    d_logits.sum(axis=0, out=b_out)
    if not head_only:
        d_act = d_logits @ d.head.w_out.T
        for idx in range(len(d.layers) - 1, -1, -1):
            layer, a = d.layers[idx], acts[idx + 1]
            d_pre = np.multiply(d_act, a, out=d_act)
            d_pre *= 1.0 - a
            np.matmul(acts[idx].T, d_pre, out=layer_views[2 * idx])
            d_pre.sum(axis=0, out=layer_views[2 * idx + 1])
            if idx > 0:
                d_act = d_pre @ layer.w.T
    return loss, grad


def _armijo(d, params, direction, loss0, slope, x, y, cfg, alpha0):
    """Backtracking line search satisfying the Armijo condition.

    Starts from the adaptive trial step alpha0 and shrinks geometrically,
    writing each trial point into params, the vector _bind returned. Returns
    the accepted step, its loss and the activations of its forward pass,
    with params holding the accepted point; or (None, loss0, None) when
    max_backtracks shrinkings never reach sufficient decrease, with params
    restored.
    """
    theta = params.copy()
    alpha = alpha0
    for _ in range(cfg.max_backtracks):
        np.multiply(direction, alpha, out=params)
        params += theta
        trial, acts = _loss_only(d, x, y)
        if np.isfinite(trial) and trial <= loss0 + cfg.c1 * alpha * slope:
            return alpha, trial, acts
        del acts  # keep one trial's activations alive at a time
        alpha *= cfg.backtrack
    params[:] = theta
    return None, loss0, None


def _cg_batch(d, params, x, y, cfg, alpha_prev):
    """cfg.cg_iters Polak-Ribiere iterations on one mini-batch, starting
    from steepest descent and moving the bound vector params in place.
    Returns the last accepted step.

    The gradient at an accepted point reuses the line search's forward
    pass. After the last iteration no gradient is taken: it would only
    build a direction that the next batch discards.
    """
    loss, g = loss_and_grad(d, x, y, cfg.head_only)
    direction = -g
    for it in range(cfg.cg_iters):
        gg = float(g @ g)
        if gg == 0.0:
            break
        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -g
            slope = -gg
        alpha, loss, acts = _armijo(
            d, params, direction, loss, slope, x, y, cfg, 2.0 * alpha_prev
        )
        if alpha is None:
            break
        alpha_prev = alpha
        if it == cfg.cg_iters - 1:
            break
        _, new_g = loss_and_grad(d, x, y, cfg.head_only, forward=(loss, acts))
        del acts
        beta = max(0.0, float(new_g @ (new_g - g)) / gg)
        direction = -new_g + beta * direction
        g = new_g
    return alpha_prev


def fine_tune(
    d: Dbn,
    dataset,
    epochs: int,
    cfg: FineTuneConfig,
    rng: Rng,
    eval_dataset=None,
):
    """Supervised fine-tuning of the feedforward parameters.

    Runs cfg.cg_iters conjugate-gradient (or plain gradient) iterations on
    each mini-batch, a fresh steepest-descent direction per batch, and
    logs one row per epoch (epoch loss and accuracies are measured on the
    full splits after the epoch's updates). epochs is its own argument,
    not cfg.epochs, because the benchmark passes it by position. Zero
    epochs returns the model untouched with an empty log; otherwise its
    trained arrays come back as views of one vector (see _bind).

    One conjugate-gradient batch costs one forward and backward pass at
    its start, one forward pass per Armijo trial, and one backward pass
    for each accepted step except the last; nothing runs after the last
    iteration. Trials write into the model's own arrays: a line search
    copies the parameters once, and a trial allocates no vector of their
    size. A gradient-descent batch costs one forward and backward pass per
    step. Each epoch then makes one forward pass over each split.
    """
    _head(d)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    log: list[FineTuneEpoch] = []
    if epochs == 0:
        return d, log
    images = dataset.images
    labels = dataset.labels
    if images.shape[0] == 0:
        raise ValueError("cannot fine-tune on an empty dataset")
    _check_labels(d, dataset)
    if eval_dataset is not None:
        _check_labels(d, eval_dataset)
    params = _bind(d, cfg.head_only)
    alpha_prev = 1.0
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        for idx in shuffle_split(images.shape[0], cfg.batch_size, rng):
            x, y = images[idx], labels[idx]
            if cfg.method == "cg":
                alpha_prev = _cg_batch(d, params, x, y, cfg, alpha_prev)
                continue
            for _ in range(cfg.cg_iters):
                _, g = loss_and_grad(d, x, y, cfg.head_only)
                params -= cfg.lr * g
        require_finite("fine-tune parameters", params)
        epoch_loss, train_acc, _ = _mean_loss(d, dataset)
        test_acc = float("nan")
        if eval_dataset is not None:
            test_acc, _ = evaluate(d, eval_dataset)
        log.append(
            FineTuneEpoch(epoch, epoch_loss, train_acc, test_acc, time.perf_counter() - t0)
        )
    return d, log


def _mean_loss(d: Dbn, dataset, chunk: int = 10000):
    """Mean cross-entropy, accuracy and confusion matrix (rows true class,
    cols predicted) over a split, from one chunked forward pass."""
    n = dataset.images.shape[0]
    total = 0.0
    confusion = np.zeros((d.head.n_classes,) * 2, dtype=np.int64)
    for lo in range(0, n, chunk):
        logits = _logits(d, dataset.images[lo : lo + chunk])
        y = dataset.labels[lo : lo + chunk]
        total += _cross_entropy(logits, y) * y.shape[0]
        np.add.at(confusion, (y, np.argmax(logits, axis=-1)), 1)
    return total / n, int(np.trace(confusion)) / n, confusion


def evaluate(d: Dbn, dataset):
    """Accuracy and the confusion matrix (rows true class, cols predicted)."""
    if dataset.images.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_labels(d, dataset)
    _, acc, confusion = _mean_loss(d, dataset)
    return acc, confusion

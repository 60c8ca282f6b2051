"""Deep belief network built from stacked binary-latent feature layers.

Layers are pretrained greedily, bottom up, each on the mean-field hidden
probabilities of the layer below. Classification attaches a softmax head
on top of the deepest feature layer; supervised fine-tuning runs nonlinear
conjugate gradients (Polak-Ribiere with restarts) over mini-batches.
Visible biases take no part in the feedforward pass, so fine-tuning leaves
them untouched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Rng, _overflow_raises, require_finite, require_ints
from .data import shuffle_split
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
    return _up(d.layers, x)


def _up(layers, x) -> np.ndarray:
    """x through layers, bottom up; x as floats, not copied, if there are none."""
    out = np.asarray(x, dtype=float)
    for layer in layers:
        out = prob_h_given_x(layer, out)
    return out


def attach_head(d: Dbn, n_classes: int) -> Dbn:
    """Put a zero-initialized softmax head on the top feature layer."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    d.head = SoftmaxLayer(np.zeros((d.n_features, n_classes)), np.zeros(n_classes))
    return d


def _head(d: Dbn) -> SoftmaxLayer:
    if d.head is None:
        raise ValueError("model has no classification head; fine-tune the model first "
                         "(attach_head adds one)")
    return d.head


def _check_split(d: Dbn, dataset, split: str) -> None:
    """Raise ValueError naming the split unless `dataset` holds images of
    d.n_visible pixels, at least one, and each label has a class in the head."""
    n, width = dataset.images.shape
    if n == 0:
        raise ValueError(f"the {split} split is an empty dataset")
    if width != d.n_visible:
        raise ValueError(f"the network takes {d.n_visible} pixels per image, "
                         f"but the {split} images have {width}")
    n_classes, top = _head(d).n_classes, int(dataset.labels.max())
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


def predict_labels(d: Dbn, x) -> np.ndarray:
    return np.argmax(_logits(d, x), axis=-1)


def pretrain_greedy(dataset, layer_sizes, cfgs, params, rng: Rng):
    """Train the layer stack bottom up on a Dataset's images.

    cfgs is a list of one PenaltyConfig per layer, each partition checked
    against its layer's size before any layer trains; params is the one
    TrainConfig every layer trains with. Each layer gets its own child
    generator via rng.spawn(index), so adding layers never perturbs the
    draws of the ones below. Returns the network and each layer's log.
    """
    layer_sizes = list(layer_sizes)
    if not layer_sizes:
        raise ConfigError("layer_sizes must name at least one layer")
    if len(cfgs) != len(layer_sizes):
        raise ConfigError(f"got {len(cfgs)} penalty configs for {len(layer_sizes)} layers")
    for idx, (size, cfg) in enumerate(zip(layer_sizes, cfgs), 1):
        if (j := cfg.partition.j_original) != size:
            raise ConfigError(f"partition {idx} is over {j} units, layer {idx} has {size}")
    current = dataset.images
    layers = []
    logs: list[list[EpochStats]] = []
    for idx, cfg in enumerate(cfgs):
        m, log = train_mnrbm(current, cfg, params, rng.spawn(idx))
        layers.append(m)
        logs.append(log)
        if idx + 1 < len(cfgs):
            with _overflow_raises(f"the forward pass into layer {idx + 2}"):
                current = prob_h_given_x(m, current)
    return Dbn(layers), logs


@dataclass
class FineTuneConfig:
    """Knobs for supervised fine-tuning.

    Each mini-batch gets cg_iters Polak-Ribiere iterations with Armijo
    backtracking, starting from steepest descent and resetting to it
    whenever the direction stops descending (beta clipped at zero).
    head_only moves the head alone: a batch then runs the frozen stack once,
    and its trials and each epoch's scoring run only the head, on features
    that fine_tune caches (n x top-width floats per split; see fine_tune).
    epochs and seed describe the run around fine_tune, as TrainConfig.seed
    does for pretraining: the caller passes them to fine_tune (epochs by
    position, as the benchmark does) and Rng.
    """

    batch_size: int = 1000
    cg_iters: int = 3
    epochs: int = 30
    head_only: bool = False
    seed: int = 0

    def __post_init__(self):
        require_ints(batch_size=self.batch_size, cg_iters=self.cg_iters, epochs=self.epochs,
                     seed=self.seed)
        if not isinstance(self.head_only, (bool, np.bool_)):
            raise ConfigError(f"head_only must be true or false, got {self.head_only!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.batch_size < 1 or self.cg_iters < 1:
            raise ConfigError(
                "need epochs >= 0, batch_size >= 1 and cg_iters >= 1, got "
                f"{self.epochs}, {self.batch_size} and {self.cg_iters}"
            )


@dataclass
class FineTuneEpoch:
    epoch: int
    loss: float
    train_accuracy: float
    test_accuracy: float


def _slots(d: Dbn, start: int) -> list:
    """The arrays fine-tuning moves, as (owner, attribute) pairs in vector
    order: w then a_hid of each layer from the cut start (the first layer
    that moves: 0, or len(d.layers) for the head alone) up, then the head's
    w_out and b_out. Visible biases stay out: no forward pass reads them."""
    trained = [(m, name) for m in d.layers[start:] for name in ("w", "a_hid")]
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


def _bind(d: Dbn, start: int) -> np.ndarray:
    """Gather the arrays trained above the cut start into one new vector,
    rebind each as a reshaped view of it, and return it. The model and the
    vector then alias: an in-place write to either shows in the other."""
    slots = _slots(d, start)
    params = np.concatenate([getattr(m, name).ravel() for m, name in slots])
    for (m, name), view in zip(slots, _views(slots, params)):
        setattr(m, name, view)
    return params


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(y.shape[0]), y]))


def _loss_only(d: Dbn, x, y, start: int):
    """Mean cross-entropy, and the activations above the cut start (x, its
    input, first) it was computed from: the forward half of loss_and_grad."""
    acts = [np.asarray(x, dtype=float)]
    for layer in d.layers[start:]:
        acts.append(prob_h_given_x(layer, acts[-1]))
    return _cross_entropy(_head_logits(d, acts[-1]), y), acts


def loss_and_grad(d: Dbn, x, y, start: int = 0, forward=None):
    """Mean cross-entropy of the softmax output and its gradient over the
    layers from the cut start up and the head (see _slots), given x, the
    input at the cut. A label outside the head's classes raises ValueError.

    The gradient comes back flat, in the vector order of _slots: each
    block is written straight into its piece of one vector. Backprop
    multiplies by p(1-p) at each sigmoid layer, in the incoming gradient's
    buffer, forming 1-p in the activation's own buffer; no gradient is
    formed for the input. The gradient passed down to the next layer goes
    into the memory of the activation just consumed when it fits, as it
    does when no layer is wider than the one above it; the pass then
    allocates one layer-width gradient buffer besides the result.
    forward, when given, is the (loss, activations) pair that _loss_only
    returned for this x at the model's current parameters; only the
    backward pass then runs, and it consumes those activations: every one
    but the input is overwritten with scratch values.
    """
    y, k = np.asarray(y), _head(d).n_classes
    if (bad := ~np.isin(y, np.arange(k))).any():
        raise ValueError(f"label {y[bad][0].item()!r} is not an integer in [0, {k})")
    y = y.astype(np.int64, copy=False)
    loss, acts = forward if forward is not None else _loss_only(d, x, y, start)
    n = y.shape[0]
    d_logits = _softmax(_head_logits(d, acts[-1]))
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    slots = _slots(d, start)
    grad = np.empty(sum(getattr(m, name).size for m, name in slots))
    *layer_views, w_out, b_out = _views(slots, grad)
    np.matmul(acts[-1].T, d_logits, out=w_out)
    d_logits.sum(axis=0, out=b_out)
    layers = d.layers[start:]
    d_pre, above, spare = d_logits, d.head.w_out, None
    for idx in range(len(layers) - 1, -1, -1):
        a = acts[idx + 1]
        d_act = np.matmul(d_pre, above.T, out=spare)
        d_pre = np.multiply(d_act, a, out=d_act)
        d_pre *= np.subtract(1.0, a, out=a)
        np.matmul(acts[idx].T, d_pre, out=layer_views[2 * idx])
        d_pre.sum(axis=0, out=layer_views[2 * idx + 1])
        above = layers[idx].w
        need = a.shape[0] * above.shape[0]
        spare = a.reshape(-1)[:need].reshape(a.shape[0], -1) if a.size >= need else None
    return loss, grad


# Armijo sufficient-decrease constant, step shrink factor and trial budget.
_C1, _BACKTRACK, _MAX_BACKTRACKS = 1e-4, 0.5, 30


def _armijo(d, params, direction, loss0, slope, x, y, start, alpha0):
    """Backtracking line search satisfying the Armijo condition.

    Starts from the adaptive trial step alpha0 and shrinks by _BACKTRACK,
    writing each trial point into params, the vector _bind returned, and
    scoring it on x, the input at the cut start. Returns the accepted step,
    its loss and the activations of its forward pass, with params holding
    the accepted point; or (None, loss0, None) when _MAX_BACKTRACKS trials
    never reach sufficient decrease, with params restored.
    """
    theta = params.copy()
    alpha = alpha0
    for _ in range(_MAX_BACKTRACKS):
        np.multiply(direction, alpha, out=params)
        params += theta
        trial, acts = _loss_only(d, x, y, start)
        if np.isfinite(trial) and trial <= loss0 + _C1 * alpha * slope:
            return alpha, trial, acts
        del acts  # keep one trial's activations alive at a time
        alpha *= _BACKTRACK
    params[:] = theta
    return None, loss0, None


def _cg_batch(d, params, x, y, start, cfg, alpha_prev):
    """cfg.cg_iters Polak-Ribiere iterations on one mini-batch whose input
    at the cut start is x, starting from steepest descent and moving the
    bound vector params in place. Returns the last accepted step.

    The gradient at an accepted point reuses the line search's forward
    pass. After the last iteration no gradient is taken: it would only
    build a direction that the next batch discards. The direction is
    updated in place, and the Polak-Ribiere difference new_g - g is formed
    in the old gradient's buffer, so an iteration allocates no vector of
    the parameters' size beyond the new gradient and the line search's
    start point.
    """
    loss, g = loss_and_grad(d, x, y, start)
    direction = np.negative(g)
    for it in range(cfg.cg_iters):
        gg = float(g @ g)
        if gg == 0.0:
            break
        slope = float(g @ direction)
        if slope >= 0.0:
            np.negative(g, out=direction)
            slope = -gg
        alpha, loss, acts = _armijo(d, params, direction, loss, slope, x, y, start, 2.0 * alpha_prev)
        if alpha is None:
            break
        alpha_prev = alpha
        if it == cfg.cg_iters - 1:
            break
        _, new_g = loss_and_grad(d, x, y, start, forward=(loss, acts))
        del acts
        np.subtract(new_g, g, out=g)  # g becomes new_g - g: the old gradient is dead
        _conjugate(direction, new_g, max(0.0, float(new_g @ g) / gg))
        g = new_g
    return alpha_prev


def _conjugate(direction, new_g, beta):
    """direction := -new_g + beta * direction, in place and to the bit:
    products commute, and IEEE defines b - a as b + (-a) exactly."""
    direction *= beta
    direction -= new_g


def fine_tune(
    d: Dbn,
    dataset,
    epochs: int,
    cfg: FineTuneConfig,
    rng: Rng,
    eval_dataset=None,
):
    """Supervised fine-tuning of the feedforward parameters.

    Runs cfg.cg_iters conjugate-gradient iterations on each mini-batch, a
    fresh steepest-descent direction per batch, and logs one row per epoch
    (epoch loss and accuracies are measured on the full splits after the
    epoch's updates). epochs is its own argument, not cfg.epochs, because
    the benchmark passes it by position. Zero epochs returns the model
    untouched with an empty log; otherwise both splits are checked (see
    _check_split) before any parameter moves, and the trained arrays come
    back as views of one vector (see _bind).

    The network is cut at start, the first layer that moves: 0, or
    len(d.layers) with cfg.head_only. The input at the cut is formed once
    per batch, before its iterations, and once per run for each
    _LOSS_CHUNK-row chunk of each split; at start 0 it is the images
    themselves, as views. Head-only, the cache holds n x top-width floats
    per split: 5.8 MB for USPS's 7,291 training images at a 100-wide top.

    One conjugate-gradient batch costs, above the cut, one forward and
    backward pass at its start, one forward pass per Armijo trial, and one
    backward pass for each accepted step except the last; nothing runs
    after the last iteration. Trials write into the model's own arrays: a
    line search copies the parameters once, and a trial allocates no
    vector of their size. Each epoch then scores each split above the cut.
    Head-only, a batch runs the frozen stack once, then only the head, and
    an epoch's scoring runs only the head.

    A conjugate-gradient step holds the parameters, the gradient and the
    direction, and one more vector of their size: the line search's start
    point during the search, then the new gradient. Besides these it holds
    the batch, one forward pass's activations and one layer-width gradient
    buffer.
    """
    _head(d)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    log: list[FineTuneEpoch] = []
    if epochs == 0:
        return d, log
    _check_split(d, dataset, "training")
    if eval_dataset is not None:
        _check_split(d, eval_dataset, "evaluation")
    start = len(d.layers) if cfg.head_only else 0
    splits = [(s.labels, [_up(d.layers[:start], c) for c in _chunks(s.images)])
              for s in (dataset, eval_dataset) if s is not None]
    params = _bind(d, start)
    alpha_prev = 1.0
    for epoch in range(1, epochs + 1):
        for idx in shuffle_split(dataset.images.shape[0], cfg.batch_size, rng):
            x = _up(d.layers[:start], dataset.images[idx])
            alpha_prev = _cg_batch(d, params, x, dataset.labels[idx], start, cfg, alpha_prev)
        require_finite("fine-tune parameters", params)
        epoch_loss, train_acc, _ = _mean_loss(d, *splits[0], start)
        test_acc = float("nan") if eval_dataset is None else _mean_loss(d, *splits[1], start)[1]
        log.append(FineTuneEpoch(epoch, epoch_loss, train_acc, test_acc))
    return d, log


_LOSS_CHUNK = 10000


def _chunks(images) -> list:
    """images as the _LOSS_CHUNK-row views that _mean_loss scores."""
    return [images[lo : lo + _LOSS_CHUNK] for lo in range(0, images.shape[0], _LOSS_CHUNK)]


def _mean_loss(d: Dbn, labels, chunks, start: int):
    """Mean cross-entropy, accuracy and confusion matrix (rows true class,
    cols predicted) over a split, from one pass above the cut start over
    chunks, its _LOSS_CHUNK-row pieces at the cut (see _chunks)."""
    n, total = labels.shape[0], 0.0
    confusion = np.zeros((d.head.n_classes,) * 2, dtype=np.int64)
    for lo, chunk in zip(range(0, n, _LOSS_CHUNK), chunks):
        logits = _head_logits(d, _up(d.layers[start:], chunk))
        y = labels[lo : lo + _LOSS_CHUNK]
        total += _cross_entropy(logits, y) * y.shape[0]
        np.add.at(confusion, (y, np.argmax(logits, axis=-1)), 1)
    return total / n, int(np.trace(confusion)) / n, confusion


def evaluate(d: Dbn, dataset):
    """Accuracy and the confusion matrix (rows true class, cols predicted)."""
    _check_split(d, dataset, "evaluation")
    _, acc, confusion = _mean_loss(d, dataset.labels, _chunks(dataset.images), 0)
    return acc, confusion

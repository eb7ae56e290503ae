"""Minimal dense feed-forward networks in numpy.

Forward pass, backpropagation with Adam, L1/L2 regularization on weights,
patience-based early stopping with best-epoch weight snapshots, a
finite-difference gradient checker, and lossless model files.

Shared by the plain classifier, the autoencoder, and the knowledge-compiled
network; training is single-threaded and bit-reproducible for a given seed.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from copy import deepcopy
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from .datakit import Dataset, _match_columns, _rescale, _scaling, _stratified_mask, one_hot, scale
from .rulelang import RuleSet, format_rules, parse_rules

__all__ = [
    "Layer",
    "Network",
    "TrainConfig",
    "TrainReport",
    "GradientCheckReport",
    "TrainingError",
    "build_network",
    "build_mlp",
    "forward",
    "predict_proba",
    "predictor",
    "predict_labels",
    "train",
    "train_stack",
    "validation_split",
    "numerical_gradient_check",
    "save_network",
    "load_network",
]

ACTIVATIONS = ("relu", "sigmoid", "softmax", "linear")
LOSSES = ("cross_entropy", "mean_squared_error")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Version 4 adds the compiled rule text to meta.json; older files are rejected.
MODEL_FORMAT_VERSION = 4


class TrainingError(RuntimeError):
    pass


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, into `out`
    (which may be `z`); exp(-|z|) never overflows."""
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _row_max(z):
    """`z.max(axis=-1, keepdims=True)`, one column at a time: numpy reduces a
    short last axis row by row, four to ten times slower for two classes."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j : j + 1], out=m)
    return m


def _softmax(z, out=None, terms=None):
    """Softmax of each row of `z`; `terms`, if given, is a list that receives
    the row max m and the row sums s of exp(z - m), which `_logsumexp` reuses."""
    m = _row_max(z)
    out = np.subtract(z, m, out=out)
    np.exp(out, out=out)
    s = out.sum(axis=-1, keepdims=True)
    out /= s
    if terms is not None:
        terms[:] = m, s
    return out


def _activate(z, kind, out=None, terms=None):
    """Activation of pre-activations `z`, written into `out` when given;
    linear returns `z` itself. `terms` is passed to `_softmax`."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sigmoid":
        return _sigmoid(z, out)
    if kind == "softmax":
        return _softmax(z, out, terms)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Layer:
    """One dense layer: weights are (out_units, in_units)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (out_units, in_units)")
        self.biases = np.asarray(self.biases, dtype=np.float64).reshape(-1)
        if self.biases.shape[0] != self.weights.shape[0]:
            raise ValueError("bias length must equal out_units")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("weights and biases must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_units(self) -> int:
        return self.weights.shape[0]

    @property
    def in_units(self) -> int:
        return self.weights.shape[1]


@dataclass
class Network:
    """Dense layers, their labels, and the per-input (lo, hi) bounds that `datakit.scale`
    maps raw inputs with, once per call of `train` and of each prediction entry point
    (`total_loss` and the private passes, which run over a list of layers, take scaled
    inputs). The default (0, 1) is bit-exact identity. Predictions and validation run
    `_final_activations`, which keeps one layer's result at a time; training and
    `forward` run `_forward_full`, which keeps every layer's.
    `rules` is the rule set a knowledge model was compiled from, None for a plain net."""

    layers: list[Layer]
    unit_labels: list[list[str]]
    input_names: list[str]
    input_bounds: np.ndarray | None = None
    rules: RuleSet | None = None

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        if self.layers[0].in_units != len(self.input_names):
            raise ValueError("input_names length must match first layer width")
        if self.input_bounds is None:
            self.input_bounds = np.tile([0.0, 1.0], (self.input_dim, 1))
        bounds = self.input_bounds = np.asarray(self.input_bounds, dtype=np.float64)
        ok = bounds.shape == (self.input_dim, 2) and np.isfinite(bounds).all()
        if not (ok and (bounds[:, 0] <= bounds[:, 1]).all()):
            raise ValueError("input_bounds must hold one finite (lo, hi) pair per input, lo <= hi")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.in_units != a.out_units:
                raise ValueError("adjacent layer dimensions are incompatible")
        if len(self.unit_labels) != len(self.layers):
            raise ValueError("unit_labels must have one list per layer")
        for layer, labels in zip(self.layers, self.unit_labels):
            if len(labels) != layer.out_units:
                raise ValueError("unit label count must match layer width")

    @property
    def output_names(self) -> list[str]:
        """The class names: the last layer's unit labels."""
        return self.unit_labels[-1]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_units

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_units

    def copy(self) -> "Network":
        return deepcopy(self)


def build_network(input_dim, layer_specs, seed, input_names=None, output_names=None) -> Network:
    """Assemble a network from (width, activation) layer specs; `output_names` labels the last layer.

    Weights are seeded uniform in +-sqrt(6 / (fan_in + fan_out)); biases zero.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    labels = []
    fan_in = input_dim
    for i, (width, activation) in enumerate(layer_specs):
        if width < 1:
            raise ValueError("layer widths must be >= 1")
        limit = np.sqrt(6.0 / (fan_in + width))
        layers.append(Layer(rng.uniform(-limit, limit, size=(width, fan_in)), np.zeros(width), activation))
        labels.append([f"u{i + 1}_{j + 1}" for j in range(width)])
        fan_in = width
    if output_names:
        labels[-1] = list(output_names)
    input_names = list(input_names) if input_names else [f"x{j + 1}" for j in range(input_dim)]
    return Network(layers, labels, input_names)


def build_mlp(input_dim, hidden, output_dim, seed, input_names=None, class_names=None) -> Network:
    """ReLU hidden layers then a softmax head: the plain classifier shape."""
    if output_dim < 2:
        raise ValueError("softmax output requires output_dim >= 2")
    specs = [(h, "relu") for h in hidden] + [(output_dim, "softmax")]
    output_names = class_names or [f"class{j}" for j in range(output_dim)]
    return build_network(input_dim, specs, seed, input_names=input_names, output_names=output_names)


# --------------------------------------------------------------------------
# Forward / loss
# --------------------------------------------------------------------------


def _forward_full(layers, x: np.ndarray, out=None, terms=None):
    """Pre-activations and activations of each of `layers`, a network's layers
    or a run of them; `x` is the input to the first.

    `layers` are one network's, with `x` of shape (rows, in), or a stack of K
    same-shape networks' with (K, out, in) weights and (K, out) biases, with
    `x` of shape (K, rows, in); each member's results equal its own 2-D call
    bit for bit.
    `out`, if given, holds one (z, a) buffer pair per layer, each shaped like
    that layer's result; the results are written there.
    `terms`, if given, receives a softmax final layer's `_softmax` terms.
    """
    zs, acts = [], []
    a = x
    for layer, (z_buf, a_buf) in zip(layers, out or repeat((None, None))):
        z, a = _layer_step(layer, a, z_buf, a_buf, terms if layer is layers[-1] else None)
        zs.append(z)
        acts.append(a)
    return zs, acts


def _layer_step(layer, a, z_out=None, a_out=None, terms=None):
    """A layer's pre-activations and activations for input `a`, into `z_out` and
    `a_out` if given; `a_out` may be `z_out`, which every activation overwrites bit-exactly."""
    z = np.matmul(a, layer.weights.swapaxes(-1, -2), out=z_out)
    z += layer.biases[..., None, :]
    return z, _activate(z, layer.activation, a_out, terms)


def _final_activations(layers, x: np.ndarray, out=None) -> np.ndarray:
    """`_forward_full(layers, x)[1][-1]`, bit for bit, holding one layer's result
    at a time: each layer's activations overwrite its pre-activations. `out`,
    if given, holds one buffer per layer shaped like its result."""
    a = x
    for layer, buf in zip(layers, out or repeat(None)):
        buf = np.empty(a.shape[:-1] + layer.biases.shape[-1:]) if buf is None else buf
        _, a = _layer_step(layer, a, buf, buf)
    return a


def _as_batch(net: Network, x):
    """`x` as a float64 2-D batch, and whether it was one 1-D sample."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != net.input_dim:
        raise ValueError(f"input width {batch.shape[1]} != network input dim {net.input_dim}")
    return batch, single


def forward(net: Network, x) -> list[np.ndarray]:
    """Activations of every layer for one raw sample (1-D) or a raw batch (2-D)."""
    batch, single = _as_batch(net, x)
    _, acts = _forward_full(net.layers, scale(batch, net.input_bounds))
    return [a[0] if single else a for a in acts]


def predict_proba(net: Network, x) -> np.ndarray:
    """`forward(net, x)[-1]`, bit for bit, holding one layer's result at a time."""
    batch, single = _as_batch(net, x)
    probs = _final_activations(net.layers, scale(batch, net.input_bounds))
    return probs[0] if single else probs


def predictor(net: Network):
    """A callable equal to ``partial(predict_proba, net)`` that reuses a
    scaled-input buffer, the input bounds' lo and divisor tiled to full batch
    shape, and one activation buffer per layer across calls. The bounds are
    `net`'s when the callable is made.

    The buffers grow to the largest batch seen; smaller batches use row-prefix
    slices of them. Fresh activations of a 1000-row batch are big enough that
    the allocator maps and unmaps them on every call, and faulting their pages
    in again dominates a caller that makes many passes, such as LIME. Each call
    returns a copy, so a held result is never overwritten by the next call.
    """
    lo, divisor, constant = _scaling(net.input_bounds)
    inputs, buffers = [], []

    def predict(x) -> np.ndarray:
        batch, single = _as_batch(net, x)
        rows = batch.shape[0]
        if not inputs or inputs[0].shape[0] < rows:
            inputs[:] = [np.empty((rows, net.input_dim)), np.tile(lo, (rows, 1)), np.tile(divisor, (rows, 1))]
            buffers[:] = [np.empty((rows, layer.out_units)) for layer in net.layers]
        scaled = _rescale(batch, inputs[1][:rows], inputs[2][:rows], constant, out=inputs[0][:rows])
        probs = _final_activations(net.layers, scaled, out=[buf[:rows] for buf in buffers])
        return (probs[0] if single else probs).copy()

    return predict


def predict_labels(net: Network, x) -> np.ndarray:
    probs = np.atleast_2d(predict_proba(net, x))
    return np.asarray(net.output_names, dtype=object)[probs.argmax(axis=1)]


def _loss(layers, zs, acts, targets, config, reg_scale, magnitudes=None, terms=None):
    """Mean data loss of one forward pass over `layers` plus the penalty scaled by
    `reg_scale`: a float for one network; for a stack, one value per member, with
    `reg_scale` one value per member. `magnitudes` is passed to `_penalty`, and
    `terms`, the softmax terms the forward pass kept, to `_logsumexp`."""
    rows = zs[-1].shape[-2]
    if config.loss == "cross_entropy":
        logp = zs[-1] - _logsumexp(zs[-1], terms)
        data = -(targets * logp).sum(axis=(-2, -1)) / rows
    else:
        diff = acts[-1] - targets
        data = (diff * diff).sum(axis=(-2, -1)) / rows
    loss = data + _penalty(layers, config.l1, config.l2, magnitudes) * reg_scale
    return float(loss) if np.ndim(loss) == 0 else loss


def _logsumexp(z, terms=None):
    """log(sum(exp(z))) of each row as m + log(s), with `terms` (m, s) as
    `_softmax` computes them for `z`; computed here if `terms` is empty or None."""
    if not terms:
        m = _row_max(z)
        terms = m, np.exp(z - m).sum(axis=-1, keepdims=True)
    m, s = terms
    return m + np.log(s)


def _penalty(layers, l1, l2, magnitudes=None):
    """Summed L1 and L2 weight penalty of `layers`: one value per network of a
    stack. `magnitudes`, if given, holds each layer's |w| and w * w."""
    if magnitudes is None:
        magnitudes = [(np.abs(layer.weights), layer.weights * layer.weights) for layer in layers]
    total = 0.0
    for abs_w, square_w in magnitudes:
        # np.add.reduce is ndarray.sum without its Python wrapper
        total = total + (l1 * np.add.reduce(abs_w, axis=(-2, -1)) + l2 * np.add.reduce(square_w, axis=(-2, -1)))
    return total


def _penalty_grad(w, config, reg_scale, out=None, scratch=None):
    """Gradient of the penalty at weights `w`: (l1 * sign(w) + 2 * l2 * w) * reg_scale,
    evaluated in that order; into `out` if given, with `scratch` shaped like `w`."""
    grad = np.sign(w, out=out)
    grad *= config.l1
    grad += np.multiply(w, 2.0 * config.l2, out=scratch)
    grad *= reg_scale
    return grad


def total_loss(net: Network, x, targets, config, reg_scale: float | None = None) -> float:
    """Mean data loss plus the regularization penalty scaled like the data term.

    During training the penalty is divided by the training-set size; callers
    working on a standalone batch (e.g. the gradient checker) leave
    `reg_scale` unset and the batch plays the dataset's role.
    """
    if reg_scale is None:
        reg_scale = 1.0 / x.shape[0]
    zs, acts = _forward_full(net.layers, x)
    return _loss(net.layers, zs, acts, targets, config, reg_scale)


# --------------------------------------------------------------------------
# Backpropagation
# --------------------------------------------------------------------------


def _times_activation_grad(delta, layer: Layer, a):
    """Multiply `delta` in place by the derivative of `layer`'s activation,
    from its output `a` alone (relu's a > 0 is its input's z > 0)."""
    if layer.activation == "relu":
        np.multiply(delta, a > 0, out=delta)
    elif layer.activation == "sigmoid":
        grad = np.subtract(1.0, a)
        grad *= a
        delta *= grad
    elif layer.activation != "linear":
        raise TrainingError("softmax is only supported as the final layer with cross-entropy loss")


def _backprop(layers, x, targets, config, reg_scale=None, cache=None, out=None, penalty=None):
    """Gradients of total_loss wrt every weight and bias of `layers`, one network's
    or, as in `_forward_full`, a stack's (then `reg_scale` holds one value per
    member); `cache` is the caller's `_forward_full(layers, x)` result, if it has one.

    `out`, if given, holds per layer three buffers shaped like its weight
    gradient, bias gradient and delta (rows of `x` by layer width); the
    gradients are written there. A delta buffer may be the layer's
    pre-activations in `cache`, which are not read here. `penalty`, if
    given, holds each layer's `_penalty_grad`, which is otherwise computed here.
    """
    batch = x.shape[-2]
    if reg_scale is None:
        reg_scale = 1.0 / batch
    _, acts = cache if cache is not None else _forward_full(layers, x)
    n = len(layers)
    if penalty is None:
        reg_scale = np.expand_dims(reg_scale, (-2, -1))
        penalty = [_penalty_grad(layer.weights, config, reg_scale) for layer in layers]
    out = out or [(None,) * 3] * n
    last = layers[-1]
    delta = np.subtract(acts[-1], targets, out=out[-1][2])
    if config.loss == "cross_entropy":
        if last.activation != "softmax":
            raise TrainingError("cross-entropy loss requires a softmax output layer")
        delta /= batch
    else:
        if last.activation == "softmax":
            raise TrainingError("mean_squared_error is not supported with a softmax output layer")
        delta *= 2.0
        delta /= batch
        _times_activation_grad(delta, last, acts[-1])

    grads_w, grads_b = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        w_buf, b_buf, _ = out[i]
        below = x if i == 0 else acts[i - 1]
        gw = grads_w[i] = np.matmul(delta.swapaxes(-1, -2), below, out=w_buf)
        # added over each member's weights as one row: numpy steps through a
        # strided 3-D view several times slower than through its 2-D form
        flat = gw.reshape(gw.shape[:-2] + (-1,))
        flat += penalty[i].reshape(flat.shape)
        grads_b[i] = delta.sum(axis=-2, out=b_buf)
        if i > 0:
            delta = np.matmul(delta, layers[i].weights, out=out[i - 1][2])
            _times_activation_grad(delta, layers[i - 1], acts[i - 1])
    return grads_w, grads_b


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.03
    l1: float = 1.0
    l2: float = 1.0
    patience: int = 3
    max_epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    loss: str = "cross_entropy"
    validation_fraction: float = 0.1

    def __post_init__(self):
        # learning_rate 0 is allowed so a zero step size can be exercised;
        # `not x >= 0` also rejects NaN.
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not (math.isfinite(self.l1) and self.l1 >= 0 and math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError("l1 and l2 must be finite and >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass
class TrainReport:
    epochs_run: int
    train_loss_history: list[float]
    validation_score_history: list[float]
    stopped_early: bool
    best_epoch: int


@dataclass
class GradientCheckReport:
    max_relative_error: float
    n_checked: int
    n_skipped: int


def validation_split(n, fraction, seed, labels=None):
    """Seeded (train_idx, val_idx) split; stratified when labels are given.

    The validation side is empty when ``int(n * fraction) == 0`` — training
    then runs without early stopping.
    """
    n_val = int(n * fraction)
    rng = np.random.default_rng(seed)
    if n_val == 0:
        return np.arange(n), np.array([], dtype=int)
    if labels is None:
        perm = rng.permutation(n)
        return np.sort(perm[n_val:]), np.sort(perm[:n_val])
    mask = _stratified_mask(labels, fraction, rng)
    if not mask.any():
        mask[rng.permutation(n)[:n_val]] = True
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def _resolve_training_arrays(net: Network, data):
    """A Dataset's columns matched by name to `net.input_names`, or an (x, targets) pair."""
    if isinstance(data, Dataset):
        data = _match_columns(data, net.input_names, "data")
        x, targets, labels = data.rows, one_hot(data.labels, net.output_names), data.labels
    else:
        x, targets = data
        x = np.asarray(x, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        labels = None
    if x.ndim != 2 or x.shape[0] == 0:
        raise TrainingError("training data is empty")
    if x.shape[1] != net.input_dim:
        raise TrainingError(f"data width {x.shape[1]} != network input dim {net.input_dim}")
    if targets.shape != (x.shape[0], net.output_dim):
        raise TrainingError("target shape does not match network output")
    return x, targets, labels


def _flat(pairs) -> np.ndarray:
    """One vector from per-layer (weights, biases) pairs: layer by layer,
    weights (row-major) before biases."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


def _layer_views(params, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views of a parameter vector laid out like
    `_flat`'s, shaped like `layers`; a leading axis of `params` (one row per
    network of a stack) leads every view."""
    lead = params.shape[:-1]
    views, offset = [], 0
    for layer in layers:
        rows, cols = layer.weights.shape[-2:]
        end = offset + rows * cols
        views.append((params[..., offset:end].reshape(lead + (rows, cols)), params[..., end : end + rows]))
        offset = end + rows
    return views


def _share_parameters(net: Network):
    """Move every weight and bias of `net` into one float64 vector laid out
    like `_flat`'s and make each layer's arrays views of it; returns the vector.
    """
    params = _flat((layer.weights, layer.biases) for layer in net.layers)
    for layer, (weights, biases) in zip(net.layers, _layer_views(params, net.layers)):
        layer.weights, layer.biases = weights, biases
    return params


class _LayerView(NamedTuple):
    """A layer whose arrays view a parameter array, with a leading member axis for a stack."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str


def _validation_score(layers, x, targets, loss) -> float:
    """Accuracy for cross-entropy, negated MSE otherwise."""
    out = _final_activations(layers, x)
    if loss == "cross_entropy":
        score = (out.argmax(axis=-1) == targets.argmax(axis=-1)).mean(axis=-1)
    else:
        diff = out - targets
        score = -((diff * diff).sum(axis=(-2, -1)) / x.shape[-2])
    return float(score)


@dataclass
class _Member:
    """One network's own state in a training stack."""

    index: int  # its position in the stack's `nets`
    train_rows: np.ndarray  # source rows it steps on
    val_rows: np.ndarray  # source rows it validates on
    rng: np.random.Generator
    order: np.ndarray | None = None  # this epoch's training rows, in batch order
    pos: int = 0  # rows of `order` stepped so far
    epoch_loss: float = 0.0
    loss_history: list[float] = field(default_factory=list)
    score_history: list[float] = field(default_factory=list)
    best_score: float | None = -np.inf  # None without validation rows
    best_epoch: int = 0
    bad_epochs: int = 0
    stopped_early: bool = False

    def next_epoch(self):
        self.order = self.train_rows[self.rng.permutation(len(self.train_rows))]
        self.pos, self.epoch_loss = 0, 0.0

    def end_epoch(self, score, config: TrainConfig) -> tuple[bool, bool]:
        """Record the finished epoch and its validation `score` (None without
        validation rows, when every epoch counts as the best); returns
        (snapshot the weights, stop)."""
        self.loss_history.append(self.epoch_loss / len(self.train_rows))
        self.score_history.append(float("nan") if score is None else score)
        epoch = len(self.loss_history)
        improved = score is None or score > self.best_score
        if improved:
            self.best_score, self.best_epoch, self.bad_epochs = score, epoch, 0
        else:
            self.bad_epochs += 1
            self.stopped_early = self.bad_epochs >= config.patience
        return improved, self.stopped_early or epoch == config.max_epochs


def _runs(keys):
    """(lo, hi, key) for each run of equal consecutive keys."""
    lo = 0
    for key, run in groupby(keys):
        hi = lo + len(list(run))
        yield lo, hi, key
        lo = hi


def _adam_step(params, m, v, grad, c1, c2, learning_rate, t1, t2):
    """One Adam update of `params` in place, with bias corrections `c1`, `c2`;
    `t1`, `t2` are scratch, and `t2` may be `grad`, which it outlives."""
    m *= ADAM_BETA1
    m += np.multiply(grad, 1 - ADAM_BETA1, out=t1)
    v *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=t1)
    t1 *= grad
    v += t1
    np.divide(m, c1, out=t1)
    np.divide(v, c2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += ADAM_EPSILON
    t1 /= t2
    t1 *= learning_rate
    params -= t1


def train(net: Network, data, config: TrainConfig) -> tuple[Network, TrainReport]:
    """Train a private copy of `net`; returns the best-validation-epoch weights.

    `data` is a Dataset, whose targets are its labels one-hot over
    `net.output_names` and whose columns are read by name, or an
    (x, targets) pair; the inputs are raw and are scaled once with `net.input_bounds`.
    Early stopping fires after `patience` epochs without validation-score
    improvement: accuracy for cross-entropy, negated MSE otherwise.
    """
    return train_stack([net], data, [config])[0]


def train_stack(nets, data, configs, rows=None) -> list[tuple[Network, TrainReport]]:
    """`train` for several networks at once: result j equals, byte for byte,
    ``train(nets[j], subset, configs[j])`` where subset holds the rows
    ``rows[j]`` of `data` (all rows when `rows` is None).

    The networks step in lockstep as one stack. Their parameters, Adam moments
    and gradients are the rows of (K, P) arrays, so one numpy call serves
    every member whose batch has the same row count. Each member keeps its
    own seed, batch order, validation split, penalty scale and early
    stopping, and leaves the stack when it stops. Each pass steps every member
    left once, so all share one Adam step count. Members validate one at a
    time, so validation holds one member's activations. Batches are gathered
    from one scaled copy of `data`. The networks must share layer shapes,
    activations, input bounds and output names, and the configs may differ
    only in `seed`; otherwise ValueError, before any step.
    """
    nets, configs = list(nets), list(configs)
    rows = [None] * len(nets) if rows is None else list(rows)
    if not nets or len(configs) != len(nets) or len(rows) != len(nets):
        raise ValueError("train_stack needs one config and one row set per network")
    first, config = nets[0], configs[0]

    def layout(net):
        shapes = [(layer.weights.shape, layer.activation) for layer in net.layers]
        return shapes, net.output_names, net.input_bounds.tolist()

    if any(layout(net) != layout(first) for net in nets[1:]):
        raise ValueError("stacked networks must share layer shapes, activations, input bounds and output names")
    if any(replace(other, seed=config.seed) != config for other in configs[1:]):
        raise ValueError("stacked configs may differ only in seed")

    x, targets, labels = _resolve_training_arrays(first, data)
    x = scale(x, first.input_bounds)
    stack = []  # stack[r] is the member whose state is row r of the arrays below
    for j, (member_rows, member_config) in enumerate(zip(rows, configs)):
        member_rows = np.arange(len(x)) if member_rows is None else np.asarray(member_rows, dtype=int)
        if len(member_rows) == 0:
            raise TrainingError("training data is empty")
        member_labels = None if labels is None else labels[member_rows]
        split = validation_split(len(member_rows), config.validation_fraction, member_config.seed, member_labels)
        rng = np.random.default_rng(member_config.seed + 1)
        stack.append(_Member(j, *(member_rows[idx] for idx in split), rng))

    # Elementwise work on whole (k, P) rows costs a third of the same work on
    # strided per-layer views, so the penalty and its gradient are computed
    # over rows (biases included, then ignored), with each member's penalty
    # scale repeated along its row. `grad` doubles as scratch before
    # _backprop fills it and after Adam's second moment has read it.
    params = np.stack([_flat((layer.weights, layer.biases) for layer in net.layers) for net in nets])
    adam_m, adam_v, best = np.zeros_like(params), np.zeros_like(params), params.copy()
    reg_scale = np.repeat([[1.0 / len(m.train_rows)] for m in stack], params.shape[1], axis=1)
    grad, spare = np.empty_like(params), np.empty_like(params)
    weights, grads = _layer_views(params, first.layers), _layer_views(grad, first.layers)
    spare_w = [w for w, _ in _layer_views(spare, first.layers)]
    # per layer, pre-activations (overwritten by the deltas) and activations
    # of K full batches; a step uses the leading rows
    buffers = [[np.empty((len(nets) * config.batch_size, b.shape[-1])) for _ in range(2)] for _, b in weights]

    def leading(k, n, which):
        return [bufs[which][: k * n].reshape(k, n, -1) for bufs in buffers]

    def views(at) -> list[_LayerView]:
        return [_LayerView(w[at], b[at], layer.activation) for (w, b), layer in zip(weights, first.layers)]

    @cache
    def plan(lo, hi, n):
        """The views and buffers a step of rows lo..hi with n-row batches uses;
        rows move by copying, so views made once stay valid."""
        at, k = slice(lo, hi), hi - lo
        forward_out = list(zip(leading(k, n, 0), leading(k, n, 1)))
        magnitudes = [(abs_w[at], square_w[at]) for abs_w, (square_w, _) in zip(spare_w, grads)]
        backprop_out = [(gw[at], gb[at], delta) for (gw, gb), delta in zip(grads, leading(k, n, 0))]
        rows_of = [arr[at] for arr in (params, adam_m, adam_v, grad, spare, reg_scale)]
        return views(at), forward_out, magnitudes, backprop_out, [w[at] for w in spare_w], rows_of

    def reorder(perm):
        """Row r takes what row perm[r] held; rows past len(perm) drop out."""
        if perm != list(range(len(perm))):
            for arr in (params, adam_m, adam_v, best, reg_scale):
                arr[: len(perm)] = arr[perm]
        stack[:] = [stack[p] for p in perm]

    def step(lo, hi, n, c1, c2):
        layers, forward_out, magnitudes, backprop_out, penalty, (p, first_moment, second_moment, g, sp, reg) = plan(lo, hi, n)
        group = stack[lo:hi]
        idx = np.array([m.order[m.pos : m.pos + n] for m in group])
        xb, tb = np.take(x, idx, axis=0), np.take(targets, idx, axis=0)
        terms = []
        # a diverging step overflows here; the check below is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            zs_acts = _forward_full(layers, xb, out=forward_out, terms=terms)
            np.abs(p, out=sp)
            np.multiply(p, p, out=g)
            loss = _loss(layers, *zs_acts, tb, config, reg[:, 0], magnitudes, terms)
        if not np.isfinite(loss).all():
            m = group[int(np.argmin(np.isfinite(loss)))]
            raise TrainingError(f"non-finite loss at epoch {len(m.loss_history) + 1}, batch {m.pos // config.batch_size}")
        _penalty_grad(p, config, reg, sp, g)
        _backprop(layers, xb, tb, config, reg[:, 0], zs_acts, backprop_out, penalty)
        for m, value in zip(group, loss.tolist()):
            m.epoch_loss += value * n
            m.pos += n
        _adam_step(p, first_moment, second_moment, g, c1, c2, config.learning_rate, sp, g)

    results, t = [None] * len(nets), 0  # t: Adam's step count
    for m in stack:
        m.next_epoch()
    while stack:
        t += 1
        c1, c2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
        sizes = [min(config.batch_size, len(m.order) - m.pos) for m in stack]
        if len(set(sizes)) > 1:  # make members with equal batch sizes adjacent
            perm = sorted(range(len(stack)), key=lambda r: -sizes[r])
            reorder(perm)
            sizes = [sizes[r] for r in perm]
        for lo, hi, n in _runs(sizes):
            step(lo, hi, n, c1, c2)
        ended = [m.pos == len(m.order) for m in stack]
        if not any(ended):
            continue

        keep = []
        for r, (m, done) in enumerate(zip(stack, ended)):
            if done:
                score = None
                if len(m.val_rows):
                    with np.errstate(over="ignore", invalid="ignore"):  # a diverged member scores -inf or nan: no improvement
                        score = _validation_score(views(r), x[m.val_rows], targets[m.val_rows], config.loss)
                snapshot, stop = m.end_epoch(score, config)
                if snapshot:
                    best[r] = params[r]
                if stop:
                    model = nets[m.index].copy()
                    _share_parameters(model)[...] = best[r]
                    report = TrainReport(len(m.loss_history), m.loss_history, m.score_history, m.stopped_early, m.best_epoch)
                    results[m.index] = (model, report)
                    continue
                m.next_epoch()
            keep.append(r)
        if len(keep) < len(stack):
            reorder(keep)
    return results


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------


def numerical_gradient_check(net: Network, x, targets, config=None, epsilon: float = 1e-5) -> GradientCheckReport:
    """Compare backprop gradients against central finite differences.

    Covers every weight and bias of the total loss (data + regularization).
    With L1 active, weights within `epsilon` of zero sit at the subgradient
    kink and are skipped (the analytic side takes subgradient 0 there).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    config = config or TrainConfig()
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    model = net.copy()
    params = _share_parameters(model)
    analytic = _flat(zip(*_backprop(model.layers, x, targets, config)))

    at_kink = _flat((np.abs(layer.weights) <= epsilon, np.zeros(layer.out_units, dtype=bool)) for layer in model.layers)
    at_kink &= config.l1 > 0
    checked = np.flatnonzero(~at_kink)
    max_err = 0.0
    for k in checked:
        old = params[k]
        params[k] = old + epsilon
        hi = total_loss(model, x, targets, config)
        params[k] = old - epsilon
        lo = total_loss(model, x, targets, config)
        params[k] = old
        fd = (hi - lo) / (2 * epsilon)
        err = abs(analytic[k] - fd) / max(abs(analytic[k]), abs(fd), 1e-3)
        max_err = max(max_err, err)

    return GradientCheckReport(max_relative_error=max_err, n_checked=len(checked), n_skipped=int(at_kink.sum()))


# --------------------------------------------------------------------------
# Model files
# --------------------------------------------------------------------------


def save_network(net: Network, path) -> None:
    """Write a lossless model file (fixed-timestamp zip of .npy arrays + JSON meta).
    The rule set is written as its `format_rules` text, which must parse, and then holds the same clauses."""
    rules = None if net.rules is None else format_rules(net.rules)
    if rules is not None:
        parse_rules(rules)
    meta = {
        "format": "hornnet-network",
        "version": MODEL_FORMAT_VERSION,
        "n_layers": len(net.layers),
        "activations": [l.activation for l in net.layers],
        "unit_labels": net.unit_labels,
        "input_names": net.input_names,
        "output_names": net.output_names,
        "rules": rules,
    }
    arrays = {"bounds": net.input_bounds}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.biases

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, json.dumps(meta, sort_keys=True))
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_network(path) -> Network:
    """Read a model file; any unreadable or malformed file is a ValueError
    naming the path."""
    try:
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
            if meta.get("format") != "hornnet-network":
                raise ValueError("not a hornnet model file")
            if (version := meta.get("version")) != MODEL_FORMAT_VERSION:
                raise ValueError(f"model file format version {version} is not supported; retrain the model")

            def arr(name):
                return np.lib.format.read_array(io.BytesIO(zf.read(f"{name}.npy")), allow_pickle=False)

            layers = [Layer(arr(f"w{i}"), arr(f"b{i}"), meta["activations"][i]) for i in range(meta["n_layers"])]
            rules = None if meta["rules"] is None else parse_rules(meta["rules"])
            net = Network(layers, meta["unit_labels"], meta["input_names"], arr("bounds"), rules)
            if meta["output_names"] != net.output_names:
                raise ValueError(f"output_names {meta['output_names']} are not the output layer's labels {net.output_names}")
            return net
    # zlib.error: members are written stored, but a file from elsewhere may be deflated
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable model file: {exc}") from None

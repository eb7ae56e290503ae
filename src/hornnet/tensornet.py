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
import zipfile
import zlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .datakit import Dataset, _stratified_mask, one_hot, scale

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
# Version 2 files also hold per-layer frozen{i}.npy masks, which load_network
# ignores; version 1 files have no input bounds (bounds.npy) and are rejected.
MODEL_FORMAT_VERSION = 3


class TrainingError(RuntimeError):
    pass


def _sigmoid(z, out=None):
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z, out=None):
    out = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _activate(z, kind, out=None):
    """Activation of pre-activations `z`, written into `out` when given;
    linear returns `z` itself."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sigmoid":
        return _sigmoid(z, out)
    if kind == "softmax":
        return _softmax(z, out)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Layer:
    """One dense layer: weights are (out_units, in_units).

    `knowledge_mask` marks links created from domain-knowledge rules.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str
    knowledge_mask: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (out_units, in_units)")
        self.biases = np.asarray(self.biases, dtype=np.float64).reshape(-1)
        if self.biases.shape[0] != self.weights.shape[0]:
            raise ValueError("bias length must equal out_units")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.knowledge_mask is None:
            self.knowledge_mask = np.zeros_like(self.weights, dtype=bool)
        else:
            self.knowledge_mask = np.asarray(self.knowledge_mask, dtype=bool)
        if self.knowledge_mask.shape != self.weights.shape:
            raise ValueError("mask shape must match weights")

    @property
    def out_units(self) -> int:
        return self.weights.shape[0]

    @property
    def in_units(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "Layer":
        return Layer(
            self.weights.copy(),
            self.biases.copy(),
            self.activation,
            self.knowledge_mask.copy(),
        )


@dataclass
class Network:
    """Dense layers, their labels, and the per-input (lo, hi) bounds that `datakit.scale`
    maps raw inputs with, once per call of `train` and of each prediction entry point
    (`_forward_full`, `_backprop` and `total_loss` take scaled inputs). The default
    (0, 1) is bit-exact identity."""

    layers: list[Layer]
    unit_labels: list[list[str]]
    input_names: list[str]
    output_names: list[str]
    input_bounds: np.ndarray | None = None

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
        if len(self.output_names) != self.layers[-1].out_units:
            raise ValueError("output_names length must match final layer width")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_units

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_units

    def copy(self) -> "Network":
        return Network(
            [layer.copy() for layer in self.layers],
            [list(labels) for labels in self.unit_labels],
            list(self.input_names),
            list(self.output_names),
            self.input_bounds.copy(),
        )

    def has_knowledge_links(self) -> bool:
        return any(layer.knowledge_mask.any() for layer in self.layers)


def build_network(input_dim, layer_specs, seed, input_names=None, output_names=None) -> Network:
    """Assemble a network from (width, activation) layer specs.

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
    input_names = list(input_names) if input_names else [f"x{j + 1}" for j in range(input_dim)]
    output_names = list(output_names) if output_names else list(labels[-1])
    return Network(layers, labels, input_names, output_names)


def build_mlp(input_dim, hidden, output_dim, seed, input_names=None, class_names=None) -> Network:
    """ReLU hidden layers then a softmax head: the plain classifier shape."""
    if input_dim < 1 or output_dim < 1 or any(h < 1 for h in hidden):
        raise ValueError("all dimensions must be >= 1")
    if output_dim < 2:
        raise ValueError("softmax output requires output_dim >= 2")
    specs = [(h, "relu") for h in hidden] + [(output_dim, "softmax")]
    output_names = list(class_names) if class_names else [f"class{j}" for j in range(output_dim)]
    net = build_network(input_dim, specs, seed, input_names=input_names, output_names=output_names)
    net.unit_labels[-1] = list(output_names)
    return net


# --------------------------------------------------------------------------
# Forward / loss
# --------------------------------------------------------------------------


def _forward_full(net: Network, x: np.ndarray, start: int = 0, out=None):
    """Pre-activations and activations of layers `start` onward; `x` is the
    input to layer `start`.

    `out`, if given, holds one (z, a) buffer pair per layer from `start` on,
    each of shape (rows of `x`, layer width); the results are written there.
    """
    zs, acts = [], []
    a = x
    for layer, (z_buf, a_buf) in zip(net.layers[start:], out or repeat((None, None))):
        z = np.matmul(a, layer.weights.T, out=z_buf)
        z += layer.biases
        a = _activate(z, layer.activation, a_buf)
        zs.append(z)
        acts.append(a)
    return zs, acts


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
    _, acts = _forward_full(net, scale(batch, net.input_bounds))
    return [a[0] if single else a for a in acts]


def predict_proba(net: Network, x) -> np.ndarray:
    return forward(net, x)[-1]


def predictor(net: Network):
    """A callable equal to ``partial(predict_proba, net)`` that reuses a
    scaled-input buffer and one (z, a) buffer pair per layer across calls.

    The buffers grow to the largest batch seen; smaller batches use row-prefix
    slices of them. Fresh activations of a 1000-row batch are big enough that
    the allocator maps and unmaps them on every call, and faulting their pages
    in again dominates a caller that makes many passes, such as LIME. Each call
    returns a copy, so a held result is never overwritten by the next call.
    """
    inputs, buffers = [], []

    def predict(x) -> np.ndarray:
        batch, single = _as_batch(net, x)
        rows = batch.shape[0]
        if not inputs or inputs[0].shape[0] < rows:
            inputs[:] = [np.empty((rows, net.input_dim))]
            buffers[:] = [(np.empty((rows, layer.out_units)), np.empty((rows, layer.out_units))) for layer in net.layers]
        scaled = scale(batch, net.input_bounds, out=inputs[0][:rows])
        _, acts = _forward_full(net, scaled, out=[(z[:rows], a[:rows]) for z, a in buffers])
        return (acts[-1][0] if single else acts[-1]).copy()

    return predict


def predict_labels(net: Network, x) -> np.ndarray:
    probs = np.atleast_2d(predict_proba(net, x))
    return np.asarray(net.output_names, dtype=object)[probs.argmax(axis=1)]


def _loss(net: Network, zs, acts, targets, config, reg_scale) -> float:
    """Mean data loss of one forward pass plus the penalty scaled by `reg_scale`."""
    penalty = _penalty(net, config.l1, config.l2) * reg_scale
    if config.loss == "cross_entropy":
        logp = zs[-1] - _logsumexp(zs[-1])
        return float(-(targets * logp).sum() / zs[-1].shape[0]) + penalty
    diff = acts[-1] - targets
    return float((diff * diff).sum() / zs[-1].shape[0]) + penalty


def _logsumexp(z):
    m = z.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _penalty(net: Network, l1, l2) -> float:
    total = 0.0
    for layer in net.layers:
        w = layer.weights
        total += l1 * np.abs(w).sum() + l2 * (w * w).sum()
    return float(total)


def total_loss(net: Network, x, targets, config, reg_scale: float | None = None) -> float:
    """Mean data loss plus the regularization penalty scaled like the data term.

    During training the penalty is divided by the training-set size; callers
    working on a standalone batch (e.g. the gradient checker) leave
    `reg_scale` unset and the batch plays the dataset's role.
    """
    if reg_scale is None:
        reg_scale = 1.0 / x.shape[0]
    zs, acts = _forward_full(net, x)
    return _loss(net, zs, acts, targets, config, reg_scale)


# --------------------------------------------------------------------------
# Backpropagation
# --------------------------------------------------------------------------


def _activation_grad(layer: Layer, z, a):
    if layer.activation == "relu":
        return (z > 0).astype(np.float64)
    if layer.activation == "sigmoid":
        return a * (1.0 - a)
    if layer.activation == "linear":
        return np.ones_like(z)
    raise TrainingError("softmax is only supported as the final layer with cross-entropy loss")


def _backprop(net: Network, x, targets, config, reg_scale: float | None = None, cache=None):
    """Gradients of total_loss wrt every weight and bias;
    `cache` is the caller's `_forward_full(net, x)` result, if it has one."""
    batch = x.shape[0]
    if reg_scale is None:
        reg_scale = 1.0 / batch
    zs, acts = cache if cache is not None else _forward_full(net, x)
    last = net.layers[-1]
    if config.loss == "cross_entropy":
        if last.activation != "softmax":
            raise TrainingError("cross-entropy loss requires a softmax output layer")
        delta = (acts[-1] - targets) / batch
    else:
        if last.activation == "softmax":
            raise TrainingError("mean_squared_error is not supported with a softmax output layer")
        delta = (2.0 * (acts[-1] - targets) / batch) * _activation_grad(last, zs[-1], acts[-1])

    grads_w, grads_b = [None] * len(net.layers), [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        below = x if i == 0 else acts[i - 1]
        gw = delta.T @ below
        gw += (config.l1 * np.sign(layer.weights) + 2.0 * config.l2 * layer.weights) * reg_scale
        grads_w[i] = gw
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            upper = delta @ layer.weights
            prev = net.layers[i - 1]
            delta = upper * _activation_grad(prev, zs[i - 1], acts[i - 1])
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
        # learning_rate 0 is allowed so a zero step size can be exercised.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
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


def _resolve_training_arrays(net: Network, data, config):
    if isinstance(data, Dataset):
        x = data.rows
        if config.loss == "cross_entropy":
            targets = one_hot(data.labels, net.output_names)
            labels = data.labels
        else:
            targets = data.rows
            labels = None
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


def _share_parameters(net: Network):
    """Move every weight and bias of `net` into one float64 vector laid out
    like `_flat`'s and make each layer's arrays views of it; returns the vector.
    """
    params = _flat((layer.weights, layer.biases) for layer in net.layers)
    offset = 0
    for layer in net.layers:
        end = offset + layer.weights.size
        layer.weights = params[offset:end].reshape(layer.weights.shape)
        offset = end + layer.out_units
        layer.biases = params[end:offset]
    return params


def _validation_score(net: Network, x, targets, loss) -> float:
    zs, acts = _forward_full(net, x)
    if loss == "cross_entropy":
        return float((acts[-1].argmax(axis=1) == targets.argmax(axis=1)).mean())
    diff = acts[-1] - targets
    return -float((diff * diff).sum() / x.shape[0])


def train(net: Network, data, config: TrainConfig) -> tuple[Network, TrainReport]:
    """Train a private copy of `net`; returns the best-validation-epoch weights.

    `data` is a Dataset (targets are one-hot labels for cross-entropy, the
    feature rows themselves for mean_squared_error) or an (x, targets) pair;
    the inputs are raw and are scaled once with `net.input_bounds`.
    Early stopping fires after `patience` epochs without validation-score
    improvement: accuracy for cross-entropy, negated MSE otherwise.
    """
    x, targets, labels = _resolve_training_arrays(net, data, config)
    x = scale(x, net.input_bounds)
    model = net.copy()
    params = _share_parameters(model)

    train_idx, val_idx = validation_split(x.shape[0], config.validation_fraction, config.seed, labels)
    x_tr, t_tr = x[train_idx], targets[train_idx]
    x_val, t_val = x[val_idx], targets[val_idx]
    has_validation = len(val_idx) > 0

    rng = np.random.default_rng(config.seed + 1)
    reg_scale = 1.0 / len(x_tr)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    step = 0

    loss_history: list[float] = []
    score_history: list[float] = []
    best_score = -np.inf
    best_epoch = 0
    best_params = None
    bad_epochs = 0
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(x_tr))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            xb, tb = x_tr[batch_idx], t_tr[batch_idx]
            cache = _forward_full(model, xb)
            batch_loss = _loss(model, *cache, tb, config, reg_scale)
            if not np.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            epoch_loss += batch_loss * len(batch_idx)
            grad = _flat(zip(*_backprop(model, xb, tb, config, reg_scale, cache)))
            step += 1
            adam_m = ADAM_BETA1 * adam_m + (1 - ADAM_BETA1) * grad
            adam_v = ADAM_BETA2 * adam_v + (1 - ADAM_BETA2) * grad * grad
            c1, c2 = 1 - ADAM_BETA1**step, 1 - ADAM_BETA2**step
            params -= config.learning_rate * ((adam_m / c1) / (np.sqrt(adam_v / c2) + ADAM_EPSILON))
        loss_history.append(epoch_loss / len(x_tr))

        if has_validation:
            score = _validation_score(model, x_val, t_val, config.loss)
            score_history.append(score)
            if score > best_score:
                best_score = score
                best_epoch = epoch
                best_params = params.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    stopped_early = True
                    break
        else:
            score_history.append(float("nan"))
            best_epoch = epoch

    if best_params is not None:
        params[...] = best_params

    report = TrainReport(
        epochs_run=len(loss_history),
        train_loss_history=loss_history,
        validation_score_history=score_history,
        stopped_early=stopped_early,
        best_epoch=best_epoch,
    )
    return model, report


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
    analytic = _flat(zip(*_backprop(model, x, targets, config)))

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
    """Write a lossless model file (fixed-timestamp zip of .npy arrays + JSON meta)."""
    meta = {
        "format": "hornnet-network",
        "version": MODEL_FORMAT_VERSION,
        "n_layers": len(net.layers),
        "activations": [l.activation for l in net.layers],
        "unit_labels": net.unit_labels,
        "input_names": net.input_names,
        "output_names": net.output_names,
    }
    arrays = {"bounds": net.input_bounds}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.biases
        arrays[f"knowledge{i}"] = layer.knowledge_mask

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
            if (version := meta.get("version")) not in (2, MODEL_FORMAT_VERSION):
                raise ValueError(f"model file format version {version} is not supported; retrain the model")

            def arr(name):
                return np.lib.format.read_array(io.BytesIO(zf.read(f"{name}.npy")), allow_pickle=False)

            layers = [
                Layer(arr(f"w{i}"), arr(f"b{i}"), meta["activations"][i], arr(f"knowledge{i}"))
                for i in range(meta["n_layers"])
            ]
            return Network(layers, meta["unit_labels"], meta["input_names"], meta["output_names"], arr("bounds"))
    # zlib.error: members are written stored, but a file from elsewhere may be deflated
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable model file: {exc}") from None

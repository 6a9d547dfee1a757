"""Bias-free feed-forward classifiers and their margin losses.

Layers are plain matrices applied right-to-left with 1-Lipschitz activations
fixing 0 (relu, leaky_relu, tanh, identity); no bias terms anywhere, so the
zero input always maps to the zero vector. Labels are 1-indexed. Training
minimizes a softmax cross-entropy surrogate with minibatch SGD; the margin
and ramp-loss functions here are what the certificates consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import (_as_array, _as_float, _as_int, _as_labels, _fields, _instance, _length,
                      _numbers, _reject_trailing)
from .errors import (
    BadLabel,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    NonpositiveGamma,
)
from .process import LabeledDataset
from .seeding import _TRAIN, substream

_ACTIVATION_KINDS = ("relu", "leaky_relu", "tanh", "identity")
_ROW_BLOCK = 4096  # rows forward_batch runs through the layers at a time


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity; slope only meaningful for leaky_relu."""

    kind: str
    slope: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _ACTIVATION_KINDS:
            raise ValueError(f"'activations' must be activation names "
                             f"({', '.join(_ACTIVATION_KINDS)}), not {self.kind!r}")
        if self.kind == "leaky_relu":
            object.__setattr__(self, "slope", _as_float(self.slope, "slope", 0.0, 1.0))

    @classmethod
    def parse(cls, name: str) -> "Activation":
        """An activation from its name; "leaky_relu:<slope>" sets the slope,
        which is 0.01 for "leaky_relu" alone."""
        if not isinstance(name, str) or not name.startswith("leaky_relu"):
            return cls(name)
        kind, colon, text = name.partition(":")
        try:
            slope = float(text) if colon else 0.01
        except ValueError:
            raise ValueError(f"'activations' must be activation names, with a number "
                             f"after 'leaky_relu:', not {name!r}") from None
        return cls(kind, slope)

    def name(self) -> str:
        if self.kind == "leaky_relu":
            return f"leaky_relu:{repr(self.slope)}"
        return self.kind

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z, self.slope * z)
        if self.kind == "tanh":
            return np.tanh(z)
        return z

    def _forward(self, z: np.ndarray) -> tuple:
        """apply(z), and what backward needs of z: for relu the mask z > 0
        as floats, for tanh its output tanh(z), otherwise z itself."""
        out = self.apply(z)
        if self.kind == "relu":
            return out, (z > 0.0).astype(np.float64)
        return out, (out if self.kind == "tanh" else z)

    def backward(self, saved: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The chain rule through this activation: the gradient in the
        pre-activations, given the gradient d in the outputs and what
        _forward saved. The relu mask is multiplied as floats, which has the
        bits of the bool mask (d * 1.0 = d, d * 0.0 = d * False) without a
        cast on every step."""
        if self.kind == "relu":
            return d * saved
        if self.kind == "leaky_relu":
            return d * np.where(saved > 0.0, 1.0, self.slope)
        if self.kind == "tanh":
            return d * (1.0 - saved * saved)
        return d  # d * 1.0 has the bits of d


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """Weight matrices applied first-to-last with their activations."""

    layers: tuple
    activations: tuple

    def __post_init__(self):
        layers = tuple(_as_array(W, f"layer {i}", 2) for i, W in enumerate(self.layers))
        if not layers:
            raise ValueError("need at least one layer")
        acts = tuple(a if isinstance(a, Activation) else Activation.parse(a)
                     for a in self.activations)
        if len(acts) != len(layers):
            raise DimensionMismatch("one activation per layer")
        for i in range(1, len(layers)):
            if layers[i].shape[1] != layers[i - 1].shape[0]:
                raise DimensionMismatch(
                    f"layer {i} expects {layers[i].shape[1]} inputs, previous emits "
                    f"{layers[i - 1].shape[0]}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "activations", acts)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[1]

    @property
    def width(self) -> int:
        """Largest axis length over every weight matrix (inputs included)."""
        return max(max(W.shape) for W in self.layers)

    def save(self, path) -> None:
        """Text format: "L", then per layer a "rows cols" line followed by
        `rows` lines of repr floats (row-major), then one line with the
        activation names. Bit exact under load()."""
        lines = [str(self.num_layers)]
        for W in self.layers:
            lines.append(f"{W.shape[0]} {W.shape[1]}")
            for row in W:
                lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(a.name() for a in self.activations))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "NetworkParams":
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().split("\n")
        (L,) = _fields(raw, 0, (("layer count", _length),))
        layers = []
        pos = 1
        for _ in range(L):
            rows, cols = _fields(raw, pos, (("rows", _length), ("cols", _length)))
            layers.append(np.reshape([_fields(raw, pos + 1 + r, (), ("weight", float), cols)
                                      for r in range(rows)], (rows, cols)))
            pos += 1 + rows
        acts = _fields(raw, pos, (), ("activation", Activation.parse), L)
        _reject_trailing(raw, pos + 1)
        return cls(layers=tuple(layers), activations=acts)


@dataclass(frozen=True)
class Architecture:
    """Dimension chain d_0..d_L plus an activation name per layer."""

    dims: tuple
    activations: tuple

    def __post_init__(self):
        dims = tuple(_as_int(v, "dims", 1) for v in self.dims)
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output sizes")
        acts = tuple(self.activations)
        if len(acts) != len(dims) - 1:
            raise DimensionMismatch(f"'activations' must name one per layer, len('dims') - 1 = "
                                    f"{len(dims) - 1}, not {len(acts)}")
        for a in acts:
            Activation.parse(a)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "activations", acts)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int
    init_scale: float | None = None

    def __post_init__(self):
        for key, value in (
                ("learning_rate",
                 _as_float(self.learning_rate, "learning_rate", 0.0, closed=True)),
                ("epochs", _as_int(self.epochs, "epochs", 0)),
                ("batch_size", _as_int(self.batch_size, "batch_size", 1)),
                ("seed", _as_int(self.seed, "seed", 0)),
                ("init_scale", None if self.init_scale is None
                 else _as_float(self.init_scale, "init_scale", 0.0))):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class TrainResult:
    params: NetworkParams
    epoch_losses: tuple


def forward_batch(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """The (n, d_L) last-layer outputs of the network on the rows of X.

    The layers run over _ROW_BLOCK rows at a time, and each block's outputs
    are written into one (n, d_L) array. The rows after the last whole
    block, more than one block and at most two, are cut in two at a multiple
    of 8 near their middle. So no product but that of an input of fewer rows
    has fewer than _ROW_BLOCK / 2 - 7 rows: numpy sends a one-row product
    through matrix-vector code, and OpenBLAS a product of few rows through
    its small-matrix kernels, and either can round a row differently from a
    product of many rows. Cuts at multiples of 8 keep the row groups in
    which matrix-vector kernels take the rows of a one-unit layer. Memory:
    the (n, d_L) output plus one block's product and activation,
    2 x _ROW_BLOCK x width floats at most (a leaky_relu adds a mask and a
    scaled copy), whatever n is."""
    params = _instance(params, "params", NetworkParams)
    Z = _numbers(X, "inputs", 2)
    if Z.shape[1] != params.input_dim:
        raise DimensionMismatch("inputs must be (n, input_dim)")
    n = Z.shape[0]
    whole = max(-(-n // _ROW_BLOCK) - 2, 0) * _ROW_BLOCK  # rows in whole blocks
    cuts = [*range(0, whole, _ROW_BLOCK), whole]
    if n - whole > _ROW_BLOCK:
        cuts.append(whole + -(-(n - whole) // 16) * 8)
    out = np.empty((n, params.layers[-1].shape[0]))
    for start, stop in zip(cuts, [*cuts[1:], n]):
        A = Z[start:stop]
        for W, act in zip(params.layers, params.activations):
            A = act.apply(A @ W.T)
        out[start:stop] = A
    return out


def margins_batch(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logits = _numbers(logits, "logits", 2)
    K = _as_int(logits.shape[1], "logits columns", 2, BadLabel)
    labels = _as_labels(labels, logits.shape[0], K)
    # _ROW_BLOCK rows at a time, so the masked copy is one block's, not all m
    # rows': a few (m,) arrays in all, at a masked copy's speed per element
    out = np.empty(logits.shape[0])
    for start in range(0, logits.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        masked = logits[rows].copy()  # row-major: the score of label i sits at flat[i]
        flat = np.arange(masked.shape[0]) * K + (labels[rows] - 1)
        true = masked.take(flat)
        masked.ravel()[flat] = -np.inf
        np.subtract(true, _row_max(masked), out=out[rows])
    return out


def _row_max(A: np.ndarray) -> np.ndarray:
    """Maximum of each row of a matrix with few columns, such as class
    scores. A maximum is exact in any order, so it is taken column by
    column, which is cheaper than a reduction along the short axis; only the
    sign of a zero maximum may differ from `A.max(axis=1)`."""
    top = A[:, 0]
    for k in range(1, A.shape[1]):
        top = np.maximum(top, A[:, k])
    return top


def ramp_loss(r, gamma: float):
    """Piecewise-linear loss: 1 for r >= 0, 0 for r <= -gamma, linear
    in between; 1/gamma-Lipschitz and confined to [0, 1]. An infinite r
    takes its limit, 0 or 1; a NaN r is a ValueError, since it has no value
    in [0, 1]."""
    gamma = _as_float(gamma, "gamma", 0.0, error=NonpositiveGamma)
    arr = _numbers(r, "r")
    if np.isnan(arr).any():
        raise ValueError("r must not be NaN")
    out = np.minimum(arr, 0.0, out=np.empty_like(arr))  # the one array made
    out /= gamma
    out += 1.0
    np.clip(out, 0.0, 1.0, out=out)
    if arr.ndim == 0:
        return float(out)
    return out


def dataset_margins(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    """Margin of every sample of the dataset under the network."""
    return margins_batch(forward_batch(params, data.inputs), data.labels)


def mean_ramp_loss(margins: np.ndarray, gamma: float) -> float:
    """Mean ramp loss of the negated margins."""
    return float(np.mean(ramp_loss(-margins, gamma)))


def error_rate(margins: np.ndarray) -> float:
    """Fraction of margins that are not strictly positive; argmax ties
    therefore count as errors."""
    return float(np.mean(margins <= 0.0))


def _ce_forward(layers, acts, X, y, flat=None, onehot=None):
    """What each layer's activation saved for its backward pass
    (`Activation._forward`), layer outputs, the softmax probabilities less the
    one-hot labels y (the batch size times the loss's gradient in the
    logits), and the mean softmax cross-entropy of labels y.

    `flat` holds each label's position in the row-major (m, K) scores,
    i * K + y_i - 1, and `onehot` the (m, K) rows of 1.0 at each label and
    0.0 elsewhere; the trainer passes both precomputed, otherwise they are
    computed from y. Products are `np.dot`, which has the bits of `@` on
    matrices at a smaller cost per call."""
    saved = []
    post = [X]
    for W, act in zip(layers, acts):
        out, keep = act._forward(np.dot(post[-1], W.T))
        saved.append(keep)
        post.append(out)
    logits = post[-1]
    m, K = logits.shape
    if flat is None:
        flat = np.arange(m) * K + (y - 1)
    if onehot is None:
        onehot = np.eye(K)[y - 1]
    # only the sign of a zero row maximum may differ from max(axis=1), which
    # changes no exp and no loss
    shift = logits - _row_max(logits)[:, None]
    expv = np.exp(shift)
    total = np.add.reduce(expv, axis=1, keepdims=True)  # ndarray.sum without its wrapper
    # sum / m is np.mean's arithmetic, without its Python wrapper
    loss = float(np.add.reduce(np.log(total[:, 0]) - shift.take(flat))) / m
    expv /= total
    expv -= onehot  # p - 0.0 is p, so only each label's entry changes
    return saved, post, expv, loss


def _loss_and_grads(layers, acts, X, y, flat=None, onehot=None, grads=None):
    """Mean softmax cross-entropy and its exact gradient, one array per
    layer, written into `grads` when given (C-ordered arrays of the layers'
    shapes). Takes raw layer lists so the trainer never rebuilds params."""
    saved, post, d_post, loss = _ce_forward(layers, acts, X, y, flat, onehot)
    d_post /= X.shape[0]
    if grads is None:
        grads = [np.empty(W.shape) for W in layers]
    for i in range(len(layers) - 1, -1, -1):
        d_pre = acts[i].backward(saved[i], d_post)
        np.dot(d_pre.T, post[i], out=grads[i])
        if i:
            d_post = np.dot(d_pre, layers[i])
    return loss, grads


def _layer_views(flat: np.ndarray, shapes) -> list:
    """(rows, cols) views of consecutive stretches of the 1-d array `flat`,
    one per shape."""
    ends = np.cumsum([r * c for r, c in shapes]).tolist()
    return [flat[end - r * c:end].reshape(r, c) for (r, c), end in zip(shapes, ends)]


def train_sgd(train_data: LabeledDataset, arch: Architecture,
              config: TrainConfig) -> TrainResult:
    """Minibatch SGD on softmax cross-entropy.

    Weights start uniform in [-a, a] with a = init_scale, or 1/sqrt(fan_in)
    per layer when init_scale is None. Batch order is drawn from the config
    seed, so identical configs give bit-identical weights. Raises
    DivergedLoss the moment any batch loss stops being finite, naming the
    epoch, the batch and the config's training seed.
    """
    train_data = _instance(train_data, "train_data", LabeledDataset)
    arch = _instance(arch, "arch", Architecture)
    config = _instance(config, "config", TrainConfig)
    n = _as_int(train_data.n, "n", 1, EmptyDataset)
    dims = arch.dims
    if dims[0] != train_data.input_dim:
        raise DimensionMismatch(
            f"architecture expects inputs of dim {dims[0]}, data has {train_data.input_dim}")
    if dims[-1] != train_data.num_classes:
        raise DimensionMismatch(
            f"architecture emits {dims[-1]} scores, data has {train_data.num_classes} classes")
    acts = tuple(Activation.parse(a) for a in arch.activations)
    # the layers are views of one buffer and their gradients of another, so
    # a step's W - lr * g is two calls for all layers at once
    shapes = list(zip(dims[1:], dims[:-1]))
    size = sum(r * c for r, c in shapes)
    weights, step = np.empty(size), np.empty(size)
    layers, grads = _layer_views(weights, shapes), _layer_views(step, shapes)
    rng = substream(config.seed, _TRAIN)
    for W, d_in in zip(layers, dims):
        a = config.init_scale if config.init_scale is not None else 1.0 / math.sqrt(d_in)
        W[...] = rng.uniform(-a, a, size=W.shape)

    bs, lr = config.batch_size, config.learning_rate
    rows = np.arange(n) % bs * dims[-1]  # sample i is row i % bs of its batch
    onehot = np.eye(dims[-1])[train_data.labels - 1]
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        # one gather per epoch; each batch is then a contiguous slice
        X, y, Y = train_data.inputs[order], train_data.labels[order], onehot[order]
        flat = rows + (y - 1)  # each label's place in its batch's row-major scores
        total = 0.0
        for start in range(0, n, bs):
            stop = min(start + bs, n)
            batch_loss, _ = _loss_and_grads(layers, acts, X[start:stop], y[start:stop],
                                            flat[start:stop], Y[start:stop], grads)
            if not math.isfinite(batch_loss):
                raise DivergedLoss(f"surrogate loss became {batch_loss} in epoch {epoch} of "
                                   f"{config.epochs}, in the batch from sample {start} of "
                                   f"that epoch's shuffled order, training seed {config.seed}")
            total += batch_loss * (stop - start)
            step *= lr  # W - lr * g for every layer, in place
            weights -= step
        epoch_losses.append(total / n)
    params = NetworkParams(layers=tuple(layers), activations=acts)
    return TrainResult(params=params, epoch_losses=tuple(epoch_losses))

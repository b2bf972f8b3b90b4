"""Small feature extractor with an expandable softmax head.

The model is two affine layers with a ReLU between them (the extractor,
producing a feature vector f) followed by a bias-free linear head whose
weight matrix phi has one column per class, so logits o = phi^T f.  All
passes are written by hand against numpy; the tests check every gradient
against central finite differences (`tests/oracles.py`).

Each pass is written once, as a helper that writes into given buffers
(`features_into`, `cross_entropy_into`, `backward_into`); `forward_into` is
the extractor pass plus the head.  The checked entry points
`extract_features`, `forward_batch`, `softmax_cross_entropy_batch` and
`backward_batch` allocate fresh arrays and call them; a training loop
allocates a `StepBuffers` once and calls them directly.  `extract_features`
encodes in `row_blocks`, so its memory beyond the output is one block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Rows per block of an encode.  No block gets fewer: OpenBLAS may take another
# path for a short product and change bits (blocks and tails of 16-32 rows did,
# blocks of 512 rows or more never did), so a call with fewer than twice this
# many rows stays one product and the last block takes the remainder.
ENCODE_BLOCK = 1 << 10


@dataclass
class ModelParams:
    """Extractor weights (w1, b1, w2, b2) and classifier columns (phi).

    Shapes: w1 (hidden, input), b1 (hidden,), w2 (feature, hidden),
    b2 (feature,), phi (feature, classes).  Gradients use the same record.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    phi: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w2.shape[0]

    @property
    def class_count(self) -> int:
        return self.phi.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays().values()))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "phi": self.phi}

    def norm(self) -> float:
        """Global L2 norm: the squared sums of w1, b1, w2, b2 and phi, added in that order."""
        return math.sqrt(sum(float((a * a).sum()) for a in self.arrays().values()))


@dataclass
class ForwardCache:
    """Intermediate activations kept for the backward pass (row-per-sample)."""

    x: np.ndarray            # (B, input)
    hidden: np.ndarray       # (B, hidden), after the ReLU
    feature: np.ndarray      # (B, feature)
    logits: np.ndarray       # (B, classes)


@dataclass
class StepBuffers:
    """Every array one cross-entropy SGD step writes, for batches of len(labels) rows.

    A training loop allocates one record before its first step and refills it
    every step: the batch goes into cache.x and labels, the passes write the rest.
    """

    cache: ForwardCache
    labels: np.ndarray           # (B,) class indices of the batch rows
    shifted: np.ndarray          # (B, classes): logits minus each row's largest
    log_norm: np.ndarray         # (B, 1)
    grad_logits: np.ndarray      # (B, classes)
    no_grad_feature: np.ndarray  # (B, feature) zeros: cross-entropy reads only the logits
    d_feature: np.ndarray        # (B, feature)
    d_hidden: np.ndarray         # (B, hidden)
    active: np.ndarray           # (B, hidden) bool: the ReLU passed its input
    grads: ModelParams

    @staticmethod
    def allocate(params: ModelParams, rows: int) -> "StepBuffers":
        hidden, feature, classes = params.hidden_dim, params.feature_dim, params.class_count
        return StepBuffers(
            ForwardCache(np.empty((rows, params.input_dim)), np.empty((rows, hidden)),
                         np.empty((rows, feature)), np.empty((rows, classes))),
            np.empty(rows, dtype=int), np.empty((rows, classes)), np.empty((rows, 1)),
            np.empty((rows, classes)), np.zeros((rows, feature)), np.empty((rows, feature)),
            np.empty((rows, hidden)), np.empty((rows, hidden), dtype=bool),
            ModelParams(*(np.empty_like(a) for a in params.arrays().values())))


def init_params(input_dim: int, hidden_dim: int, feature_dim: int,
                class_count: int, seed: int) -> ModelParams:
    """He-init extractor weights, zero biases, small uniform head columns."""
    if min(input_dim, hidden_dim, feature_dim, class_count) < 1:
        raise InputError("all model dimensions must be positive")
    rng = np.random.default_rng([seed, 0xFEA7])
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(hidden_dim, input_dim))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(feature_dim, hidden_dim))
    phi = rng.uniform(-0.01, 0.01, size=(feature_dim, class_count))
    return ModelParams(w1, np.zeros(hidden_dim), w2, np.zeros(feature_dim), phi)


def features_into(params: ModelParams, x: np.ndarray, hidden: np.ndarray,
                  feature: np.ndarray) -> None:
    """Run the extractor over the rows of x; the ReLU is applied in place in hidden."""
    np.matmul(x, params.w1.T, out=hidden)
    hidden += params.b1
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, params.w2.T, out=feature)
    feature += params.b2


def forward_into(params: ModelParams, cache: ForwardCache) -> None:
    """Run the extractor and head over the rows of cache.x into the cache's other arrays."""
    features_into(params, cache.x, cache.hidden, cache.feature)
    np.matmul(cache.feature, params.phi, out=cache.logits)


def _checked_batch(x: np.ndarray, params: ModelParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise InputError(
            f"expected input of width {params.input_dim}, got shape {x.shape}")
    return x


def row_blocks(rows: int) -> list:
    """Slices over range(rows) in order, each of ENCODE_BLOCK up to 2 * ENCODE_BLOCK - 1
    rows; fewer than 2 * ENCODE_BLOCK rows make one slice."""
    stops = [*range(ENCODE_BLOCK, rows - ENCODE_BLOCK + 1, ENCODE_BLOCK), rows]
    return [slice(a, b) for a, b in zip([0, *stops], stops)]


def extract_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The (B, n) features of a batch alone: no head, and nothing kept for a backward pass.

    The rows are encoded in `row_blocks` through one reused hidden buffer.
    """
    x = _checked_batch(x, params)
    blocks = row_blocks(x.shape[0])
    feature = np.empty((x.shape[0], params.feature_dim))
    hidden = np.empty((max(b.stop - b.start for b in blocks), params.hidden_dim))
    for b in blocks:
        features_into(params, x[b], hidden[:b.stop - b.start], feature[b])
    return feature


def forward_batch(x: np.ndarray, params: ModelParams):
    """Run the extractor and head over a batch; rows of x are samples.

    Returns (features (B, n), logits (B, C), cache).
    """
    x = _checked_batch(x, params)
    rows = x.shape[0]
    cache = ForwardCache(x, np.empty((rows, params.hidden_dim)),
                         np.empty((rows, params.feature_dim)),
                         np.empty((rows, params.class_count)))
    forward_into(params, cache)
    return cache.feature, cache.logits, cache


def forward(x: np.ndarray, params: ModelParams):
    """Single-sample forward pass; returns (f, o, cache)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-D input vector, got shape {x.shape}")
    feature, logits, cache = forward_batch(x[None, :], params)
    return feature[0], logits[0], cache


def backward_into(cache: ForwardCache, grad_logits: np.ndarray, grad_feature: np.ndarray,
                  params: ModelParams, grads: ModelParams, d_feature: np.ndarray,
                  d_hidden: np.ndarray, active: np.ndarray) -> None:
    """Backpropagate upstream gradients on logits and features into the arrays of grads.

    d_feature (B, feature), d_hidden (B, hidden) and the bool active (B, hidden)
    are scratch; no shape is checked.
    """
    np.matmul(cache.feature.T, grad_logits, out=grads.phi)
    np.matmul(grad_logits, params.phi.T, out=d_feature)
    np.add(grad_feature, d_feature, out=d_feature)
    np.add.reduce(d_feature, axis=0, out=grads.b2)
    np.matmul(d_feature.T, cache.hidden, out=grads.w2)
    np.matmul(d_feature, params.w2, out=d_hidden)
    # max(pre, 0) > 0 exactly when pre > 0; both are false for NaN and for +-0.
    np.greater(cache.hidden, 0.0, out=active)
    np.multiply(d_hidden, active, out=d_hidden)
    np.add.reduce(d_hidden, axis=0, out=grads.b1)
    np.matmul(d_hidden.T, cache.x, out=grads.w1)


def backward_batch(cache: ForwardCache, grad_logits: np.ndarray,
                   grad_feature: np.ndarray, params: ModelParams) -> ModelParams:
    """Backpropagate upstream gradients on logits and features to all parameters.

    Gradients are summed over the batch into a ModelParams.  grad_logits flows
    through phi into the extractor; grad_feature into the extractor only.
    """
    grad_logits = np.asarray(grad_logits, dtype=float)
    grad_feature = np.asarray(grad_feature, dtype=float)
    if grad_logits.shape != cache.logits.shape:
        raise InputError(
            f"grad_logits shape {grad_logits.shape} != logits shape {cache.logits.shape}")
    if grad_feature.shape != cache.feature.shape:
        raise InputError(
            f"grad_feature shape {grad_feature.shape} != feature shape {cache.feature.shape}")
    grads = ModelParams(*(np.empty_like(a) for a in params.arrays().values()))
    backward_into(cache, grad_logits, grad_feature, params, grads,
                  np.empty_like(cache.feature), np.empty_like(cache.hidden),
                  np.empty(cache.hidden.shape, dtype=bool))
    return grads


def softmax(o: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis (max subtraction)."""
    z = o - np.max(o, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_into(o: np.ndarray, y: np.ndarray, shifted: np.ndarray,
                       log_norm: np.ndarray, grad: np.ndarray) -> float:
    """Summed cross-entropy of logit rows o against labels y; the logit gradient goes into grad.

    shifted is shaped like o and log_norm is (B, 1), both scratch; y is not checked.
    """
    np.maximum.reduce(o, axis=1, keepdims=True, out=log_norm)
    np.subtract(o, log_norm, out=shifted)
    np.exp(shifted, out=grad)
    np.add.reduce(grad, axis=1, keepdims=True, out=log_norm)
    np.log(log_norm, out=log_norm)
    rows = np.arange(len(y))
    loss = float(np.add.reduce(log_norm[:, 0] - shifted[rows, y]))
    np.subtract(shifted, log_norm, out=grad)
    np.exp(grad, out=grad)
    grad[rows, y] -= 1.0
    return loss


def softmax_cross_entropy_batch(o: np.ndarray, y: np.ndarray):
    """Summed cross-entropy over a batch of logit rows; returns (loss, grad_o)."""
    o = np.asarray(o, dtype=float)
    y = np.asarray(y, dtype=int)
    if np.any(y < 0) or np.any(y >= o.shape[1]):
        raise InputError("class index out of range")
    grad = np.empty_like(o)
    loss = cross_entropy_into(o, y, np.empty_like(o), np.empty((o.shape[0], 1)), grad)
    return loss, grad


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """Plain gradient step p <- p - lr*g; returns a new parameter record."""
    stepped = params.copy()
    sgd_step_in_place(stepped, grads.copy(), lr)
    return stepped


def sgd_step_in_place(params: ModelParams, grads: ModelParams, lr: float) -> None:
    """The step p <- p - lr*g on params itself; grads is scaled by lr in place."""
    if not 0 < lr < math.inf:
        raise InputError(f"learning rate must be positive and finite, got {lr}")
    for p, g in zip(params.arrays().values(), grads.arrays().values()):
        g *= lr
        p -= g


def expand_output_layer(params: ModelParams, added: int, seed: int) -> ModelParams:
    """Append `added` head columns drawn from uniform(-0.01, 0.01).

    Existing columns are copied bit-identically, so logits of previously
    known classes are unchanged for any input.
    """
    if added < 1:
        raise InputError(f"must add at least one class, got {added}")
    rng = np.random.default_rng([seed, 0xE79A])
    new_cols = rng.uniform(-0.01, 0.01, size=(params.feature_dim, added))
    phi = np.concatenate([params.phi.copy(), new_cols], axis=1)
    return ModelParams(params.w1.copy(), params.b1.copy(), params.w2.copy(),
                       params.b2.copy(), phi)

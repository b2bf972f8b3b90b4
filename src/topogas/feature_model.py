"""Small feature extractor with an expandable softmax head.

The model is two affine layers with a ReLU between them (the extractor,
producing a feature vector f) followed by a bias-free linear head whose
weight matrix phi has one column per class, so logits o = phi^T f.  All
passes are written by hand against numpy; the tests check every gradient
against central finite differences (`tests/oracles.py`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


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
        return ModelParams(self.w1.copy(), self.b1.copy(), self.w2.copy(),
                           self.b2.copy(), self.phi.copy())

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "phi": self.phi}

    def norm(self) -> float:
        """Global L2 norm over all arrays."""
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self.arrays().values())))

    def clipped(self, max_norm: float) -> "ModelParams":
        """These arrays rescaled so the global norm is at most max_norm."""
        n = self.norm()
        if n <= max_norm or n == 0.0:
            return self
        s = max_norm / n
        return ModelParams(self.w1 * s, self.b1 * s, self.w2 * s,
                           self.b2 * s, self.phi * s)


@dataclass
class ForwardCache:
    """Intermediate activations kept for the backward pass (row-per-sample)."""

    x: np.ndarray            # (B, input)
    hidden_pre: np.ndarray   # (B, hidden), before the ReLU
    hidden: np.ndarray       # (B, hidden)
    feature: np.ndarray      # (B, feature)
    logits: np.ndarray       # (B, classes)


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


def forward_batch(x: np.ndarray, params: ModelParams):
    """Run the extractor and head over a batch; rows of x are samples.

    Returns (features (B, n), logits (B, C), cache).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise InputError(
            f"expected input of width {params.input_dim}, got shape {x.shape}")
    hidden_pre = x @ params.w1.T + params.b1
    hidden = np.maximum(hidden_pre, 0.0)
    feature = hidden @ params.w2.T + params.b2
    logits = feature @ params.phi
    return feature, logits, ForwardCache(x, hidden_pre, hidden, feature, logits)


def forward(x: np.ndarray, params: ModelParams):
    """Single-sample forward pass; returns (f, o, cache)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-D input vector, got shape {x.shape}")
    feature, logits, cache = forward_batch(x[None, :], params)
    return feature[0], logits[0], cache


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
    d_phi = cache.feature.T @ grad_logits
    d_f = grad_feature + grad_logits @ params.phi.T
    d_b2 = d_f.sum(axis=0)
    d_w2 = d_f.T @ cache.hidden
    d_h = d_f @ params.w2
    d_a1 = d_h * (cache.hidden_pre > 0.0)
    d_b1 = d_a1.sum(axis=0)
    d_w1 = d_a1.T @ cache.x
    return ModelParams(d_w1, d_b1, d_w2, d_b2, d_phi)


def softmax(o: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis (max subtraction)."""
    z = o - np.max(o, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(o: np.ndarray, y: np.ndarray):
    """Summed cross-entropy over a batch of logit rows; returns (loss, grad_o)."""
    o = np.asarray(o, dtype=float)
    y = np.asarray(y, dtype=int)
    if np.any(y < 0) or np.any(y >= o.shape[1]):
        raise InputError("class index out of range")
    z = o - np.max(o, axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    rows = np.arange(o.shape[0])
    loss = float(np.sum(log_norm[rows, 0] - z[rows, y]))
    grad = np.exp(z - log_norm)
    grad[rows, y] -= 1.0
    return loss, grad


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """Plain gradient step p <- p - lr*g; returns a new parameter record."""
    if lr <= 0:
        raise InputError(f"learning rate must be positive, got {lr}")
    return ModelParams(params.w1 - lr * grads.w1, params.b1 - lr * grads.b1,
                       params.w2 - lr * grads.w2, params.b2 - lr * grads.b2,
                       params.phi - lr * grads.phi)


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

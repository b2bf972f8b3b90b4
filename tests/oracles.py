"""Slow, obviously correct references that the batched library paths are checked against."""

import numpy as np

from topogas import InputError


def softmax_cross_entropy(o: np.ndarray, y: int):
    """Loss -log softmax(o)_y and its gradient softmax(o) - onehot(y)."""
    o = np.asarray(o, dtype=float)
    if o.ndim != 1:
        raise InputError(f"expected a 1-D logit vector, got shape {o.shape}")
    if not 0 <= y < o.shape[0]:
        raise InputError(f"class index {y} out of range for {o.shape[0]} logits")
    z = o - np.max(o)
    log_norm = np.log(np.sum(np.exp(z)))
    loss = float(log_norm - z[y])
    grad = np.exp(z - log_norm)
    grad[y] -= 1.0
    return loss, grad

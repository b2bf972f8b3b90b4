"""Slow, obviously correct references that the batched library paths are checked against."""

import numpy as np

from topogas import InputError, ModelParams


def zero_grads(params):
    """A ModelParams of zeros shaped like params, for summing gradients into."""
    return ModelParams(*(np.zeros_like(a) for a in params.arrays().values()))


def add_scaled(grads, other, scale=1.0):
    """In-place grads += scale * other over every array."""
    for name, arr in grads.arrays().items():
        arr += scale * other.arrays()[name]


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


def rank_nodes(graph, f):
    """Node order by Euclidean distance to f, ties by index, and the sorted distances."""
    d = np.linalg.norm(graph.centroids - np.asarray(f, dtype=float), axis=1)
    order = np.argsort(d, kind="stable")
    return order, d[order]


def nearest(queries, refs):
    """Per query row, the first ref at the least distance, and that distance."""
    index, dist = [], []
    for q in np.asarray(queries, dtype=float):
        d = np.linalg.norm(np.asarray(refs, dtype=float) - q, axis=1)
        index.append(int(np.argmin(d)))
        dist.append(d[index[-1]])
    return np.array(index, dtype=int), np.array(dist, dtype=float)


def hebbian_update(graph, f, eta, alpha, updatable=None):
    """Per-rank gather/scatter Hebbian step; returns the node order."""
    order, _ = rank_nodes(graph, f)
    n = len(graph)
    limit = n - 1 if n > 1 else 1
    idx = order[:limit]
    steps = eta * np.exp(-np.arange(1, limit + 1) / alpha)
    if updatable is not None:
        keep = np.asarray(updatable, dtype=bool)[idx]
        idx, steps = idx[keep], steps[keep]
    f = np.asarray(f, dtype=float)
    graph.centroids[idx] += steps[:, None] * (f - graph.centroids[idx])
    return order


def edge_update(graph, r1, r2):
    """Winner-pair edge refresh that ages row and column r1 through an `others` mask.

    An age grows by one per ageing up to lifetime + 1 and stays there.
    """
    others = np.ones(len(graph), dtype=bool)
    others[[r1, r2]] = False
    graph.ages[r1, others] = np.minimum(graph.ages[r1, others], graph.lifetime) + 1
    graph.ages[others, r1] = graph.ages[r1, others]
    expired = others & graph.edges[r1] & (graph.ages[r1] > graph.lifetime)
    graph.edges[r1, expired] = False
    graph.edges[expired, r1] = False
    graph.ages[r1, r2] = graph.ages[r2, r1] = 1
    graph.edges[r1, r2] = graph.edges[r2, r1] = True


def present(graph, features, eta, alpha, updatable=None):
    """Row by row: the per-rank Hebbian step, then the winner-pair edge refresh.

    Returns each row's (winner, runner-up); the runner-up is -1 on a single-node graph.
    """
    pairs = []
    for f in features:
        order = hebbian_update(graph, f, eta, alpha, updatable)
        if len(graph) >= 2:
            edge_update(graph, int(order[0]), int(order[1]))
        pairs.append((int(order[0]), int(order[1]) if len(graph) >= 2 else -1))
    return pairs


def confusion_matrix(y, pred, n_classes):
    """Per-row count of (true, predicted) pairs, rows normalized where they have samples."""
    confusion = np.zeros((n_classes, n_classes))
    totals = np.zeros((n_classes, 1))
    for true, hat in zip(y, pred):
        totals[true, 0] += 1
        if hat < n_classes:  # a wider head may predict outside the eval set
            confusion[true, hat] += 1
    return np.divide(confusion, totals, out=np.zeros_like(confusion), where=totals > 0)

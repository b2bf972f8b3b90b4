"""Slow, obviously correct references that the batched library paths are checked against."""

from dataclasses import dataclass

import numpy as np

from topogas import (DivergenceError, InputError, ModelParams, SessionMetrics, StateError,
                     backward_batch, forward_batch, sgd_step, softmax_cross_entropy_batch)
from topogas.feature_model import features_into
from topogas.losses import _anchor_term, _distillation_term, _graph_anchors, method_spec
from topogas.neural_gas import nearest as batch_nearest
from topogas.protocol import BASE_BATCH_SIZE, _class_exemplars, _exemplar_rng, _lr_at

FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-8


def zero_grads(params):
    """A ModelParams of zeros shaped like params, for summing gradients into."""
    return ModelParams(*(np.zeros_like(a) for a in params.arrays().values()))


def add_scaled(grads, other, scale=1.0):
    """In-place grads += scale * other over every array."""
    for name, arr in grads.arrays().items():
        arr += scale * other.arrays()[name]


@dataclass
class GradReport:
    """Result of a finite-difference check over every parameter array."""

    per_parameter: dict[str, float]
    max_error: float
    tolerance: float
    passed: bool


def finite_difference_check(loss_evaluator, params: ModelParams,
                            tol: float) -> GradReport:
    """Compare analytic gradients against central finite differences.

    loss_evaluator(params) must deterministically return (loss, gradients)
    with the gradients in a ModelParams record.
    Every entry of every parameter array is perturbed by +-FD_STEP; the
    relative error is |a - fd| / max(|a|, |fd|, 1e-8).
    """
    base_loss, analytic = loss_evaluator(params)
    if not np.isfinite(base_loss):
        raise DivergenceError(f"loss evaluator returned non-finite loss {base_loss}")
    per_parameter: dict[str, float] = {}
    work = params.copy()
    for name, arr in work.arrays().items():
        a_grad = analytic.arrays()[name]
        worst = 0.0
        flat = arr.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            loss_plus = loss_evaluator(work)[0]
            flat[i] = orig - FD_STEP
            loss_minus = loss_evaluator(work)[0]
            flat[i] = orig
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise DivergenceError(f"non-finite loss while perturbing {name}[{i}]")
            fd = (loss_plus - loss_minus) / (2.0 * FD_STEP)
            denom = max(abs(a_flat[i]), abs(fd), REL_ERR_FLOOR)
            worst = max(worst, abs(a_flat[i] - fd) / denom)
        per_parameter[name] = worst
    max_error = max(per_parameter.values())
    return GradReport(per_parameter, max_error, tol, max_error < tol)


def clipped(params, max_norm):
    """params rescaled so the global norm is at most max_norm, in a new record unless
    the norm is within max_norm or 0 (a NaN norm rescales every array to NaN)."""
    n = params.norm()
    if n <= max_norm or n == 0.0:
        return params
    s = max_norm / n
    return ModelParams(*(a * s for a in params.arrays().values()))


def train_cross_entropy(params, x, y, epochs, base_lr, seed, context):
    """Mini-batch SGD on mean cross-entropy composed from the checked per-batch passes:
    forward_batch, softmax_cross_entropy_batch, backward_batch, then sgd_step."""
    rng = np.random.default_rng([seed, 0xCE])
    n = x.shape[0]
    for epoch in range(epochs):
        lr = _lr_at(epoch, epochs, base_lr)
        order = rng.permutation(n)
        for start in range(0, n, BASE_BATCH_SIZE):
            take = order[start:start + BASE_BATCH_SIZE]
            feat, logits, cache = forward_batch(x[take], params)
            loss, grad_logits = softmax_cross_entropy_batch(logits, y[take])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss during {context}, epoch {epoch}")
            grads = backward_batch(cache, grad_logits / take.size,
                                   np.zeros_like(feat), params)
            params = sgd_step(params, grads, lr)
    return params


def backward_from_pre_activations(x, hidden_pre, hidden, feature, grad_logits, grad_feature,
                                  params):
    """Backpropagation with the ReLU mask read from the kept pre-activations (hidden_pre > 0)."""
    d_feature = grad_feature + grad_logits @ params.phi.T
    d_hidden = (d_feature @ params.w2) * (hidden_pre > 0.0)
    return ModelParams(d_hidden.T @ x, np.add.reduce(d_hidden, axis=0), d_feature.T @ hidden,
                       np.add.reduce(d_feature, axis=0), feature.T @ grad_logits)


def synthetic_stream_sessions(base_classes, new_classes, way, shot, input_dim, cluster_spread,
                              train_per_base, test_per_class, seed):
    """(labels, train_x, train_y, test_x, test_y) per session, from per-class pools stacked
    session by session; the same generator draws, in the same order, as make_synthetic_stream."""
    rng = np.random.default_rng([seed, 0x57E4])
    total = base_classes + new_classes
    means = rng.normal(size=(total, input_dim))

    def draw(label, count):
        return means[label] + cluster_spread * rng.normal(size=(count, input_dim))

    train_pool = [draw(c, train_per_base if c < base_classes else shot) for c in range(total)]
    test_pool = [draw(c, test_per_class) for c in range(total)]

    def pack(labels):
        tx = np.vstack([train_pool[c] for c in labels])
        ty = np.concatenate([np.full(len(train_pool[c]), c, dtype=int) for c in labels])
        vx = np.vstack([test_pool[c] for c in labels])
        vy = np.concatenate([np.full(len(test_pool[c]), c, dtype=int) for c in labels])
        return tx, ty, vx, vy

    label_sets = [list(range(base_classes))]
    label_sets += [list(range(start, start + way)) for start in range(base_classes, total, way)]
    return [(labels, *pack(labels)) for labels in label_sets]


def cross_entropy_term(feat, logits, y):
    loss, grad_logits = softmax_cross_entropy_batch(logits, y)
    return loss, np.zeros_like(feat), grad_logits


def anchor_term(feat, logits, m, inv_var):
    loss, grad_feat = _anchor_term(feat, m, inv_var)
    return loss, grad_feat, np.zeros_like(logits)


def distillation_term(feat, logits, logits_hat, t_distill, n_old):
    loss, grad_logits = _distillation_term(logits, logits_hat, t_distill, n_old)
    return loss, np.zeros_like(feat), grad_logits


def min_max_term(feat, logits, y, graph, new_nodes, xi):
    """The min-max term with its index sets rebuilt from y and the graph on every call,
    each row matched by `nearest` over its label's nodes; rows are the batch (labels y),
    then f(z_j) of new_nodes."""
    n = len(y)
    grad_feat = np.zeros_like(feat)
    match = np.empty(n, dtype=int)
    for label in np.unique(y):
        rows = np.flatnonzero(y == label)
        nodes = np.flatnonzero(graph.labels == label)
        if nodes.size == 0:
            raise StateError(f"no node carries batch label {label}")
        match[rows] = nodes[batch_nearest(feat[rows], graph.centroids[nodes])[0]]
    diff = feat[:n] - graph.centroids[match]
    d = np.linalg.norm(diff, axis=1)
    loss = float(d.sum())
    np.divide(diff, d[:, None], out=grad_feat[:n], where=d[:, None] > 0.0)
    nodes, counts = np.unique(match, return_counts=True)
    row = n + np.searchsorted(new_nodes, nodes)
    is_new = graph.origins[nodes] == graph.session
    m = graph.centroids[nodes]
    m[is_new] = feat[row[is_new]]
    pair, other = np.nonzero((graph.ages[nodes] > 0) & (graph.labels != graph.labels[nodes, None]))
    gap = m[pair] - graph.centroids[other]
    d = np.linalg.norm(gap, axis=1)
    hit = d < xi
    loss += float(counts[pair[hit]] @ (xi - d[hit]))
    push = hit & is_new[pair] & (d > 0.0)
    np.subtract.at(grad_feat, row[pair[push]],
                   counts[pair[push], None] * gap[push] / d[push, None])
    return loss, grad_feat, np.zeros_like(logits)


def total_loss(batch, graph, params, store, hp, method, *, old_params=None, n_old=None,
               xi=None):
    """The composed incremental loss with every row, target and index set rebuilt per call:
    the batch, the stored exemplar rows, then the old and this session's node pseudo inputs.
    The stored rows' anchor targets are the snapshot old_params's features of them."""
    spec = method_spec(method)
    if spec.reads_graph and graph is None:
        raise StateError(f"method {method!r} requires a neural-gas graph")
    batch_x, batch_y = np.asarray(batch[0], dtype=float), np.asarray(batch[1], dtype=int)
    empty = batch_x[:0]
    stored = store if store is not None and (spec.distill or spec.anchor == "exemplar") else empty
    z = graph.pseudo_inputs if spec.reads_graph else empty
    old = np.flatnonzero(graph.origins < graph.session) if spec.anchor == "graph" else []
    new = np.flatnonzero(graph.origins == graph.session) if spec.min_max else []
    x = np.concatenate([batch_x, stored, z[old], z[new]])
    ends = np.cumsum([len(batch_y), len(stored), len(old), len(new)])
    batch_rows, store_rows, old_rows, new_rows = map(slice, [0, *ends[:-1]], ends)
    terms = [(1.0, batch_rows, cross_entropy_term, (batch_y,))]
    if spec.anchor == "exemplar":
        terms.append((hp.lambda1, store_rows, anchor_term,
                      (forward_batch(store, old_params)[0], 1.0)))
    if spec.anchor == "graph":
        terms.append((hp.lambda1, old_rows, anchor_term, _graph_anchors(graph, old)))
    if spec.min_max:
        margin = xi if xi is not None else hp.xi
        terms.append((hp.lambda2, np.r_[batch_rows, new_rows], min_max_term,
                      (batch_y, graph, new, margin)))
    if spec.distill:
        if old_params is None or n_old is None:
            raise StateError("distillation methods need the frozen snapshot and n_old")
        dl = slice(0, store_rows.stop)
        terms.append((hp.gamma, dl, distillation_term,
                      (forward_batch(x[dl], old_params)[1], hp.t_distill, n_old)))

    feat, logits, cache = forward_batch(x, params)
    loss = 0.0
    grad_feat, grad_logits = np.zeros_like(feat), np.zeros_like(logits)
    for scale, rows, term, context in terms:
        value, g_feat, g_logits = term(feat[rows], logits[rows], *context)
        loss += scale * value
        grad_feat[rows] += scale * g_feat
        grad_logits[rows] += scale * g_logits
    return float(loss), backward_batch(cache, grad_logits, grad_feat, params)


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


def max_distance(points, rows=16):
    """Largest Euclidean distance between two rows: np.linalg.norm of every pair,
    rows query rows at a time."""
    points = np.asarray(points, dtype=float)
    return max(float(np.linalg.norm(points[start:start + rows, None, :] - points, axis=-1).max())
               for start in range(0, len(points), rows))


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
    """The paper's winner-pair rule on the age matrix alone (0 means no edge).

    r1's other live edges age by one, those past the lifetime are removed,
    and (r1, r2) is set to age 1.
    """
    row = graph.ages[r1]
    row[row > 0] += 1
    row[row > graph.lifetime] = 0
    row[r2] = 1
    graph.ages[:, r1] = row


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


def evaluate_joint(params, stream, upto_session):
    """The joint evaluation in one shot: every test row's features from one extractor
    pass, then every logit, then one argmax."""
    x, y = stream.cumulative_test(upto_session)
    feature = np.empty((len(x), params.feature_dim))
    features_into(params, x, np.empty((len(x), params.hidden_dim)), feature)
    logits = feature @ params.phi
    if not np.isfinite(logits).all():
        raise DivergenceError(f"non-finite logits evaluating session {upto_session}")
    pred = np.argmax(logits, axis=1)
    correct = pred == y
    joint = float(correct.mean())
    new_mask = np.isin(y, stream.session(upto_session).labels)
    if upto_session == 1:
        old_acc = new_acc = joint
    else:
        old_acc, new_acc = float(correct[~new_mask].mean()), float(correct[new_mask].mean())
    n_classes = len(stream.cumulative_labels(upto_session))
    return SessionMetrics(upto_session, joint, old_acc, new_acc,
                          confusion_matrix(y, pred, n_classes))


def balanced_union(stream, upto):
    """The training union oversampled to class balance, copied out class by class:
    (x, y) with every class's rows tiled up to the largest class count."""
    x, y = stream.cumulative_train(upto)
    counts = {c: int(np.sum(y == c)) for c in stream.cumulative_labels(upto)}
    target = max(counts.values())
    xs, ys = [], []
    for c, n in counts.items():
        reps = np.tile(np.flatnonzero(y == c), -(-target // n))[:target]
        xs.append(x[reps])
        ys.append(np.full(target, c, dtype=int))
    return np.vstack(xs), np.concatenate(ys)


def exemplar_stores(stream, hp, seed, exemplar_anchor):
    """Per incremental session 2..T, the distillation store and the exemplar-anchor store
    (None unless exemplar_anchor) as they stand before it, both always drawn: the
    distillation draws come first, and the anchor picks continue their generator."""
    rng = _exemplar_rng(seed, 1)
    distill = _class_exemplars(stream.session(1), hp.exemplars_per_class, rng)
    anchor = None
    if exemplar_anchor:
        pool = stream.session(1).train_x
        anchor = pool[rng.choice(len(pool), size=min(hp.node_budget, len(pool)),
                                 replace=False)]
    stores = []
    for t in range(2, len(stream) + 1):
        stores.append((distill, anchor))
        session, rng = stream.session(t), _exemplar_rng(seed, t)
        distill = np.concatenate([distill, _class_exemplars(session, hp.exemplars_per_class,
                                                            rng)])
        if exemplar_anchor:
            anchor = np.concatenate([anchor, _class_exemplars(session, hp.growth_k, rng)])
    return stores

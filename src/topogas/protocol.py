"""Session protocol: synthetic streams, base and incremental training, evaluation.

A stream is an ordered list of sessions with disjoint label sets; the first
session is large-scale, later ones are C-way K-shot.  After each session the
model is evaluated jointly on the union of all test sets seen so far.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .feature_model import (ModelParams, expand_output_layer, forward,
                            forward_batch, init_params, sgd_step,
                            softmax_cross_entropy_batch, backward_batch)
from .losses import METHODS, ExemplarSet, HyperParams, total_loss, xi_heuristic
from .neural_gas import NGGraph, init_graph, train_on_features

BASE_BATCH_SIZE = 128
# The composed incremental gradient is norm-clipped so that stiff anchor
# terms (tiny variances or huge lambda1) slow training down instead of
# blowing it up.
GRAD_CLIP_NORM = 10.0
LR_DROP_MILESTONES = (0.6, 0.8)

RUNNABLE_METHODS = tuple(METHODS) + ("joint",)


@dataclass
class Session:
    """One training stage: its label set, train split, and held-out test split."""

    index: int
    labels: list
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class SessionStream:
    sessions: list
    input_dim: int
    way: int
    shot: int

    def __len__(self) -> int:
        return len(self.sessions)

    def session(self, t: int) -> Session:
        """1-based session accessor."""
        return self.sessions[t - 1]

    def cumulative_labels(self, upto: int) -> list:
        labels = []
        for s in self.sessions[:upto]:
            labels.extend(s.labels)
        return labels

    def cumulative_test(self, upto: int):
        xs = np.vstack([s.test_x for s in self.sessions[:upto]])
        ys = np.concatenate([s.test_y for s in self.sessions[:upto]])
        return xs, ys

    def cumulative_train(self, upto: int):
        xs = np.vstack([s.train_x for s in self.sessions[:upto]])
        ys = np.concatenate([s.train_y for s in self.sessions[:upto]])
        return xs, ys


@dataclass
class SessionMetrics:
    """Joint evaluation after a session; confusion rows are normalized counts."""

    session: int
    joint_acc: float
    old_acc: float
    new_acc: float
    confusion: np.ndarray


def make_synthetic_stream(base_classes: int, new_classes: int, way: int,
                          shot: int, input_dim: int, cluster_spread: float,
                          train_per_base: int, test_per_class: int,
                          seed: int) -> SessionStream:
    """Gaussian-blob stream: one blob per class, label ids in session order."""
    if base_classes < 1 or way < 1 or shot < 1:
        raise InputError("base_classes, way and shot must all be positive")
    if new_classes % way != 0:
        raise InputError(
            f"new_classes={new_classes} is not divisible by way={way}")
    if cluster_spread <= 0:
        raise InputError(f"cluster_spread must be positive, got {cluster_spread}")
    rng = np.random.default_rng([seed, 0x57E4])
    total = base_classes + new_classes
    means = rng.normal(size=(total, input_dim))

    def draw(label: int, count: int) -> np.ndarray:
        return means[label] + cluster_spread * rng.normal(size=(count, input_dim))

    train_pool = [draw(c, train_per_base if c < base_classes else shot)
                  for c in range(total)]
    test_pool = [draw(c, test_per_class) for c in range(total)]

    def pack(labels):
        tx = np.vstack([train_pool[c] for c in labels])
        ty = np.concatenate([np.full(len(train_pool[c]), c, dtype=int) for c in labels])
        vx = np.vstack([test_pool[c] for c in labels])
        vy = np.concatenate([np.full(len(test_pool[c]), c, dtype=int) for c in labels])
        return tx, ty, vx, vy

    sessions = []
    base_labels = list(range(base_classes))
    sessions.append(Session(1, base_labels, *pack(base_labels)))
    for t in range(2, 2 + new_classes // way):
        start = base_classes + (t - 2) * way
        labels = list(range(start, start + way))
        sessions.append(Session(t, labels, *pack(labels)))
    return SessionStream(sessions, input_dim, way, shot)


def extract_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return forward_batch(x, params)[0]


def _lr_at(epoch: int, total_epochs: int, base_lr: float) -> float:
    lr = base_lr
    for frac in LR_DROP_MILESTONES:
        if epoch >= int(frac * total_epochs):
            lr *= 0.1
    return lr


def _train_cross_entropy(params: ModelParams, x: np.ndarray, y: np.ndarray,
                         epochs: int, base_lr: float, seed: int,
                         context: str) -> ModelParams:
    """Mini-batch SGD on mean cross-entropy with the step-drop schedule."""
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


def train_base_session(stream: SessionStream, hp: HyperParams, seed: int,
                       hidden_dim: int = 32, feature_dim: int = 8):
    """Train the base model with cross-entropy, then fit the neural gas.

    Returns (params, graph) with pseudo-exemplars assigned, variances
    estimated, and anchors refreshed so the next session starts from a
    zero-deviation anchor state.
    """
    base = stream.session(1)
    params = init_params(stream.input_dim, hidden_dim, feature_dim,
                         len(base.labels), seed)
    params = _train_cross_entropy(params, base.train_x, base.train_y,
                                  hp.base_epochs, hp.base_lr, seed,
                                  context="base session")
    feats = extract_features(params, base.train_x)
    graph = init_graph(feats, base.train_y, hp.node_budget, hp.t_life,
                       hp.eps_var, seed)
    train_on_features(graph, feats, hp.eta, hp.alpha, hp.ng_passes, seed)
    feature_fn = lambda v: forward(v, params)[0]
    graph.assign_pseudo_exemplars(base.train_x, base.train_y, feature_fn)
    graph.estimate_variances(feats)
    graph.refresh_anchors(feature_fn)
    return params, graph


def train_incremental_session(params: ModelParams, graph: NGGraph | None,
                              session: Session, hp: HyperParams, method: str,
                              exemplars: ExemplarSet | None, seed: int):
    """Finetune on one few-shot session with per-iteration neural-gas updates.

    The whole few-shot set forms a single batch; every iteration applies one
    clipped SGD step on the method's composed loss, then re-ranks the batch
    features (taken after the step) to move new-class nodes and refresh
    edges.  Old nodes keep their centroids during the session and are
    re-anchored at the end.
    """
    n_old = params.class_count
    old_params = params.copy()
    params = expand_output_layer(params, len(session.labels), seed=seed * 1009 + session.index)

    xi = None
    if graph is not None:
        shots = {}
        for label in session.labels:
            mask = session.train_y == label
            shots[label] = (extract_features(params, session.train_x[mask]),
                            session.train_x[mask])
        graph.grow(shots, hp.growth_k, session.index, seed=seed)
        xi = hp.xi if hp.xi is not None else xi_heuristic(graph)
        updatable = graph.origins == session.index

    batch = (session.train_x, session.train_y)
    for iteration in range(hp.inc_epochs):
        loss, grads = total_loss(batch, graph, params, exemplars, hp, method,
                                 old_params=old_params, n_old=n_old, xi=xi)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss at session {session.index}, iteration {iteration}")
        params = sgd_step(params, grads.clipped(GRAD_CLIP_NORM), hp.inc_lr)
        if graph is not None:
            feats = extract_features(params, session.train_x)
            for b in range(feats.shape[0]):
                ranking = graph.hebbian_update(feats[b], hp.eta, hp.alpha,
                                               updatable=updatable)
                if len(graph) >= 2:
                    graph.edge_update(ranking.winner, ranking.runner_up)

    if graph is not None:
        feature_fn = lambda v: forward(v, params)[0]
        graph.refresh_anchors(feature_fn)
        new_nodes = np.flatnonzero(graph.origins == session.index)
        graph.estimate_variances(extract_features(params, session.train_x),
                                 node_indices=new_nodes)
    return params, graph


def evaluate_joint(params: ModelParams, stream: SessionStream,
                   upto_session: int) -> SessionMetrics:
    """Argmax accuracy over the union of test sets of sessions 1..upto.

    old/new accuracies split the joint set against the latest session's
    label set; at the base session both equal the joint accuracy.  The
    confusion matrix covers all cumulative classes, rows normalized where
    they have samples.
    """
    if upto_session < 1:
        raise InputError("upto_session must be at least 1")
    x, y = stream.cumulative_test(upto_session)
    logits = forward_batch(x, params)[1]
    pred = np.argmax(logits, axis=1)
    correct = pred == y
    joint = float(correct.mean())

    new_labels = set(stream.session(upto_session).labels)
    new_mask = np.isin(y, list(new_labels))
    if upto_session == 1:
        old_acc = new_acc = joint
    else:
        old_acc = float(correct[~new_mask].mean())
        new_acc = float(correct[new_mask].mean())

    n_classes = len(stream.cumulative_labels(upto_session))
    confusion = np.zeros((n_classes, n_classes))
    totals = np.zeros((n_classes, 1))
    for true, hat in zip(y, pred):
        totals[true, 0] += 1
        if hat < n_classes:  # a wider head may predict outside the eval set
            confusion[true, hat] += 1
    confusion = np.divide(confusion, totals, out=np.zeros_like(confusion),
                          where=totals > 0)
    return SessionMetrics(upto_session, joint, old_acc, new_acc, confusion)


def _balanced_union(stream: SessionStream, upto: int):
    """Union of all training data seen so far, oversampled to class balance.

    Few-shot classes are deterministically tiled up to the largest class
    count so the joint reference is not starved by imbalance.
    """
    x, y = stream.cumulative_train(upto)
    counts = {c: int(np.sum(y == c)) for c in stream.cumulative_labels(upto)}
    target = max(counts.values())
    xs, ys = [], []
    for c, n in counts.items():
        idx = np.flatnonzero(y == c)
        reps = np.tile(idx, -(-target // n))[:target]
        xs.append(x[reps])
        ys.append(np.full(target, c, dtype=int))
    return np.vstack(xs), np.concatenate(ys)


def _exemplar_rng(seed: int, session: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xE8, session])


def _add_class_exemplars(store: ExemplarSet, session: Session, per_class: int,
                         rng: np.random.Generator) -> None:
    for label in session.labels:
        mask = session.train_y == label
        pool = session.train_x[mask]
        take = rng.choice(pool.shape[0], size=min(per_class, pool.shape[0]),
                          replace=False)
        for i in take:
            store.add(pool[i], label)


def run_method(stream: SessionStream, method: str, hp: HyperParams, seed: int,
               hidden_dim: int = 32, feature_dim: int = 8,
               graph_sink=None) -> list:
    """Full pipeline for one method and seed; returns SessionMetrics per session.

    The extra tag "joint" trains a fresh model on the union of all data seen
    so far at every session (the upper-bound reference).  graph_sink, when
    given, is called with (session_index, graph) after each session so the
    harness can write checkpoints.
    """
    if method not in RUNNABLE_METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {RUNNABLE_METHODS}")
    hp.validate()
    params, graph = train_base_session(stream, hp, seed, hidden_dim, feature_dim)
    metrics = [evaluate_joint(params, stream, 1)]
    if graph_sink is not None:
        graph_sink(1, graph)

    if method == "joint":
        for t in range(2, len(stream) + 1):
            x, y = _balanced_union(stream, t)
            fresh = init_params(stream.input_dim, hidden_dim, feature_dim,
                                len(stream.cumulative_labels(t)), seed * 31 + t)
            fresh = _train_cross_entropy(fresh, x, y, hp.base_epochs, hp.base_lr,
                                         seed * 31 + t, context=f"joint session {t}")
            metrics.append(evaluate_joint(fresh, stream, t))
        return metrics

    # Every method draws the distill store: exemplar-anchor picks continue its generator.
    exemplar_anchor = METHODS[method].anchor == "exemplar"
    distill_store, anchor_store = ExemplarSet(), ExemplarSet()
    rng = _exemplar_rng(seed, 1)
    _add_class_exemplars(distill_store, stream.session(1), hp.exemplars_per_class, rng)
    if exemplar_anchor:
        base = stream.session(1)
        take = rng.choice(base.train_x.shape[0],
                          size=min(hp.node_budget, base.train_x.shape[0]),
                          replace=False)
        for i in take:
            anchor_store.add(base.train_x[i], int(base.train_y[i]))
        anchor_store.refresh_features(lambda v: forward(v, params)[0])
    # total_loss reads the store only for the terms METHODS[method] names.
    exemplars = anchor_store if exemplar_anchor else distill_store

    for t in range(2, len(stream) + 1):
        session = stream.session(t)
        params, graph = train_incremental_session(params, graph, session, hp,
                                                  method, exemplars, seed)
        metrics.append(evaluate_joint(params, stream, t))
        if graph_sink is not None:
            graph_sink(t, graph)

        rng = _exemplar_rng(seed, t)
        _add_class_exemplars(distill_store, session, hp.exemplars_per_class, rng)
        if exemplar_anchor:
            _add_class_exemplars(anchor_store, session, hp.growth_k, rng)
            anchor_store.refresh_features(lambda v: forward(v, params)[0])
    return metrics

"""Session protocol: synthetic streams, base and incremental training, evaluation.

A stream is an ordered list of sessions with disjoint label sets; the first
session is large-scale, later ones are C-way K-shot.  After each session the
model is evaluated jointly on the union of all test sets seen so far.
"""

import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, InputError
# `forward`, `forward_batch`, `backward_batch`, `softmax_cross_entropy_batch` and
# `sgd_step` stay bound here because the perfbench tracer patches them in this namespace.
from .feature_model import (ModelParams, StepBuffers, backward_batch,  # noqa: F401
                            backward_into, cross_entropy_into, expand_output_layer,
                            extract_features, forward, forward_batch, forward_into,
                            init_params, row_blocks, sgd_step, sgd_step_in_place,
                            softmax_cross_entropy_batch)
from .losses import (METHODS, HyperParams, method_spec, plan_session, total_loss,
                     xi_heuristic)
from .neural_gas import NGGraph, init_graph, train_on_features

BASE_BATCH_SIZE = 128
# The composed incremental gradient is scaled down to this global norm so
# that stiff anchor terms (tiny variances or huge lambda1) slow training down
# instead of blowing it up.
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
    """Sessions cut from one (x, y) array pair per split.

    train and test hold every session's rows, grouped by session in session
    order; each Session holds read-only views into them.  Build one with
    from_splits.
    """

    sessions: list
    train: tuple
    test: tuple

    @staticmethod
    def from_splits(labels: list, train: tuple, test: tuple) -> "SessionStream":
        """Session t owns the next rows of each split whose labels are in labels[t - 1].

        The split arrays are made read-only.  Session t's labels are one or more of the next
        class ids (a label is its head column), in any order; other labels, rows out of
        session order or in no session, or a non-finite input raise InputError.
        """
        seen = 0
        for t, session_labels in enumerate(labels, start=1):
            ids = list(range(seen, seen + len(session_labels)))
            if not ids or sorted(session_labels) != ids:
                raise InputError(f"session {t} has labels {list(session_labels)}; it needs one "
                                 f"or more of the next class ids from {seen}, in any order")
            seen += len(ids)
        cuts = []
        for name, (x, y) in (("train", train), ("test", test)):
            if not np.isfinite(x).all():
                raise InputError(f"{name} inputs hold a non-finite value")
            start, bounds = 0, []
            for session_labels in labels:
                end = start + int(np.isin(y, session_labels).sum())
                if not np.isin(y[start:end], session_labels).all():
                    raise InputError(f"{name} rows are not grouped by session")
                bounds.append((start, end))
                start = end
            if start != len(y) or len(x) != len(y):
                raise InputError(f"{name} has {len(x)} inputs and {len(y)} labels, "
                                 f"{start} of them in a session")
            x.flags.writeable = y.flags.writeable = False
            cuts.append([(x[a:b], y[a:b]) for a, b in bounds])
        sessions = [Session(t, list(ls), *tr, *te)
                    for t, (ls, tr, te) in enumerate(zip(labels, *cuts), start=1)]
        return SessionStream(sessions, train, test)

    @property
    def input_dim(self) -> int:
        return self.train[0].shape[1]

    def __len__(self) -> int:
        return len(self.sessions)

    def session(self, t: int) -> Session:
        """1-based session accessor; t outside 1..len raises InputError."""
        if not 1 <= t <= len(self.sessions):
            raise InputError(f"session {t} is outside 1..{len(self.sessions)}")
        return self.sessions[t - 1]

    def cumulative_labels(self, upto: int) -> list:
        labels = []
        for s in self.sessions[:upto]:
            labels.extend(s.labels)
        return labels

    def cumulative_test(self, upto: int):
        """Views of the test rows of sessions 1..upto."""
        end = sum(len(s.test_y) for s in self.sessions[:upto])
        return self.test[0][:end], self.test[1][:end]

    def cumulative_train(self, upto: int):
        """Views of the training rows of sessions 1..upto."""
        end = sum(len(s.train_y) for s in self.sessions[:upto])
        return self.train[0][:end], self.train[1][:end]


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
    if min(base_classes, way, shot, input_dim, train_per_base, test_per_class) < 1:
        raise InputError("base_classes, way, shot, input_dim, train_per_base and "
                         "test_per_class must all be positive")
    if new_classes < 0 or new_classes % way != 0:
        raise InputError(f"new_classes={new_classes} is negative or not divisible by way={way}")
    if not 0 < cluster_spread < np.inf:
        raise InputError(f"cluster_spread must be positive and finite, got {cluster_spread}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, 0x57E4])
    total = base_classes + new_classes
    means = rng.normal(size=(total, input_dim))

    def draw(counts: np.ndarray) -> tuple:
        """Every class's rows, in class order, into one array."""
        x = np.empty((int(counts.sum()), input_dim))
        start = 0
        for label, count in enumerate(counts):
            x[start:start + count] = means[label] + cluster_spread * rng.normal(
                size=(count, input_dim))
            start += count
        return x, np.repeat(np.arange(total), counts)

    train = draw(np.where(np.arange(total) < base_classes, train_per_base, shot))
    test = draw(np.full(total, test_per_class))
    labels = [list(range(base_classes))]
    labels += [list(range(start, start + way)) for start in range(base_classes, total, way)]
    return SessionStream.from_splits(labels, train, test)


def _lr_at(epoch: int, total_epochs: int, base_lr: float) -> float:
    lr = base_lr
    for frac in LR_DROP_MILESTONES:
        if epoch >= int(frac * total_epochs):
            lr *= 0.1
    return lr


def _train_cross_entropy(params: ModelParams, x: np.ndarray, y: np.ndarray,
                         epochs: int, base_lr: float, seed: int,
                         context: str, rows: np.ndarray | None = None) -> ModelParams:
    """Mini-batch SGD on mean cross-entropy with the step-drop schedule.

    The steps draw from rows, indices into x and y that may repeat (every row
    once by default); each batch is gathered from x through them.  Widths and
    labels are checked once, before the first step.  The steps then reuse one
    StepBuffers and update a copy of params in place; params itself is never
    changed.  A non-finite loss raises DivergenceError, at any step or on the
    last batch after the last step.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=int)
    if x.ndim != 2 or x.shape[1] != params.input_dim or y.shape != x.shape[:1]:
        raise InputError(f"{context}: expected inputs of width {params.input_dim} and one "
                         f"label per row, got shapes {x.shape} and {y.shape}")
    if np.any(y < 0) or np.any(y >= params.class_count):
        raise InputError(f"{context}: class index out of range")
    rows = np.arange(len(y)) if rows is None else rows
    n = len(rows)
    rng = np.random.default_rng([seed, 0xCE])
    params = params.copy()
    # One record per batch size: full batches, and each epoch's shorter last batch.
    buffers = {size: StepBuffers.allocate(params, size)
               for size in {min(n, BASE_BATCH_SIZE), n % BASE_BATCH_SIZE} - {0}}
    for epoch in range(epochs):
        lr = _lr_at(epoch, epochs, base_lr)
        order = rng.permutation(n)
        for start in range(0, n, BASE_BATCH_SIZE):
            take = rows[order[start:start + BASE_BATCH_SIZE]]
            buf = buffers[take.size]
            # mode="clip" writes straight into the buffer; the indices are in range.
            np.take(x, take, axis=0, out=buf.cache.x, mode="clip")
            np.take(y, take, out=buf.labels, mode="clip")
            forward_into(params, buf.cache)
            loss = cross_entropy_into(buf.cache.logits, buf.labels, buf.shifted,
                                      buf.log_norm, buf.grad_logits)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss during {context}, epoch {epoch}")
            buf.grad_logits /= take.size
            backward_into(buf.cache, buf.grad_logits, buf.no_grad_feature, params, buf.grads,
                          buf.d_feature, buf.d_hidden, buf.active)
            sgd_step_in_place(params, buf.grads, lr)
    if n and epochs > 0:  # the last step's loss is checked on its batch, still in buf
        forward_into(params, buf.cache)
        if not np.isfinite(cross_entropy_into(buf.cache.logits, buf.labels, buf.shifted,
                                              buf.log_norm, buf.grad_logits)):
            raise DivergenceError(f"non-finite loss during {context}, after its last step")
    return params


def _encode(params: ModelParams, x: np.ndarray, stage: str) -> np.ndarray:
    """The features of rows x handed to the graph; one that is not finite raises
    DivergenceError, "non-finite features <stage>"."""
    feats = extract_features(params, x)
    if not np.isfinite(feats).all():
        raise DivergenceError(f"non-finite features {stage}")
    return feats


def train_base_session(stream: SessionStream, hp: HyperParams, seed: int, *,
                       fit_graph: bool = True):
    """Train the base model with cross-entropy, then fit the neural gas.

    The model's dims are hp's.  Returns (params, graph); the graph is
    fit_base_graph's, or None without fit_graph.
    """
    base = stream.session(1)
    params = init_params(stream.input_dim, hp.hidden_dim, hp.feature_dim,
                         len(base.labels), seed)
    params = _train_cross_entropy(params, base.train_x, base.train_y,
                                  hp.base_epochs, hp.base_lr, seed,
                                  context="base session")
    return params, fit_base_graph(params, stream, hp, seed) if fit_graph else None


def fit_base_graph(params: ModelParams, stream: SessionStream, hp: HyperParams,
                   seed: int) -> NGGraph:
    """The neural gas over the trained base model's features of session 1.

    Pseudo-exemplars are assigned, variances estimated, and anchors
    refreshed so the next session starts from a zero-deviation anchor
    state.  Only the graph's own seeded generators are drawn from, so the
    graph depends on params, stream, hp and seed alone.  The base rows are
    encoded once; a non-finite feature of theirs, or of the anchors, raises
    DivergenceError before the graph is started or refreshed.
    """
    base = stream.session(1)
    feats = _encode(params, base.train_x, "of the base session")
    graph = init_graph(feats, base.train_x, base.train_y, hp.node_budget, hp.t_life,
                       hp.eps_var, seed)
    train_on_features(graph, feats, hp.eta, hp.alpha, hp.ng_passes, seed)
    graph.assign_pseudo_exemplars(base.train_x, base.train_y, feats)
    graph.estimate_variances(feats)
    graph.refresh_anchors(_encode(params, graph.pseudo_inputs, "of the anchors at session 1"))
    return graph


def train_incremental_session(params: ModelParams, graph: NGGraph | None,
                              session: Session, hp: HyperParams, method: str,
                              store: np.ndarray | None, seed: int):
    """Finetune on one few-shot session with per-iteration neural-gas updates.

    The whole few-shot set forms a single batch; every iteration steps the
    expanded copy of params in place by SGD on the method's composed loss,
    its gradient scaled down to norm GRAD_CLIP_NORM, then re-ranks the batch
    features (taken after the step) to move new-class nodes and refresh
    edges.  The graph's growth starts its next session, whose nodes alone
    move; old nodes keep their centroids during the session and are
    re-anchored at the end, the new nodes' variances come from the features
    presented after the last step, and the exemplar rows in store are pinned
    to their features under params, which is never changed.  With graph None
    the session trains the model alone, as methods whose loss does not read
    the graph do.  inc_epochs below 1 raises InputError before anything
    changes; a non-finite loss or non-finite features raise DivergenceError.
    """
    if hp.inc_epochs < 1:
        raise InputError(f"an incremental session needs at least one step, got "
                         f"inc_epochs = {hp.inc_epochs}")
    old_params = params
    params = expand_output_layer(params, len(session.labels), seed=seed * 1009 + session.index)

    xi = None
    if graph is not None:
        shots = {}
        for label in session.labels:
            x = session.train_x[session.train_y == label]
            shots[label] = _encode(params, x, f"of the shots at session {session.index}"), x
        graph.grow(shots, hp.growth_k, seed=seed)
        if method_spec(method).min_max:
            xi = hp.xi if hp.xi is not None else xi_heuristic(graph)

    plan = plan_session((session.train_x, session.train_y), graph, store, hp, method,
                        old_params=old_params, xi=xi)
    for iteration in range(hp.inc_epochs):
        loss, grads = total_loss(plan, params)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss at session {session.index}, iteration {iteration}")
        norm = grads.norm()
        if not (norm <= GRAD_CLIP_NORM or norm == 0.0):  # a NaN norm makes every gradient NaN
            for g in grads.arrays().values():
                g *= GRAD_CLIP_NORM / norm
        sgd_step_in_place(params, grads, hp.inc_lr)
        if graph is not None:
            feats = _encode(params, session.train_x,
                            f"at session {session.index}, iteration {iteration}")
            graph.present(feats, hp.eta, hp.alpha)

    if graph is not None:
        graph.refresh_anchors(_encode(params, graph.pseudo_inputs,
                                      f"of the anchors at session {session.index}"))
        graph.estimate_variances(feats)
    return params, graph


def evaluate_joint(params: ModelParams, stream: SessionStream,
                   upto_session: int) -> SessionMetrics:
    """Argmax accuracy over the union of test sets of sessions 1..upto.

    old/new accuracies split the joint set against the latest session's
    label set; at the base session both equal the joint accuracy.  The
    confusion matrix covers all cumulative classes, rows normalized where
    they have samples.  The rows are encoded and classified one `row_blocks`
    block at a time, so no more than one block's logits are held.  A
    non-finite logit raises DivergenceError.
    """
    if not 1 <= upto_session <= len(stream):
        raise InputError(f"upto_session {upto_session} is outside 1..{len(stream)}")
    x, y = stream.cumulative_test(upto_session)
    pred = np.empty(len(y), dtype=int)
    for block in row_blocks(len(y)):
        logits = extract_features(params, x[block]) @ params.phi
        if not np.isfinite(logits).all():
            raise DivergenceError(f"non-finite logits evaluating session {upto_session}")
        pred[block] = np.argmax(logits, axis=1)
    correct = pred == y
    joint = float(correct.mean())

    new_mask = np.isin(y, stream.session(upto_session).labels)
    if upto_session == 1:
        old_acc = new_acc = joint
    else:
        old_acc = float(correct[~new_mask].mean())
        new_acc = float(correct[new_mask].mean())

    n_classes = len(stream.cumulative_labels(upto_session))
    inside = pred < n_classes  # a wider head may predict outside the eval set
    pairs = np.bincount(y[inside] * n_classes + pred[inside], minlength=n_classes ** 2)
    confusion = pairs.reshape(n_classes, n_classes).astype(float)
    totals = np.bincount(y, minlength=n_classes)[:, None].astype(float)
    confusion = np.divide(confusion, totals, out=np.zeros_like(confusion),
                          where=totals > 0)
    return SessionMetrics(upto_session, joint, old_acc, new_acc, confusion)


def _balanced_union(stream: SessionStream, upto: int) -> np.ndarray:
    """Row indices into cumulative_train(upto) of its union oversampled to class balance.

    Each class's rows are tiled, in order, up to the largest class count, so
    the joint reference is not starved by few-shot classes; the indices are
    grouped by class in label order.
    """
    y = stream.cumulative_train(upto)[1]
    counts = {c: int(np.sum(y == c)) for c in stream.cumulative_labels(upto)}
    target = max(counts.values())
    return np.concatenate([np.tile(np.flatnonzero(y == c), -(-target // n))[:target]
                           for c, n in counts.items()])


def _exemplar_rng(seed: int, session: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0xE8, session])


def _class_exemplars(session: Session, per_class: int, rng: np.random.Generator) -> np.ndarray:
    """Up to per_class random training rows of each session label, in label order."""
    pools = [session.train_x[session.train_y == label] for label in session.labels]
    return np.concatenate([pool[rng.choice(len(pool), size=min(per_class, len(pool)),
                                           replace=False)] for pool in pools])


@dataclass
class _TrainedBase:
    """A base session and what it was trained from; bases are looked up by seed alone.

    The graph is fitted on the first lookup that needs it.
    """

    stream: SessionStream
    hp: HyperParams
    params: ModelParams
    graph: NGGraph | None


def _base_session(stream: SessionStream, hp: HyperParams, seed: int,
                  bases: dict, need_graph: bool) -> tuple:
    """(params, graph) of the base session: the stored params, which nothing writes,
    and the run's own copy of the graph, or None unless need_graph.

    The base is trained on the seed's first lookup in bases; a lookup with another
    stream or hyperparameters (the model's dims among them) raises InputError.
    """
    base = bases.get(seed)
    if base is None:
        base = bases[seed] = _TrainedBase(
            stream, replace(hp), *train_base_session(stream, hp, seed, fit_graph=need_graph))
    elif base.stream is not stream or base.hp != hp:
        raise InputError(f"the base session stored for seed {seed} was trained "
                         "from another stream or hyperparameters")
    if need_graph and base.graph is None:
        base.graph = fit_base_graph(base.params, stream, hp, seed)
    return base.params, copy.deepcopy(base.graph) if need_graph else None


def run_method(stream: SessionStream, method: str, hp: HyperParams, seed: int,
               graph_sink=None, bases: dict | None = None) -> list:
    """Full pipeline for one method and seed; returns SessionMetrics per session.

    The extra tag "joint" trains a fresh model on the union of all data seen
    so far at every session (the upper-bound reference).  graph_sink, when
    given, is called with (session_index, graph) after each session the run
    holds a graph: every session for methods whose loss reads the graph,
    session 1 (the base graph) for the others.  The graph is fitted only
    for those calls or for such a loss.  bases, when given, holds trained
    base sessions by seed, so that runs of one seed with different methods
    train the shared base session once.
    """
    if method not in RUNNABLE_METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {RUNNABLE_METHODS}")
    hp.validate()
    reads_graph = method != "joint" and METHODS[method].reads_graph
    params, graph = _base_session(stream, hp, seed, {} if bases is None else bases,
                                  need_graph=reads_graph or graph_sink is not None)
    metrics = [evaluate_joint(params, stream, 1)]
    if graph_sink is not None:
        graph_sink(1, graph)
    if not reads_graph:
        graph = None

    if method == "joint":
        for t in range(2, len(stream) + 1):
            fresh = init_params(stream.input_dim, hp.hidden_dim, hp.feature_dim,
                                len(stream.cumulative_labels(t)), seed * 31 + t)
            fresh = _train_cross_entropy(fresh, *stream.cumulative_train(t), hp.base_epochs,
                                         hp.base_lr, seed * 31 + t, context=f"joint session {t}",
                                         rows=_balanced_union(stream, t))
            metrics.append(evaluate_joint(fresh, stream, t))
        return metrics

    # Only the store the method's terms read is built and grown.  Exemplar-anchor
    # picks continue the generator past the distillation draws, made and dropped.
    spec = METHODS[method]
    exemplar_anchor = spec.anchor == "exemplar"
    store = None
    if spec.keeps_store:
        rng = _exemplar_rng(seed, 1)
        store = _class_exemplars(stream.session(1), hp.exemplars_per_class, rng)
        if exemplar_anchor:
            pool = stream.session(1).train_x
            store = pool[rng.choice(len(pool), size=min(hp.node_budget, len(pool)),
                                    replace=False)]

    for t in range(2, len(stream) + 1):
        session = stream.session(t)
        params, graph = train_incremental_session(params, graph, session, hp,
                                                  method, store, seed)
        metrics.append(evaluate_joint(params, stream, t))
        if graph_sink is not None and graph is not None:
            graph_sink(t, graph)
        if store is not None:
            rng = _exemplar_rng(seed, t)
            picks = _class_exemplars(session, hp.exemplars_per_class, rng)
            if exemplar_anchor:
                picks = _class_exemplars(session, hp.growth_k, rng)
            store = np.concatenate([store, picks])
    return metrics

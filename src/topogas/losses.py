"""Loss terms for incremental training and their composition.

Each term maps the features and logits of its rows to (loss, dL/dfeature,
dL/dlogits); one backward pass carries those into the parameters.  Losses are
sums over batch samples, graph nodes or exemplars, not means.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, StateError
# `forward` stays bound here because the perfbench tracer patches losses.forward.
from .feature_model import (ModelParams, backward_batch, forward, forward_batch,  # noqa: F401
                            softmax, softmax_cross_entropy_batch)
from .neural_gas import MAX_LIFETIME, NGGraph, max_distance, nearest


@dataclass(frozen=True)
class MethodSpec:
    """The loss terms a method tag adds to cross-entropy on the batch."""

    anchor: str | None = None  # "graph" (old nodes) or "exemplar" (stored exemplars)
    min_max: bool = False
    distill: bool = False

    @property
    def reads_graph(self) -> bool:
        """Whether a term reads the neural-gas graph; other methods run without one."""
        return self.anchor == "graph" or self.min_max


# The single source for which terms each incremental method composes.
METHODS = {
    "ft": MethodSpec(),
    "distill": MethodSpec(distill=True),
    "exemplar_anchor": MethodSpec(anchor="exemplar"),
    "topic_al": MethodSpec(anchor="graph"),
    "topic_al_mml": MethodSpec(anchor="graph", min_max=True),
    "topic_al_mml_dl": MethodSpec(anchor="graph", min_max=True, distill=True),
}


def method_spec(method: str) -> MethodSpec:
    """METHODS[method]; an unknown tag raises InputError."""
    spec = METHODS.get(method)
    if spec is None:
        raise InputError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return spec


@dataclass
class HyperParams:
    """Training knobs; defaults follow the reference configuration.

    xi = None means the margin is recomputed at each session start as the
    maximum pairwise centroid distance.
    """

    eta: float = 0.02
    alpha: float = 1.0
    t_life: int = 200
    lambda1: float = 0.5
    lambda2: float = 0.005
    xi: float | None = None
    gamma: float = 1.0
    t_distill: float = 2.0
    base_lr: float = 0.1
    inc_lr: float = 0.1
    base_epochs: int = 50
    inc_epochs: int = 100
    node_budget: int = 40
    growth_k: int = 1
    eps_var: float = 1e-6
    exemplars_per_class: int = 2
    ng_passes: int = 3

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in (int, float, float | None) or value is None:  # xi = None is auto
                continue
            kind = "non-negative" if f.name in ("lambda1", "lambda2", "gamma") else "positive"
            if not math.isfinite(value) or value < 0 or (value == 0 and kind == "positive"):
                raise InputError(f"{f.name} must be finite and {kind}, got {value}")
        if self.t_life > MAX_LIFETIME:
            raise InputError(f"t_life must be at most {MAX_LIFETIME}, got {self.t_life}")
        if self.eta > 1.0:
            raise InputError(f"eta must be at most 1, got {self.eta}")
        if not math.isfinite(1.0 / self.eps_var):
            raise InputError(f"eps_var must have a finite reciprocal, got {self.eps_var}")


@dataclass
class ExemplarSet:
    """Stored old-class raw inputs as one (rows, d) array, None while empty, and their
    anchor features, None after any `add` until `refresh_features` runs."""

    inputs: np.ndarray | None = None
    features: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self.inputs is None else len(self.inputs)

    def add(self, rows: np.ndarray) -> None:
        """Append a copy of the (k, d) rows; anchor features are unset until `refresh_features`."""
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or len(self) and rows.shape[1] != self.inputs.shape[1]:
            raise InputError(f"exemplar rows of shape {rows.shape} are not a (k, d) block "
                             "as wide as the stored rows")
        self.inputs = rows if self.inputs is None else np.concatenate([self.inputs, rows])
        self.features = None

    def refresh_features(self, encode) -> None:
        """Re-encode the (B, d) inputs as anchor targets with one (B, n) encode call."""
        self.features = np.array(encode(self.inputs), dtype=float)


# -- terms: (features, logits) of their rows -> (loss, dL/dfeature, dL/dlogits)

def _cross_entropy_term(feat, logits, y):
    loss, grad_logits = softmax_cross_entropy_batch(logits, y)
    return loss, np.zeros_like(feat), grad_logits


def _anchor_term(feat, logits, m, inv_var):
    """Weighted squared deviation of re-encoded features from their anchors m."""
    diff = feat - m
    return float(np.sum(diff * diff * inv_var)), 2.0 * diff * inv_var, np.zeros_like(logits)


def _distillation_term(feat, logits, logits_hat, t_distill, n_old):
    """Cross-entropy from softened snapshot logits over the first n_old classes."""
    if not 1 <= n_old <= min(logits.shape[1], logits_hat.shape[1]):
        raise InputError(f"n_old={n_old} must be between 1 and both classifier widths")
    tau_hat = softmax(logits_hat[:, :n_old] / t_distill)
    z = logits[:, :n_old] / t_distill
    z -= z.max(axis=1, keepdims=True)
    log_tau = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    grad_logits = np.zeros_like(logits)
    grad_logits[:, :n_old] = (np.exp(log_tau) - tau_hat) / t_distill
    return float(-np.sum(tau_hat * log_tau)), np.zeros_like(feat), grad_logits


@dataclass(frozen=True)
class _MinMaxIndex:
    """The min-max term's index sets for one batch over a graph's labels and origins."""

    batch: int            # batch rows; the rows of this session's nodes follow them
    groups: tuple         # (batch rows, nodes) per batch label, labels ascending
    cross: np.ndarray     # (N, N) bool: the two nodes carry different labels
    node_row: np.ndarray  # (N,) the row of each node of this session
    is_new: np.ndarray    # (N,) bool: the node was inserted this session


def _min_max_index(y, graph: NGGraph) -> _MinMaxIndex:
    y = np.asarray(y, dtype=int)
    groups = []
    for label in np.unique(y):
        nodes = np.flatnonzero(graph.labels == label)
        if nodes.size == 0:
            raise StateError(f"no node carries batch label {label}")
        groups.append((np.flatnonzero(y == label), nodes))
    is_new = graph.origins == graph.session
    node_row = len(y) + np.searchsorted(np.flatnonzero(is_new), np.arange(len(graph)))
    return _MinMaxIndex(len(y), tuple(groups), graph.labels[:, None] != graph.labels,
                        node_row, is_new)


def _min_max_term(feat, logits, graph, index, xi, include_min, include_max):
    """Min-max loss; rows are the batch, then f(z_j) of this session's nodes."""
    n = index.batch
    grad_feat = np.zeros_like(feat)
    match = np.empty(n, dtype=int)
    for rows, nodes in index.groups:
        match[rows] = nodes[nearest(feat[rows], graph.centroids[nodes])[0]]
    loss = 0.0
    if include_min:
        diff = feat[:n] - graph.centroids[match]
        d = np.linalg.norm(diff, axis=1)
        loss += float(d.sum())
        np.divide(diff, d[:, None], out=grad_feat[:n], where=d[:, None] > 0.0)
    if include_max:
        # A sample's hinge depends only on its matched node j (labels[j] == y),
        # so each distinct j is evaluated once, weighted by its match count.
        counts = np.bincount(match, minlength=len(graph))
        nodes = np.flatnonzero(counts)
        counts = counts[nodes]
        row = index.node_row[nodes]
        is_new = index.is_new[nodes]
        m = graph.centroids[nodes]
        m[is_new] = feat[row[is_new]]
        pair, other = np.nonzero((graph.ages[nodes] > 0) & index.cross[nodes])
        gap = m[pair] - graph.centroids[other]
        d = np.linalg.norm(gap, axis=1)
        hit = d < xi
        loss += float(counts[pair[hit]] @ (xi - d[hit]))
        push = hit & is_new[pair] & (d > 0.0)
        np.subtract.at(grad_feat, row[pair[push]],
                       counts[pair[push], None] * gap[push] / d[push, None])
    return loss, grad_feat, np.zeros_like(logits)


def _graph_anchors(graph: NGGraph, old_nodes) -> tuple:
    if len(old_nodes) == 0:
        raise InputError("anchor loss needs at least one old node")
    inv_var = 1.0 / graph.variances[old_nodes]
    if not np.all(np.isfinite(inv_var)):
        raise StateError("non-finite inverse variance; the floor invariant is broken")
    return graph.centroids[old_nodes], inv_var


def _exemplar_anchors(exemplars: ExemplarSet | None) -> tuple:
    if exemplars is None or len(exemplars) == 0:
        raise StateError("exemplar anchor method needs a non-empty exemplar set")
    if exemplars.features is None:
        raise StateError("exemplar set has no anchor features; refresh them first")
    return exemplars.features, 1.0


def _through_model(x: np.ndarray, params: ModelParams, term, *context):
    feat, logits, cache = forward_batch(x, params)
    loss, grad_feat, grad_logits = term(feat, logits, *context)
    return loss, backward_batch(cache, grad_logits, grad_feat, params)


def anchor_loss(graph: NGGraph, old_nodes, params: ModelParams):
    """Variance-weighted quadratic penalty pinning old nodes to their centroids.

    For each old node, the stored pseudo input is re-encoded by the current
    extractor and the deviation from the stored centroid is weighted by the
    inverse variance diagonal.  Gradients flow into the extractor only.
    """
    old_nodes = np.asarray(old_nodes, dtype=int)
    return _through_model(graph.pseudo_inputs[old_nodes], params, _anchor_term,
                          *_graph_anchors(graph, old_nodes))


def _exemplar_anchor_loss(exemplars: ExemplarSet, params: ModelParams):
    """Identity-weighted anchor penalty over stored exemplar features."""
    targets = _exemplar_anchors(exemplars)
    return _through_model(exemplars.inputs, params, _anchor_term, *targets)


def xi_heuristic(graph: NGGraph) -> float:
    """Margin set to the maximum pairwise centroid distance."""
    if len(graph) < 2:
        raise StateError("margin heuristic needs at least two nodes")
    return max_distance(graph.centroids)


def min_max_loss(batch_x: np.ndarray, batch_y: np.ndarray, graph: NGGraph,
                 params: ModelParams, xi: float, include_min: bool = True,
                 include_max: bool = True):
    """Pull features to their class node, push cross-label neighbors apart.

    Per sample (x, y): let j be the nearest node labeled y under the stored
    centroids (ties to the lowest index).  The min part adds d(f(x), m_j)
    with m_j constant.  The max part adds max(0, xi - d(m_i, m_j)) over
    neighbors i of j with a different label; m_i is always a constant, while
    m_j of a node inserted this session is re-expressed as f(z_j) so the
    push has a gradient path into the extractor.  include_min/include_max
    isolate the two parts.
    """
    if graph is None:
        raise StateError("min-max loss needs a graph")
    new_nodes = np.flatnonzero(graph.origins == graph.session)
    x = np.concatenate([batch_x, graph.pseudo_inputs[new_nodes]])
    return _through_model(x, params, _min_max_term, graph, _min_max_index(batch_y, graph),
                          xi, include_min, include_max)


def distillation_loss(batch_x: np.ndarray, old_params: ModelParams,
                      params: ModelParams, t_distill: float, n_old: int):
    """Match temperature-softened old-class outputs to a frozen snapshot.

    Both logit vectors are restricted to the first n_old classes; the
    snapshot is a constant, so gradients flow into the current parameters.
    """
    logits_hat = forward_batch(batch_x, old_params)[1]
    return _through_model(batch_x, params, _distillation_term, logits_hat,
                          t_distill, n_old)


@dataclass(frozen=True)
class SessionPlan:
    """What one incremental session's loss reads that stays fixed across its steps.

    x stacks the rows one forward pass covers: the batch, the stored
    exemplars, then the pseudo inputs of the old nodes to anchor and of this
    session's nodes to push.  terms lists (weight, rows, term, context) in the
    order their gradients are summed; the contexts hold the batch labels, the
    anchor targets and inverse variances, the min-max index sets and the
    frozen snapshot's logits.  The min-max context holds the graph itself,
    whose centroids and edges the term reads at each step.
    """

    x: np.ndarray
    terms: tuple


def plan_session(batch, graph: NGGraph | None, exemplars: ExemplarSet | None,
                 hp: HyperParams, method: str, *, old_params: ModelParams | None = None,
                 n_old: int | None = None, xi: float | None = None) -> SessionPlan:
    """The SessionPlan of METHODS[method] for batch (inputs, labels) over graph and exemplars.

    The plan holds while the graph keeps its nodes' labels, origins and pseudo
    inputs and its old nodes' centroids and variances, as it does through one
    session's steps: they move only this session's centroids and the edges.
    Terms are weighted 1 (CE on the batch), lambda1 (anchor), lambda2 (min-max,
    margin xi) and gamma (distillation against the frozen snapshot old_params
    on batch + exemplar rows).
    """
    spec = method_spec(method)
    if spec.reads_graph and graph is None:
        raise StateError(f"method {method!r} requires a neural-gas graph")
    batch_x, batch_y = np.asarray(batch[0], dtype=float), np.asarray(batch[1], dtype=int)
    empty = batch_x[:0]
    store = exemplars.inputs if exemplars and (spec.distill or spec.anchor == "exemplar") else empty
    z = graph.pseudo_inputs if spec.reads_graph else empty
    old = np.flatnonzero(graph.origins < graph.session) if spec.anchor == "graph" else []
    new = np.flatnonzero(graph.origins == graph.session) if spec.min_max else []
    x = np.concatenate([batch_x, store, z[old], z[new]])
    ends = np.cumsum([len(batch_y), len(store), len(old), len(new)])
    batch_rows, store_rows, old_rows, new_rows = map(slice, [0, *ends[:-1]], ends)
    terms = [(1.0, batch_rows, _cross_entropy_term, (batch_y,))]
    if spec.anchor == "exemplar":
        terms.append((hp.lambda1, store_rows, _anchor_term, _exemplar_anchors(exemplars)))
    if spec.anchor == "graph":
        terms.append((hp.lambda1, old_rows, _anchor_term, _graph_anchors(graph, old)))
    if spec.min_max:
        margin = xi if xi is not None else hp.xi
        if margin is None:
            raise InputError("min-max methods need the margin xi")
        terms.append((hp.lambda2, np.r_[batch_rows, new_rows], _min_max_term,
                      (graph, _min_max_index(batch_y, graph), margin, True, True)))
    if spec.distill:
        if old_params is None or n_old is None:
            raise StateError("distillation methods need the frozen snapshot and n_old")
        dl = slice(0, store_rows.stop)
        terms.append((hp.gamma, dl, _distillation_term,
                      (forward_batch(x[dl], old_params)[1], hp.t_distill, n_old)))
    return SessionPlan(x, tuple(terms))


def total_loss(plan: SessionPlan, params: ModelParams):
    """The plan's composed loss at params and its graph's current state.

    One forward_batch over plan.x feeds every term; their row gradients,
    weighted, go through one backward_batch.  Returns (loss, gradients).
    """
    feat, logits, cache = forward_batch(plan.x, params)
    loss = 0.0
    grad_feat, grad_logits = np.zeros_like(feat), np.zeros_like(logits)
    for scale, rows, term, context in plan.terms:
        value, g_feat, g_logits = term(feat[rows], logits[rows], *context)
        loss += scale * value
        grad_feat[rows] += scale * g_feat
        grad_logits[rows] += scale * g_logits
    return float(loss), backward_batch(cache, grad_logits, grad_feat, params)

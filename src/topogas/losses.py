"""Loss terms for incremental training and their composition.

Each term reads the rows of one output, features or logits, and returns (loss,
gradient on those rows); `total_loss` adds the weighted gradients into the
outputs' buffers for one backward pass.  Losses are sums over batch samples,
graph nodes or exemplars, not means.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, StateError
# `forward` stays bound here because the perfbench tracer patches losses.forward.
from .feature_model import (ModelParams, backward_batch, extract_features, forward,  # noqa: F401
                            forward_batch, softmax, softmax_cross_entropy_batch)
from .neural_gas import (MAX_LIFETIME, NGGraph, _exact_distances, check_variance_floor,
                         max_distance, nearest)


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

    @property
    def keeps_store(self) -> bool:
        """Whether a term reads the exemplar store; other methods build none."""
        return self.distill or self.anchor == "exemplar"


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
    """Training knobs and the model's dims; defaults follow the reference configuration.

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
    hidden_dim: int = 32
    feature_dim: int = 8

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
        check_variance_floor(self.eps_var)


# -- terms: the rows of one output -> (loss, gradient on those rows)

def _anchor_term(feat, m, inv_var):
    """Weighted squared deviation of re-encoded features from their anchors m."""
    diff = feat - m
    return float(np.sum(diff * diff * inv_var)), 2.0 * diff * inv_var


def _distillation_term(logits, logits_hat, t_distill, n_old):
    """Cross-entropy from softened snapshot logits over the first n_old classes."""
    if not 1 <= n_old <= min(logits.shape[1], logits_hat.shape[1]):
        raise InputError(f"n_old={n_old} must be between 1 and both classifier widths")
    tau_hat = softmax(logits_hat[:, :n_old] / t_distill)
    z = logits[:, :n_old] / t_distill
    z -= z.max(axis=1, keepdims=True)
    log_tau = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    grad_logits = np.zeros_like(logits)
    grad_logits[:, :n_old] = (np.exp(log_tau) - tau_hat) / t_distill
    return float(-np.sum(tau_hat * log_tau)), grad_logits


@dataclass(frozen=True)
class _MinMaxIndex:
    """The min-max term's index sets for one batch; it reads the rest from the graph."""

    batch: int            # batch rows; the rows of this session's nodes follow them
    by_label: tuple       # per batch label, (its batch rows, its nodes ascending)
    node_row: np.ndarray  # (N,) the row of each node of this session


def _min_max_index(y, graph: NGGraph) -> _MinMaxIndex:
    y = np.asarray(y, dtype=int)
    missing = np.setdiff1d(y, graph.labels)
    if missing.size:
        raise StateError(f"no node carries batch label {missing[0]}")
    by_label = tuple((np.flatnonzero(y == c), np.flatnonzero(graph.labels == c))
                     for c in np.unique(y))
    node_row = len(y) + np.searchsorted(np.flatnonzero(graph.current), np.arange(len(graph)))
    return _MinMaxIndex(len(y), by_label, node_row)


def _min_max_term(feat, graph, index, xi):
    """Min-max loss; rows are the batch, then f(z_j) of this session's nodes."""
    n = index.batch
    grad_feat = np.zeros_like(feat)
    # Per row, the first node of its label at the least distance (a row whose
    # distances all overflow takes its label's first node), and that distance.
    match, d = np.empty(n, dtype=int), np.empty(n)
    for rows, nodes in index.by_label:
        pick, d[rows] = nearest(feat[rows], graph.centroids[nodes])
        match[rows] = nodes[pick]
    diff = feat[:n] - graph.centroids[match]
    loss = float(d.sum())
    np.divide(diff, d[:, None], out=grad_feat[:n], where=d[:, None] > 0.0)
    # Push: a sample's hinge depends only on its matched node j (labels[j] == y),
    # so each distinct j is evaluated once, weighted by its match count.
    counts = np.bincount(match, minlength=len(graph))
    nodes = np.flatnonzero(counts)
    counts = counts[nodes]
    row = index.node_row[nodes]
    is_new = graph.current[nodes]
    m = graph.centroids[nodes]
    m[is_new] = feat[row[is_new]]
    pair, other = np.nonzero((graph.ages[nodes] > 0)
                             & (graph.labels[nodes, None] != graph.labels))
    gap = m[pair] - graph.centroids[other]
    d = _exact_distances(m[pair], graph.centroids[other])
    hit = d < xi
    loss += float(counts[pair[hit]] @ (xi - d[hit]))
    push = hit & is_new[pair] & (d > 0.0)
    np.subtract.at(grad_feat, row[pair[push]],
                   counts[pair[push], None] * gap[push] / d[push, None])
    return loss, grad_feat


def _graph_anchors(graph: NGGraph, old_nodes) -> tuple:
    if len(old_nodes) == 0:
        raise InputError("anchor loss needs at least one old node")
    inv_var = 1.0 / graph.variances[old_nodes]
    if not np.all(np.isfinite(inv_var)):
        raise StateError("non-finite inverse variance; the floor invariant is broken")
    return graph.centroids[old_nodes], inv_var


def _exemplar_anchors(store: np.ndarray | None, old_params: ModelParams | None) -> tuple:
    if store is None or len(store) == 0 or old_params is None:
        raise StateError("exemplar anchors need a non-empty store and the frozen snapshot")
    return extract_features(old_params, store), 1.0


def anchor_loss(graph: NGGraph, old_nodes, params: ModelParams):
    """Variance-weighted quadratic penalty pinning old nodes to their centroids.

    For each old node, the stored pseudo input is re-encoded by the current
    extractor and the deviation from the stored centroid is weighted by the
    inverse variance diagonal.  Gradients flow into the extractor only.
    """
    old_nodes = np.asarray(old_nodes, dtype=int)
    term = (1.0, "feat", slice(None), _anchor_term, _graph_anchors(graph, old_nodes))
    return total_loss(SessionPlan(graph.pseudo_inputs[old_nodes], (term,)), params)


def _exemplar_anchor_loss(store: np.ndarray, old_params: ModelParams, params: ModelParams):
    """Identity-weighted anchor penalty pinning stored rows to the snapshot's features."""
    term = (1.0, "feat", slice(None), _anchor_term, _exemplar_anchors(store, old_params))
    return total_loss(SessionPlan(store, (term,)), params)


def xi_heuristic(graph: NGGraph) -> float:
    """Margin set to the maximum pairwise centroid distance."""
    if len(graph) < 2:
        raise StateError("margin heuristic needs at least two nodes")
    return max_distance(graph.centroids)


def min_max_loss(batch_x: np.ndarray, batch_y: np.ndarray, graph: NGGraph,
                 params: ModelParams, xi: float):
    """Pull features to their class node, push cross-label neighbors apart.

    Per sample (x, y): let j be the nearest node labeled y under the stored
    centroids (ties to the lowest index).  The min part adds d(f(x), m_j)
    with m_j constant.  The max part adds max(0, xi - d(m_i, m_j)) over
    neighbors i of j with a different label; m_i is always a constant, while
    m_j of a node inserted this session is re-expressed as f(z_j) so the
    push has a gradient path into the extractor.  The loss is their sum.
    """
    if graph is None:
        raise StateError("min-max loss needs a graph")
    x = np.concatenate([batch_x, graph.pseudo_inputs[graph.current]])
    term = (1.0, "feat", slice(None), _min_max_term,
            (graph, _min_max_index(batch_y, graph), xi))
    return total_loss(SessionPlan(x, (term,)), params)


def distillation_loss(batch_x: np.ndarray, old_params: ModelParams,
                      params: ModelParams, t_distill: float, n_old: int):
    """Match temperature-softened old-class outputs to a frozen snapshot.

    Both logit vectors are restricted to the first n_old classes; the
    snapshot is a constant, so gradients flow into the current parameters.
    """
    term = (1.0, "logits", slice(None), _distillation_term,
            (forward_batch(batch_x, old_params)[1], t_distill, n_old))
    return total_loss(SessionPlan(batch_x, (term,)), params)


@dataclass(frozen=True)
class SessionPlan:
    """What one incremental session's loss reads that stays fixed across its steps.

    x stacks the rows one forward pass covers: the batch, the stored
    exemplar rows, then the pseudo inputs of the old nodes to anchor and of this
    session's nodes to push.  terms lists (weight, output, rows, term, context)
    in the order their gradients are summed; term reads those rows of output,
    "feat" or "logits", then its context: the batch labels, the anchor targets
    and inverse variances (the snapshot's features of the stored rows, for
    exemplar anchors), the min-max index sets or the snapshot's logits.
    The min-max context holds the graph, whose centroids and edges it reads.
    """

    x: np.ndarray
    terms: tuple


def plan_session(batch, graph: NGGraph | None, store: np.ndarray | None,
                 hp: HyperParams, method: str, *, old_params: ModelParams | None = None,
                 xi: float | None = None) -> SessionPlan:
    """The SessionPlan of METHODS[method] for batch (inputs, labels) over graph and the
    stored exemplar rows, one (rows, d) array as wide as the batch, or None.

    The plan holds while the graph keeps its nodes' labels, origins and pseudo
    inputs and its old nodes' centroids and variances, as it does through one
    session's steps: they move only this session's centroids and the edges.
    Terms are weighted 1 (CE on the batch), lambda1 (anchor), lambda2 (min-max,
    margin xi, which the caller resolves; hp.xi is not read) and gamma
    (distillation on batch + stored rows).  Both the exemplar anchors' targets
    and the distillation's logits are the frozen snapshot old_params's outputs
    on the stored rows; the distillation covers the snapshot's classes.
    """
    spec = method_spec(method)
    if spec.reads_graph and graph is None:
        raise StateError(f"method {method!r} requires a neural-gas graph")
    batch_x, batch_y = np.asarray(batch[0], dtype=float), np.asarray(batch[1], dtype=int)
    if store is not None and (np.ndim(store) != 2 or np.shape(store)[1:] != batch_x.shape[1:]):
        raise InputError(f"an exemplar store of shape {np.shape(store)} is not a (rows, d) "
                         "block as wide as the batch")
    empty = batch_x[:0]
    stored = store if store is not None and spec.keeps_store else empty
    z = graph.pseudo_inputs if spec.reads_graph else empty
    old = np.flatnonzero(~graph.current) if spec.anchor == "graph" else []
    new = np.flatnonzero(graph.current) if spec.min_max else []
    x = np.concatenate([batch_x, stored, z[old], z[new]])
    ends = np.cumsum([len(batch_y), len(stored), len(old), len(new)])
    batch_rows, store_rows, old_rows, new_rows = map(slice, [0, *ends[:-1]], ends)
    terms = [(1.0, "logits", batch_rows, softmax_cross_entropy_batch, (batch_y,))]
    if spec.anchor == "exemplar":
        terms.append((hp.lambda1, "feat", store_rows, _anchor_term,
                      _exemplar_anchors(store, old_params)))
    if spec.anchor == "graph":
        terms.append((hp.lambda1, "feat", old_rows, _anchor_term, _graph_anchors(graph, old)))
    if spec.min_max:
        if xi is None:
            raise InputError("min-max methods need the margin xi")
        terms.append((hp.lambda2, "feat", np.r_[batch_rows, new_rows], _min_max_term,
                      (graph, _min_max_index(batch_y, graph), xi)))
    if spec.distill:
        if old_params is None:
            raise StateError("distillation methods need the frozen snapshot")
        dl = slice(0, store_rows.stop)
        terms.append((hp.gamma, "logits", dl, _distillation_term,
                      (forward_batch(x[dl], old_params)[1], hp.t_distill, old_params.class_count)))
    return SessionPlan(x, tuple(terms))


def total_loss(plan: SessionPlan, params: ModelParams):
    """The plan's composed loss at params and its graph's current state.

    One forward_batch over plan.x feeds every term; each weighted row gradient
    goes into its output's buffer, and both go through one backward_batch.
    Returns (loss, gradients).
    """
    feat, logits, cache = forward_batch(plan.x, params)
    outputs = {"feat": feat, "logits": logits}
    grads = {"feat": np.zeros_like(feat), "logits": np.zeros_like(logits)}
    loss = 0.0
    for scale, output, rows, term, context in plan.terms:
        value, grad = term(outputs[output][rows], *context)
        loss += scale * value
        grads[output][rows] += scale * grad
    return float(loss), backward_batch(cache, grads["logits"], grads["feat"], params)

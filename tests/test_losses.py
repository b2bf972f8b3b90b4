import dataclasses
import math

import numpy as np
import pytest

import oracles
from oracles import add_scaled, finite_difference_check
from topogas import (METHODS, HyperParams, InputError, NGGraph,
                     StateError, anchor_loss, distillation_loss, forward,
                     forward_batch, init_params, min_max_loss, plan_session, softmax,
                     total_loss, xi_heuristic)
from topogas.feature_model import ModelParams, backward_batch
from topogas.losses import _min_max_index, _min_max_term

EPS = 1e-6


def make_params(seed=0, input_dim=3, hidden_dim=4, feature_dim=3, classes=4):
    return init_params(input_dim, hidden_dim, feature_dim, classes, seed)


def make_graph(params, n_nodes, labels, origins, seed=0, lifetime=50):
    """Random graph whose centroids are actual features of its pseudo inputs."""
    rng = np.random.default_rng([seed, 0xAB])
    z = rng.normal(size=(n_nodes, params.input_dim))
    centroids = forward_batch(z, params)[0]
    variances = rng.uniform(0.2, 2.0, size=centroids.shape)
    return NGGraph(centroids.copy(), variances, z,
                   np.asarray(labels), np.asarray(origins), lifetime, EPS,
                   session=int(np.max(origins)))


# -- anchor loss -----------------------------------------------------------------

def test_anchor_loss_zero_at_fixed_point():
    params = make_params(seed=1)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 1], seed=1)
    loss, grads = anchor_loss(g, np.arange(3), params)
    assert loss == pytest.approx(0.0, abs=1e-18)
    for arr in grads.arrays().values():
        assert np.allclose(arr, 0.0, atol=1e-9)


def test_anchor_loss_scalar_quadratic_form():
    params = make_params(seed=2)
    g = make_graph(params, 1, [0], [1], seed=2)
    g.variances[0] = [2.0, 0.5, 1.0]
    feat = forward(g.pseudo_inputs[0], params)[0]
    g.centroids[0] = feat - np.array([1.0, 1.0, 0.0])
    loss, _ = anchor_loss(g, [0], params)
    assert loss == pytest.approx(1.0 / 2.0 + 1.0 / 0.5, rel=1e-12)


def test_anchor_loss_gradient_matches_finite_differences():
    params = make_params(seed=3)
    g = make_graph(params, 2, [0, 1], [1, 1], seed=3)
    g.centroids += np.random.default_rng(4).normal(scale=0.3, size=g.centroids.shape)

    def evaluator(p):
        return anchor_loss(g, [0, 1], p)

    report = finite_difference_check(evaluator, params, tol=1e-4)
    assert report.passed, report.per_parameter


def test_anchor_loss_leaves_classifier_untouched():
    params = make_params(seed=5)
    g = make_graph(params, 2, [0, 1], [1, 1], seed=5)
    g.centroids += 0.5
    _, grads = anchor_loss(g, [0, 1], params)
    assert np.all(grads.phi == 0.0)
    assert np.any(grads.w1 != 0.0)


def test_anchor_loss_rejects_empty_node_set():
    params = make_params()
    g = make_graph(params, 2, [0, 1], [1, 1])
    with pytest.raises(InputError):
        anchor_loss(g, [], params)


def test_anchor_loss_refresh_consistency():
    # Re-encoding the pseudo inputs reproduces exactly the deviations the
    # anchor loss just measured.
    params = make_params(seed=6)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 1], seed=6)
    g.centroids += np.random.default_rng(7).normal(scale=0.2, size=g.centroids.shape)
    loss, _ = anchor_loss(g, np.arange(3), params)
    stored = g.centroids.copy()
    g.refresh_anchors(forward_batch(g.pseudo_inputs, params)[0])
    shifts = g.centroids - stored
    recomputed = float(np.sum(shifts * shifts / g.variances))
    assert recomputed == pytest.approx(loss, rel=1e-10)


# -- margin heuristic ---------------------------------------------------------

def test_xi_three_four_five_triangle():
    params = make_params()
    g = make_graph(params, 2, [0, 1], [1, 1])
    g.centroids = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    assert xi_heuristic(g) == pytest.approx(5.0)


def test_xi_degenerate_identical_centroids():
    params = make_params()
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 1])
    g.centroids[:] = 1.0
    assert xi_heuristic(g) == 0.0


def test_xi_matches_exhaustive_pairwise_max():
    params = make_params()
    rng = np.random.default_rng(8)
    g = make_graph(params, 10, list(range(10)), [1] * 10)
    g.centroids = rng.normal(size=(10, 3))
    expected = max(math.dist(g.centroids[i], g.centroids[j])
                   for i in range(10) for j in range(10))
    assert xi_heuristic(g) == pytest.approx(expected, rel=1e-12)


def test_xi_requires_two_nodes():
    params = make_params()
    g = make_graph(params, 1, [0], [1])
    with pytest.raises(StateError):
        xi_heuristic(g)


# -- min-max loss ------------------------------------------------------------

def satisfied_setup():
    """f(x) sits exactly on its class node and neighbors are past the margin."""
    params = make_params(seed=9)
    g = make_graph(params, 2, [0, 1], [1, 1], seed=9)
    g.session = 2
    g.origins = np.array([1, 2])
    g.ages[0, 1] = g.ages[1, 0] = 1
    x = g.pseudo_inputs[1]  # feature equals centroid 1 by construction
    return params, g, np.asarray([x]), np.array([1])


def test_min_max_loss_zero_when_satisfied():
    params, g, bx, by = satisfied_setup()
    gap = float(np.linalg.norm(g.centroids[0] - g.centroids[1]))
    loss, grads = min_max_loss(bx, by, g, params, xi=gap * 0.5)
    assert loss == pytest.approx(0.0, abs=1e-18)
    for arr in grads.arrays().values():
        assert np.allclose(arr, 0.0, atol=1e-12)


def test_min_max_loss_neighbor_at_half_margin():
    params, g, bx, by = satisfied_setup()
    gap = float(np.linalg.norm(g.centroids[0] - g.centroids[1]))
    xi = gap * 2.0  # the pair now sits at xi/2
    loss, _ = min_max_loss(bx, by, g, params, xi=xi)
    assert loss == pytest.approx(xi / 2.0, rel=1e-12)


def test_min_max_loss_max_term_is_hinge_on_stored_centroids():
    # With an old matched node everything is a constant, so the max term is
    # exactly max(0, xi - d) per cross-label neighbor pair.  The batch row is
    # node 0's own pseudo input, so the pull is about 0.
    params = make_params(seed=10)
    g = make_graph(params, 3, [0, 1, 1], [1, 1, 1], seed=10)
    g.session = 2  # all nodes are old
    g.ages[0, 1] = g.ages[1, 0] = 1
    g.ages[0, 2] = g.ages[2, 0] = 1
    x = g.pseudo_inputs[0]
    d01 = float(np.linalg.norm(g.centroids[0] - g.centroids[1]))
    d02 = float(np.linalg.norm(g.centroids[0] - g.centroids[2]))
    for xi in (0.5 * min(d01, d02), max(d01, d02) * 1.5, 10.0):
        loss, _ = min_max_loss(np.asarray([x]), np.array([0]), g, params, xi=xi)
        expected = max(0.0, xi - d01) + max(0.0, xi - d02)
        assert loss == pytest.approx(expected, rel=1e-12)


def test_min_max_loss_min_term_only_is_distance_sum():
    params = make_params(seed=11)
    g = make_graph(params, 2, [0, 1], [1, 1], seed=11)
    assert not g.ages.any()  # no edges, so the push is 0
    rng = np.random.default_rng(12)
    bx = rng.normal(size=(4, 3))
    by = np.array([0, 1, 0, 1])
    loss, _ = min_max_loss(bx, by, g, params, xi=1.0)
    feats = forward_batch(bx, params)[0]
    expected = sum(float(np.linalg.norm(feats[b] - g.centroids[by[b]]))
                   for b in range(4))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_min_max_loss_gradient_matches_finite_differences():
    params = make_params(seed=13)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 2], seed=13)
    g.ages[:] = ~np.eye(3, dtype=bool)
    rng = np.random.default_rng(14)
    bx = rng.normal(size=(3, 3))
    by = np.array([2, 0, 2])
    xi = xi_heuristic(g) * 1.5

    def evaluator(p):
        return min_max_loss(bx, by, g, p, xi=xi)

    report = finite_difference_check(evaluator, params, tol=1e-4)
    assert report.passed, report.per_parameter


def test_min_max_loss_nonnegative_on_random_cases():
    rng = np.random.default_rng(15)
    for seed in range(10):
        params = make_params(seed=seed + 100)
        g = make_graph(params, 4, [0, 1, 2, 3], [1, 1, 2, 2], seed=seed)
        edges = rng.random((4, 4)) < 0.5
        edges |= edges.T
        np.fill_diagonal(edges, False)
        g.ages[:] = edges
        bx = rng.normal(size=(3, 3))
        by = rng.integers(0, 4, size=3)
        loss, _ = min_max_loss(bx, by, g, params, xi=float(rng.uniform(0.1, 3.0)))
        assert loss >= 0.0


def test_min_max_loss_missing_label_rejected():
    params = make_params(seed=16)
    g = make_graph(params, 2, [0, 1], [1, 1], seed=16)
    with pytest.raises(StateError, match="batch label 7"):
        min_max_loss(np.zeros((3, 3)), np.array([0, 9, 7]), g, params, xi=1.0)


def test_min_max_loss_subgradient_at_zero_distance():
    params, g, bx, by = satisfied_setup()
    loss, grads = min_max_loss(bx, by, g, params, xi=1e12)
    assert np.isfinite(loss)
    for arr in grads.arrays().values():
        assert np.all(np.isfinite(arr))


def reference_min_max_loss(batch_x: np.ndarray, batch_y: np.ndarray, graph: NGGraph,
                           params: ModelParams, xi: float):
    """The per-sample min-max loop that the vectorized min_max_loss replaced."""
    if graph is None:
        raise StateError("min-max loss needs a graph")
    batch_x = np.asarray(batch_x, dtype=float)
    batch_y = np.asarray(batch_y, dtype=int)
    feat, logits, cache = forward_batch(batch_x, params)
    grad_feat = np.zeros_like(feat)
    loss = 0.0
    # Newly inserted matched nodes get a differentiable centroid f(z_j).
    new_fwd: dict[int, tuple] = {}
    new_grad: dict[int, np.ndarray] = {}
    for b in range(batch_x.shape[0]):
        y = int(batch_y[b])
        candidates = np.flatnonzero(graph.labels == y)
        if candidates.size == 0:
            raise StateError(f"no node carries batch label {y}")
        dists = np.linalg.norm(graph.centroids[candidates] - feat[b], axis=1)
        j = int(candidates[np.argmin(dists)])
        d = float(np.linalg.norm(feat[b] - graph.centroids[j]))
        loss += d
        if d > 0.0:
            grad_feat[b] += (feat[b] - graph.centroids[j]) / d
        is_new = int(graph.origins[j]) == graph.session
        if is_new and j not in new_fwd:
            fj, oj, cj = forward(graph.pseudo_inputs[j], params)
            new_fwd[j] = (fj, oj, cj)
            new_grad[j] = np.zeros_like(fj)
        mj = new_fwd[j][0] if is_new else graph.centroids[j]
        for i in np.flatnonzero(graph.ages[j]):
            if int(graph.labels[i]) == y:
                continue
            gap = mj - graph.centroids[i]
            d_ij = float(np.linalg.norm(gap))
            if d_ij < xi:
                loss += xi - d_ij
                if is_new and d_ij > 0.0:
                    new_grad[j] -= gap / d_ij
    grads = backward_batch(cache, np.zeros_like(logits), grad_feat, params)
    for j, g in new_grad.items():
        fj, oj, cj = new_fwd[j]
        add_scaled(grads, backward_batch(cj, np.zeros_like(oj)[None, :],
                                         g[None, :], params))
    return float(loss), grads


def grid_world(seed):
    """Model, graph and batch on a grid of halves, with planted corner cases.

    Every value a forward pass produces is exact on this grid, so the planted
    ties and zero distances survive any row stacking or summation order.
    Planted: old node 0 and new node 1 share label 0 and a centroid (a tie
    that sample 0 sits on); samples 1 and 2 both sit on new node 2; old node
    3 is a cross-label neighbor of node 2 at zero distance from f(z_2).
    """
    rng = np.random.default_rng([seed, 0x3A3])

    def grid(*shape):
        return rng.integers(-2, 3, size=shape) / 2.0

    params = ModelParams(grid(5, 3), grid(5), grid(3, 5), grid(3), grid(3, 4))
    n = 9
    z = grid(n, 3)
    labels = np.array([0, 0, 1, 2, *rng.integers(0, 3, size=n - 4)])
    origins = np.array([1, 2, 2, 1, *rng.integers(1, 3, size=n - 4)])
    centroids = forward_batch(z, params)[0]
    centroids[4:] += grid(n - 4, 3)
    centroids[1] = centroids[0]
    centroids[3] = centroids[2]
    graph = NGGraph(centroids, np.ones((n, 3)), z, labels, origins, 50, EPS,
                    session=2)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    upper[2, 3] = True
    graph.ages[:] = upper | upper.T
    bx = np.vstack([z[0], z[2], z[2], grid(6, 3)])
    by = np.array([0, 1, 1, *rng.integers(0, 3, size=6)])
    return params, graph, bx, by


def push_only_world(seed):
    """grid_world with every batch row on a node of its label: rows 0-2 as planted,
    then the pseudo inputs of nodes 4-8 with those nodes' centroids moved onto their
    features.  Grid values are exact, so every row's pull is exactly 0."""
    params, graph, bx, by = grid_world(seed)
    graph.centroids[4:] = forward_batch(graph.pseudo_inputs[4:], params)[0]
    bx, by = np.vstack([bx[:3], graph.pseudo_inputs[4:]]), np.r_[by[:3], graph.labels[4:]]
    feat = forward_batch(bx, params)[0]
    assert all((feat[b] == graph.centroids[graph.labels == by[b]]).all(axis=1).any()
               for b in range(len(by)))
    return params, graph, bx, by


def pull_only_world(seed):
    """grid_world without edges, so nothing is pushed."""
    params, graph, bx, by = grid_world(seed)
    graph.ages[:] = 0
    return params, graph, bx, by


# Which parts of the loss each world leaves live: (pull, push).
PART_WORLDS = {(True, True): grid_world, (False, True): push_only_world,
               (True, False): pull_only_world}


@pytest.mark.parametrize("pull,push", list(PART_WORLDS))
def test_min_max_loss_matches_per_sample_reference(pull, push):
    for seed in range(40):
        params, g, bx, by = PART_WORLDS[pull, push](seed)
        xi = float(np.random.default_rng(seed).uniform(0.5, 4.0))
        loss, grads = min_max_loss(bx, by, g, params, xi)
        ref_loss, ref_grads = reference_min_max_loss(bx, by, g, params, xi)
        assert loss == pytest.approx(ref_loss, rel=1e-9, abs=1e-9)
        for name, arr in grads.arrays().items():
            np.testing.assert_allclose(arr, ref_grads.arrays()[name], rtol=1e-9, atol=1e-9)


def test_min_max_loss_matches_reference_on_random_graphs():
    rng = np.random.default_rng(41)
    for seed in range(20):
        params = make_params(seed=seed + 300)
        n = int(rng.integers(3, 8))
        labels = np.concatenate([[0, 1, 2], rng.integers(0, 3, size=n - 3)])
        g = make_graph(params, n, labels, rng.integers(1, 3, size=n), seed=seed)
        g.session = 2
        g.centroids += rng.normal(scale=0.3, size=g.centroids.shape)
        upper = np.triu(rng.random((n, n)) < 0.6, 1)
        g.ages[:] = upper | upper.T
        bx = rng.normal(size=(8, 3))
        by = rng.integers(0, 3, size=8)
        xi = xi_heuristic(g) * float(rng.uniform(0.3, 1.5))
        loss, grads = min_max_loss(bx, by, g, params, xi)
        ref_loss, ref_grads = reference_min_max_loss(bx, by, g, params, xi)
        assert loss == pytest.approx(ref_loss, rel=1e-9, abs=1e-9)
        for name, arr in grads.arrays().items():
            np.testing.assert_allclose(arr, ref_grads.arrays()[name], rtol=1e-9, atol=1e-9)


def assert_min_max_term_matches_oracle(feat, y, graph, xi):
    """The term equals the oracle's bit for bit:
    the full loss; the pull alone, on the graph without edges; and the push alone,
    with each batch row moved onto the first node of its label."""
    new_nodes = np.flatnonzero(graph.origins == graph.session)
    edgeless = NGGraph(graph.centroids, graph.variances, graph.pseudo_inputs, graph.labels,
                       graph.origins, graph.lifetime, graph.eps_var, graph.session)
    on_nodes = feat.copy()
    on_nodes[:len(y)] = graph.centroids[(graph.labels == np.asarray(y)[:, None]).argmax(axis=1)]
    for part, (rows, g) in {"full": (feat, graph), "pull": (feat, edgeless),
                            "push": (on_nodes, graph)}.items():
        loss, grad = _min_max_term(rows, g, _min_max_index(y, g), xi)
        ref_loss, ref_grad, _ = oracles.min_max_term(rows, rows[:, :0], y, g, new_nodes, xi)
        assert loss == ref_loss, part
        assert grad.tobytes() == ref_grad.tobytes(), part


# k = 400 gives each batch label 400 nodes, so the label with the most of the 16
# rows (at least 6) is a search of more than NEAREST_BLOCK distances and screens.
@pytest.mark.parametrize("k", [2, 3, 400])
def test_min_max_search_matches_per_label_nearest_with_several_nodes_per_label(k):
    for seed in range(10):
        rng = np.random.default_rng([seed, k, 0x5EA])
        labels = rng.permutation(np.r_[np.repeat([0, 1, 2], k), [3, 4, 5]])
        n = len(labels)
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        graph = NGGraph(rng.normal(size=(n, 3)), np.ones((n, 3)), np.zeros((n, 2)), labels,
                        rng.integers(1, 3, size=n), 50, EPS, session=2, ages=upper | upper.T)
        y = rng.integers(0, 3, size=16)
        feat = rng.normal(size=(16 + np.count_nonzero(graph.origins == 2), 3))
        assert_min_max_term_matches_oracle(feat, y, graph, float(rng.uniform(0.5, 3.0)))


def test_min_max_search_planted_ties_nearer_other_labels_and_overflow():
    """Row 0 (label 0) sits on node 0 of label 2, and its own nodes 1 and 2 tie at
    distance 1.  Row 1 (label 1) is so far out that every distance overflows to inf:
    it must match node 3, its label's first node, not node 0.  Row 2 (label 2) is
    nearer its label's second node.  The matched nodes' neighbors differ, so the
    max part reads which node each row matched."""
    centroids = np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 2, 0], [0, -2, 0],
                          [0, 0, 3]], dtype=float)
    ages = np.zeros((6, 6), dtype=int)
    for i, j in [(0, 3), (1, 5), (2, 3), (3, 1), (4, 2)]:
        ages[i, j] = ages[j, i] = 1
    graph = NGGraph(centroids, np.ones((6, 3)), np.zeros((6, 2)), [2, 0, 0, 1, 1, 2],
                    [1, 2, 2, 2, 1, 2], 50, EPS, session=2, ages=ages)
    batch = np.array([[0, 0, 0], [1e155, 0, 0], [0, 0, 2.5]])
    feat = np.vstack([batch, centroids[[1, 2, 3, 5]] + 0.5])
    with np.errstate(over="ignore"):
        assert_min_max_term_matches_oracle(feat, np.array([0, 1, 2]), graph, 4.0)
        loss, grad = _min_max_term(feat, graph, _min_max_index([0, 1, 2], graph), 4.0)
    assert loss == math.inf and np.isfinite(grad).all()  # only row 1's pull overflows


# -- distillation -----------------------------------------------------------

def test_distillation_self_matches_entropy():
    params = make_params(seed=17)
    x = np.random.default_rng(18).normal(size=(5, 3))
    loss, grads = distillation_loss(x, params, params, t_distill=2.0, n_old=4)
    logits = forward_batch(x, params)[1]
    entropy = 0.0
    for row in logits:
        tau = softmax(row / 2.0)
        entropy -= float(np.sum(tau * np.log(tau)))
    assert loss == pytest.approx(entropy, rel=1e-10)
    for arr in grads.arrays().values():
        assert np.allclose(arr, 0.0, atol=1e-12)


def test_distillation_scalar_oracle_two_classes():
    params = make_params(seed=19, classes=3)
    old = make_params(seed=20, classes=2)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3))
    t = 2.0
    loss, _ = distillation_loss(x, old, params, t_distill=t, n_old=2)
    expected = 0.0
    for row in x:
        o_new = forward(row, params)[1][:2]
        o_old = forward(row, old)[1][:2]
        for k in range(2):
            tau_hat = math.exp(o_old[k] / t) / sum(math.exp(v / t) for v in o_old)
            tau = math.exp(o_new[k] / t) / sum(math.exp(v / t) for v in o_new)
            expected -= tau_hat * math.log(tau)
    assert loss == pytest.approx(expected, rel=1e-10)


def test_distillation_is_lower_bounded_by_snapshot_entropy():
    old = make_params(seed=22)
    current = make_params(seed=23)
    x = np.random.default_rng(24).normal(size=(4, 3))
    loss, _ = distillation_loss(x, old, current, t_distill=2.0, n_old=4)
    self_loss, _ = distillation_loss(x, old, old, t_distill=2.0, n_old=4)
    assert loss >= self_loss - 1e-12


def test_distillation_gradient_matches_finite_differences():
    old = make_params(seed=25)
    params = make_params(seed=26)
    x = np.random.default_rng(27).normal(size=(3, 3))

    def evaluator(p):
        return distillation_loss(x, old, p, t_distill=2.0, n_old=4)

    report = finite_difference_check(evaluator, params, tol=1e-4)
    assert report.passed, report.per_parameter


def test_distillation_rejects_zero_old_classes():
    params = make_params()
    with pytest.raises(InputError):
        distillation_loss(np.zeros((1, 3)), params, params, 2.0, n_old=0)


def test_distillation_rejects_oversized_n_old():
    params = make_params(classes=4)
    with pytest.raises(InputError):
        distillation_loss(np.zeros((1, 3)), params, params, 2.0, n_old=5)


# -- composed objective ----------------------------------------------------------

def random_batch(rng, n=4, classes=4):
    return rng.normal(size=(n, 3)), rng.integers(0, classes, size=n)


def test_total_loss_defaults_match_reference_weights():
    hp = HyperParams()
    assert hp.lambda1 == 0.5 and hp.lambda2 == 0.005
    assert hp.gamma == 1.0 and hp.t_distill == 2.0
    assert hp.eta == 0.02 and hp.alpha == 1.0 and hp.t_life == 200


def test_total_loss_zero_weights_reduce_to_cross_entropy():
    params = make_params(seed=28)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 2], seed=28)
    rng = np.random.default_rng(29)
    bx, by = random_batch(rng)
    hp = HyperParams(lambda1=0.0, lambda2=0.0)
    loss_al, _ = total_loss(plan_session((bx, by), g, None, hp, "topic_al"), params)
    loss_ft, _ = total_loss(plan_session((bx, by), None, None, hp, "ft"), params)
    assert loss_al == pytest.approx(loss_ft, rel=1e-12)


# The terms each method tag composes on top of cross-entropy, written out
# independently of the METHODS table.
TAG_TERMS = {"ft": (), "distill": ("dl",), "exemplar_anchor": ("exemplar_al",),
             "topic_al": ("al",), "topic_al_mml": ("al", "mml"),
             "topic_al_mml_dl": ("al", "mml", "dl")}


def test_total_loss_weighted_sum_matches_term_by_term():
    from topogas.feature_model import softmax_cross_entropy_batch
    from topogas.losses import _exemplar_anchor_loss
    assert set(TAG_TERMS) == set(METHODS)
    params = make_params(seed=30)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 2], seed=30)
    g.centroids += np.random.default_rng(31).normal(scale=0.2, size=g.centroids.shape)
    g.ages[:] = ~np.eye(3, dtype=bool)
    rng = np.random.default_rng(32)
    bx, by = random_batch(rng, n=3, classes=3)
    old = make_params(seed=33)
    hp = HyperParams()
    xi = 2.0
    store = rng.normal(size=(2, 3))

    feat, logits, cache = forward_batch(bx, params)
    ce, grad_o = softmax_cross_entropy_batch(logits, by)
    terms = {
        "al": (hp.lambda1, anchor_loss(g, np.flatnonzero(g.origins < g.session), params)),
        "exemplar_al": (hp.lambda1, _exemplar_anchor_loss(store, old, params)),
        "mml": (hp.lambda2, min_max_loss(bx, by, g, params, xi=xi)),
        "dl": (hp.gamma, distillation_loss(np.vstack([bx, store]), old, params,
                                           hp.t_distill, 4)),
    }
    for method, names in TAG_TERMS.items():
        plan = plan_session((bx, by), g, store, hp, method, old_params=old, xi=xi)
        loss, grads = total_loss(plan, params)
        expected = ce
        recomposed = backward_batch(cache, grad_o, np.zeros_like(feat), params)
        for name in names:
            weight, (term_loss, term_grads) = terms[name]
            expected += weight * term_loss
            add_scaled(recomposed, term_grads, weight)
        assert loss == pytest.approx(expected, rel=1e-12), method
        for name, arr in grads.arrays().items():
            assert np.allclose(arr, recomposed.arrays()[name], atol=1e-12), (method, name)


def test_total_loss_is_linear_in_lambda1():
    params = make_params(seed=34)
    g = make_graph(params, 3, [0, 1, 2], [1, 1, 2], seed=34)
    g.centroids += 0.3
    rng = np.random.default_rng(35)
    bx, by = random_batch(rng)
    base, one, half = (total_loss(plan_session((bx, by), g, None, HyperParams(lambda1=w),
                                               "topic_al"), params)[0]
                       for w in (0.0, 1.0, 0.5))
    assert one - base == pytest.approx(2.0 * (half - base), rel=1e-9)


def test_reads_graph_is_true_for_exactly_the_topic_methods():
    reading = {method for method, spec in METHODS.items() if spec.reads_graph}
    assert reading == {"topic_al", "topic_al_mml", "topic_al_mml_dl"}


def test_total_loss_graph_method_requires_graph():
    params = make_params()
    with pytest.raises(StateError):
        plan_session((np.zeros((1, 3)), np.array([0])), None, None, HyperParams(), "topic_al")


@pytest.mark.parametrize("method", [m for m, spec in METHODS.items() if spec.min_max])
def test_plan_session_takes_the_min_max_margin_from_xi_alone(method):
    # The session's caller resolves hp.xi or the heuristic; the plan does not read hp.xi.
    params = make_params(seed=44)
    g = make_graph(params, 2, [0, 1], [1, 2], seed=44)
    with pytest.raises(InputError, match="^min-max methods need the margin xi$"):
        plan_session((np.zeros((1, 3)), np.array([1])), g, None, HyperParams(xi=1.0), method,
                     old_params=params)


def test_total_loss_rejects_unknown_method():
    params = make_params()
    with pytest.raises(InputError):
        plan_session((np.zeros((1, 3)), np.array([0])), None, None, HyperParams(), "magic")


def test_total_loss_exemplar_anchor_identity_weighting():
    # The targets are the snapshot's features of the stored rows.
    params, old = make_params(seed=36), make_params(seed=43)
    rng = np.random.default_rng(37)
    store = rng.normal(size=(3, 3))
    bx, by = random_batch(rng, n=2)
    hp = HyperParams()
    loss, _ = total_loss(plan_session((bx, by), None, store, hp, "exemplar_anchor",
                                      old_params=old), params)
    loss_ft, _ = total_loss(plan_session((bx, by), None, None, hp, "ft"), params)
    feats, targets = forward_batch(store, params)[0], forward_batch(store, old)[0]
    expected = sum(float(np.sum((feats[i] - targets[i]) ** 2)) for i in range(3))
    assert expected > 0.0
    assert loss - loss_ft == pytest.approx(hp.lambda1 * expected, rel=1e-9)


def test_total_loss_exemplar_anchor_requires_store():
    params = make_params()
    with pytest.raises(StateError):
        plan_session((np.zeros((1, 3)), np.array([0])), None, None, HyperParams(),
                     "exemplar_anchor")


@pytest.mark.parametrize("store, snapshot", [(np.zeros((0, 3)), True), (np.ones((2, 3)), False)],
                         ids=["empty_store", "no_snapshot"])
def test_total_loss_exemplar_anchor_requires_stored_rows_and_the_snapshot(store, snapshot):
    old = make_params(seed=41) if snapshot else None
    with pytest.raises(StateError):
        plan_session((np.zeros((1, 3)), np.array([0])), None, store, HyperParams(),
                     "exemplar_anchor", old_params=old)


@pytest.mark.parametrize("store", [np.zeros(3), np.zeros((1, 4)), np.zeros((1, 1, 3))])
def test_plan_session_rejects_a_store_that_is_not_a_block_of_the_batch_width(store):
    with pytest.raises(InputError, match="exemplar store"):
        plan_session((np.zeros((1, 3)), np.array([0])), None, store, HyperParams(),
                     "exemplar_anchor", old_params=make_params(seed=42))


def test_total_loss_distill_requires_snapshot():
    params = make_params()
    with pytest.raises(StateError, match="need the frozen snapshot"):
        plan_session((np.zeros((1, 3)), np.array([0])), None, np.zeros((0, 3)), HyperParams(),
                     "distill")


def test_total_loss_distill_includes_exemplars_in_dl_term():
    params = make_params(seed=38)
    old = make_params(seed=39)
    rng = np.random.default_rng(40)
    bx, by = random_batch(rng, n=2)
    store = rng.normal(size=(1, 3))
    hp = HyperParams()
    with_p, without_p = (total_loss(plan_session((bx, by), None, rows, hp, "distill",
                                                 old_params=old), params)[0]
                         for rows in (store, None))
    dl_extra, _ = distillation_loss(store, old, params,
                                    hp.t_distill, 4)
    assert with_p - without_p == pytest.approx(dl_extra, rel=1e-9)


# -- hyperparameter validation ---------------------------------------------------

def test_hyperparams_validate_accepts_defaults():
    HyperParams().validate()


@pytest.mark.parametrize("field,value", [
    ("eta", 0.0), ("eta", 1.5), ("alpha", -1.0), ("t_life", 0),
    ("lambda1", -0.1), ("lambda2", -0.1), ("gamma", -1.0),
    ("t_distill", 0.0), ("base_lr", 0.0), ("inc_lr", -0.5),
    ("base_epochs", 0), ("inc_epochs", 0), ("node_budget", 0),
    ("growth_k", 0), ("eps_var", 0.0), ("xi", -2.0),
    ("eta", math.nan), ("xi", math.nan), ("lambda1", math.inf),
    ("lambda2", math.nan), ("alpha", math.inf), ("eps_var", -math.inf),
    ("t_life", math.inf), ("eps_var", 1e-320),
    ("t_life", 2 ** 63 - 1), ("t_life", 10 ** 20),
])
def test_hyperparams_validate_rejects_bad_values(field, value):
    hp = HyperParams(**{field: value})
    with pytest.raises(InputError):
        hp.validate()


def test_hyperparams_validate_checks_numeric_fields_only():
    @dataclasses.dataclass
    class WithMode(HyperParams):
        ng_mode: str = "online"

    WithMode().validate()
    with pytest.raises(InputError, match="eta"):
        WithMode(eta=math.nan).validate()

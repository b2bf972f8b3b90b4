import math

import numpy as np
import pytest

from topogas import InputError, NGGraph, StateError, init_graph, train_on_features

EPS = 1e-6


def graph_from_centroids(centroids, labels=None, lifetime=200, session=1,
                         origins=None, eps_var=EPS):
    centroids = np.asarray(centroids, dtype=float)
    n = centroids.shape[0]
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    origins = np.ones(n, dtype=int) if origins is None else np.asarray(origins)
    return NGGraph(centroids.copy(), np.full(centroids.shape, eps_var),
                   [None] * n, labels, origins, lifetime, eps_var, session)


# -- ranking ------------------------------------------------------------------

def test_rank_nodes_brute_force_example():
    g = graph_from_centroids([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    r = g.rank_nodes(np.array([0.9, 0.0]))
    assert list(r.order) == [1, 0, 2]
    assert np.allclose(r.distances, [0.1, 0.9, 2.1])


def test_rank_nodes_exact_match_wins_with_zero_distance():
    g = graph_from_centroids([[2.0, 2.0], [0.0, 1.0]])
    r = g.rank_nodes(np.array([0.0, 1.0]))
    assert r.winner == 1
    assert r.distances[0] == 0.0


def test_rank_nodes_tie_prefers_lower_index():
    g = graph_from_centroids([[1.0, 0.0], [-1.0, 0.0]])
    r = g.rank_nodes(np.array([0.0, 0.0]))
    assert list(r.order) == [0, 1]


def test_rank_nodes_random_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        g = graph_from_centroids(rng.normal(size=(n, 3)))
        f = rng.normal(size=3)
        r = g.rank_nodes(f)
        dists = [math.dist(f, g.centroids[j]) for j in range(n)]
        expected = sorted(range(n), key=lambda j: (dists[j], j))
        assert list(r.order) == expected
        assert np.allclose(r.distances, [dists[j] for j in expected])


def test_rank_nodes_empty_graph_rejected():
    g = graph_from_centroids(np.zeros((0, 2)))
    with pytest.raises(StateError):
        g.rank_nodes(np.zeros(2))


def test_rank_nodes_bad_feature_dimension_rejected():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.rank_nodes(np.zeros(3))


# -- Hebbian update -------------------------------------------------------------

def test_hebbian_winner_step_scalar_oracle():
    # eta * exp(-1/alpha) with the winner at rank position 1.
    g = graph_from_centroids([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
    g.hebbian_update(np.array([1.0, 0.0]), eta=0.5, alpha=1.0)
    assert np.allclose(g.centroids[0], [0.5 * math.exp(-1.0), 0.0], atol=1e-12)


def test_hebbian_winner_at_feature_stays_while_others_decay():
    g = graph_from_centroids([[1.0, 1.0], [4.0, 0.0], [9.0, 0.0]])
    f = np.array([1.0, 1.0])
    before = g.centroids.copy()
    g.hebbian_update(f, eta=0.5, alpha=2.0)
    assert np.array_equal(g.centroids[0], before[0])
    assert np.linalg.norm(g.centroids[1] - f) < np.linalg.norm(before[1] - f)


def test_hebbian_skips_farthest_rank_position():
    g = graph_from_centroids([[0.0, 0.0], [10.0, 0.0]])
    before = g.centroids.copy()
    g.hebbian_update(np.array([1.0, 0.0]), eta=0.5, alpha=1.0)
    assert not np.array_equal(g.centroids[0], before[0])
    assert np.array_equal(g.centroids[1], before[1])


def test_hebbian_single_node_updates_its_winner():
    g = graph_from_centroids([[0.0, 0.0]])
    g.hebbian_update(np.array([1.0, 0.0]), eta=0.5, alpha=1.0)
    assert np.allclose(g.centroids[0], [0.5 * math.exp(-1.0), 0.0])


def test_hebbian_respects_updatable_mask():
    g = graph_from_centroids([[0.0, 0.0], [2.0, 0.0], [9.0, 0.0]])
    before = g.centroids.copy()
    g.hebbian_update(np.array([1.0, 0.0]), eta=0.5, alpha=1.0,
                     updatable=np.array([False, True, False]))
    assert np.array_equal(g.centroids[0], before[0])
    assert not np.array_equal(g.centroids[1], before[1])


def test_hebbian_rejects_bad_rates():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros(2), eta=0.0, alpha=1.0)
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros(2), eta=0.5, alpha=0.0)


# -- edge update ---------------------------------------------------------------

def test_edge_update_creates_fresh_edge_with_age_one():
    g = graph_from_centroids(np.zeros((3, 2)))
    g.edge_update(0, 1)
    assert g.edges[0, 1] and g.edges[1, 0]
    assert g.ages[0, 1] == g.ages[1, 0] == 1
    g.check_invariants()


def test_edge_update_expiry_boundary():
    # Step-through of the aging rule: an edge at the lifetime survives one
    # more increment only if refreshed; at lifetime it is still alive.
    g = graph_from_centroids(np.zeros((4, 2)), lifetime=200)
    for (i, j), age in (((0, 1), 200), ((0, 2), 199)):
        g.edges[i, j] = g.edges[j, i] = True
        g.ages[i, j] = g.ages[j, i] = age
    g.edge_update(0, 3)
    assert not g.edges[0, 1]           # 200 -> 201 > lifetime, removed
    assert g.edges[0, 2]               # 199 -> 200, survives at the bound
    assert g.ages[0, 2] == 200
    assert g.edges[0, 3] and g.ages[0, 3] == 1
    g.check_invariants()


def test_edge_update_touches_only_winner_incident_pairs():
    g = graph_from_centroids(np.zeros((4, 2)))
    g.edges[2, 3] = g.edges[3, 2] = True
    g.ages[2, 3] = g.ages[3, 2] = 7
    g.edge_update(0, 1)
    assert g.ages[2, 3] == 7 and g.edges[2, 3]


def test_edge_update_rejects_self_pair():
    g = graph_from_centroids(np.zeros((2, 2)))
    with pytest.raises(InputError):
        g.edge_update(1, 1)


def test_edge_update_refresh_resets_age():
    g = graph_from_centroids(np.zeros((3, 2)))
    g.edge_update(0, 1)
    for _ in range(5):
        g.edge_update(0, 2)
    assert g.ages[0, 1] == 6
    g.edge_update(0, 1)
    assert g.ages[0, 1] == 1


# -- init and training -----------------------------------------------------------

def test_init_graph_with_full_budget_is_permutation():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(6, 2))
    g = init_graph(feats, np.arange(6), 6, lifetime=200, eps_var=EPS, seed=0)
    seen = {tuple(c) for c in g.centroids}
    assert seen == {tuple(f) for f in feats}
    assert not g.edges.any()
    assert not g.ages.any()


def test_init_graph_deterministic_under_seed():
    feats = np.random.default_rng(2).normal(size=(20, 3))
    a = init_graph(feats, np.zeros(20, dtype=int), 5, 200, EPS, seed=9)
    b = init_graph(feats, np.zeros(20, dtype=int), 5, 200, EPS, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)


def test_init_graph_rejects_oversized_budget():
    feats = np.zeros((3, 2))
    with pytest.raises(InputError):
        init_graph(feats, np.zeros(3, dtype=int), 4, 200, EPS, seed=0)


def test_training_single_node_contracts_geometrically():
    # Closed form: the winner moves by eta*exp(-1/alpha) of the gap per
    # presentation, so the distance shrinks by that fixed factor.
    g = graph_from_centroids([[0.0, 0.0]])
    f = np.array([1.0, 0.0])
    rate = 1.0 - 0.5 * math.exp(-1.0)
    d = np.linalg.norm(g.centroids[0] - f)
    for _ in range(3):
        g.hebbian_update(f, eta=0.5, alpha=1.0)
        d_next = np.linalg.norm(g.centroids[0] - f)
        assert d_next == pytest.approx(rate * d, rel=1e-12)
        d = d_next
    qe = train_on_features(g, f[None, :], eta=0.5, alpha=1.0, passes=40, seed=0)
    assert qe < 1e-3


def test_training_with_tiny_eta_limit():
    # eta must stay in (0, 1]; the no-motion degenerate is approximated by a
    # vanishing learning rate, which leaves centroids essentially unchanged
    # while edges and ages still evolve.
    feats = np.random.default_rng(3).normal(size=(30, 2))
    g = init_graph(feats, np.zeros(30, dtype=int), 5, 200, EPS, seed=1)
    before = g.centroids.copy()
    train_on_features(g, feats, eta=1e-12, alpha=1.0, passes=1, seed=2)
    assert np.allclose(g.centroids, before, atol=1e-9)
    assert g.edges.any()
    assert g.ages.max() > 0


def test_training_two_blobs_two_nodes_land_in_their_blobs():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 5])
        blob_a = rng.normal(size=(50, 2)) * 0.3 + np.array([-4.0, 0.0])
        blob_b = rng.normal(size=(50, 2)) * 0.3 + np.array([4.0, 0.0])
        feats = np.vstack([blob_a, blob_b])
        g = init_graph(feats, np.zeros(100, dtype=int), 2, 200, EPS, seed=seed)
        train_on_features(g, feats, eta=0.2, alpha=1.0, passes=10, seed=seed)
        means = np.array([[-4.0, 0.0], [4.0, 0.0]])
        owner = {int(np.argmin(np.linalg.norm(means - c, axis=1))) for c in g.centroids}
        hits += owner == {0, 1}
    assert hits == 20


def test_training_requires_at_least_one_pass():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        train_on_features(g, np.zeros((1, 2)), 0.5, 1.0, passes=0, seed=0)


# -- pseudo-exemplars and variances ----------------------------------------------

def identity_features(x):
    return np.asarray(x, dtype=float)


def test_assign_pseudo_exemplars_singleton_dataset():
    g = graph_from_centroids([[0.0, 0.0], [5.0, 5.0]])
    g.assign_pseudo_exemplars([np.array([1.0, 1.0])], [7], identity_features)
    for j in range(2):
        assert np.array_equal(g.pseudo_inputs[j], [1.0, 1.0])
        assert g.labels[j] == 7


def test_assign_pseudo_exemplars_exact_hit():
    g = graph_from_centroids([[2.0, 2.0]])
    inputs = [np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]
    g.assign_pseudo_exemplars(inputs, [0, 1, 2], identity_features)
    assert np.array_equal(g.pseudo_inputs[0], [2.0, 2.0])
    assert g.labels[0] == 1


def test_assign_pseudo_exemplars_matches_brute_force():
    rng = np.random.default_rng(6)
    g = graph_from_centroids(rng.normal(size=(5, 3)))
    inputs = [rng.normal(size=3) for _ in range(12)]
    labels = rng.integers(0, 4, size=12)
    g.assign_pseudo_exemplars(inputs, labels, identity_features)
    for j in range(5):
        dists = [math.dist(x, g.centroids[j]) for x in inputs]
        best = dists.index(min(dists))
        assert np.array_equal(g.pseudo_inputs[j], inputs[best])
        assert g.labels[j] == labels[best]


def test_assign_pseudo_exemplars_rejects_empty_dataset():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.assign_pseudo_exemplars([], [], identity_features)


def test_estimate_variances_identical_features_floor_only():
    g = graph_from_centroids([[0.0, 0.0]])
    g.estimate_variances(np.zeros((4, 2)))
    assert np.allclose(g.variances[0], EPS)


def test_estimate_variances_hand_computed_population_variance():
    g = graph_from_centroids([[1.0, 0.0], [50.0, 50.0]])
    g.estimate_variances(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(g.variances[0], [1.0 + EPS, EPS])
    assert np.allclose(g.variances[1], EPS)  # no wins -> floor


def test_estimate_variances_single_win_gets_floor():
    g = graph_from_centroids([[0.0, 0.0], [10.0, 0.0]])
    g.estimate_variances(np.array([[0.5, 0.5], [9.0, 0.0], [11.0, 0.0]]))
    assert np.allclose(g.variances[0], EPS)
    assert np.allclose(g.variances[1], [1.0 + EPS, EPS])


def test_estimate_variances_respects_node_filter():
    g = graph_from_centroids([[0.0, 0.0], [10.0, 0.0]])
    g.variances[0] = [123.0, 123.0]
    g.estimate_variances(np.array([[9.0, 0.0], [11.0, 0.0]]), node_indices=[1])
    assert np.allclose(g.variances[0], [123.0, 123.0])
    assert np.allclose(g.variances[1], [1.0 + EPS, EPS])


# -- growth ---------------------------------------------------------------------

def shots(features):
    features = np.asarray(features, dtype=float)
    return features, features  # identity input space


def test_grow_identical_shots_centroid_equals_shot():
    g = graph_from_centroids([[0.0, 0.0]], labels=[0])
    g.grow({1: shots([[3.0, 3.0]] * 5)}, k=1, session=2)
    assert np.allclose(g.centroids[1], [3.0, 3.0])
    assert g.labels[1] == 1
    assert g.origins[1] == 2
    assert g.session == 2


def test_grow_line_of_shots_centroid_at_mean():
    g = graph_from_centroids([[9.0, 9.0]], labels=[0])
    line = [[float(v), 0.0] for v in range(5)]
    g.grow({3: shots(line)}, k=1, session=2)
    assert np.allclose(g.centroids[1], [2.0, 0.0])
    assert np.array_equal(g.pseudo_inputs[1], [2.0, 0.0])


def test_grow_appends_k_nodes_per_class_without_touching_old():
    g = graph_from_centroids([[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
    before = g.centroids.copy()
    rng = np.random.default_rng(8)
    g.grow({2: shots(rng.normal(size=(5, 2))),
            3: shots(rng.normal(size=(5, 2)))}, k=2, session=2, seed=4)
    assert len(g) == 6
    assert np.array_equal(g.centroids[:2], before)
    assert list(g.labels) == [0, 1, 2, 2, 3, 3]
    assert not g.edges[2:].any() and not g.edges[:, 2:].any()
    assert np.allclose(g.variances[2:], EPS)
    g.check_invariants()


def test_grow_rejects_duplicate_class():
    g = graph_from_centroids([[0.0, 0.0]], labels=[4])
    with pytest.raises(InputError):
        g.grow({4: shots([[1.0, 1.0]] * 3)}, k=1, session=2)


def test_grow_rejects_bad_k():
    g = graph_from_centroids([[0.0, 0.0]], labels=[0])
    with pytest.raises(InputError):
        g.grow({1: shots([[1.0, 1.0]] * 3)}, k=3, session=2)


# -- anchors, quantization --------------------------------------------------------

def test_refresh_anchors_constant_extractor():
    g = graph_from_centroids([[1.0, 1.0], [2.0, 2.0]])
    g.pseudo_inputs = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
    g.refresh_anchors(lambda x: np.array([7.0, 7.0]))
    assert np.allclose(g.centroids, 7.0)


def test_refresh_anchors_identity_fixed_point():
    g = graph_from_centroids([[1.0, 2.0]])
    g.pseudo_inputs = [np.array([1.0, 2.0])]
    g.refresh_anchors(identity_features)
    assert np.allclose(g.centroids[0], [1.0, 2.0])


def test_refresh_anchors_requires_pseudo_inputs():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(StateError):
        g.refresh_anchors(identity_features)


def test_quantization_error_zero_when_features_on_centroids():
    g = graph_from_centroids([[0.0, 0.0], [4.0, 0.0]])
    assert g.quantization_error(np.array([[0.0, 0.0], [4.0, 0.0]])) == 0.0


def test_quantization_error_symmetric_case():
    g = graph_from_centroids([[0.0, 0.0]])
    assert g.quantization_error(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(1.0)


def test_quantization_error_matches_brute_force():
    rng = np.random.default_rng(10)
    g = graph_from_centroids(rng.normal(size=(6, 3)))
    feats = rng.normal(size=(20, 3))
    expected = np.mean([min(math.dist(f, c) for c in g.centroids) for f in feats])
    assert g.quantization_error(feats) == pytest.approx(expected, rel=1e-12)


def test_quantization_error_rejects_empty_features():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.quantization_error(np.zeros((0, 2)))


# -- serialization ----------------------------------------------------------------

def random_trained_graph(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(40, 3))
    g = init_graph(feats, rng.integers(0, 5, size=40), 8, 50, EPS, seed)
    train_on_features(g, feats, 0.2, 1.0, passes=2, seed=seed)
    g.assign_pseudo_exemplars(list(feats), rng.integers(0, 5, size=40),
                              identity_features)
    g.estimate_variances(feats)
    return g


def test_serialization_round_trip_is_exact():
    g = random_trained_graph(11)
    h = NGGraph.from_text(g.to_text())
    assert np.array_equal(g.centroids, h.centroids)
    assert np.array_equal(g.variances, h.variances)
    assert np.array_equal(g.labels, h.labels)
    assert np.array_equal(g.origins, h.origins)
    assert np.array_equal(g.edges, h.edges)
    assert np.array_equal(g.ages[g.edges], h.ages[h.edges])
    assert g.lifetime == h.lifetime and g.session == h.session
    assert g.eps_var == h.eps_var
    for a, b in zip(g.pseudo_inputs, h.pseudo_inputs):
        assert np.array_equal(a, b)


def test_serialization_none_pseudo_inputs_round_trip():
    g = graph_from_centroids([[0.5, -0.5]])
    h = NGGraph.from_text(g.to_text())
    assert h.pseudo_inputs[0] is None


def test_serialization_has_version_header():
    g = graph_from_centroids([[0.0, 0.0]])
    assert g.to_text().splitlines()[0] == "nggraph v1"


def test_serialization_rejects_unknown_version():
    with pytest.raises(InputError):
        NGGraph.from_text("nggraph v9\nlifetime 1\n")


def set_line(prefix, new, nth=0, offset=0):
    """Mutation: replace the line `offset` after the nth line starting with prefix."""
    def apply(lines):
        i = [k for k, line in enumerate(lines) if line.startswith(prefix)][nth] + offset
        lines[i] = new(lines[i]) if callable(new) else new
        return lines
    return apply


def repeat_first_edge(lines):
    i = next(k for k, line in enumerate(lines) if line.startswith("edges "))
    lines.insert(i + 2, lines[i + 1])
    lines[i] = f"edges {int(lines[i].split()[1]) + 1}"
    return lines


# Mutations of a valid checkpoint (8 nodes of width 3, lifetime 50), each with
# a fragment of the InputError it must raise.
CHECKPOINT_MUTATIONS = {
    "edge_out_of_range": (set_line("edges ", "0 8 1", offset=1), "edge must join"),
    "negative_edge_index": (set_line("edges ", "-1 2 1", offset=1), "edge must join"),
    "self_edge": (set_line("edges ", "3 3 1", offset=1), "edge must join"),
    "repeated_edge": (repeat_first_edge, "edge must join"),
    "edge_age_above_lifetime": (
        set_line("edges ", lambda old: old.rsplit(" ", 1)[0] + " 51", offset=1), "lifetime"),
    "edge_count_too_high": (set_line("edges ", "edges 99"), "expected 3 values"),
    "negative_edge_count": (set_line("edges ", "edges -1"), "negative edge count"),
    "ragged_centroid": (set_line("m ", "m 0.5 0.5", nth=1), "expected 3 values"),
    "ragged_pseudo_input": (set_line("z ", "z 0.5 0.5", nth=2), "differ in width"),
    "non_integer_node_count": (set_line("nodes ", "nodes 8.5"), "int values"),
    "non_integer_label": (set_line("node 1 ", "node 1 label x origin 1"), "int values"),
    "wrong_node_index": (set_line("node 1 ", "node 7 label 0 origin 1"), "node 1 label"),
    "non_finite_centroid": (set_line("m ", "m nan 0.5 0.5"), "non-finite"),
    "negative_variance": (set_line("var ", "var -1.0 0.5 0.5"), "below the floor"),
    "zero_nodes": (lambda lines: lines[:4] + ["nodes 0", "edges 0"], "at least one node"),
    "truncated": (lambda lines: lines[:7], "expected 'var"),
    "trailing_junk": (lambda lines: lines + ["junk"], "trailing content"),
}


def test_serialization_reemits_identical_bytes():
    text = random_trained_graph(13).to_text()
    assert NGGraph.from_text(text).to_text() == text


@pytest.mark.parametrize("mutation", sorted(CHECKPOINT_MUTATIONS))
def test_from_text_rejects_malformed_checkpoint(mutation):
    mutate, message = CHECKPOINT_MUTATIONS[mutation]
    text = random_trained_graph(13).to_text()
    bad = "\n".join(mutate(text.splitlines())) + "\n"
    assert bad != text
    with pytest.raises(InputError, match=message):
        NGGraph.from_text(bad)


def test_save_and_load_files(tmp_path):
    g = random_trained_graph(12)
    path = tmp_path / "checkpoint.ngtxt"
    g.save(path)
    h = NGGraph.load(path)
    assert np.array_equal(g.centroids, h.centroids)

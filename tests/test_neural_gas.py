import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topogas import InputError, NGGraph, StateError, init_graph, neural_gas, train_on_features
from topogas.neural_gas import max_distance, nearest

import oracles

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
    g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0)
    assert np.allclose(g.centroids[0], [0.5 * math.exp(-1.0), 0.0], atol=1e-12)


def test_hebbian_winner_at_feature_stays_while_others_decay():
    g = graph_from_centroids([[1.0, 1.0], [4.0, 0.0], [9.0, 0.0]])
    f = np.array([1.0, 1.0])
    before = g.centroids.copy()
    g.hebbian_update(f[None], eta=0.5, alpha=2.0)
    assert np.array_equal(g.centroids[0], before[0])
    assert np.linalg.norm(g.centroids[1] - f) < np.linalg.norm(before[1] - f)


def test_hebbian_skips_farthest_rank_position():
    g = graph_from_centroids([[0.0, 0.0], [10.0, 0.0]])
    before = g.centroids.copy()
    g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0)
    assert not np.array_equal(g.centroids[0], before[0])
    assert np.array_equal(g.centroids[1], before[1])


def test_hebbian_single_node_updates_its_winner():
    g = graph_from_centroids([[0.0, 0.0]])
    g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0)
    assert np.allclose(g.centroids[0], [0.5 * math.exp(-1.0), 0.0])


def test_hebbian_respects_updatable_mask():
    g = graph_from_centroids([[0.0, 0.0], [2.0, 0.0], [9.0, 0.0]])
    before = g.centroids.copy()
    g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0,
                     updatable=np.array([False, True, False]))
    assert np.array_equal(g.centroids[0], before[0])
    assert not np.array_equal(g.centroids[1], before[1])


@pytest.mark.parametrize("length", [2, 4])
def test_hebbian_rejects_mask_of_wrong_length(length):
    g = graph_from_centroids([[0.0, 0.0], [2.0, 0.0], [9.0, 0.0]])
    before = g.centroids.copy()
    with pytest.raises(InputError):
        g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0,
                         updatable=np.ones(length, dtype=bool))
    assert np.array_equal(g.centroids, before)


def test_hebbian_rejects_bad_rates():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros((1, 2)), eta=0.0, alpha=1.0)
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros((1, 2)), eta=0.5, alpha=0.0)


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


def test_edge_update_at_the_largest_lifetime_keeps_ages_non_negative():
    lifetime = neural_gas.MAX_LIFETIME
    g = graph_from_centroids(np.zeros((4, 2)), lifetime=lifetime)
    for (i, j), age in (((0, 1), lifetime), ((0, 2), lifetime - 1)):
        g.edges[i, j] = g.edges[j, i] = True
        g.ages[i, j] = g.ages[j, i] = age
    g.edge_update(0, 3)
    assert np.all(g.ages >= 0)
    assert not g.edges[0, 1] and g.ages[0, 1] == lifetime + 1
    assert g.edges[0, 2] and g.ages[0, 2] == lifetime
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


# -- presentations against the per-rank oracle -----------------------------------

def same_bits(a, b):
    """Equal dtype, shape and bytes: tells -0.0 from 0.0, unlike np.array_equal."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def presentation_case(n, seed, lifetime=3):
    """A graph with duplicated, grid-valued and signed-zero centroids, a far
    outlier and random live edges, plus grid and Gaussian features to present."""
    rng = np.random.default_rng([seed, n, 0x0A1])
    centroids = rng.integers(-2, 3, size=(n, 3)) / 2.0
    centroids[rng.integers(0, n, size=n // 3)] = centroids[0]
    centroids[(centroids == 0.0) & (rng.random(centroids.shape) < 0.5)] = -0.0
    if n > 3:
        centroids[-1] = [-0.0, 50.0, -0.0]  # always farthest: its signed zeros must stay
    g = graph_from_centroids(centroids, lifetime=lifetime)
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    g.edges = upper | upper.T
    ages = np.triu(rng.integers(1, lifetime + 1, size=(n, n)), k=1)
    g.ages = np.where(g.edges, ages + ages.T, 0)
    g.check_invariants()
    feats = np.vstack([rng.integers(-2, 3, size=(30, 3)) / 2.0, rng.normal(size=(30, 3))])
    return g, feats[rng.permutation(len(feats))], rng


# Settings of hebbian_update's dispatch: exact distances to every node row by
# row or node-major, or a frozen side screened by one product per block (here
# blocks of a few rows).
NEVER = 1 << 62
SIDES = {"exact": {"SCREEN_MIN": NEVER, "NODE_MAJOR_MIN": NEVER},
         "node_major": {"SCREEN_MIN": NEVER, "NODE_MAJOR_MIN": 0},
         "screened": {"SCREEN_MIN": 0, "SCREEN_BLOCK": 64, "NODE_MAJOR_MIN": NEVER}}
KERNELS = {"_hebbian_exact": "exact", "_hebbian_node_major": "node_major",
           "_hebbian_screened": "screened"}


def assert_same_graph(g, ref):
    for name in ("centroids", "edges", "ages"):
        assert same_bits(getattr(g, name), getattr(ref, name)), name
    assert g.to_text() == ref.to_text()


def present_in_batches(g, feats, eta, alpha, updatable, size):
    """Present feats in calls of `size` rows; the (winner, runner-up) of every row."""
    pairs = []
    for start in range(0, len(feats), size):
        r1, r2 = g.hebbian_update(feats[start:start + size], eta, alpha, updatable)
        if len(g) >= 2:
            g.edge_update(r1, r2)
        pairs.extend(zip(r1.tolist(), r2.tolist()))
    return pairs


def kernel_calls(monkeypatch, side):
    """Force one side of the dispatch; the list of Hebbian kernels that then run, by side."""
    for name, value in SIDES[side].items():
        monkeypatch.setattr(neural_gas, name, value)
    calls = []

    def spy(method, kernel):
        def run(self, *args):
            calls.append(kernel)
            return method(self, *args)
        return run

    for name, kernel in KERNELS.items():
        monkeypatch.setattr(NGGraph, name, spy(getattr(NGGraph, name), kernel))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 40])
@pytest.mark.parametrize("mask", ["none", "all_false", "all_true", "sparse"])
def test_presentation_matches_per_rank_oracle(n, mask, monkeypatch):
    for side in SIDES:
        calls = kernel_calls(monkeypatch, side)
        g, feats, rng = presentation_case(n, seed=len(mask))
        ref = NGGraph.from_text(g.to_text())
        updatable = {"none": None, "all_false": np.zeros(n, dtype=bool),
                     "all_true": np.ones(n, dtype=bool), "sparse": rng.random(n) < 0.3}[mask]
        expected = oracles.present(ref, feats, 0.3, 1.5, updatable)
        assert present_in_batches(g, feats, 0.3, 1.5, updatable, size=7) == expected
        assert_same_graph(g, ref)
        g.check_invariants()
        for f in feats[:10]:
            ranking, (order, distances) = g.rank_nodes(f), oracles.rank_nodes(ref, f)
            assert same_bits(ranking.order, order) and same_bits(ranking.distances, distances)
        frozen = n if updatable is None else n - int(updatable.sum())
        screens = updatable is not None and frozen >= 2
        assert set(calls) == {"exact" if side == "screened" and not screens else side}


def screen_case(case, seed):
    """(graph, features, updatable) for a named hard case of the masked presentation."""
    n = 2 if case.startswith("two_nodes") else 30
    g, feats, rng = presentation_case(n, seed, lifetime=4)
    moving = rng.random(n) < 0.2
    if case == "moving_farthest":
        moving[-1] = True  # the outlier at (-0, 50, -0) is every row's farthest node
    elif case == "one_moving":
        moving = np.arange(n) == int(rng.integers(n))
    elif case == "two_nodes_one_moving":
        moving = np.array([False, True])
    elif case in ("no_moving", "two_nodes_none_moving"):
        moving[:] = False
    elif case == "all_moving":
        moving[:] = True
    elif case == "offset_1e8":  # |x|^2 dwarfs the distances, so the screen decides nothing
        g.centroids += 1e8
        feats = feats + 1e8
    elif case == "scale_1e-200":  # squares underflow to zero: every distance ties
        g.centroids *= 1e-200
        feats = feats * 1e-200
    elif case == "signed_zeros":
        g.centroids[np.abs(g.centroids) < 1.0] = -0.0
        feats = np.where(np.abs(feats) < 1.0, -0.0, feats)
    elif case == "norms_2^1000":  # too large to screen; squared distances stay finite
        g.centroids = (g.centroids + 3.0) * 2.0 ** 501
        feats = (feats + 3.0) * 2.0 ** 501
    return g, feats, moving


SCREEN_CASES = ["grid_ties", "signed_zeros", "moving_farthest", "one_moving",
                "two_nodes_one_moving", "two_nodes_none_moving", "no_moving", "all_moving",
                "offset_1e8", "scale_1e-200", "norms_2^1000"]


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("case", SCREEN_CASES)
def test_batched_presentation_matches_row_by_row_oracle(case, side, monkeypatch):
    calls = kernel_calls(monkeypatch, side)
    for seed in range(3):
        g, feats, moving = screen_case(case, seed)
        ref = NGGraph.from_text(g.to_text())
        ref.ages = g.ages.copy()
        expected = oracles.present(ref, feats, 0.3, 1.5, moving)
        assert present_in_batches(g, feats, 0.3, 1.5, moving, size=25) == expected
        assert_same_graph(g, ref)
    screens = (~moving).sum() >= 2
    exact = case == "norms_2^1000" or (side == "screened" and not screens)
    assert calls == ["exact" if exact else side] * 9  # 60 rows in three calls, three seeds


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_presentation_fuzz_matches_row_by_row_oracle(data):
    n, dim = data.draw(st.integers(1, 9), label="nodes"), data.draw(st.integers(1, 4), label="dim")
    grid = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    values = st.one_of(grid, st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))
    scale = data.draw(st.sampled_from([1.0, 1e-200, 1e150, 1e8]), label="scale")
    centroids = np.array(data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                            min_size=n, max_size=n))) * scale
    feats = np.array(data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                        max_size=12))).reshape(-1, dim) * scale
    masks = st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    moving = data.draw(masks, label="updatable")
    lifetime = data.draw(st.integers(1, 4), label="lifetime")
    size = data.draw(st.integers(1, 12), label="rows per call")
    settings_ = {"SCREEN_MIN": data.draw(st.sampled_from([0, NEVER]), label="screen_min"),
                 "NODE_MAJOR_MIN": data.draw(st.sampled_from([0, NEVER]), label="node_major_min"),
                 "SCREEN_BLOCK": data.draw(st.integers(1, 40), label="screen_block")}
    g = graph_from_centroids(centroids, lifetime=lifetime)
    ref = graph_from_centroids(centroids, lifetime=lifetime)
    expected = oracles.present(ref, feats, 0.3, 1.5, moving)
    with mock.patch.multiple(neural_gas, **settings_):
        assert present_in_batches(g, feats, 0.3, 1.5, moving, size) == expected
    assert_same_graph(g, ref)


def certificate_case(case, seed):
    """(graph, features, updatable) on which every row, or no row, must rank exactly."""
    rng = np.random.default_rng([seed, 0xCE7])
    moving = None
    if case == "frozen_permutations":
        # A frozen pair that permutes one vector is equally far from a constant
        # row, so its sums differ only by the summation order, by up to a few
        # doubles, and einsum's order often ranks it unlike the exact
        # distances: every row ties.
        base = rng.normal(size=32)
        centroids = np.vstack([base, base[rng.permutation(32)], rng.normal(size=(38, 32))])
        feats = rng.normal(size=(200, 1)) * rng.uniform(0.5, 4.0, size=(200, 1)) * np.ones(32)
        moving = np.arange(40) >= 2
    elif case == "frozen_duplicates":
        centroids, feats = rng.normal(size=(40, 32)), rng.normal(size=(40, 32))
        centroids[1:6] = centroids[0]
        moving = np.arange(40) >= 6
    elif case == "scale_1e-200":  # every squared distance underflows to zero
        centroids, feats = rng.normal(size=(40, 32)) * 1e-200, rng.normal(size=(40, 32)) * 1e-200
    else:  # no two nodes near a tie
        centroids, feats = rng.normal(size=(40, 32)), rng.normal(size=(40, 32))
    return graph_from_centroids(centroids, lifetime=4), feats, moving


@pytest.mark.parametrize("case", ["frozen_permutations", "frozen_duplicates", "scale_1e-200",
                                  "gaussian"])
def test_node_major_certificate_falls_back_exactly_on_ties_and_underflow(case, monkeypatch):
    kernel_calls(monkeypatch, "node_major")
    exact_order, fallbacks = neural_gas._exact_order, []

    def spy(f, refs):
        fallbacks.append(len(refs))
        return exact_order(f, refs)

    monkeypatch.setattr(neural_gas, "_exact_order", spy)
    for seed in range(3):
        g, feats, moving = certificate_case(case, seed)
        ref = graph_from_centroids(g.centroids, lifetime=4)
        expected = oracles.present(ref, feats, 0.3, 1.5, moving)
        assert present_in_batches(g, feats, 0.3, 1.5, moving, size=25) == expected
        assert_same_graph(g, ref)
    assert len(fallbacks) == (0 if case == "gaussian" else 3 * len(feats))


def test_hebbian_returns_runner_up_minus_one_on_a_single_node():
    g = graph_from_centroids([[0.0, 0.0]])
    winners, runners = g.hebbian_update(np.array([[1.0, 0.0], [2.0, 0.0]]), 0.5, 1.0)
    assert winners.tolist() == [0, 0] and runners.tolist() == [-1, -1]


@pytest.mark.parametrize("rows", [np.zeros((3, 2)), np.zeros((1, 4)), np.zeros(3),
                                  np.zeros((1, 3, 1)),
                                  np.array([[0.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                                  np.array([[0.0, 1.0, 0.0], [1.0, np.inf, 0.0]]),
                                  np.array([[-np.inf, 1.0, 0.0]])])
@pytest.mark.parametrize("call", ["hebbian_update", "present"])
def test_bad_batch_is_rejected_before_anything_moves(rows, call, monkeypatch):
    for side in SIDES:
        kernel_calls(monkeypatch, side)
        g, _, _ = presentation_case(40, seed=2)
        text, ages = g.to_text(), g.ages.tobytes()
        with pytest.raises(InputError):
            getattr(g, call)(rows, 0.3, 1.5, np.arange(40) < 3)
        assert g.to_text() == text and g.ages.tobytes() == ages


# -- closed-form edge updates ----------------------------------------------------

def aged_graph(n, lifetime, rng):
    """Random live edges with ages up to the lifetime, and any age on the other pairs."""
    g = graph_from_centroids(np.zeros((n, 2)), lifetime=lifetime)
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    low = max(0, lifetime - 3) if lifetime > 100 else 0
    live = np.triu(rng.integers(max(1, low), lifetime + 1, size=(n, n)), k=1)
    dead = np.triu(rng.integers(0, 2 * lifetime + 2 if lifetime < 100 else 1 << 20,
                                size=(n, n)), k=1)
    g.edges = upper | upper.T
    ages = np.where(upper, live, dead)
    g.ages = ages + ages.T
    return g


@pytest.mark.parametrize("lifetime", [1, 2, 5, neural_gas.MAX_LIFETIME])
def test_edge_update_sequence_matches_sequential_updates(lifetime):
    rng = np.random.default_rng([lifetime % 1000, 0xED6E])
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = aged_graph(n, lifetime, rng)
        ref = graph_from_centroids(np.zeros((n, 2)), lifetime=lifetime)
        ref.edges, ref.ages = g.edges.copy(), g.ages.copy()
        r1 = rng.integers(0, n, size=int(rng.integers(0, 40)))
        r2 = (r1 + rng.integers(1, n, size=len(r1))) % n
        for a, b in zip(r1, r2):
            oracles.edge_update(ref, int(a), int(b))
        g.edge_update(r1, r2)
        assert same_bits(g.ages, ref.ages) and same_bits(g.edges, ref.edges)
        g.check_invariants()


def test_edge_update_saturates_unlinked_ages_at_the_largest_lifetime():
    lifetime = neural_gas.MAX_LIFETIME
    g = graph_from_centroids(np.zeros((3, 2)), lifetime=lifetime)
    g.edges[0, 1] = g.edges[1, 0] = True
    g.ages[0, 1] = g.ages[1, 0] = lifetime
    g.check_invariants()
    ref, one_by_one = NGGraph.from_text(g.to_text()), NGGraph.from_text(g.to_text())
    pairs = [(0, 2), (1, 2), (0, 2)]
    for a, b in pairs:
        oracles.edge_update(ref, a, b)
        one_by_one.edge_update(a, b)
    g.edge_update(*np.array(pairs).T)
    for h in (g, one_by_one):
        assert same_bits(h.ages, ref.ages) and same_bits(h.edges, ref.edges)
        # Three ageings from the lifetime: the edge expires at lifetime + 1,
        # int64 max, and its age stays there.
        assert not h.edges[0, 1] and h.ages[0, 1] == neural_gas.INT64.max
        h.check_invariants()


def test_edge_update_scalar_pair_matches_array_of_one():
    g = aged_graph(6, 3, np.random.default_rng(4))
    h = NGGraph.from_text(g.to_text())
    h.ages = g.ages.copy()
    g.edge_update(2, 5)
    h.edge_update(np.array([2]), np.array([5]))
    assert same_bits(g.ages, h.ages) and same_bits(g.edges, h.edges)


@pytest.mark.parametrize("r1,r2", [(-1, 0), (0, -1), (4, 0), (0, 4), (-4, 0), (2, 2),
                                   ([0, 1, 2], [1, 2, 4]), ([0, -1], [1, 2]),
                                   ([0, 1, 3], [1, 1, 3]), ([0, 1], [1]), ([[0]], [[1]]),
                                   ([0.0], [1.0]), (True, False)])
def test_edge_update_rejects_bad_indices_before_anything_changes(r1, r2):
    g = aged_graph(4, 3, np.random.default_rng(6))
    text, ages, edges = g.to_text(), g.ages.tobytes(), g.edges.tobytes()
    with pytest.raises(InputError):
        g.edge_update(r1, r2)
    assert g.to_text() == text and g.ages.tobytes() == ages and g.edges.tobytes() == edges


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
        g.hebbian_update(f[None], eta=0.5, alpha=1.0)
        d_next = np.linalg.norm(g.centroids[0] - f)
        assert d_next == pytest.approx(rate * d, rel=1e-12)
        d = d_next
    train_on_features(g, f[None, :], eta=0.5, alpha=1.0, passes=40, seed=0)
    assert g.quantization_error(f[None, :]) < 1e-3


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
    # Random shots at mixed scales: the k = 1 centroid is their mean, bit for bit.
    rng = np.random.default_rng(9)
    for count in (2, 7, 39):
        feats = rng.normal(scale=10.0 ** rng.uniform(-8, 8), size=(count, 6))
        g = graph_from_centroids(np.zeros((1, 6)), labels=[0])
        g.grow({1: shots(feats)}, k=1, session=2, seed=count)
        assert g.centroids[1].tobytes() == feats.mean(axis=0).tobytes()


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
    g.refresh_anchors(lambda x: np.full((len(x), 2), 7.0))
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


# -- winner search in blocks ------------------------------------------------------

def tie_heavy_points(seed):
    """Grid-valued queries and refs: repeated refs tie exactly, repeated queries
    land on both sides of block edges."""
    rng = np.random.default_rng([seed, 0xB10C])
    refs = rng.integers(-1, 2, size=(9, 2)) / 2.0
    refs = np.vstack([refs, refs[::-1]])
    queries = np.repeat(rng.integers(-2, 3, size=(11, 2)) / 2.0, 2, axis=0)
    return queries, refs


@pytest.mark.parametrize("block", [1, 2, 3, 17, 19, 37, 55])
def test_nearest_matches_brute_force_across_blocks(monkeypatch, block):
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", block)
    for seed in range(5):
        queries, refs = tie_heavy_points(seed)
        index, dist = nearest(queries, refs)
        for q, i, d in zip(queries, index, dist):
            dists = [math.dist(q, r) for r in refs]
            expected = min(range(len(refs)), key=lambda j: (dists[j], j))
            assert i == expected
            assert abs(d - dists[expected]) <= 1e-9


# Settings of nearest's dispatch: one block of exact distances, or a screen of
# one product per block of query rows (here blocks of a few rows).
NEAREST_SIDES = {"exact": {"NEAREST_BLOCK": NEVER}, "screened": {"NEAREST_BLOCK": 0}}


def nearest_case(case, seed):
    """(queries, refs) for a named hard case of the winner search."""
    queries, refs = tie_heavy_points(seed)
    rng = np.random.default_rng([seed, 0x5EA])
    if case == "signed_zeros":
        queries = np.where(rng.random(queries.shape) < 0.5, -1.0, 1.0) * queries
        refs = np.where(rng.random(refs.shape) < 0.5, -1.0, 1.0) * refs
    elif case == "duplicate_refs":
        refs = rng.normal(size=(12, 3))[rng.integers(0, 12, size=20)]
        queries = np.vstack([rng.normal(size=(15, 3)), refs[:5]])
    elif case == "offset_1e8":  # |q|^2 dwarfs the distances, so the screen decides nothing
        queries, refs = rng.normal(size=(20, 4)) + 1e8, rng.normal(size=(15, 4)) + 1e8
    elif case == "scale_1e-200":  # squares underflow to zero: every distance ties
        queries, refs = queries * 1e-200, refs * 1e-200
    elif case == "norms_2^1000":  # too large to screen; squared distances stay finite
        queries, refs = (queries + 3.0) * 2.0 ** 501, (refs + 3.0) * 2.0 ** 501
    return queries, refs


NEAREST_CASES = ["tie_heavy", "signed_zeros", "duplicate_refs", "offset_1e8", "scale_1e-200",
                 "norms_2^1000"]


@pytest.mark.parametrize("side", sorted(NEAREST_SIDES))
@pytest.mark.parametrize("case", NEAREST_CASES)
def test_nearest_matches_per_row_oracle_on_both_sides(case, side, monkeypatch):
    for name, value in NEAREST_SIDES[side].items():
        monkeypatch.setattr(neural_gas, name, value)
    screened, calls = neural_gas._nearest_screened, []

    def spy(*args):
        calls.append(len(args[0]))
        return screened(*args)

    monkeypatch.setattr(neural_gas, "_nearest_screened", spy)
    for block in (1, 40, 1 << 14):  # screened blocks of one query row, a few, all
        monkeypatch.setattr(neural_gas, "SCREEN_BLOCK", block)
        for seed in range(3):
            queries, refs = nearest_case(case, seed)
            index, dist = nearest(queries, refs)
            expected = oracles.nearest(queries, refs)
            assert same_bits(index, expected[0]) and same_bits(dist, expected[1])
            if case in ("tie_heavy", "signed_zeros"):  # grid distances: brute force agrees
                for q, i in zip(queries, index):
                    dists = [math.dist(q, r) for r in refs]
                    assert i == min(range(len(refs)), key=lambda j: (dists[j], j))
    assert len(calls) == (9 if side == "screened" and case != "norms_2^1000" else 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nearest_fuzz_matches_per_row_oracle(data):
    dim = data.draw(st.integers(1, 4), label="dim")
    grid = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    values = st.one_of(grid, st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))
    scale = data.draw(st.sampled_from([1.0, 1e-200, 1e150, 1e8, 2.0 ** 501]), label="scale")

    def rows(min_size, max_size):
        drawn = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                   min_size=min_size, max_size=max_size))
        return np.array(drawn).reshape(-1, dim) * scale

    queries, refs = rows(0, 12), rows(1, 9)
    settings_ = {"NEAREST_BLOCK": data.draw(st.sampled_from([0, NEVER]), label="nearest_block"),
                 "SCREEN_BLOCK": data.draw(st.integers(1, 40), label="screen_block")}
    with mock.patch.multiple(neural_gas, **settings_):
        index, dist = nearest(queries, refs)
    expected = oracles.nearest(queries, refs)
    assert same_bits(index, expected[0]) and same_bits(dist, expected[1])


@pytest.mark.parametrize("queries,refs", [
    (np.zeros((3, 2)), np.zeros((0, 2))),   # no refs
    (np.zeros((0, 2)), np.zeros((0, 2))),
    (np.zeros((3, 2)), np.zeros((4, 3))),   # widths differ
    (np.zeros((3, 3)), np.zeros((1, 2))),
    (np.zeros(2), np.zeros((4, 2))),        # not 2-D
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((1, 3, 2)), np.zeros((4, 2))),
    (np.zeros((3, 2)), np.zeros((1, 4, 2)))])
@pytest.mark.parametrize("side", sorted(NEAREST_SIDES))
def test_nearest_rejects_bad_input_before_any_work(queries, refs, side, monkeypatch):
    for name, value in NEAREST_SIDES[side].items():
        monkeypatch.setattr(neural_gas, name, value)
    monkeypatch.setattr(neural_gas, "_sq_norms", None)  # any work would raise TypeError
    monkeypatch.setattr(neural_gas, "_rows_per_block", None)
    with pytest.raises(InputError):
        nearest(queries, refs)


@pytest.mark.parametrize("block", [1, 25, 61, 130])
def test_graph_searches_do_not_depend_on_block_size(monkeypatch, block):
    rng = np.random.default_rng(12)
    centroids = np.vstack([rng.normal(size=(6, 3)), rng.integers(-1, 2, size=(6, 3)) / 2.0])
    feats = np.vstack([rng.normal(size=(30, 3)), rng.integers(-1, 2, size=(30, 3)) / 2.0])
    labels = rng.integers(0, 4, size=60)

    def run():
        g = graph_from_centroids(centroids)
        g.estimate_variances(feats)
        qe = g.quantization_error(feats)
        g.assign_pseudo_exemplars(feats, labels, identity_features)
        return g.variances, qe, np.stack(g.pseudo_inputs), g.labels

    default = run()
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", block)
    for a, b in zip(default, run()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("block", [1, 3, 17, 1 << 16])
def test_max_distance_matches_full_pairwise_array(monkeypatch, block):
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", block)
    for seed in range(3):
        points = np.vstack([tie_heavy_points(seed)[1],
                            np.random.default_rng(seed).normal(size=(12, 2))])
        full = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2).max()
        assert same_bits(max_distance(points), float(full))


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
    "label_outside_int64": (
        set_line("node 1 ", "node 1 label 9223372036854775808 origin 1"), "outside int64"),
    "origin_outside_int64": (
        set_line("node 1 ", lambda old: old.rsplit(" ", 1)[0] + " 9999999999999999999999"),
        "outside int64"),
    "edge_age_outside_int64": (
        set_line("edges ", lambda old: old.rsplit(" ", 1)[0] + " -9223372036854775809",
                 offset=1), "outside int64"),
    "session_outside_int64": (set_line("session ", "session 9223372036854775808"),
                              "outside int64"),
    "lifetime_outside_int64": (set_line("lifetime ", "lifetime 99999999999999999999"),
                               "outside int64"),
    "lifetime_at_int64_max": (set_line("lifetime ", "lifetime 9223372036854775807"),
                              "lifetime must be between"),
    "label_with_underscore": (set_line("node 1 ", "node 1 label 1_0 origin 1"), "int values"),
    "label_non_ascii_digit": (set_line("node 1 ", "node 1 label \u0661 origin 1"),
                              "int values"),
    "centroid_with_underscore": (set_line("m ", "m 1_0.0 0.5 0.5"), "float values"),
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

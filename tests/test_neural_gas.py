import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topogas import (ConfigError, InputError, NGGraph, StateError, init_graph, neural_gas,
                     parse_config, train_on_features)
from topogas.neural_gas import _exact_distances, _exact_order, max_distance, nearest

import oracles

EPS = 1e-6


def graph_from_centroids(centroids, labels=None, lifetime=200, session=1,
                         origins=None, eps_var=EPS):
    centroids = np.asarray(centroids, dtype=float)
    n = centroids.shape[0]
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    origins = np.ones(n, dtype=int) if origins is None else np.asarray(origins)
    # Identity input space: each node's pseudo input is its centroid.
    return NGGraph(centroids.copy(), np.full(centroids.shape, eps_var),
                   centroids.copy(), labels, origins, lifetime, eps_var, session)


# -- ranking ------------------------------------------------------------------

def rank_nodes(g, f):
    """The exact ranking every Hebbian kernel reproduces: node order and sorted distances."""
    order = _exact_order(f, g.centroids)
    return order, _exact_distances(f, g.centroids)[order]


def winner_pair(g, f):
    """The (winner, runner-up) that one Hebbian step on f reports."""
    r1, r2 = g.hebbian_update(np.asarray(f, dtype=float)[None], eta=0.5, alpha=1.0)
    return int(r1[0]), int(r2[0])


def test_rank_nodes_brute_force_example():
    g = graph_from_centroids([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    order, distances = rank_nodes(g, np.array([0.9, 0.0]))
    assert list(order) == [1, 0, 2]
    assert np.allclose(distances, [0.1, 0.9, 2.1])
    assert winner_pair(g, [0.9, 0.0]) == (1, 0)


def test_rank_nodes_exact_match_wins_with_zero_distance():
    g = graph_from_centroids([[2.0, 2.0], [0.0, 1.0]])
    order, distances = rank_nodes(g, np.array([0.0, 1.0]))
    assert order[0] == 1 and distances[0] == 0.0
    assert winner_pair(g, [0.0, 1.0]) == (1, 0)
    assert g.centroids[1].tolist() == [0.0, 1.0]


def test_rank_nodes_tie_prefers_lower_index():
    g = graph_from_centroids([[1.0, 0.0], [-1.0, 0.0]])
    assert list(rank_nodes(g, np.array([0.0, 0.0]))[0]) == [0, 1]
    assert winner_pair(g, [0.0, 0.0]) == (0, 1)


def test_rank_nodes_random_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        g = graph_from_centroids(rng.normal(size=(n, 3)))
        f = rng.normal(size=3)
        order, distances = rank_nodes(g, f)
        dists = [math.dist(f, g.centroids[j]) for j in range(n)]
        expected = sorted(range(n), key=lambda j: (dists[j], j))
        assert list(order) == expected
        assert np.allclose(distances, [dists[j] for j in expected])
        assert winner_pair(g, f) == (expected[0], expected[1] if n > 1 else -1)


def distance_rows(values):
    """12 rows of a distance table: "grid" rows of halves 5 wide, whose sums are exact
    in any order, or "wide" normal rows 33 wide, whose bits depend on it; rows 1 and
    2 repeat rows 0 and 3, so they tie and meet them at zero gaps."""
    rng = np.random.default_rng(0xD157)
    rows = rng.integers(-2, 3, size=(12, 5)) / 2.0 if values == "grid" \
        else rng.normal(size=(12, 33))
    rows[1], rows[2] = rows[0], rows[3]
    return rows


@pytest.mark.parametrize("shape", ["pairs", "block", "row"])
@pytest.mark.parametrize("values", ["grid", "wide"])
def test_exact_distances_is_the_norm_bit_for_bit_in_either_layout(values, shape):
    """The one distance against np.linalg.norm on C-ordered operands: paired rows,
    a (rows, refs, dim) broadcast block and one row against every ref, with the refs
    given as they are and as a transposed view (F order), as a (dim, N) working copy
    hands them over."""
    points = distance_rows(values)
    refs = points[::-1].copy()
    a = {"pairs": points, "block": points[:, None, :], "row": points[0]}[shape]
    expected = np.linalg.norm(a - refs, axis=-1)
    transposed = np.ascontiguousarray(refs.T).T
    assert not transposed.flags.c_contiguous
    for b in (refs, transposed):
        assert same_bits(_exact_distances(a, b), expected)
    assert same_bits(_exact_distances(points, points), np.zeros(len(points)))


def test_rank_nodes_empty_graph_rejected():
    # No graph method removes nodes, so refusing an empty graph at construction
    # leaves none to rank.
    with pytest.raises(InputError, match="^a graph needs at least one node"):
        graph_from_centroids(np.zeros((0, 2)))


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
    # Only node 1 is of the current session 2; node 0 wins but stays.
    g = graph_from_centroids([[0.0, 0.0], [2.0, 0.0], [9.0, 0.0]], session=2, origins=[1, 2, 1])
    before = g.centroids.copy()
    g.hebbian_update(np.array([[1.0, 0.0]]), eta=0.5, alpha=1.0)
    assert np.array_equal(g.centroids[0], before[0])
    assert not np.array_equal(g.centroids[1], before[1])


@pytest.mark.parametrize("call", ["hebbian_update", "present"])
def test_a_presentation_moves_exactly_the_current_sessions_nodes(call):
    # Nodes of sessions 1 and 2 are old at session 3, and nodes 1 and 3 are its own.
    rng = np.random.default_rng(5)
    centroids, feats = rng.normal(size=(5, 3)), rng.normal(size=(20, 3))
    for session, origins in ((3, [1, 3, 2, 3, 1]), (1, [1] * 5), (2, [1] * 5)):
        g = graph_from_centroids(centroids, session=session, origins=origins)
        getattr(g, call)(feats, 0.5, 1.0)
        moved = (g.centroids != centroids).any(axis=1)
        assert moved.tolist() == (np.array(origins) == session).tolist()
        assert same_bits(g.centroids[~moved], centroids[~moved])


def test_hebbian_rejects_bad_rates():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros((1, 2)), eta=0.0, alpha=1.0)
    with pytest.raises(InputError):
        g.hebbian_update(np.zeros((1, 2)), eta=0.5, alpha=0.0)


@pytest.mark.parametrize("eta, alpha", [(0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf),
                                        (0.0, 1.0), (1.5, 1.0), (math.nan, 1.0)])
def test_hebbian_rejects_bad_rates_before_anything_moves(eta, alpha):
    g = graph_from_centroids([[0.0, 0.0], [2.0, 0.0], [9.0, 0.0]])
    g.edge_update(0, 1)
    text, ages = g.to_text(), g.ages.tobytes()
    for call in (g.hebbian_update, g.present):
        with pytest.raises(InputError):
            call(np.array([[1.0, 0.0]]), eta=eta, alpha=alpha)
        assert g.to_text() == text and g.ages.tobytes() == ages


# -- edge update ---------------------------------------------------------------

def test_edge_update_creates_fresh_edge_with_age_one():
    g = graph_from_centroids(np.zeros((3, 2)))
    g.edge_update(0, 1)
    assert g.ages[0, 1] == g.ages[1, 0] == 1
    g.check_invariants()


def test_edge_update_expiry_boundary():
    # Step-through of the aging rule: an edge at the lifetime survives one
    # more increment only if refreshed; at lifetime it is still alive.
    g = graph_from_centroids(np.zeros((4, 2)), lifetime=200)
    for (i, j), age in (((0, 1), 200), ((0, 2), 199)):
        g.ages[i, j] = g.ages[j, i] = age
    g.edge_update(0, 3)
    assert g.ages[0, 1] == 0           # 200 -> 201 > lifetime, removed
    assert g.ages[0, 2] == 200         # 199 -> 200, survives at the bound
    assert g.ages[0, 3] == 1
    g.check_invariants()


def test_edge_update_at_the_largest_lifetime_keeps_ages_non_negative():
    lifetime = neural_gas.MAX_LIFETIME
    g = graph_from_centroids(np.zeros((4, 2)), lifetime=lifetime)
    for (i, j), age in (((0, 1), lifetime), ((0, 2), lifetime - 1)):
        g.ages[i, j] = g.ages[j, i] = age
    ref, one_by_one = NGGraph.from_text(g.to_text()), NGGraph.from_text(g.to_text())
    oracles.edge_update(ref, 0, 3)
    one_by_one.edge_update(0, 3)
    g.edge_update(np.array([0]), np.array([3]))
    for h in (g, one_by_one):
        assert same_bits(h.ages, ref.ages)
        assert np.all(h.ages >= 0)
        assert h.ages[0, 1] == 0 and h.ages[0, 2] == lifetime and h.ages[0, 3] == 1
        h.check_invariants()


def test_edge_update_touches_only_winner_incident_pairs():
    g = graph_from_centroids(np.zeros((4, 2)))
    g.ages[2, 3] = g.ages[3, 2] = 7
    g.edge_update(0, 1)
    assert g.ages[2, 3] == 7


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
    ages = np.where(upper, rng.integers(1, lifetime + 1, size=(n, n)), 0)
    g.ages = (ages + ages.T).astype(neural_gas.age_dtype(lifetime))
    g.check_invariants()
    feats = np.vstack([rng.integers(-2, 3, size=(30, 3)) / 2.0, rng.normal(size=(30, 3))])
    return g, feats[rng.permutation(len(feats))], rng


# Settings of hebbian_update's dispatch: every node ranked node-major, by
# certified squared sums or, with a norm limit of 0, by exact distances alone;
# or a frozen side screened by one product per block (here blocks of a few
# rows).  Each side sets every name, so sides can follow one another in a test.
NEVER, LIMIT = 1 << 62, neural_gas.SCREEN_NORM_LIMIT
SIDES = {"exact": {"SCREEN_MIN": NEVER, "SCREEN_NORM_LIMIT": 0.0},
         "node_major": {"SCREEN_MIN": NEVER, "SCREEN_NORM_LIMIT": LIMIT},
         "screened": {"SCREEN_MIN": 0, "SCREEN_BLOCK": 64, "SCREEN_NORM_LIMIT": LIMIT}}
KERNELS = {"_hebbian_node_major": "node_major", "_hebbian_screened": "screened"}


def assert_same_graph(g, ref):
    for name in ("centroids", "ages"):
        assert same_bits(getattr(g, name), getattr(ref, name)), name
    assert g.to_text() == ref.to_text()


def set_session_nodes(g, moving):
    """Make the nodes where `moving` holds those of session 2 and the others old
    (origin 1); with moving None, every node stays of session 1."""
    if moving is not None:
        g.origins, g.session = np.where(moving, 2, 1), 2


def present_in_batches(g, feats, eta, alpha, size):
    """Present feats in calls of `size` rows; the (winner, runner-up) of every row."""
    pairs = []
    for start in range(0, len(feats), size):
        r1, r2 = g.hebbian_update(feats[start:start + size], eta, alpha)
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


def exact_order_calls(monkeypatch):
    """Spy on the exact ranking; the number of nodes of each row it ranks."""
    exact_order, calls = neural_gas._exact_order, []

    def spy(f, refs):
        calls.append(len(refs))
        return exact_order(f, refs)

    monkeypatch.setattr(neural_gas, "_exact_order", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 40])
@pytest.mark.parametrize("mask", ["none", "all_false", "all_true", "sparse"])
def test_presentation_matches_per_rank_oracle(n, mask, monkeypatch):
    for side in SIDES:
        calls = kernel_calls(monkeypatch, side)
        g, feats, rng = presentation_case(n, seed=len(mask))
        set_session_nodes(g, {"none": None, "all_false": np.zeros(n, dtype=bool),
                              "all_true": np.ones(n, dtype=bool),
                              "sparse": rng.random(n) < 0.3}[mask])
        ref = NGGraph.from_text(g.to_text())
        expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
        assert present_in_batches(g, feats, 0.3, 1.5, size=7) == expected
        assert_same_graph(g, ref)
        g.check_invariants()
        for f in feats[:10]:
            (order, distances), (ref_order, ref_distances) = rank_nodes(g, f), oracles.rank_nodes(ref, f)
            assert same_bits(order, ref_order) and same_bits(distances, ref_distances)
        frozen = np.count_nonzero(g.origins != g.session)
        screens = side == "screened" and frozen >= 2
        assert set(calls) == {"screened" if screens else "node_major"}


def screen_case(case, seed):
    """(graph, features, moving) for a named hard case of the masked presentation: the
    graph is at session 2, and its moving nodes are of that session."""
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
    set_session_nodes(g, moving)
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
        expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
        assert present_in_batches(g, feats, 0.3, 1.5, size=25) == expected
        assert_same_graph(g, ref)
    screens = side == "screened" and case != "norms_2^1000" and (~moving).sum() >= 2
    assert calls == ["screened" if screens else "node_major"] * 9  # 60 rows in three calls, three seeds


@pytest.mark.parametrize("side", ["node_major", "screened"])
def test_huge_norms_rank_every_row_exactly(side, monkeypatch):
    calls, fallbacks = kernel_calls(monkeypatch, side), exact_order_calls(monkeypatch)
    for seed in range(3):
        g, feats, moving = screen_case("norms_2^1000", seed)
        ref = NGGraph.from_text(g.to_text())
        expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert present_in_batches(g, feats, 0.3, 1.5, size=25) == expected
        assert_same_graph(g, ref)
    # No screen runs, and every row's largest sum reaches the limit: one exact
    # ranking per row.
    assert calls == ["node_major"] * 9 and fallbacks == [30] * 180


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
    moving = data.draw(masks, label="moving")
    lifetime = data.draw(st.integers(1, 4), label="lifetime")
    size = data.draw(st.integers(1, 12), label="rows per call")
    settings_ = {"SCREEN_MIN": data.draw(st.sampled_from([0, NEVER]), label="screen_min"),
                 "SCREEN_NORM_LIMIT": data.draw(st.sampled_from([0.0, LIMIT]), label="norm_limit"),
                 "SCREEN_BLOCK": data.draw(st.integers(1, 40), label="screen_block")}
    g, ref = (graph_from_centroids(centroids, lifetime=lifetime) for _ in range(2))
    for h in (g, ref):
        set_session_nodes(h, moving)
    expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
    with mock.patch.multiple(neural_gas, **settings_):
        assert present_in_batches(g, feats, 0.3, 1.5, size) == expected
    assert_same_graph(g, ref)


def certificate_case(case, seed):
    """(graph, features) on which every row, or no row, must rank exactly; a graph
    with frozen nodes is at session 2, and its moving nodes are of that session."""
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
    g = graph_from_centroids(centroids, lifetime=4)
    set_session_nodes(g, moving)
    return g, feats


@pytest.mark.parametrize("case", ["frozen_permutations", "frozen_duplicates", "scale_1e-200",
                                  "gaussian"])
def test_node_major_certificate_falls_back_exactly_on_ties_and_underflow(case, monkeypatch):
    kernel_calls(monkeypatch, "node_major")
    fallbacks = exact_order_calls(monkeypatch)
    for seed in range(3):
        g, feats = certificate_case(case, seed)
        ref = graph_from_centroids(g.centroids, lifetime=4, session=g.session, origins=g.origins)
        expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
        assert present_in_batches(g, feats, 0.3, 1.5, size=25) == expected
        assert_same_graph(g, ref)
    assert len(fallbacks) == (0 if case == "gaussian" else 3 * len(feats))


@pytest.mark.parametrize("moving", [None, "sparse"])
def test_node_major_rows_certify_from_their_own_sums_past_the_norm_limit(moving, monkeypatch):
    """Coordinates near 2^500 put every squared norm past SCREEN_NORM_LIMIT, but
    the squared distances stay far below it, so each row's own sums certify its
    ranking: no row ranks exactly, and every bit is the row-by-row rule's."""
    calls, fallbacks = kernel_calls(monkeypatch, "node_major"), exact_order_calls(monkeypatch)
    for seed in range(3):
        rng = np.random.default_rng([seed, 0x5E1F])
        centroids, feats = (2.0 ** 500 * (1 + 1e-3 * rng.normal(size=(rows, 8)))
                            for rows in (40, 50))
        assert (centroids ** 2).sum(axis=1).min() >= neural_gas.SCREEN_NORM_LIMIT
        g = graph_from_centroids(centroids, lifetime=4)
        set_session_nodes(g, None if moving is None else rng.random(40) < 0.3)
        ref = NGGraph.from_text(g.to_text())
        expected = oracles.present(ref, feats, 0.3, 1.5, g.origins == g.session)
        assert present_in_batches(g, feats, 0.3, 1.5, size=25) == expected
        assert_same_graph(g, ref)
    assert calls == ["node_major"] * 6 and fallbacks == []


def test_node_major_call_computes_no_squared_norms(monkeypatch):
    """Only a call large enough to screen computes the squared norms it screens with."""
    norms, sq_norms = [], neural_gas._sq_norms

    def spy(rows):
        norms.append(len(rows))
        return sq_norms(rows)

    monkeypatch.setattr(neural_gas, "_sq_norms", spy)
    for side, expected in (("node_major", []), ("screened", [25, 30])):
        calls = kernel_calls(monkeypatch, side)
        g, feats, _ = screen_case("one_moving", seed=0)
        g.hebbian_update(feats[:25], 0.3, 1.5)
        assert calls == [side] and norms == expected
        norms.clear()


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
        set_session_nodes(g, np.arange(40) < 3)
        text, ages = g.to_text(), g.ages.tobytes()
        with pytest.raises(InputError):
            getattr(g, call)(rows, 0.3, 1.5)
        assert g.to_text() == text and g.ages.tobytes() == ages


# -- closed-form edge updates ----------------------------------------------------

# The largest lifetime of each age dtype: uint8, uint16, uint32 and int64.
LARGEST_LIFETIMES = [254, 65534, 2 ** 32 - 2, neural_gas.MAX_LIFETIME]


def aged_graph(n, lifetime, rng):
    """Random live edges with ages up to the lifetime (within 3 of it when it is large)."""
    g = graph_from_centroids(np.zeros((n, 2)), lifetime=lifetime)
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    low = max(1, lifetime - 3) if lifetime > 100 else 1
    ages = np.where(upper, rng.integers(low, lifetime + 1, size=(n, n)), 0)
    g.ages = (ages + ages.T).astype(neural_gas.age_dtype(lifetime))
    return g


@pytest.mark.parametrize("lifetime", [1, 2, 5, 255, 65535, 2 ** 32 - 1] + LARGEST_LIFETIMES)
def test_edge_update_sequence_matches_sequential_updates(lifetime):
    rng = np.random.default_rng([lifetime % 1000, 0xED6E])
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = aged_graph(n, lifetime, rng)
        ref = graph_from_centroids(np.zeros((n, 2)), lifetime=lifetime)
        ref.ages = g.ages.copy()
        r1 = rng.integers(0, n, size=int(rng.integers(0, 40)))
        r2 = (r1 + rng.integers(1, n, size=len(r1))) % n
        for a, b in zip(r1, r2):
            oracles.edge_update(ref, int(a), int(b))
        g.edge_update(r1, r2)
        assert same_bits(g.ages, ref.ages)
        g.check_invariants()


def test_edge_update_expires_live_edges_at_the_largest_lifetime():
    for lifetime in LARGEST_LIFETIMES:  # of every age dtype
        g = graph_from_centroids(np.zeros((4, 2)), lifetime=lifetime)
        g.ages[0, 1] = g.ages[1, 0] = lifetime
        g.ages[1, 3] = g.ages[3, 1] = lifetime - 1
        g.check_invariants()
        ref, one_by_one = NGGraph.from_text(g.to_text()), NGGraph.from_text(g.to_text())
        pairs = [(0, 2), (1, 2), (0, 2)]
        for a, b in pairs:
            oracles.edge_update(ref, a, b)
            one_by_one.edge_update(a, b)
        g.edge_update(*np.array(pairs).T)
        for h in (g, one_by_one):
            assert same_bits(h.ages, ref.ages), lifetime
            # (0, 1) expires at its first ageing, three past the lifetime in closed
            # form; (1, 3) ages once, to the lifetime, and survives.
            assert h.ages[0, 1] == 0 and h.ages[1, 3] == lifetime
            assert h.ages[0, 2] == h.ages[1, 2] == 1
            h.check_invariants()


def test_edge_update_scalar_pair_matches_array_of_one():
    g = aged_graph(6, 3, np.random.default_rng(4))
    h = NGGraph.from_text(g.to_text())
    g.edge_update(2, 5)
    h.edge_update(np.array([2]), np.array([5]))
    assert same_bits(g.ages, h.ages)


@pytest.mark.parametrize("r1,r2", [(-1, 0), (0, -1), (4, 0), (0, 4), (-4, 0), (2, 2),
                                   ([0, 1, 2], [1, 2, 4]), ([0, -1], [1, 2]),
                                   ([0, 1, 3], [1, 1, 3]), ([0, 1], [1]), ([[0]], [[1]]),
                                   ([0.0], [1.0]), (True, False)])
def test_edge_update_rejects_bad_indices_before_anything_changes(r1, r2):
    g = aged_graph(4, 3, np.random.default_rng(6))
    text, ages = g.to_text(), g.ages.tobytes()
    with pytest.raises(InputError):
        g.edge_update(r1, r2)
    assert g.to_text() == text and g.ages.tobytes() == ages


@pytest.mark.parametrize("lifetime", [1, 2])
@pytest.mark.parametrize("pairs, shared_age", [
    # Both ends of (0, 1) win, so it ages by 2 and expires at either lifetime.
    ([(0, 2), (1, 3)], {1: 0, 2: 0}),
    ([(1, 3), (0, 2), (1, 2)], {1: 0, 2: 0}),
    # One end wins once: age 2, within lifetime 2 only.
    ([(0, 2)], {1: 0, 2: 2}),
    # Refreshed, then its other end wins once more.
    ([(0, 1), (1, 2)], {1: 0, 2: 2})])
def test_edge_update_ages_an_edge_both_winners_share(lifetime, pairs, shared_age):
    g = graph_from_centroids(np.zeros((4, 2)), lifetime=lifetime)
    g.ages[0, 1] = g.ages[1, 0] = 1
    ref = NGGraph.from_text(g.to_text())
    for a, b in pairs:
        oracles.edge_update(ref, a, b)
    g.edge_update(*np.array(pairs).T)
    assert same_bits(g.ages, ref.ages)
    assert g.ages[0, 1] == g.ages[1, 0] == shared_age[lifetime]
    g.check_invariants()


def test_edge_update_memory_stays_within_the_winner_rows_at_paper_shape():
    # 400 nodes with about 12 live edges each, and the pairs of a 1024-row
    # presentation (about 370 distinct winners).
    n, rows, lifetime = 400, 1024, 200
    rng = np.random.default_rng(0xED6F)
    g = graph_from_centroids(np.zeros((n, 2)), lifetime=lifetime)
    upper = np.triu(rng.random((n, n)) < 0.03, k=1)
    ages = np.where(upper, rng.integers(1, lifetime + 1, size=(n, n)), 0)
    g.ages = (ages + ages.T).astype(neural_gas.age_dtype(lifetime))
    r1 = rng.integers(0, n, size=rows)
    r2 = (r1 + rng.integers(1, n, size=rows)) % n
    ref = NGGraph.from_text(g.to_text())
    for a, b in zip(r1, r2):
        oracles.edge_update(ref, int(a), int(b))
    winners = np.unique(r1)
    live = np.count_nonzero(g.ages[winners])
    tracemalloc.start()
    try:
        g.edge_update(r1, r2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The gathered winner rows (one byte per age at this lifetime), a few int64
    # arrays per live edge of a winner and per presented row, with room to spare.
    # Arithmetic over every (winner, node) pair would hold several times the rows
    # in int64: 4.9 MB here.
    assert g.ages.itemsize == 1
    assert peak < g.ages.itemsize * len(winners) * n + 64 * live + 64 * rows
    assert same_bits(g.ages, ref.ages)


# -- init and training -----------------------------------------------------------

def test_init_graph_with_full_budget_is_permutation():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(6, 2))
    g = init_graph(feats, feats, np.arange(6), 6, lifetime=200, eps_var=EPS, seed=0)
    seen = {tuple(c) for c in g.centroids}
    assert seen == {tuple(f) for f in feats}
    assert not g.ages.any()


def test_init_graph_deterministic_under_seed():
    feats = np.random.default_rng(2).normal(size=(20, 3))
    a = init_graph(feats, feats, np.zeros(20, dtype=int), 5, 200, EPS, seed=9)
    b = init_graph(feats, feats, np.zeros(20, dtype=int), 5, 200, EPS, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)


def test_init_graph_rejects_oversized_budget():
    feats = np.zeros((3, 2))
    with pytest.raises(InputError):
        init_graph(feats, feats, np.zeros(3, dtype=int), 4, 200, EPS, seed=0)


def test_init_graph_rejects_a_budget_of_no_nodes():
    feats = np.zeros((3, 2))
    with pytest.raises(InputError, match="^a graph needs at least one node"):
        init_graph(feats, feats, np.zeros(3, dtype=int), 0, 200, EPS, seed=0)


def test_init_graph_seeds_each_node_with_its_rows_input_and_label():
    rng = np.random.default_rng(4)
    feats, inputs = rng.normal(size=(20, 3)), rng.normal(size=(20, 5))
    labels = rng.integers(0, 4, size=20)
    g = init_graph(feats, inputs, labels, 6, 200, EPS, seed=3)
    assert g.pseudo_inputs.shape == (6, 5)
    for j in range(6):
        (row,) = np.flatnonzero((feats == g.centroids[j]).all(axis=1))
        assert np.array_equal(g.pseudo_inputs[j], inputs[row])
        assert g.labels[j] == labels[row]


@pytest.mark.parametrize("short", ["inputs", "labels"])
def test_init_graph_rejects_rows_that_do_not_pair_up(short):
    feats = np.zeros((5, 2))
    args = {"inputs": np.zeros((5, 4)), "labels": np.zeros(5, dtype=int)}
    args[short] = args[short][:-1]
    with pytest.raises(InputError, match="cannot sample"):
        init_graph(feats, args["inputs"], args["labels"], 2, 200, EPS, seed=0)


def test_init_graph_refuses_labels_that_are_not_integers():
    feats = np.arange(6.0).reshape(3, 2)
    with pytest.raises(InputError, match="^labels must hold integers"):
        init_graph(feats, feats, [0.4, 1.6, 2.9], 3, 200, EPS, seed=0)


def node_arrays(n=3):
    """Arguments of a valid n-node graph: centroids, variances, pseudo inputs, labels,
    origins, lifetime, eps_var."""
    return [np.zeros((n, 2)), np.full((n, 2), EPS), np.zeros((n, 4)), np.zeros(n, dtype=int),
            np.ones(n, dtype=int), 5, EPS]


@pytest.mark.parametrize("name, position, short", [
    ("variances", 1, np.full((2, 2), EPS)), ("pseudo_inputs", 2, np.zeros((2, 4))),
    ("labels", 3, np.zeros(2, dtype=int)), ("origins", 4, np.ones(2, dtype=int)),
    ("labels", 3, np.zeros((3, 1), dtype=int)), ("ages", None, np.zeros((3, 2), dtype=int)),
    ("ages", None, np.zeros((2, 2), dtype=int))])
def test_graph_rejects_per_node_arrays_of_another_node_count(name, position, short):
    args, kwargs = node_arrays(), {}
    if position is None:
        kwargs[name] = short
    else:
        args[position] = short
    with pytest.raises(InputError, match=name):
        NGGraph(*args, **kwargs)


@pytest.mark.parametrize("name", ["variances", "pseudo_inputs", "labels", "origins", "ages"])
def test_invariants_flag_a_per_node_array_that_lost_a_row(name):
    g = NGGraph(*node_arrays())
    g.check_invariants()
    setattr(g, name, getattr(g, name)[:2])
    with pytest.raises(StateError, match=name):
        g.check_invariants()


def broken_ages(case, n=3, lifetime=5):
    """An (n, n) age matrix that breaks one edge-state rule."""
    ages = np.zeros((n, n), dtype=int)
    if case == "asymmetric":
        ages[0, 1] = 2
    elif case == "diagonal":
        ages[1, 1] = 1
    else:
        ages[0, 2] = ages[2, 0] = -1 if case == "negative" else lifetime + 1
    return ages


@pytest.mark.parametrize("case", ["asymmetric", "diagonal", "negative", "above_lifetime"])
def test_graph_rejects_an_age_matrix_that_is_no_edge_state(case):
    with pytest.raises(InputError, match="ages"):
        NGGraph(*node_arrays(), ages=broken_ages(case))
    g = NGGraph(*node_arrays())  # lifetime 5, as broken_ages assumes
    g.ages = broken_ages(case)
    with pytest.raises(StateError, match="ages"):
        g.check_invariants()


@pytest.mark.parametrize("lifetime, dtype", [
    (1, np.uint8), (254, np.uint8), (255, np.uint16), (65534, np.uint16), (65535, np.uint32),
    (2 ** 32 - 2, np.uint32), (2 ** 32 - 1, np.int64), (neural_gas.MAX_LIFETIME, np.int64)])
def test_ages_take_the_narrowest_dtype_that_holds_lifetime_plus_one(lifetime, dtype):
    assert neural_gas.age_dtype(lifetime) == dtype
    args = node_arrays()
    args[5] = lifetime
    ages = np.zeros((3, 3), dtype=int)
    ages[0, 1] = ages[1, 0] = lifetime
    for g in (NGGraph(*args), NGGraph(*args, ages=ages)):
        assert g.ages.dtype == dtype
        g.grow({7: (np.ones((3, 2)), np.zeros((3, 4)))}, k=1)
        assert g.ages.dtype == dtype and len(g) == 4
        assert NGGraph.from_text(g.to_text()).ages.dtype == dtype
    assert g.ages[0, 1] == lifetime


def test_a_paper_sized_age_matrix_holds_one_byte_per_node_pair():
    g = graph_from_centroids(np.zeros((400, 2)), lifetime=200)
    assert g.ages.dtype == np.uint8 and g.ages.nbytes == 160_000


@pytest.mark.parametrize("age", [201, 256, -1, 2 ** 40])
def test_graph_rejects_ages_outside_the_lifetime_before_narrowing_them(age):
    # Each would wrap into 0..200 if it were cast to uint8 before the check.
    args = node_arrays()
    args[5] = 200
    ages = np.zeros((3, 3), dtype=int)
    ages[0, 2] = ages[2, 0] = age
    with pytest.raises(InputError, match="ages"):
        NGGraph(*args, ages=ages)


def test_a_node_from_a_session_after_the_graphs_is_rejected():
    # Origin 3 at session 2 is neither old nor current: never anchored, never moved.
    args = node_arrays()
    args[4] = np.array([1, 2, 3])
    with pytest.raises(InputError, match="origins holds a session after the current session 2"):
        NGGraph(*args, session=2)
    g = NGGraph(*args, session=3)
    text = g.to_text()
    g.session = 2
    with pytest.raises(StateError, match="origins"):
        g.check_invariants()
    with pytest.raises(InputError, match="origins"):
        NGGraph.from_text(text.replace("session 3", "session 2"))


@pytest.mark.parametrize("eps_var", [0.0, -1.0, math.nan, math.inf, 1e-320])
def test_graph_rejects_a_variance_floor_without_a_finite_reciprocal(eps_var):
    args = node_arrays()
    args[6] = eps_var
    with pytest.raises(InputError, match="is not finite and positive with a finite reciprocal"):
        NGGraph(*args)


@pytest.mark.parametrize("origins, session", [([0, 1, 1], 1), ([1, -5, 1], 1),
                                              ([1, 1, 1], -3), ([1, 1, 1], 0)])
def test_sessions_are_numbered_from_one(origins, session):
    args = node_arrays()
    args[4] = np.array(origins)
    with pytest.raises(InputError, match="or an origin is outside 1"):
        NGGraph(*args, session=session)
    g = NGGraph(*node_arrays())
    g.origins, g.session = np.array(origins), session
    with pytest.raises(StateError, match="or an origin is outside 1"):
        g.check_invariants()


def test_no_session_follows_the_last_an_int64_holds():
    g = graph_from_centroids([[0.0, 0.0]], session=2 ** 63 - 1)
    text = g.to_text()
    with pytest.raises(StateError, match="no session can follow"):
        g.grow({1: shots([[1.0, 0.0]] * 3)}, k=1)
    assert g.to_text() == text
    g.check_invariants()


def test_graph_accepts_ages_up_to_the_lifetime():
    ages = np.zeros((3, 3), dtype=int)
    ages[0, 1] = ages[1, 0] = 5
    ages[1, 2] = ages[2, 1] = 1
    NGGraph(*node_arrays(), ages=ages).check_invariants()


def valid_fields(n=3):
    """Keyword arguments of a valid n-node graph of lifetime 5 (as broken_ages assumes)."""
    names = ("centroids", "variances", "pseudo_inputs", "labels", "origins", "lifetime", "eps_var")
    return dict(zip(names, node_arrays(n)), session=1, ages=np.zeros((n, n), dtype=int))


def one_off(value, at=(1, 0), shape=(3, 2)):
    """An array of zeros of `shape` holding `value` at `at`."""
    array = np.zeros(shape, dtype=np.asarray(value).dtype)
    array[at] = value
    return array


# States that break one rule of a valid graph: the field, its value, and the
# start of the message both NGGraph(...) and check_invariants give.
BROKEN_STATES = {
    "nan_centroid": ("centroids", one_off(math.nan), "centroids holds a non-finite value"),
    "inf_centroid": ("centroids", one_off(-math.inf), "centroids holds a non-finite value"),
    "inf_pseudo_input": ("pseudo_inputs", one_off(math.inf, shape=(3, 4)),
                         "pseudo_inputs holds a non-finite value"),
    "nan_variance": ("variances", np.full((3, 2), math.nan), "variances holds a non-finite value"),
    "zero_variances": ("variances", np.zeros((3, 2)), "variances holds a value below the floor"),
    "variance_below_floor": ("variances", np.full((3, 2), EPS * (1 - 1e-9)),
                             "variances holds a value below the floor"),
    "one_d_centroids": ("centroids", np.zeros(3), "centroids of shape (3,) are not 2-D"),
    "variances_of_another_width": ("variances", np.full((3, 3), EPS),
                                   "variances has shape (3, 3), expected (3, 2)"),
    "label_half": ("labels", np.array([0.5, 0.0, 0.0]), "labels must hold integers"),
    "labels_as_floats": ("labels", [0.5, 1.7, 2.0], "labels must hold integers"),
    "label_beyond_int64": ("labels", np.array([0, 1, 2 ** 63], dtype=np.uint64),
                           "labels must hold integers"),
    "origin_one_and_a_half": ("origins", np.array([1, 1.5, 1]), "origins must hold integers"),
    "float_ages": ("ages", np.zeros((3, 3)), "ages must hold integers"),
    "lifetime_two_and_a_half": ("lifetime", 2.5, "lifetime must hold integers"),
    "lifetime_zero": ("lifetime", 0, "lifetime must be between 1 and"),
    "lifetime_as_array": ("lifetime", np.array([5]), "lifetime has shape (1,), expected ()"),
    "session_two_point_zero": ("session", 2.0, "session must hold integers"),
    "session_zero": ("session", 0, "session 0 or an origin is outside 1.."),
    "origin_zero": ("origins", np.array([0, 1, 1]), "session 1 or an origin is outside 1.."),
    "origin_after_session": ("origins", np.array([1, 2, 1]),
                             "origins holds a session after the current session 1"),
    "eps_var_zero": ("eps_var", 0.0, "eps_var 0.0 is not finite and positive"),
    **{f"no_{what}": (name, np.zeros(shape), "a graph needs at least one node, feature column")
       for what, name, shape in (("nodes", "centroids", (0, 2)),
                                 ("feature_column", "centroids", (3, 0)),
                                 ("pseudo_input_column", "pseudo_inputs", (3, 0)))},
    **{f"ages_{case}": ("ages", broken_ages(case), "ages ")
       for case in ("asymmetric", "diagonal", "negative", "above_lifetime")},
}


@pytest.mark.parametrize("case", sorted(BROKEN_STATES))
def test_the_constructor_and_check_invariants_refuse_a_broken_state_alike(case):
    name, value, message = BROKEN_STATES[case]
    with pytest.raises(InputError, match="^" + re.escape(message)) as built:
        NGGraph(**{**valid_fields(), name: value})
    g = NGGraph(**valid_fields())
    g.check_invariants()
    setattr(g, name, value)
    with pytest.raises(StateError) as checked:
        g.check_invariants()
    assert str(checked.value) == str(built.value)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_graph_the_constructor_accepts_round_trips_through_text(data):
    # A graph with no node, feature column or pseudo-input column is refused, as its
    # checkpoint could not be read back.
    n, dim, width = (data.draw(st.integers(0, high)) for high in (9, 4, 3))
    scale = data.draw(st.sampled_from([1e-200, 1.0, 1e150]))
    eps_var = data.draw(st.sampled_from([EPS, 1e-200, 2.5]))

    def floats(shape, low=-1.0):
        values = data.draw(st.lists(st.floats(low, 1.0), min_size=math.prod(shape),
                                    max_size=math.prod(shape)))
        return np.reshape(values, shape) * scale

    lifetime = data.draw(st.sampled_from([1, 200, 255, neural_gas.MAX_LIFETIME]))
    session = data.draw(st.sampled_from([1, 2, 9, 2 ** 63 - 1]))
    ages = np.triu(np.reshape(data.draw(st.lists(st.integers(0, lifetime), min_size=n * n,
                                                 max_size=n * n)), (n, n)), 1)
    ages = ages + ages.T
    if data.draw(st.booleans()):  # bool ages: each edge of age 1
        ages = ages > 0
    fields = dict(centroids=floats((n, dim)), variances=eps_var + floats((n, dim), low=0.0),
                  pseudo_inputs=floats((n, width)),
                  labels=data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                            min_size=n, max_size=n)),
                  origins=data.draw(st.lists(st.integers(1, session), min_size=n, max_size=n)),
                  lifetime=lifetime, eps_var=eps_var, session=session, ages=ages)
    if data.draw(st.booleans()):
        fields = {k: np.asarray(v).tolist() for k, v in fields.items()}
    if 0 in (n, dim, width):
        with pytest.raises(InputError, match="^a graph needs at least one node"):
            NGGraph(**fields)
        return
    g = NGGraph(**fields)
    text = g.to_text()
    h = NGGraph.from_text(text)
    h.check_invariants()
    assert h.to_text() == text


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
    g = init_graph(feats, feats, np.zeros(30, dtype=int), 5, 200, EPS, seed=1)
    before = g.centroids.copy()
    train_on_features(g, feats, eta=1e-12, alpha=1.0, passes=1, seed=2)
    assert np.allclose(g.centroids, before, atol=1e-9)
    assert g.ages.max() > 0


def test_training_two_blobs_two_nodes_land_in_their_blobs():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 5])
        blob_a = rng.normal(size=(50, 2)) * 0.3 + np.array([-4.0, 0.0])
        blob_b = rng.normal(size=(50, 2)) * 0.3 + np.array([4.0, 0.0])
        feats = np.vstack([blob_a, blob_b])
        g = init_graph(feats, feats, np.zeros(100, dtype=int), 2, 200, EPS, seed=seed)
        train_on_features(g, feats, eta=0.2, alpha=1.0, passes=10, seed=seed)
        means = np.array([[-4.0, 0.0], [4.0, 0.0]])
        owner = {int(np.argmin(np.linalg.norm(means - c, axis=1))) for c in g.centroids}
        hits += owner == {0, 1}
    assert hits == 20


@pytest.mark.parametrize("rows,block", [(300, 1), (300, 7), (300, 300), (2500, None)])
def test_chunked_sweeps_equal_one_presentation_per_pass(rows, block, monkeypatch):
    rng = np.random.default_rng([rows, 0x5EE])
    feats = np.vstack([rng.normal(size=(rows - 40, 6)), rng.integers(-1, 2, size=(40, 6)) / 2.0])
    labels = rng.integers(0, 5, size=rows)
    whole = init_graph(feats, feats, labels, 30, 20, EPS, seed=3)
    chunked = init_graph(feats, feats, labels, 30, 20, EPS, seed=3)
    permutations = np.random.default_rng([9, 0x7A41])
    for _ in range(3):
        whole.present(feats[permutations.permutation(rows)], 0.2, 1.0)
    if block is not None:
        monkeypatch.setattr(neural_gas, "SWEEP_BLOCK", block)
    calls, present = [], NGGraph.present
    monkeypatch.setattr(NGGraph, "present",
                        lambda g, f, *args: calls.append(len(f)) or present(g, f, *args))
    train_on_features(chunked, feats, 0.2, 1.0, passes=3, seed=9)
    step = neural_gas.SWEEP_BLOCK
    assert calls == 3 * ([step] * (rows // step) + ([rows % step] if rows % step else []))
    assert same_bits(chunked.centroids, whole.centroids) and same_bits(chunked.ages, whole.ages)


def test_training_requires_at_least_one_pass():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        train_on_features(g, np.zeros((1, 2)), 0.5, 1.0, passes=0, seed=0)


# -- pseudo-exemplars and variances ----------------------------------------------

def identity_features(x):
    return np.asarray(x, dtype=float)


def test_assign_pseudo_exemplars_singleton_dataset():
    g = graph_from_centroids([[0.0, 0.0], [5.0, 5.0]])
    inputs = [np.array([1.0, 1.0])]
    g.assign_pseudo_exemplars(inputs, [7], inputs)
    for j in range(2):
        assert np.array_equal(g.pseudo_inputs[j], [1.0, 1.0])
        assert g.labels[j] == 7


def test_assign_pseudo_exemplars_exact_hit():
    g = graph_from_centroids([[2.0, 2.0]])
    inputs = [np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]
    g.assign_pseudo_exemplars(inputs, [0, 1, 2], inputs)
    assert np.array_equal(g.pseudo_inputs[0], [2.0, 2.0])
    assert g.labels[0] == 1


def test_assign_pseudo_exemplars_matches_brute_force():
    rng = np.random.default_rng(6)
    g = graph_from_centroids(rng.normal(size=(5, 3)))
    inputs = [rng.normal(size=3) for _ in range(12)]
    labels = rng.integers(0, 4, size=12)
    g.assign_pseudo_exemplars(inputs, labels, inputs)
    for j in range(5):
        dists = [math.dist(x, g.centroids[j]) for x in inputs]
        best = dists.index(min(dists))
        assert np.array_equal(g.pseudo_inputs[j], inputs[best])
        assert g.labels[j] == labels[best]


def test_assign_pseudo_exemplars_rejects_empty_dataset():
    g = graph_from_centroids([[0.0, 0.0]])
    with pytest.raises(InputError):
        g.assign_pseudo_exemplars([], [], [])


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [0.5, 1.5, 2.5], [[0], [1], [2]],
                                    ["a", "b", "c"]])
def test_assign_pseudo_exemplars_refuses_labels_that_are_not_one_integer_per_input(labels):
    g = graph_from_centroids([[0.0, 0.0]], labels=[4])
    text, inputs = g.to_text(), np.arange(6.0).reshape(3, 2)
    with pytest.raises(InputError, match="labels of shape .* are not one integer per input"):
        g.assign_pseudo_exemplars(inputs, labels, inputs)
    assert g.to_text() == text


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
    # At session 2 only node 1, grown in it, is re-estimated.
    g = graph_from_centroids([[0.0, 0.0], [10.0, 0.0]], session=2, origins=[1, 2])
    g.variances[0] = [123.0, 123.0]
    g.estimate_variances(np.array([[9.0, 0.0], [11.0, 0.0]]))
    assert np.allclose(g.variances[0], [123.0, 123.0])
    assert np.allclose(g.variances[1], [1.0 + EPS, EPS])


def test_estimate_variances_rewrites_exactly_the_current_sessions_rows():
    rng = np.random.default_rng(6)
    centroids = rng.normal(size=(5, 3)) * 10.0
    feats = np.repeat(centroids, 4, axis=0) + rng.normal(scale=0.1, size=(20, 3))
    sentinel = rng.uniform(1.0, 2.0, size=(5, 3))
    for session, origins in ((3, [1, 3, 2, 3, 1]), (1, [1] * 5), (2, [1] * 5)):
        g = graph_from_centroids(centroids, session=session, origins=origins)
        g.variances = sentinel.copy()
        g.estimate_variances(feats)
        current = np.array(origins) == session
        assert same_bits(g.variances[~current], sentinel[~current])
        for j in np.flatnonzero(current):
            assert same_bits(g.variances[j], EPS + feats[4 * j:4 * j + 4].var(axis=0))


# -- growth ---------------------------------------------------------------------

def shots(features):
    features = np.asarray(features, dtype=float)
    return features, features  # identity input space


def test_grow_identical_shots_centroid_equals_shot():
    g = graph_from_centroids([[0.0, 0.0]], labels=[0])
    g.grow({1: shots([[3.0, 3.0]] * 5)}, k=1)
    assert np.allclose(g.centroids[1], [3.0, 3.0])
    assert g.labels[1] == 1
    assert g.origins[1] == 2
    assert g.session == 2


def test_grow_numbers_sessions_consecutively_also_after_a_checkpoint():
    g = graph_from_centroids([[0.0, 0.0]], labels=[0])
    g.grow({1: shots([[1.0, 0.0]] * 3)}, k=1)
    g.grow({2: shots([[2.0, 0.0]] * 3), 3: shots([[3.0, 0.0]] * 3)}, k=1)
    assert g.session == 3 and g.origins.tolist() == [1, 2, 3, 3]
    g = NGGraph.from_text(g.to_text())
    g.grow({4: shots([[4.0, 0.0]] * 3)}, k=1)
    assert g.session == 4 and g.origins.tolist() == [1, 2, 3, 3, 4]
    # A session-5 checkpoint of 48 nodes grows its session-6 nodes.
    g = NGGraph.load(Path(__file__).parent / "data" / "topic_al_mml_1_5.ngtxt")
    before = g.origins.copy()
    g.grow({99: (np.ones((3, g.feature_dim)), np.zeros((3, g.pseudo_inputs.shape[1])))}, k=1)
    assert g.session == 6 and g.origins.tolist() == before.tolist() + [6]
    g.check_invariants()


def test_grow_line_of_shots_centroid_at_mean():
    g = graph_from_centroids([[9.0, 9.0]], labels=[0])
    line = [[float(v), 0.0] for v in range(5)]
    g.grow({3: shots(line)}, k=1)
    assert np.allclose(g.centroids[1], [2.0, 0.0])
    assert np.array_equal(g.pseudo_inputs[1], [2.0, 0.0])
    # Random shots at mixed scales: the k = 1 centroid is their mean, bit for bit.
    rng = np.random.default_rng(9)
    for count in (2, 7, 39):
        feats = rng.normal(scale=10.0 ** rng.uniform(-8, 8), size=(count, 6))
        g = graph_from_centroids(np.zeros((1, 6)), labels=[0])
        g.grow({1: shots(feats)}, k=1, seed=count)
        assert g.centroids[1].tobytes() == feats.mean(axis=0).tobytes()


def test_grow_appends_k_nodes_per_class_without_touching_old():
    g = graph_from_centroids([[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
    before = g.centroids.copy()
    rng = np.random.default_rng(8)
    g.grow({2: shots(rng.normal(size=(5, 2))),
            3: shots(rng.normal(size=(5, 2)))}, k=2, seed=4)
    assert len(g) == 6
    assert np.array_equal(g.centroids[:2], before)
    assert list(g.labels) == [0, 1, 2, 2, 3, 3]
    assert not g.ages[2:].any() and not g.ages[:, 2:].any()
    assert np.allclose(g.variances[2:], EPS)
    g.check_invariants()


def test_grow_rejects_duplicate_class():
    g = graph_from_centroids([[0.0, 0.0]], labels=[4])
    with pytest.raises(InputError):
        g.grow({4: shots([[1.0, 1.0]] * 3)}, k=1)


def test_grow_rejects_bad_k():
    g = graph_from_centroids([[0.0, 0.0]], labels=[0])
    with pytest.raises(InputError):
        g.grow({1: shots([[1.0, 1.0]] * 3)}, k=3)


@pytest.mark.parametrize("feats, inputs", [
    (np.ones((3, 3)), np.ones((3, 2))),   # features of the wrong width
    (np.ones((3, 2)), np.ones((3, 3))),   # inputs of the wrong width
    (np.ones((3, 2)), np.ones((2, 2))),   # fewer inputs than features
    (np.ones(3), np.ones((3, 2))),        # features not 2-D
    (np.ones((3, 2)), np.ones(2))])       # inputs not 2-D
def test_grow_rejects_bad_shot_widths_before_anything_changes(feats, inputs):
    g = graph_from_centroids([[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
    g.ages[0, 1] = g.ages[1, 0] = 3
    text = g.to_text()
    with pytest.raises(InputError, match="class 3 shots"):
        g.grow({2: shots(np.full((3, 2), 2.0)), 3: (feats, inputs)}, k=1)
    assert g.to_text() == text


@pytest.mark.parametrize("label", [2.5, np.float64(3.0), True, "3", 2 ** 63])
def test_grow_rejects_a_label_that_is_not_an_integer_before_anything_changes(label):
    g = graph_from_centroids([[0.0, 0.0], [1.0, 1.0]], labels=[0, 1])
    text = g.to_text()
    with pytest.raises(InputError, match="is not an integer"):
        g.grow({label: shots(np.full((3, 2), 2.0))}, k=1)
    assert g.to_text() == text


# -- anchors, quantization --------------------------------------------------------

def test_refresh_anchors_constant_extractor():
    g = graph_from_centroids([[1.0, 1.0], [2.0, 2.0]])
    g.pseudo_inputs = np.array([[0.0, 0.0], [1.0, 1.0]])
    g.refresh_anchors(np.full((len(g.pseudo_inputs), 2), 7.0))
    assert np.allclose(g.centroids, 7.0)


def test_refresh_anchors_identity_fixed_point():
    g = graph_from_centroids([[1.0, 2.0]])
    g.pseudo_inputs = np.array([[1.0, 2.0]])
    g.refresh_anchors(identity_features(g.pseudo_inputs))
    assert np.allclose(g.centroids[0], [1.0, 2.0])


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


# -- the array rule ----------------------------------------------------------------

def good_block(rows, width):
    return np.linspace(-1.0, 1.0, rows * width).reshape(rows, width)


def rule_graph():
    """Three nodes of 2-wide features and 3-wide pseudo inputs, labels 0, 1 and 4, one edge."""
    g = NGGraph(good_block(3, 2), np.full((3, 2), EPS), good_block(3, 3), [0, 1, 4],
                np.ones(3, dtype=int), 200, EPS)
    g.ages[0, 1] = g.ages[1, 0] = 3
    return g


def grow_with(features, inputs):
    """Class 2 is good; class 3, grown after it, holds the block under test."""
    return lambda g: g.grow({2: (good_block(4, 2), good_block(4, 3)), 3: (features, inputs)},
                            k=1)


# Every graph method that takes features or inputs: the rows and width of a good
# block, the name its errors give, the message for a block of other row count (or
# None where any count is good), and the call with a block b.
RULE_CALLS = {
    "hebbian_update": (4, 2, "features", None, lambda g, b: g.hebbian_update(b, 0.3, 1.5)),
    "present": (4, 2, "features", None, lambda g, b: g.present(b, 0.3, 1.5)),
    "estimate_variances": (4, 2, "features", None, lambda g, b: g.estimate_variances(b)),
    "quantization_error": (4, 2, "features", None, lambda g, b: g.quantization_error(b)),
    "assign_pseudo_exemplars.features": (
        3, 2, "features", "features: {} feature rows for 3 inputs",
        lambda g, b: g.assign_pseudo_exemplars(good_block(3, 3), [0, 1, 2], b)),
    "assign_pseudo_exemplars.inputs": (
        3, 3, "inputs", None,
        lambda g, b: g.assign_pseudo_exemplars(b, [0, 1, 2], good_block(3, 2))),
    "grow.features": (4, 2, "class 3 shots' features", None,
                      lambda g, b: grow_with(b, good_block(4, 3))(g)),
    "grow.inputs": (4, 3, "class 3 shots' inputs",
                    "class 3 shots' inputs: {} input rows for 4 features",
                    lambda g, b: grow_with(good_block(4, 2), b)(g)),
    "refresh_anchors": (3, 2, "features", "features: {} feature rows for 3 nodes",
                        lambda g, b: g.refresh_anchors(b)),
}


def bad_block(kind, rows, width):
    """A block that breaks the array rule: a NaN, an inf, a wrong width, 1-D, or `kind` rows."""
    if isinstance(kind, int):
        return good_block(kind, width)
    if kind in ("nan", "inf"):
        block = good_block(rows, width)
        block[rows // 2, width - 1] = np.nan if kind == "nan" else -np.inf
        return block
    return good_block(rows, width + 1) if kind == "wide" else good_block(rows, width)[0]


RULE_CASES = [(call, kind) for call in RULE_CALLS for kind in ("nan", "inf", "wide", "1-D")]
RULE_CASES += [(call, rows) for call, (good, _, _, message, _) in RULE_CALLS.items()
               if message is not None for rows in sorted({1, good - 1, good + 1})]


@pytest.mark.parametrize("call, kind", RULE_CASES, ids=[f"{c}-{k}" for c, k in RULE_CASES])
def test_graph_methods_refuse_a_bad_block(call, kind):
    """Each refuses the block with InputError and leaves the graph as it was."""
    rows, width, name, message, run = RULE_CALLS[call]
    g = rule_graph()
    text, ages = g.to_text(), g.ages.tobytes()
    if isinstance(kind, int):
        match = re.escape(message.format(kind))
    else:
        match = re.escape(f"{name} must be finite, 2-D and {width} wide")
    with pytest.raises(InputError, match="^" + match):
        run(g, bad_block(kind, rows, width))
    assert g.to_text() == text and g.ages.tobytes() == ages
    run(g, good_block(rows, width))  # the same call with a good block goes through


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
    for block in (1, 60, 1 << 14):  # screened blocks of 1 query row, a few, all
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


def test_screened_search_blocks_hold_at_most_screen_block_products(monkeypatch):
    rng = np.random.default_rng(0x5B)
    refs = np.round(rng.normal(size=(3000, 4)), 1)  # coarse values: near ties in every block
    queries = refs[rng.choice(len(refs), size=10)] + np.round(rng.normal(size=(10, 4)), 1) / 8
    expected = oracles.nearest(queries, refs)
    exact, blocks = neural_gas._exact_distances, {}
    # Rows per block: one (a row's 3000 products exceed the bound), then 5, all 10.
    for block in (1, 1 << 14, 3 * 10 ** 4):
        calls = []  # the screen computes exact distances once per block
        monkeypatch.setattr(neural_gas, "SCREEN_BLOCK", block)
        monkeypatch.setattr(neural_gas, "_exact_distances",
                            lambda f, r: calls.append(len(f)) or exact(f, r))
        index, dist = nearest(queries, refs)
        assert same_bits(index, expected[0]) and same_bits(dist, expected[1]), block
        blocks[block] = len(calls)
    assert blocks == {1: 10, 1 << 14: 2, 3 * 10 ** 4: 1}


def test_screened_search_memory_stays_within_the_product_bound():
    rng = np.random.default_rng(0x5C)
    refs, queries = rng.normal(size=(30000, 32)), rng.normal(size=(400, 32))
    tracemalloc.start()
    try:
        index, dist = nearest(queries, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Beyond the squared norms and the results: a block's products (8 bytes each) and
    # candidate mask (1 byte each), twice, since the last block's are freed only once
    # the next block's products exist, with room to spare.  A block as wide as 32
    # query rows would hold 7.7 MB of products alone.
    assert peak < 8 * (len(refs) + 3 * len(queries)) + 24 * neural_gas.SCREEN_BLOCK
    expected = oracles.nearest(queries, refs)
    assert same_bits(index, expected[0]) and same_bits(dist, expected[1])


def screened_refs_case(case):
    """(queries, refs) for the screened search: each query has many candidates, or few."""
    rng = np.random.default_rng([0x5D, len(case)])
    queries, refs = rng.normal(size=(50, 4)), rng.normal(size=(40, 4))
    if case == "tied":  # every ref is a candidate of every query
        refs = np.ones((40, 4))
    elif case == "duplicated":
        refs = refs[rng.integers(0, 5, size=40)]
        queries[:10] = refs[:10]
    elif case == "huge_norms":  # squared norms near 1e299, still below SCREEN_NORM_LIMIT
        queries, refs = queries * 1e149, refs * 1e149
    return queries, refs


@pytest.mark.parametrize("case", ["random", "tied", "duplicated", "huge_norms"])
@pytest.mark.parametrize("chunk", [1, 3, 7, 64, 500])
def test_screened_search_in_chunks_equals_the_unscreened_search(case, chunk, monkeypatch):
    queries, refs = screened_refs_case(case)
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", NEVER)
    unscreened = nearest(queries, refs)
    screened, exact = neural_gas._nearest_screened, neural_gas._exact_distances
    screens, sizes = [], []
    monkeypatch.setattr(neural_gas, "_nearest_screened",
                        lambda *args: screens.append(1) or screened(*args))
    monkeypatch.setattr(neural_gas, "_exact_distances",
                        lambda f, r: sizes.append(len(f)) or exact(f, r))
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", chunk)
    for block in (1, 60, neural_gas.SCREEN_BLOCK):
        monkeypatch.setattr(neural_gas, "SCREEN_BLOCK", block)
        screens.clear()
        sizes.clear()
        index, dist = nearest(queries, refs)
        assert same_bits(index, unscreened[0]) and same_bits(dist, unscreened[1])
        # The screen ran, and no call computed more than one chunk of exact distances.
        assert screens == [1] and 0 < max(sizes) <= chunk
    if case == "tied":
        assert not index.any()


def test_screened_search_memory_stays_bounded_when_every_ref_ties():
    rng = np.random.default_rng(0x5E)
    queries, refs = rng.normal(size=(5000, 32)), np.ones((400, 32))
    tracemalloc.start()
    try:
        index, dist = nearest(queries, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not index.any()
    assert same_bits(dist, np.linalg.norm(queries - 1.0, axis=1))
    # Beyond the squared norms and the results: a block's products and mask, its
    # candidates as flat, row and ref indices (8 bytes each), and the paired rows,
    # differences and squares of one chunk of NEAREST_BLOCK candidates.  All of a
    # block's candidates at once would hold 134 MB.
    assert peak < (8 * (len(refs) + 3 * len(queries)) + 40 * neural_gas.SCREEN_BLOCK
                   + 40 * neural_gas.NEAREST_BLOCK * queries.shape[1])


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
        g.assign_pseudo_exemplars(feats, labels, feats)
        return g.variances, qe, g.pseudo_inputs, g.labels

    default = run()
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", block)
    for a, b in zip(default, run()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("block", [0, 1, 3, 17, 1 << 16])
def test_max_distance_matches_full_pairwise_array(monkeypatch, block):
    monkeypatch.setattr(neural_gas, "NEAREST_BLOCK", block)
    for seed in range(3):
        points = np.vstack([tie_heavy_points(seed)[1],
                            np.random.default_rng(seed).normal(size=(12, 2))])
        full = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2).max()
        assert same_bits(max_distance(points), float(full))


def farthest_pair_case(name):
    """Points for one farthest-pair case; the squared norms of the last three
    reach SCREEN_NORM_LIMIT, and those of the last overflow."""
    rng = np.random.default_rng([0xFA2, len(name)])
    random = rng.normal(size=(60, 5))
    grid = rng.integers(-2, 3, size=(40, 3)) / 2.0
    return {
        "random": random,
        "paper_shape": rng.normal(size=(405, 32)) * 3.0,
        "duplicated": np.vstack([random[:10]] * 6),
        "tied_max": np.vstack([grid, [[9.0, 0.0, 0.0], [-9.0, 0.0, 0.0],
                                      [0.0, 9.0, 0.0], [0.0, -9.0, 0.0]]]),
        "one_point": random[:1],
        "all_equal": np.ones((30, 4)),
        "signed_zeros": np.where(grid == 0.0, -0.0, grid),
        "far_from_origin": 1e6 + random[:40] * 1e-3,  # products lose every distance
        "large": random * 1e150,
        "tiny": random * 1e-300,
        "huge_norms": random * 2.0 ** 501,
        "one_huge": np.vstack([random, random[:1] * 2.0 ** 501]),
        "overflowing_norms": 2.0 ** 515 + grid * 2.0 ** 500,
    }[name]


@pytest.mark.parametrize("block", [1, 7, neural_gas.SCREEN_BLOCK])
@pytest.mark.parametrize("case", ["random", "paper_shape", "duplicated", "tied_max", "one_point",
                                  "all_equal", "signed_zeros", "far_from_origin", "large", "tiny",
                                  "huge_norms", "one_huge", "overflowing_norms"])
def test_max_distance_equals_the_pairwise_oracle_bit_for_bit(monkeypatch, case, block):
    monkeypatch.setattr(neural_gas, "SCREEN_BLOCK", block)
    points = farthest_pair_case(case)
    assert same_bits(max_distance(points), oracles.max_distance(points))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_max_distance_fuzz_matches_the_pairwise_oracle(data):
    dim = data.draw(st.integers(1, 4), label="dim")
    grid = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    values = st.one_of(grid, st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))
    scale = data.draw(st.sampled_from([1.0, 1e-200, 1e150, 1e8, 2.0 ** 501]), label="scale")
    drawn = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                               min_size=1, max_size=14))
    points = np.array(drawn) * scale
    settings_ = {"NEAREST_BLOCK": data.draw(st.integers(1, 40), label="nearest_block"),
                 "SCREEN_BLOCK": data.draw(st.integers(1, 40), label="screen_block")}
    with mock.patch.multiple(neural_gas, **settings_):
        farthest = max_distance(points)
    assert same_bits(farthest, oracles.max_distance(points))


def test_max_distance_computes_exact_distances_for_few_pairs(monkeypatch):
    exact, pairs = neural_gas._exact_distances, []

    def counting(f, refs):
        pairs.append(len(f))
        return exact(f, refs)

    monkeypatch.setattr(neural_gas, "_exact_distances", counting)
    points = farthest_pair_case("paper_shape")
    assert same_bits(max_distance(points), oracles.max_distance(points))
    assert 0 < sum(pairs) < len(points)  # of 405 x 405 pairs
    pairs.clear()
    points = farthest_pair_case("huge_norms")
    assert same_bits(max_distance(points), oracles.max_distance(points))
    assert sum(pairs) == len(points) ** 2  # too large to screen: every pair


def test_max_distance_memory_stays_bounded_when_every_pair_is_a_candidate():
    points = np.ones((1000, 32))  # every pair ties, so the screen rules none out
    tracemalloc.start()
    try:
        farthest = max_distance(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(farthest, 0.0)
    # Beyond the squared norms: a block's products and mask, its candidate pairs as
    # flat, row and column indices (8 bytes each), and the paired rows, differences
    # and squares of one chunk of NEAREST_BLOCK pairs.  All of one block's candidate
    # pairs at once would hold 134 MB.
    assert peak < (8 * len(points) + 40 * neural_gas.SCREEN_BLOCK
                   + 40 * neural_gas.NEAREST_BLOCK * points.shape[1])


# -- serialization ----------------------------------------------------------------

def random_trained_graph(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(40, 3))
    g = init_graph(feats, feats, rng.integers(0, 5, size=40), 8, 50, EPS, seed)
    train_on_features(g, feats, 0.2, 1.0, passes=2, seed=seed)
    g.assign_pseudo_exemplars(list(feats), rng.integers(0, 5, size=40), feats)
    g.estimate_variances(feats)
    return g


def test_serialization_round_trip_is_exact():
    g = random_trained_graph(11)
    h = NGGraph.from_text(g.to_text())
    assert np.array_equal(g.centroids, h.centroids)
    assert np.array_equal(g.variances, h.variances)
    assert np.array_equal(g.labels, h.labels)
    assert np.array_equal(g.origins, h.origins)
    assert np.array_equal(g.ages, h.ages)
    assert g.lifetime == h.lifetime and g.session == h.session
    assert g.eps_var == h.eps_var
    assert np.array_equal(g.pseudo_inputs, h.pseudo_inputs)


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
    "edge_age_zero": (
        set_line("edges ", lambda old: old.rsplit(" ", 1)[0] + " 0", offset=1), "age 0 is below 1"),
    "edge_age_above_lifetime": (
        set_line("edges ", lambda old: old.rsplit(" ", 1)[0] + " 51", offset=1), "lifetime"),
    "edge_count_too_high": (set_line("edges ", "edges 99"), "expected 3 values"),
    "negative_edge_count": (set_line("edges ", "edges -1"), "negative edge count"),
    "ragged_centroid": (set_line("m ", "m 0.5 0.5", nth=1), "expected 3 values"),
    "ragged_pseudo_input": (set_line("z ", "z 0.5 0.5", nth=2), "expected 3 values"),
    "missing_first_pseudo_input": (set_line("z ", "z -"), "float values"),
    "missing_pseudo_input": (set_line("z ", "z -", nth=1), "expected 3 values"),
    "non_integer_node_count": (set_line("nodes ", "nodes 8.5"), "int values"),
    "non_integer_label": (set_line("node 1 ", "node 1 label x origin 1"), "int values"),
    "wrong_node_index": (set_line("node 1 ", "node 7 label 0 origin 1"), "node 1 label"),
    "non_finite_centroid": (set_line("m ", "m nan 0.5 0.5"), "non-finite"),
    "negative_variance": (set_line("var ", "var -1.0 0.5 0.5"), "below the floor"),
    "zero_nodes": (lambda lines: lines[:4] + ["nodes 0", "edges 0"], "at least one node"),
    "no_feature_column": (lambda lines: [line.split()[0] if line.startswith(("m ", "var "))
                                         else line for line in lines], "at least one node"),
    "no_pseudo_input_column": (lambda lines: ["z" if line.startswith("z ") else line
                                              for line in lines], "at least one node"),
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
    "eps_var_zero": (set_line("eps_var ", "eps_var 0.0"), "finite reciprocal"),
    "eps_var_negative": (set_line("eps_var ", "eps_var -1.0"), "finite reciprocal"),
    "eps_var_nan": (set_line("eps_var ", "eps_var nan"), "eps_var nan is not finite"),
    "eps_var_inf": (set_line("eps_var ", "eps_var inf"), "eps_var inf is not finite"),
    "eps_var_reciprocal_overflows": (set_line("eps_var ", "eps_var 1e-320"),
                                     "finite reciprocal"),
    "session_zero": (set_line("session ", "session 0"), "session 0 or an origin is outside"),
    "origin_below_one": (
        set_line("node 1 ", lambda old: old.rsplit(" ", 1)[0] + " -4"), "an origin is outside"),
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


@pytest.mark.parametrize("age", [201, 300])
def test_from_text_rejects_an_edge_age_above_the_lifetime_before_storing_it(age):
    # 300 does not fit the uint8 ages of lifetime 200, 201 does: both are refused alike.
    g = graph_from_centroids(np.zeros((3, 2)), lifetime=200)
    g.edge_update(0, 1)
    text = g.to_text()
    assert text.endswith("edges 1\n0 1 1\n")
    with pytest.raises(InputError, match=f"edge age {age} is above the lifetime 200"):
        NGGraph.from_text(text.replace("0 1 1\n", f"0 1 {age}\n"))


# Number words as an int and as a float, and whether they are plain: to_text's
# own words, which the config parser and the checkpoint parser accept alike.
NUMBER_WORDS = [(word, int, word in ("10", "-3"))
                for word in ("1_0", "\u0661", "+5", "0x10", "1e3", "2.5", "10", "-3")] + [
                (word, float, word in ("+5", "1e3", "2.5"))
                for word in ("1_0", "\u0661", "+5", "0x10", "1e3", "2.5")]


@pytest.mark.parametrize("word, kind, plain", NUMBER_WORDS)
def test_configs_and_checkpoints_read_number_words_alike(word, kind, plain):
    """An int word is a config's `shot` and node 1's label; a float word is the
    config's `cluster_spread` and node 0's first centroid value."""
    key = "shot" if kind is int else "cluster_spread"
    try:
        from_config = getattr(parse_config(f"{key} = {word}\n"), key)
    except ConfigError:
        from_config = None
    if kind is int:
        mutate = set_line("node 1 ", f"node 1 label {word} origin 1")
    else:
        mutate = set_line("m ", lambda old: f"m {word} " + old.split(" ", 2)[2])
    lines = mutate(random_trained_graph(13).to_text().splitlines())
    try:
        g = NGGraph.from_text("\n".join(lines) + "\n")
        from_checkpoint = g.labels[1] if kind is int else g.centroids[0, 0]
    except InputError:
        from_checkpoint = None
    assert from_config == from_checkpoint and (from_config is not None) == plain


def test_save_and_load_files(tmp_path):
    g = random_trained_graph(12)
    path = tmp_path / "checkpoint.ngtxt"
    g.save(path)
    h = NGGraph.load(path)
    assert np.array_equal(g.centroids, h.centroids)


def test_an_earlier_desk_sweep_checkpoint_loads_unchanged():
    """desk_sweep's topic_al_mml checkpoint of seed 1, session 5 (48 nodes, 89
    edges), as an earlier version of the graph, with an edge matrix beside the
    ages, wrote it: it loads, re-emits its bytes, and every unlisted pair has age 0."""
    path = Path(__file__).parent / "data" / "topic_al_mml_1_5.ngtxt"
    text = path.read_bytes().decode("utf-8")
    g = NGGraph.load(path)
    assert g.to_text() == text
    lines = text.splitlines()
    start = lines.index("edges 89") + 1
    expected = np.zeros((48, 48), dtype=neural_gas.age_dtype(g.lifetime))
    for line in lines[start:]:
        i, j, age = map(int, line.split())
        expected[i, j] = expected[j, i] = age
    assert len(lines) == start + 89 and same_bits(g.ages, expected)

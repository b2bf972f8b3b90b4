"""Property tests for the structural invariants the algorithms rely on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import softmax_cross_entropy
from topogas import (InputError, NGGraph, expand_output_layer, forward_batch,
                     init_params, make_synthetic_stream, softmax)
from topogas.neural_gas import _exact_distances, _exact_order

FAST = settings(max_examples=40, deadline=None)


def finite_floats(width):
    return st.lists(st.floats(-50, 50, allow_nan=False), min_size=width,
                    max_size=width)


@given(finite_floats(6))
@FAST
def test_softmax_sums_to_one_for_any_finite_logits(logits):
    p = softmax(np.array(logits))
    assert abs(float(p.sum()) - 1.0) < 1e-9
    assert np.all(p >= 0.0)


@given(finite_floats(5), st.integers(0, 4))
@FAST
def test_cross_entropy_is_nonnegative(logits, y):
    loss, _ = softmax_cross_entropy(np.array(logits), y)
    assert loss >= 0.0


@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
@FAST
def test_ranking_is_a_valid_sorted_permutation(n_nodes, seed):
    rng = np.random.default_rng(seed)
    g = NGGraph(rng.normal(size=(n_nodes, 3)), np.full((n_nodes, 3), 1e-6),
                np.zeros((n_nodes, 3)), np.zeros(n_nodes, dtype=int),
                np.ones(n_nodes, dtype=int), 10, 1e-6)
    f = rng.normal(size=3)
    order = _exact_order(f, g.centroids)
    assert sorted(order.tolist()) == list(range(n_nodes))
    assert np.all(np.diff(_exact_distances(f, g.centroids)[order]) >= 0.0)


@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
@FAST
def test_edge_and_age_symmetry_survives_random_update_sequences(n_nodes, seed,
                                                                lifetime):
    rng = np.random.default_rng(seed)
    g = NGGraph(rng.normal(size=(n_nodes, 2)), np.full((n_nodes, 2), 1e-6),
                np.zeros((n_nodes, 2)), np.zeros(n_nodes, dtype=int),
                np.ones(n_nodes, dtype=int), lifetime, 1e-6)
    for _ in range(30):
        g.edge_update(*g.hebbian_update(rng.normal(size=(1, 2)), eta=0.3, alpha=1.0))
    g.check_invariants()  # symmetry, zero diagonal, lifetime bound
    assert g.ages.max() <= lifetime


@given(st.integers(0, 2 ** 31 - 1))
@FAST
def test_hebbian_zero_rate_limit_is_identity_on_centroids(seed):
    rng = np.random.default_rng(seed)
    g = NGGraph(rng.normal(size=(5, 2)), np.full((5, 2), 1e-6), np.zeros((5, 2)),
                np.zeros(5, dtype=int), np.ones(5, dtype=int), 10, 1e-6)
    before = g.centroids.copy()
    g.hebbian_update(rng.normal(size=(1, 2)), eta=1e-300, alpha=1.0)
    assert np.array_equal(g.centroids, before)


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 1.0), st.floats(0.2, 5.0))
@FAST
def test_hebbian_contracts_the_winner(seed, eta, alpha):
    rng = np.random.default_rng(seed)
    g = NGGraph(rng.normal(size=(4, 3)), np.full((4, 3), 1e-6), np.zeros((4, 3)),
                np.zeros(4, dtype=int), np.ones(4, dtype=int), 10, 1e-6)
    f = rng.normal(size=3)
    before = g.centroids.copy()
    (w,), _ = g.hebbian_update(f[None], eta=eta, alpha=alpha)
    if not np.allclose(before[w], f):
        assert (np.linalg.norm(g.centroids[w] - f)
                < np.linalg.norm(before[w] - f))


@given(st.integers(0, 500), st.integers(1, 3), st.integers(1, 2))
@FAST
def test_grow_adds_exactly_k_nodes_per_class(seed, n_classes, k):
    rng = np.random.default_rng(seed)
    # Features of width 2 from inputs of width 4.
    g = NGGraph(rng.normal(size=(3, 2)), np.full((3, 2), 1e-6), np.zeros((3, 4)),
                np.arange(3), np.ones(3, dtype=int), 10, 1e-6)
    samples = {100 + c: (rng.normal(size=(5, 2)), rng.normal(size=(5, 4)))
               for c in range(n_classes)}
    before = g.centroids.copy()
    g.grow(samples, k=k, seed=seed)
    assert len(g) == 3 + k * n_classes
    assert np.array_equal(g.centroids[:3], before)


@given(st.integers(0, 2 ** 31 - 1))
@FAST
def test_stream_label_sets_disjoint_and_session_sized(seed):
    stream = make_synthetic_stream(4, 4, 2, 3, 6, 0.5, 10, 5, seed)
    seen = set()
    for s in stream.sessions:
        labels = set(s.labels)
        assert not labels & seen
        seen |= labels
    assert seen == set(range(8))


def test_classifier_width_tracks_cumulative_label_count():
    params = init_params(6, 8, 4, 10, seed=0)
    widths = [params.class_count]
    for t in range(4):
        params = expand_output_layer(params, 2, seed=t)
        widths.append(params.class_count)
    assert widths == [10, 12, 14, 16, 18]


@given(st.integers(0, 2 ** 31 - 1))
@FAST
def test_expansion_never_changes_old_logits(seed):
    rng = np.random.default_rng(seed)
    params = init_params(5, 7, 4, 6, seed=seed)
    grown = expand_output_layer(params, 3, seed=seed + 1)
    x = rng.normal(size=(4, 5))
    assert np.array_equal(forward_batch(x, params)[1],
                          forward_batch(x, grown)[1][:, :6])


# -- checkpoint fuzz ------------------------------------------------------------------

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def checkpoint_graphs(draw):
    """Any graph a checkpoint can hold: finite floats, int64 fields, sessions and origins
    from 1, no origin after the session, a floor with a finite reciprocal, live edges only."""
    n, dim, z_dim = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    session = draw(st.integers(1, 2 ** 63 - 1))
    eps_var = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                   .filter(lambda v: math.isfinite(1.0 / v)))
    lifetime = draw(st.integers(1, 2 ** 63 - 2))
    vectors = lambda width, elements=FINITE: st.lists(elements, min_size=width,
                                                       max_size=width).map(np.array)
    ages = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            age = draw(st.none() | st.integers(1, lifetime))  # None: no edge
            ages[i, j] = ages[j, i] = age or 0
    return NGGraph(np.array(draw(st.lists(vectors(dim), min_size=n, max_size=n))),
                   np.array(draw(st.lists(vectors(dim, st.floats(eps_var, allow_infinity=False)),
                                          min_size=n, max_size=n))),
                   np.array(draw(st.lists(vectors(z_dim), min_size=n, max_size=n))),
                   np.array(draw(st.lists(INT64, min_size=n, max_size=n))),
                   np.array(draw(st.lists(st.integers(1, session), min_size=n,
                                          max_size=n))),
                   lifetime, eps_var, session, ages=ages)


@given(checkpoint_graphs())
@settings(max_examples=50, deadline=None)
def test_random_checkpoints_round_trip_exactly(g):
    text = g.to_text()
    h = NGGraph.from_text(text)
    assert h.to_text() == text
    for name in ("centroids", "variances", "pseudo_inputs", "labels", "origins", "ages"):
        assert np.array_equal(getattr(g, name), getattr(h, name)), name
    assert (h.lifetime, h.session, h.eps_var) == (g.lifetime, g.session, g.eps_var)


# Hypothesis draws the first entry of a sampled_from most often, so the
# "number" edit leads the edits below, and the three words that int() and
# float() read but to_text never writes lead NUMBERS.
NUMBERS = ["1_0", "\u0661", "1_0.0", "0", "1", "-1", "0.5", "-0.0", "nan", "inf", "-inf",
           "1e309", "1e-320", "9223372036854775807", "9223372036854775808",
           "-9223372036854775809"]
WORDS = ["x", "-", "node", "label", "origin", "m", "var", "z", "edges"]
TOKENS = (st.sampled_from(NUMBERS) | st.integers().map(str) | st.sampled_from(WORDS)
          | st.text(max_size=4))


def is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


@given(checkpoint_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_checkpoints_raise_only_input_error(g, data):
    lines = g.to_text().splitlines()
    edit = data.draw(st.sampled_from(["number", "word", "word", "word", "drop", "repeat",
                                      "swap", "char"]))
    if edit == "word":  # replace a word anywhere in the text, or append one to a line
        spots = [(i, k) for i, line in enumerate(lines) for k in range(len(line.split()) + 1)]
        i, k = data.draw(st.sampled_from(spots))
        words = lines[i].split()
        words[k:k + 1] = [data.draw(TOKENS)]
        lines[i] = " ".join(words)
    elif edit == "number":  # put a NUMBERS token into a numeric slot
        spots = [(i, k) for i, line in enumerate(lines)
                 for k, word in enumerate(line.split()) if is_number(word)]
        i, k = data.draw(st.sampled_from(spots))
        words = lines[i].split()
        words[k] = data.draw(st.sampled_from(NUMBERS))
        lines[i] = " ".join(words)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + data.draw(st.characters()) + lines[i][at + 1:]
    text = "\n".join(lines) + "\n"
    try:
        NGGraph.from_text(text)
    except InputError:
        return
    # to_text writes numbers in ASCII without "_"; int() and float() read more.
    numbers = [word for word in text.split() if any(c.isdigit() for c in word)]
    assert all(word.isascii() and "_" not in word for word in numbers)

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import confusion_matrix
from topogas import (METHODS, ConfigError, DivergenceError, HyperParams, InputError,
                     ModelParams, NGGraph, SessionStream, evaluate_joint, expand_output_layer,
                     forward, forward_batch, init_params, make_synthetic_stream, parse_config,
                     plan_session, run_method, sgd_step, total_loss, train_base_session,
                     train_incremental_session, xi_heuristic)
from topogas import protocol
from topogas.feature_model import row_blocks
from topogas.losses import anchor_loss
from topogas.protocol import (BASE_BATCH_SIZE, RUNNABLE_METHODS, _balanced_union,
                              _train_cross_entropy)

DESK = dict(base_classes=10, new_classes=8, way=2, shot=5, input_dim=16,
            cluster_spread=0.55, train_per_base=100, test_per_class=100)


def desk_stream(seed):
    return make_synthetic_stream(seed=seed, **DESK)


def small_hp(**overrides):
    defaults = dict(base_epochs=15, inc_epochs=40, node_budget=20, ng_passes=2)
    defaults.update(overrides)
    return HyperParams(**defaults)


# -- stream construction ----------------------------------------------------------

def test_desk_default_session_arithmetic():
    stream = desk_stream(0)
    assert len(stream) == 5
    assert [len(stream.cumulative_labels(t)) for t in range(1, 6)] == [10, 12, 14, 16, 18]
    for t in range(2, 6):
        s = stream.session(t)
        assert len(s.labels) == 2
        assert s.train_x.shape == (10, 16)
        for label in s.labels:
            assert int(np.sum(s.train_y == label)) == 5


def test_paper_shaped_split_has_nine_sessions():
    stream = make_synthetic_stream(60, 40, 5, 5, 8, 0.5, 5, 2, seed=0)
    assert len(stream) == 9
    assert len(stream.cumulative_labels(9)) == 100


def test_stream_label_sets_are_disjoint():
    stream = desk_stream(1)
    seen = set()
    for s in stream.sessions:
        labels = set(s.labels)
        assert not labels & seen
        seen |= labels
        assert set(np.unique(s.train_y)) == labels
        assert set(np.unique(s.test_y)) == labels


def test_stream_is_byte_identical_under_seed():
    a, b = desk_stream(7), desk_stream(7)
    for sa, sb in zip(a.sessions, b.sessions):
        assert sa.train_x.tobytes() == sb.train_x.tobytes()
        assert sa.test_x.tobytes() == sb.test_x.tobytes()
        assert sa.train_y.tobytes() == sb.train_y.tobytes()
    c = desk_stream(8)
    assert a.sessions[0].train_x.tobytes() != c.sessions[0].train_x.tobytes()


def test_stream_rejects_bad_divisibility():
    with pytest.raises(InputError):
        make_synthetic_stream(10, 7, 2, 5, 16, 0.5, 100, 100, seed=0)
    # -2 divides by way = 2, yet would list labels 10 and 11, which have no rows;
    # 0 is a base-only stream.
    with pytest.raises(InputError, match="new_classes=-2 is negative"):
        make_synthetic_stream(seed=0, **dict(DESK, new_classes=-2))
    assert len(make_synthetic_stream(seed=0, **STREAM_SHAPES[1])) == 1


@pytest.mark.parametrize("spread", [0.0, -0.5, math.nan, math.inf])
def test_stream_rejects_a_cluster_spread_the_config_gate_refuses(spread):
    with pytest.raises(ConfigError, match="cluster_spread"):
        parse_config(f"cluster_spread = {spread}").validate()
    with pytest.raises(InputError, match="cluster_spread must be positive and finite"):
        make_synthetic_stream(seed=0, **dict(DESK, cluster_spread=spread))


def test_stream_rejects_negative_seed():
    with pytest.raises(InputError, match="seed"):
        make_synthetic_stream(seed=-1, **DESK)


@pytest.mark.parametrize("size", ["input_dim", "train_per_base", "test_per_class"])
def test_stream_rejects_a_size_that_is_not_positive(size):
    with pytest.raises(InputError, match=size):
        make_synthetic_stream(seed=0, **{**DESK, size: 0})


@pytest.mark.parametrize("t", [0, -1, 6])
def test_session_accessor_rejects_an_index_outside_the_stream(t):
    stream = desk_stream(0)
    assert [stream.session(i).index for i in (1, 5)] == [1, 5]
    with pytest.raises(InputError, match=r"outside 1\.\.5"):
        stream.session(t)


@pytest.mark.parametrize("upto", [0, -1, 6])
def test_evaluation_rejects_a_session_outside_the_stream_before_its_forward_pass(
        upto, monkeypatch):
    stream, params = desk_stream(0), init_params(16, 32, 8, 18, seed=0)
    monkeypatch.setattr(protocol, "extract_features", lambda *args: pytest.fail("forward pass"))
    with pytest.raises(InputError, match=r"outside 1\.\.5"):
        evaluate_joint(params, stream, upto)


STREAM_SHAPES = [dict(DESK), dict(DESK, base_classes=3, new_classes=0, way=1),
                 dict(base_classes=6, new_classes=6, way=3, shot=2, input_dim=5,
                      cluster_spread=2.0, train_per_base=7, test_per_class=1),
                 dict(base_classes=60, new_classes=40, way=5, shot=5, input_dim=64,
                      cluster_spread=0.5, train_per_base=200, test_per_class=100)]


@pytest.mark.parametrize("shape", STREAM_SHAPES, ids=["desk", "base_only", "odd", "paper"])
def test_stream_equals_the_stacked_pool_oracle_byte_for_byte(shape):
    stream = make_synthetic_stream(seed=4, **shape)
    want = oracles.synthetic_stream_sessions(seed=4, **shape)
    assert len(stream) == len(want)
    for s, (labels, *arrays) in zip(stream.sessions, want):
        assert s.labels == labels
        got = (s.train_x, s.train_y, s.test_x, s.test_y)
        for a, b in zip(got, arrays):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for upto in range(1, len(stream) + 1):
        for split, pick in ((stream.cumulative_train(upto), (1, 2)),
                            (stream.cumulative_test(upto), (3, 4))):
            for got, i in zip(split, pick):
                b = np.concatenate([w[i] for w in want[:upto]])
                assert got.shape == b.shape and got.tobytes() == b.tobytes()


def test_session_arrays_are_read_only_views_of_one_array_per_split():
    stream = desk_stream(2)
    for (x, y), name in ((stream.train, "train"), (stream.test, "test")):
        prefix = getattr(stream, f"cumulative_{name}")(3)
        for s in stream.sessions:
            views = (getattr(s, f"{name}_x"), getattr(s, f"{name}_y")) + prefix
            for view, whole in zip(views, (x, y, x, y)):
                assert np.shares_memory(view, whole)
                assert not view.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    view[0] = 0


def test_stream_from_splits_rejects_rows_out_of_session_order_or_in_no_session():
    x, y = np.zeros((4, 2)), np.array([0, 2, 1, 3])
    with pytest.raises(InputError, match="train rows are not grouped by session"):
        SessionStream.from_splits([[0, 1], [2, 3]], (x, y), (x.copy(), np.sort(y)))
    with pytest.raises(InputError, match="test has 4 inputs and 4 labels, 3 of them"):
        SessionStream.from_splits([[0, 1], [2]], (x, np.array([0, 1, 2, 2])),
                                  (x.copy(), np.arange(4)))
    # A non-finite input, in either split, is refused before any training.
    for split, value in (("train", np.nan), ("test", np.inf), ("test", -np.inf)):
        splits = {"train": (x.copy(), np.arange(4)), "test": (x.copy(), np.arange(4))}
        splits[split][0][2, 1] = value
        with pytest.raises(InputError, match=f"^{split} inputs hold a non-finite value"):
            SessionStream.from_splits([[0, 1], [2, 3]], splits["train"], splits["test"])


@pytest.mark.parametrize("labels, session", [([[0, 1, 2, 2], [3], [4]], 1),  # a repeat
                                             ([[0, 2], [1]], 1),  # a gap
                                             ([[1, 0], [2, 4], [3]], 2),  # a skip
                                             ([[0, 1], [2], []], 3)],  # no class
                         ids=["repeat", "gap", "skip", "empty"])
def test_stream_from_splits_refuses_labels_that_are_not_the_next_class_ids(labels, session):
    # A label is its class's head column, so a repeated or skipped id is never scored,
    # and a session of no class would fail only once the sessions before it are trained.
    x, y = np.zeros((5, 2)), np.arange(5)
    with pytest.raises(InputError, match=f"^session {session} has labels "
                                         + re.escape(str(labels[session - 1]))):
        SessionStream.from_splits(labels, (x, y), (x.copy(), y.copy()))


def test_stream_from_splits_takes_a_session_s_class_ids_in_any_order():
    x, y = np.zeros((5, 2)), np.array([1, 0, 1, 3, 2])
    stream = SessionStream.from_splits([[1, 0], [3, 2]], (x, y), (x.copy(), y.copy()))
    assert [s.labels for s in stream.sessions] == [[1, 0], [3, 2]]
    assert stream.session(2).train_y.tolist() == [3, 2]
    assert stream.cumulative_labels(2) == [1, 0, 3, 2]


# -- base session ------------------------------------------------------------------

def test_base_session_reaches_high_accuracy_over_seeds():
    accs = []
    for seed in range(10):
        stream = desk_stream(seed)
        params, _ = train_base_session(stream, HyperParams(), seed)
        accs.append(evaluate_joint(params, stream, 1).joint_acc)
    assert all(a >= 0.9 for a in accs)


def test_untrained_model_sits_at_chance_level():
    from topogas import init_params
    stream = desk_stream(3)
    params = init_params(16, 32, 8, 10, seed=3)
    acc = evaluate_joint(params, stream, 1).joint_acc
    assert acc < 0.3  # chance is 1/10


def test_base_graph_labels_are_base_classes():
    stream = desk_stream(2)
    hp = small_hp()
    _, graph = train_base_session(stream, hp, 2)
    assert set(graph.labels.tolist()) <= set(stream.session(1).labels)
    assert len(graph) == hp.node_budget
    assert graph.pseudo_inputs.shape == (hp.node_budget, stream.input_dim)
    graph.check_invariants()


# -- incremental sessions --------------------------------------------------------

def test_incremental_expands_classifier_and_grows_graph():
    stream = desk_stream(4)
    hp = small_hp()
    params, graph = train_base_session(stream, hp, 4)
    assert params.class_count == 10
    params, graph = train_incremental_session(params, graph, stream.session(2),
                                              hp, "topic_al_mml", None, 4)
    assert params.class_count == 12
    assert len(graph) == hp.node_budget + 2
    assert graph.session == 2
    params, graph = train_incremental_session(params, graph, stream.session(3),
                                              hp, "topic_al_mml", None, 4)
    assert params.class_count == 14
    assert len(graph) == hp.node_budget + 4
    graph.check_invariants()


def test_base_graph_encodes_the_base_rows_once(monkeypatch):
    stream = desk_stream(4)
    hp = small_hp(base_epochs=2)
    params, _ = train_base_session(stream, hp, 4, fit_graph=False)
    want = protocol.fit_base_graph(params, stream, hp, 4).to_text()
    encoded, encode = [], protocol.extract_features

    def counting(p, x):
        encoded.append(len(x))
        return encode(p, x)

    monkeypatch.setattr(protocol, "extract_features", counting)
    got = protocol.fit_base_graph(params, stream, hp, 4).to_text()
    assert encoded == [len(stream.session(1).train_x), hp.node_budget]
    assert got == want


def test_base_features_that_are_not_finite_diverge_before_the_graph_starts(monkeypatch):
    stream = desk_stream(0)
    params = init_params(16, 32, 8, 10, seed=0)
    params.b2[3] = np.nan
    monkeypatch.setattr(protocol, "init_graph", lambda *a: pytest.fail("graph started"))
    with pytest.raises(DivergenceError, match="base session"):
        protocol.fit_base_graph(params, stream, small_hp(), 0)


@pytest.mark.parametrize("stage, t", [("shots", 2), ("anchors", 2), ("anchors", 1)])
def test_a_non_finite_encode_for_the_graph_diverges_naming_its_stage(monkeypatch, stage, t):
    """Every encode handed to the graph is checked, also those of a session's shots
    and of the pseudo inputs at an anchor refresh, which hold one row per node."""
    stream, hp = desk_stream(9), small_hp(base_epochs=3, inc_epochs=2, ng_passes=1)
    params, graph = train_base_session(stream, hp, 9)
    session, text, encode = stream.session(2), graph.to_text(), protocol.extract_features
    poisoned = {"shots": lambda x: len(x) == 5,  # one class's shots of a 2-way 5-shot session
                "anchors": lambda x: len(x) == (len(graph) if t == 2 else hp.node_budget)}[stage]

    def encode_with_a_nan_row(p, x):
        feats = encode(p, x)
        if poisoned(x):
            feats[-1, 0] = np.nan
        return feats

    monkeypatch.setattr(protocol, "extract_features", encode_with_a_nan_row)
    with pytest.raises(DivergenceError, match=f"^non-finite features of the {stage} at session {t}$"):
        if t == 1:
            protocol.fit_base_graph(params, stream, hp, 9)
        else:
            train_incremental_session(params, graph, session, hp, "topic_al", None, 9)
    if stage == "shots":
        assert graph.to_text() == text  # refused before the graph grows


def test_a_base_session_that_diverges_on_its_last_step_raises_divergence():
    stream = make_synthetic_stream(seed=0, **dict(DESK, train_per_base=10))
    hp = HyperParams(base_epochs=1, base_lr=1e300, node_budget=10)
    # With a graph to fit or without, the base session's training names its last step.
    for method in ("topic_al", "ft"):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="^non-finite loss during base session, "
                                                     "after its last step$"):
            run_method(stream, method, hp, 0)


def test_refreshed_anchors_are_exact():
    # Anchors are re-encoded by the same batch pass the losses use, so the
    # anchor loss right after a refresh is exactly zero, not merely tiny.
    from topogas.losses import _exemplar_anchor_loss
    stream = desk_stream(5)
    hp = small_hp(inc_epochs=5)
    params, graph = train_base_session(stream, hp, 5)
    assert anchor_loss(graph, np.arange(len(graph)), params)[0] == 0.0
    params, graph = train_incremental_session(params, graph, stream.session(2),
                                              hp, "topic_al_mml", None, 5)
    assert anchor_loss(graph, np.arange(len(graph)), params)[0] == 0.0
    # With params as the snapshot, the stored rows sit on their targets.
    assert _exemplar_anchor_loss(stream.session(1).train_x[::25], params, params)[0] == 0.0


def test_a_session_encodes_its_batch_once_per_step(monkeypatch):
    stream, hp = desk_stream(9), small_hp(base_epochs=3, inc_epochs=4, ng_passes=1)
    params, graph = train_base_session(stream, hp, 9)
    session = stream.session(2)
    encoded, encode = [], protocol.extract_features

    def counting(p, x):
        encoded.append(np.array_equal(x, session.train_x))
        return encode(p, x)

    monkeypatch.setattr(protocol, "extract_features", counting)
    params, graph = train_incremental_session(params, graph, session, hp, "topic_al_mml",
                                              None, 9)
    assert sum(encoded) == hp.inc_epochs
    # The new nodes' variances are those of the batch encoded under the final params.
    ref = NGGraph.from_text(graph.to_text())
    ref.estimate_variances(encode(params, session.train_x))
    assert ref.variances.tobytes() == graph.variances.tobytes()


@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_session_leaves_the_callers_params_unchanged(method):
    stream, hp = desk_stream(3), small_hp(base_epochs=2, inc_epochs=3, ng_passes=1)
    params, graph = train_base_session(stream, hp, 3)
    before = params.copy()
    stepped, _ = train_incremental_session(params, graph, stream.session(2), hp, method,
                                           stream.session(1).train_x[::25], 3)
    assert stepped.class_count == 12 and same_params(params, before)


def gradient_record(params, norm):
    """A gradient record shaped like params whose global norm is norm: 0, 3, exactly 10
    (a 6 and an 8), 40, inf or NaN."""
    rng = np.random.default_rng(5)
    grads = ModelParams(*(np.zeros_like(a) for a in params.arrays().values()))
    if norm in (3.0, 40.0):
        grads = ModelParams(*(rng.normal(size=a.shape) for a in params.arrays().values()))
        grads = ModelParams(*(a * (norm / grads.norm()) for a in grads.arrays().values()))
    elif norm == 10.0:
        grads.w1[0, 0], grads.phi[1, 2] = 6.0, 8.0
    elif norm != 0.0:
        grads.w2[:] = rng.normal(size=grads.w2.shape)
        grads.w2[1, 1] = norm
    return grads


@pytest.mark.parametrize("norm", [0.0, 3.0, 10.0, 40.0, math.inf, math.nan])
def test_an_incremental_step_equals_sgd_step_on_the_clipped_gradient(norm, monkeypatch):
    stream, hp = desk_stream(6), small_hp(inc_epochs=1)
    base = init_params(16, 32, 8, 10, seed=6)
    session = stream.session(2)
    expanded = expand_output_layer(base, len(session.labels), seed=6 * 1009 + 2)
    grads = gradient_record(expanded, norm)
    n = grads.norm()
    assert n == norm if norm in (0.0, 10.0, math.inf) else n == pytest.approx(norm, nan_ok=True)
    monkeypatch.setattr(protocol, "total_loss", lambda plan, p: (0.0, grads.copy()))
    with np.errstate(invalid="ignore"):  # inf * 0 when an infinite norm is scaled
        got, _ = train_incremental_session(base, None, session, hp, "ft", None, 6)
        want = sgd_step(expanded, oracles.clipped(grads, protocol.GRAD_CLIP_NORM), hp.inc_lr)
    assert same_params(got, want)


@pytest.mark.parametrize("method", ["topic_al", "ft"])
def test_a_session_without_steps_is_rejected_before_anything_changes(method):
    stream = desk_stream(3)
    params, graph = train_base_session(stream, small_hp(base_epochs=2, ng_passes=1), 3)
    text, before = graph.to_text(), params.copy()
    with pytest.raises(InputError, match="inc_epochs"):
        train_incremental_session(params, graph, stream.session(2), small_hp(inc_epochs=0),
                                  method, None, 3)
    assert graph.to_text() == text and same_params(params, before)


def test_finetuning_forgets_old_classes():
    for seed in range(3):
        stream = desk_stream(seed)
        metrics = run_method(stream, "ft", HyperParams(), seed)
        assert metrics[-1].old_acc < 0.3 * metrics[0].joint_acc


def test_topology_method_beats_finetuning_paired():
    for seed in range(3):
        stream = desk_stream(seed)
        ft = run_method(stream, "ft", HyperParams(), seed)
        ours = run_method(stream, "topic_al_mml", HyperParams(), seed)
        assert ours[-1].joint_acc > ft[-1].joint_acc


def test_huge_lambda1_freezes_old_knowledge_and_starves_new_classes():
    # Stress run: with an overwhelming anchor weight, training stays finite
    # (clipped steps) and the trade-off tips all the way to the old classes.
    stream = desk_stream(0)
    params, graph = train_base_session(stream, HyperParams(lambda1=1e6), 0)
    params, graph = train_incremental_session(params, graph, stream.session(2),
                                              HyperParams(lambda1=1e6),
                                              "topic_al", None, 0)
    stressed = evaluate_joint(params, stream, 2)

    params, graph = train_base_session(stream, HyperParams(), 0)
    params, graph = train_incremental_session(params, graph, stream.session(2),
                                              HyperParams(), "ft", None, 0)
    unanchored = evaluate_joint(params, stream, 2)

    assert stressed.old_acc >= 0.95
    assert stressed.old_acc > unanchored.old_acc + 0.2
    assert stressed.new_acc < 0.5 < unanchored.new_acc


# -- joint evaluation ------------------------------------------------------------

def onehot_stream():
    """Two sessions of one-hot test points in a 4-d input space."""
    test_x, test_y = np.repeat(np.eye(4), 3, axis=0), np.repeat(np.arange(4), 3)
    return SessionStream.from_splits([[0, 1], [2, 3]], (test_x.copy(), test_y.copy()),
                                     (test_x, test_y))


def identity_params(classes=4):
    # relu passes untouched for non-negative inputs; head picks the hot axis.
    return ModelParams(np.eye(4), np.zeros(4), np.eye(4), np.zeros(4),
                       np.eye(4)[:, :classes])


def test_perfect_classifier_gives_identity_confusion():
    metrics = evaluate_joint(identity_params(), onehot_stream(), 2)
    assert metrics.joint_acc == 1.0
    assert np.array_equal(metrics.confusion, np.eye(4))


def test_constant_predictor_scores_class_share():
    params = identity_params()
    params.phi = np.zeros((4, 4))
    params.phi[:, 2] = 1.0  # every logit except class 2 is zero
    metrics = evaluate_joint(params, onehot_stream(), 2)
    assert metrics.joint_acc == pytest.approx(3 / 12)
    assert np.all(metrics.confusion[:, 2] == 1.0)


def test_accuracy_recounts_from_confusion_diagonal():
    stream = desk_stream(5)
    params, _ = train_base_session(stream, small_hp(), 5)
    for upto in (1, 2):
        if upto == 2:
            params, _ = train_incremental_session(params, None, stream.session(2),
                                                  small_hp(), "ft", None, 5)
        m = evaluate_joint(params, stream, upto)
        counts = np.array([np.sum(stream.cumulative_test(upto)[1] == c)
                           for c in stream.cumulative_labels(upto)])
        recount = float(np.sum(np.diag(m.confusion) * counts) / counts.sum())
        assert m.joint_acc == pytest.approx(recount, abs=1e-12)


def test_confusion_rows_sum_to_one():
    stream = desk_stream(6)
    params, _ = train_base_session(stream, small_hp(), 6)
    m = evaluate_joint(params, stream, 1)
    assert np.allclose(m.confusion.sum(axis=1), 1.0)


@pytest.mark.parametrize("upto,extra", [(1, 0), (2, 0), (1, 3)],
                         ids=["base_head", "narrower_head", "wider_head"])
def test_confusion_matches_per_row_oracle(upto, extra):
    stream = desk_stream(7)
    params, _ = train_base_session(stream, small_hp(base_epochs=3), 7)
    if extra:
        # Copies of the first columns, scaled up, win the rows those columns won.
        params = expand_output_layer(params, extra, seed=7)
        params.phi[:, -extra:] = 1.5 * params.phi[:, :extra]
    x, y = stream.cumulative_test(upto)
    pred = np.argmax(forward_batch(x, params)[1], axis=1)
    n_classes = len(stream.cumulative_labels(upto))
    assert np.any(pred < n_classes)
    assert np.any(pred >= n_classes) == bool(extra)
    got = evaluate_joint(params, stream, upto).confusion
    assert got.tobytes() == confusion_matrix(y, pred, n_classes).tobytes()


@pytest.mark.parametrize("shape,dims,upto", [(DESK, (32, 8), 5), (STREAM_SHAPES[3], (128, 32), 9)],
                         ids=["desk", "paper"])
def test_evaluation_logits_equal_the_forward_pass_logits_bit_for_bit(shape, dims, upto,
                                                                     monkeypatch):
    stream = make_synthetic_stream(seed=1, **shape)
    params = init_params(shape["input_dim"], *dims, len(stream.cumulative_labels(upto)), seed=1)
    seen, argmax = [], np.argmax

    def spy(a, *args, **kwargs):
        seen.append(a)
        return argmax(a, *args, **kwargs)

    monkeypatch.setattr(protocol.np, "argmax", spy)
    evaluate_joint(params, stream, upto)
    monkeypatch.undo()
    x = stream.cumulative_test(upto)[0]
    # One argmax per block of rows: 1 at desk scale, 9 over the paper's 10 000 rows.
    assert len(seen) == len(row_blocks(len(x))) == (1 if shape is DESK else 9)
    assert np.concatenate(seen).tobytes() == forward_batch(x, params)[1].tobytes()


def paper_params(stream, upto, seed=1):
    return init_params(stream.input_dim, 128, 32, len(stream.cumulative_labels(upto)), seed)


@pytest.mark.parametrize("upto", [1, 2, 5, 9])
def test_blocked_evaluation_equals_the_one_shot_oracle(upto):
    desk, paper = desk_stream(2), make_synthetic_stream(seed=2, **STREAM_SHAPES[3])
    base, _ = train_base_session(desk, small_hp(base_epochs=3), 2, fit_graph=False)
    cases = [(paper, paper_params(paper, upto))]
    if upto <= len(desk):
        cases.append((desk, expand_output_layer(base, 8, seed=2)))
    for stream, params in cases:
        got, expected = evaluate_joint(params, stream, upto), oracles.evaluate_joint(
            params, stream, upto)
        assert (got.session, got.joint_acc, got.old_acc, got.new_acc) == (
            expected.session, expected.joint_acc, expected.old_acc, expected.new_acc)
        assert got.confusion.tobytes() == expected.confusion.tobytes()


def test_evaluation_raises_on_a_non_finite_row_in_a_later_block():
    paper = make_synthetic_stream(seed=3, **STREAM_SHAPES[3])
    x, y = (a.copy() for a in paper.test)
    # A stream holds finite inputs only; the model overflows on this finite row.
    x[-1] = np.finfo(float).max
    stream = SessionStream.from_splits([s.labels for s in paper.sessions], paper.train, (x, y))
    assert len(row_blocks(len(x))) > 1
    with pytest.raises(DivergenceError, match="^non-finite logits evaluating session 9$"):
        evaluate_joint(paper_params(stream, 9), stream, 9)
    with pytest.raises(DivergenceError, match="^non-finite logits evaluating session 9$"):
        oracles.evaluate_joint(paper_params(stream, 9), stream, 9)


def test_evaluation_memory_stays_bounded_at_paper_scale():
    stream = make_synthetic_stream(seed=1, **STREAM_SHAPES[3])
    params = paper_params(stream, 9)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        evaluate_joint(params, stream, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The one-shot evaluation holds 10 000 x 128 hidden values, then 10 000 x 100 logits.
    assert peak - entry < 4 * 2 ** 20


# -- full pipeline -----------------------------------------------------------------

def test_run_method_metrics_length_and_width_bookkeeping():
    stream = desk_stream(0)
    metrics = run_method(stream, "topic_al", small_hp(), 0)
    assert len(metrics) == len(stream)
    assert [m.session for m in metrics] == [1, 2, 3, 4, 5]
    assert metrics[-1].confusion.shape == (18, 18)


def test_run_method_base_session_identical_across_methods():
    stream = desk_stream(1)
    hp = small_hp()
    first = {m: run_method(stream, m, hp, 1)[0]
             for m in ("ft", "distill", "exemplar_anchor", "topic_al_mml", "joint")}
    ref = first["ft"]
    for m, got in first.items():
        assert got.joint_acc == ref.joint_acc, m
        assert np.array_equal(got.confusion, ref.confusion), m


def test_stored_base_session_survives_runs_unchanged():
    stream, hp, bases = desk_stream(4), small_hp(), {}
    params, graph = train_base_session(stream, hp, 4)
    for method in sorted(RUNNABLE_METHODS):
        run_method(stream, method, hp, 4, bases=bases)
    stored = bases[4]
    assert stored.graph.to_text() == graph.to_text()
    for name, array in params.arrays().items():
        assert stored.params.arrays()[name].tobytes() == array.tobytes(), name


def test_lazily_fitted_graph_equals_the_eagerly_fitted_one():
    stream, hp, bases = desk_stream(10), small_hp(inc_epochs=2), {}
    run_method(stream, "ft", hp, 10, bases=bases)
    assert bases[10].graph is None  # no sink and no loss reads it
    run_method(stream, "topic_al_mml", hp, 10, bases=bases)
    assert bases[10].graph.to_text() == train_base_session(stream, hp, 10)[1].to_text()


@pytest.mark.parametrize("method,sessions", [
    ("ft", [1]), ("distill", [1]), ("exemplar_anchor", [1]), ("joint", [1]),
    ("topic_al", [1, 2, 3, 4, 5]),
])
def test_graph_sink_sees_the_graphs_a_run_holds(method, sessions):
    stream, hp = desk_stream(11), small_hp(base_epochs=3, inc_epochs=2, ng_passes=1)
    seen = []
    run_method(stream, method, hp, 11, graph_sink=lambda t, g: seen.append((t, g.to_text())))
    assert [t for t, _ in seen] == sessions
    assert seen[0][1] == train_base_session(stream, hp, 11)[1].to_text()


def test_graph_runs_never_compute_the_quantization_error(monkeypatch):
    calls = []
    measure = NGGraph.quantization_error
    monkeypatch.setattr(NGGraph, "quantization_error",
                        lambda graph, features: calls.append(1) or measure(graph, features))
    stream, hp = desk_stream(13), small_hp(base_epochs=3, inc_epochs=2, ng_passes=1)
    run_method(stream, "topic_al_mml", hp, 13, graph_sink=lambda t, g: None)
    assert calls == []


def same_params(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.arrays().values(),
                                                          b.arrays().values()))


@pytest.mark.parametrize("rows", [50, 2 * BASE_BATCH_SIZE, 2 * BASE_BATCH_SIZE + 44])
def test_cross_entropy_training_equals_the_composed_per_batch_trainer(rows):
    rng = np.random.default_rng(rows)
    x, y = rng.normal(size=(rows, 16)), rng.integers(0, 10, size=rows)
    params = init_params(16, 32, 8, 10, seed=3)
    before = params.copy()
    trained = _train_cross_entropy(params, x, y, 4, 0.1, 7, "test")
    assert same_params(trained, oracles.train_cross_entropy(params, x, y, 4, 0.1, 7, "test"))
    assert same_params(params, before)


@pytest.mark.parametrize("labels, shape", [([0, 10], None), ([-1, 3], None),
                                           ([0, 1], (2, 15)), ([0, 1, 2], None)])
def test_cross_entropy_training_rejects_bad_data_before_the_first_step(labels, shape,
                                                                       monkeypatch):
    monkeypatch.setattr(protocol, "forward_into", None)  # a step would raise TypeError
    params = init_params(16, 32, 8, 10, seed=3)
    before = params.copy()
    x = np.ones(shape or (2, 16))
    with pytest.raises(InputError):
        _train_cross_entropy(params, x, np.array(labels), 2, 0.1, 7, "test")
    assert same_params(params, before)


# 5e-324 is the smallest subnormal: the schedule's first drop rounds it to 0.
@pytest.mark.parametrize("base_lr", [0.0, -0.1, 5e-324, math.nan, math.inf])
def test_cross_entropy_training_rejects_a_learning_rate_that_is_not_positive(base_lr):
    params = init_params(16, 32, 8, 10, seed=3)
    before = params.copy()
    x = np.random.default_rng(3).normal(size=(5, 16))
    with pytest.raises(InputError, match="learning rate"):
        _train_cross_entropy(params, x, np.arange(5), 5, base_lr, 7, "test")
    assert same_params(params, before)


def second_session(seed):
    """(hp, a snapshot unlike the base, expanded base params, graph grown for session 2,
    session 2, stored rows)."""
    stream, hp = desk_stream(seed), small_hp(base_epochs=3, ng_passes=1)
    base, graph = train_base_session(stream, hp, seed)
    session = stream.session(2)
    params = expand_output_layer(base, len(session.labels), seed=seed)
    encode = lambda x: forward_batch(x, params)[0]
    graph.grow({label: (encode(session.train_x[session.train_y == label]),
                        session.train_x[session.train_y == label])
                for label in session.labels}, 1)
    snapshot = init_params(16, 32, 8, 10, seed=seed + 1)
    return hp, snapshot, params, graph, session, stream.session(1).train_x[::97]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_session_plan_equals_the_per_step_builder_over_a_session(method):
    hp, snapshot, params, graph, session, store = second_session(14)
    graph.ages[:] = 0  # edges come only from this session's presentations
    batch, xi = (session.train_x, session.train_y), xi_heuristic(graph)
    g = graph if METHODS[method].reads_graph else None
    context = dict(old_params=snapshot, xi=xi)
    plan = plan_session(batch, g, store, hp, method, **context)
    for step in range(4):
        loss, grads = total_loss(plan, params)
        ref_loss, ref_grads = oracles.total_loss(batch, g, params, store, hp, method, n_old=10,
                                                 **context)
        assert loss == ref_loss and same_params(grads, ref_grads), step
        params = sgd_step(params, oracles.clipped(grads, 10.0), hp.inc_lr)
        graph.present(forward_batch(session.train_x, params)[0], hp.eta, hp.alpha)
    assert np.count_nonzero(graph.ages) > 0


@pytest.mark.parametrize("method", ["ft", "distill", "exemplar_anchor"])
def test_graph_free_methods_do_not_read_the_graph(method):
    stream, hp = desk_stream(12), small_hp(base_epochs=3, ng_passes=1)
    old_params, graph = train_base_session(stream, hp, 12)
    session = stream.session(2)
    params = expand_output_layer(old_params, len(session.labels), seed=12)
    encode = lambda x: forward_batch(x, params)[0]
    graph.grow({label: (encode(session.train_x[session.train_y == label]),
                        session.train_x[session.train_y == label])
                for label in session.labels}, 1)
    store, snapshot = stream.session(1).train_x[::97], init_params(16, 32, 8, 10, seed=13)
    batch = (session.train_x, session.train_y)
    with_graph, without = (total_loss(plan_session(batch, g, store, hp, method,
                                                   old_params=snapshot), params)
                           for g in (graph, None))
    assert with_graph[0] == without[0]
    for name, array in with_graph[1].arrays().items():
        assert array.tobytes() == without[1].arrays()[name].tobytes(), name


@pytest.mark.parametrize("change", ["stream", "hp", "dims"])
def test_stored_base_session_rejects_another_config(change):
    stream, hp, bases = desk_stream(8), small_hp(base_epochs=2, inc_epochs=1), {}
    run_method(stream, "ft", hp, 8, bases=bases)
    if change == "stream":
        stream = desk_stream(8)  # equal data, another object
    elif change == "hp":
        hp.inc_lr = 0.05  # the stored copy keeps the old value
    else:
        hp = replace(hp, hidden_dim=16)  # the dims are hyperparameters too
    with pytest.raises(InputError, match="seed 8"):
        run_method(stream, "ft", hp, 8, bases=bases)


def test_run_method_is_bit_reproducible():
    stream = desk_stream(2)
    hp = small_hp()
    a = run_method(stream, "topic_al_mml", hp, 2)
    b = run_method(stream, "topic_al_mml", hp, 2)
    for ma, mb in zip(a, b):
        assert ma.joint_acc == mb.joint_acc
        assert ma.old_acc == mb.old_acc and ma.new_acc == mb.new_acc
        assert np.array_equal(ma.confusion, mb.confusion)


def test_run_method_rejects_unknown_tag():
    with pytest.raises(InputError):
        run_method(desk_stream(0), "nope", HyperParams(), 0)


def test_joint_reference_dominates_and_never_improves():
    hp = HyperParams()
    joint_rows, incr_rows = [], []
    for seed in range(3):
        stream = desk_stream(seed)
        joint_rows.append([m.joint_acc for m in run_method(stream, "joint", hp, seed)])
        incr_rows.append([m.joint_acc for m in run_method(stream, "topic_al_mml", hp, seed)])
    joint_mean = np.mean(joint_rows, axis=0)
    incr_mean = np.mean(incr_rows, axis=0)
    assert all(a >= b - 1e-12 for a, b in zip(joint_mean, joint_mean[1:]))
    assert np.all(joint_mean >= incr_mean)


def test_base_lr_schedule_drops_at_60_and_80_percent():
    from topogas.protocol import _lr_at
    lrs = [_lr_at(e, 50, 0.1) for e in range(50)]
    assert lrs[0] == lrs[29] == pytest.approx(0.1)
    assert lrs[30] == lrs[39] == pytest.approx(0.01)
    assert lrs[40] == lrs[49] == pytest.approx(0.001)


def test_balanced_union_equalizes_class_counts():
    stream = desk_stream(3)
    rows = _balanced_union(stream, 2)
    x, y = stream.cumulative_train(2)
    counts = {c: int(np.sum(y[rows] == c)) for c in stream.cumulative_labels(2)}
    assert set(counts.values()) == {100}
    assert rows.shape == (1200,) and set(rows.tolist()) == set(range(len(y)))
    union_x, union_y = oracles.balanced_union(stream, 2)
    assert x[rows].tobytes() == union_x.tobytes() and y[rows].tobytes() == union_y.tobytes()


@pytest.mark.parametrize("upto", [2, 5])
def test_joint_session_batches_equal_the_materialized_union(upto):
    stream = desk_stream(5)
    params = init_params(16, 32, 8, len(stream.cumulative_labels(upto)), seed=5)
    indexed = _train_cross_entropy(params, *stream.cumulative_train(upto), 3, 0.1, 8, "test",
                                   rows=_balanced_union(stream, upto))
    copied = oracles.train_cross_entropy(params, *oracles.balanced_union(stream, upto), 3, 0.1,
                                         8, "test")
    assert same_params(indexed, copied)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_run_method_builds_only_the_store_its_terms_read(method, monkeypatch):
    stream, hp, seen = desk_stream(6), small_hp(base_epochs=2, inc_epochs=1, ng_passes=1), []
    trained = protocol.train_incremental_session

    def spy(params, graph, session, hp, method, store, seed):
        seen.append(store)
        return trained(params, graph, session, hp, method, store, seed)

    monkeypatch.setattr(protocol, "train_incremental_session", spy)
    run_method(stream, method, hp, 6)
    spec = METHODS[method]
    expected = oracles.exemplar_stores(stream, hp, 6, spec.anchor == "exemplar")
    assert len(seen) == len(expected) == len(stream) - 1
    for got, (distill, anchor) in zip(seen, expected):
        if spec.anchor == "exemplar":
            assert got.tobytes() == anchor.tobytes()
        elif spec.distill:
            assert got.tobytes() == distill.tobytes()
        else:
            assert got is None

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (add_scaled, backward_from_pre_activations, clipped,
                     finite_difference_check, softmax_cross_entropy, zero_grads)
from topogas import (DivergenceError, ForwardCache, InputError, ModelParams,
                     backward_batch, expand_output_layer, forward, forward_batch,
                     init_params, sgd_step, softmax, softmax_cross_entropy_batch)
from topogas.feature_model import (ENCODE_BLOCK, extract_features, features_into, row_blocks,
                                   sgd_step_in_place)


def small_params(seed=0, input_dim=3, hidden_dim=4, feature_dim=3, classes=4):
    return init_params(input_dim, hidden_dim, feature_dim, classes, seed)


def zero_params(input_dim=3, hidden_dim=4, feature_dim=3, classes=4):
    return ModelParams(np.zeros((hidden_dim, input_dim)), np.zeros(hidden_dim),
                       np.zeros((feature_dim, hidden_dim)), np.zeros(feature_dim),
                       np.zeros((feature_dim, classes)))


# -- forward ----------------------------------------------------------------

def test_forward_zero_weights_zero_biases():
    params = zero_params()
    f, o, _ = forward(np.array([1.0, -2.0, 3.0]), params)
    assert np.all(f == 0.0)
    assert np.all(o == 0.0)


def test_forward_zero_weights_nonnegative_biases():
    # With zero weights the feature reduces to the (rectified) bias terms.
    params = zero_params()
    params.b1[:] = [1.0, -1.0, 0.5, 0.0]
    params.b2[:] = [0.25, 0.0, 2.0]
    f, o, _ = forward(np.array([5.0, 5.0, 5.0]), params)
    assert np.allclose(f, np.maximum(params.b2, 0.0))
    assert np.allclose(o, params.phi.T @ f)


def test_forward_identity_configuration_is_rectifier():
    params = ModelParams(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3),
                         np.eye(3))
    x = np.array([1.5, -2.0, 0.0])
    f, o, _ = forward(x, params)
    assert np.allclose(f, np.maximum(x, 0.0))
    assert np.allclose(o, np.maximum(x, 0.0))


def test_forward_matches_handrolled_matrix_products():
    # Independent oracle: explicit loops, no shared numpy expressions.
    params = small_params(seed=3)
    rng = np.random.default_rng(7)
    x = rng.normal(size=3)
    f, o, _ = forward(x, params)
    hidden = []
    for i in range(params.hidden_dim):
        acc = params.b1[i]
        for j in range(params.input_dim):
            acc += params.w1[i, j] * x[j]
        hidden.append(max(acc, 0.0))
    feat = []
    for i in range(params.feature_dim):
        acc = params.b2[i]
        for j in range(params.hidden_dim):
            acc += params.w2[i, j] * hidden[j]
        feat.append(acc)
    logits = []
    for c in range(params.class_count):
        acc = 0.0
        for i in range(params.feature_dim):
            acc += params.phi[i, c] * feat[i]
        logits.append(acc)
    assert np.allclose(f, feat, atol=1e-12)
    assert np.allclose(o, logits, atol=1e-12)


def test_forward_rejects_bad_dimension():
    with pytest.raises(InputError):
        forward(np.zeros(5), small_params())
    with pytest.raises(InputError):
        forward_batch(np.zeros((2, 5)), small_params())


def test_forward_batch_agrees_with_single_sample():
    params = small_params(seed=11)
    x = np.random.default_rng(0).normal(size=(6, 3))
    fb, ob, _ = forward_batch(x, params)
    for b in range(6):
        f, o, _ = forward(x[b], params)
        assert np.allclose(f, fb[b], atol=1e-12)
        assert np.allclose(o, ob[b], atol=1e-12)


def test_forward_is_deterministic():
    params = small_params(seed=5)
    x = np.array([0.3, -0.7, 1.1])
    f1, o1, _ = forward(x, params)
    f2, o2, _ = forward(x, params)
    assert np.array_equal(f1, f2) and np.array_equal(o1, o2)


# Desk and paper model shapes: (input, hidden, feature, classes, rows).
SHAPES = [(16, 32, 8, 10, 1000), (64, 128, 32, 60, 12000)]


@pytest.mark.parametrize("input_dim,hidden_dim,feature_dim,classes,rows", SHAPES,
                         ids=["desk", "paper"])
def test_extract_features_equals_the_forward_pass_features_bit_for_bit(
        input_dim, hidden_dim, feature_dim, classes, rows):
    params = init_params(input_dim, hidden_dim, feature_dim, classes, seed=3)
    x = np.random.default_rng(5).normal(size=(rows, input_dim))
    got = extract_features(params, x)
    assert got.shape == (rows, feature_dim)
    assert got.tobytes() == forward_batch(x, params)[0].tobytes()


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 2047, 2048, 2049, 3071, 3072, 12000])
def test_row_blocks_cover_the_rows_with_no_block_below_encode_block(rows):
    blocks = row_blocks(rows)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == rows
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) < 2 * ENCODE_BLOCK
    assert len(blocks) == 1 if rows < 2 * ENCODE_BLOCK else min(sizes) >= ENCODE_BLOCK


@pytest.mark.parametrize("rows", [2047, 2048, 2049, 3071, 10000, 12000])
def test_blocked_encode_equals_one_extractor_pass_bit_for_bit(rows):
    params = init_params(64, 128, 32, 60, seed=4)
    x = np.random.default_rng(rows).normal(size=(rows, 64))
    single = np.empty((rows, 32))
    features_into(params, x, np.empty((rows, 128)), single)
    assert extract_features(params, x).tobytes() == single.tobytes()


def test_extract_features_memory_stays_within_the_output_plus_two_blocks():
    params = init_params(64, 128, 32, 60, seed=4)
    x = np.random.default_rng(6).normal(size=(12000, 64))
    tracemalloc.start()
    try:
        feature = extract_features(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One block's hidden rows: ENCODE_BLOCK x 128 values.  The one-pass encode held
    # all 12 000 x 128 of them.
    assert peak < feature.nbytes + 2 * ENCODE_BLOCK * 128 * 8


def test_extract_features_rejects_bad_dimension():
    with pytest.raises(InputError, match="width 3"):
        extract_features(small_params(), np.zeros((2, 4)))


# -- softmax cross-entropy ----------------------------------------------------

def test_cross_entropy_uniform_logits():
    for y in range(4):
        loss, grad = softmax_cross_entropy(np.zeros(4), y)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)
        expected = np.full(4, 0.25)
        expected[y] -= 1.0
        assert np.allclose(grad, expected)


def test_cross_entropy_confident_correct_is_near_zero():
    o = np.zeros(4)
    o[2] = 50.0
    loss, _ = softmax_cross_entropy(o, 2)
    assert 0.0 <= loss < 1e-12


def test_cross_entropy_scalar_oracle():
    # Direct scalar evaluation of -log(e^1 / (e^1 + e^2 + e^3)).
    expected = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 1.0
    loss, _ = softmax_cross_entropy(np.array([1.0, 2.0, 3.0]), 0)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_rejects_out_of_range_class():
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros(4), 4)
    with pytest.raises(InputError):
        softmax_cross_entropy_batch(np.zeros((2, 4)), np.array([0, 5]))


def test_cross_entropy_is_stable_for_huge_logits():
    loss, grad = softmax_cross_entropy(np.array([1e4, -1e4, 0.0]), 0)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_batch_cross_entropy_sums_singles():
    rng = np.random.default_rng(1)
    o = rng.normal(size=(5, 4))
    y = rng.integers(0, 4, size=5)
    total, grad = softmax_cross_entropy_batch(o, y)
    singles = [softmax_cross_entropy(o[b], int(y[b])) for b in range(5)]
    assert total == pytest.approx(sum(s[0] for s in singles), rel=1e-12)
    assert np.allclose(grad, np.stack([s[1] for s in singles]))


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = softmax(rng.normal(scale=10.0, size=6))
        assert abs(p.sum() - 1.0) < 1e-9


# -- backward ---------------------------------------------------------------

def test_backward_zero_upstream_gives_zero_grads():
    params = small_params(seed=2)
    _, _, cache = forward(np.array([0.5, -0.5, 1.0]), params)
    grads = backward_batch(cache, np.zeros((1, 4)), np.zeros((1, 3)), params)
    for arr in grads.arrays().values():
        assert np.all(arr == 0.0)


def test_backward_onehot_logit_grad_is_outer_product():
    params = small_params(seed=4)
    x = np.array([1.0, 2.0, -1.0])
    f, _, cache = forward(x, params)
    grad_o = np.zeros(4)
    grad_o[1] = 1.0
    grads = backward_batch(cache, grad_o[None, :], np.zeros((1, 3)), params)
    # Hand-computed oracle: d(phi^T f)/d(phi[:, c]) = f for the hit column.
    assert np.allclose(grads.phi[:, 1], f)
    assert np.all(grads.phi[:, [0, 2, 3]] == 0.0)


def test_backward_matches_finite_differences():
    params = small_params(seed=6)
    rng = np.random.default_rng(9)
    x = rng.normal(size=3)
    y = 2

    def evaluator(p):
        feat, logits, cache = forward(x, p)
        loss, grad_o = softmax_cross_entropy(logits, y)
        return loss, backward_batch(cache, grad_o[None, :], np.zeros((1, feat.size)), p)

    report = finite_difference_check(evaluator, params, tol=1e-4)
    assert report.passed, report.per_parameter


def test_backward_rejects_mismatched_gradients():
    params = small_params()
    _, _, cache = forward(np.zeros(3), params)
    with pytest.raises(InputError):
        backward_batch(cache, np.zeros((1, 3)), np.zeros((1, 3)), params)
    with pytest.raises(InputError):
        backward_batch(cache, np.zeros((1, 4)), np.zeros((1, 5)), params)


def test_backward_batch_sums_per_sample_grads():
    params = small_params(seed=8)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    go = rng.normal(size=(4, 4))
    gf = rng.normal(size=(4, 3))
    _, _, cache = forward_batch(x, params)
    batched = backward_batch(cache, go, gf, params)
    summed = zero_grads(params)
    for b in range(4):
        _, _, c1 = forward(x[b], params)
        add_scaled(summed, backward_batch(c1, go[b:b + 1], gf[b:b + 1], params))
    for name, arr in batched.arrays().items():
        assert np.allclose(arr, summed.arrays()[name], atol=1e-10)


def test_backward_equals_the_pre_activation_mask_oracle_bit_for_bit():
    params = small_params(seed=10, input_dim=5, hidden_dim=6, feature_dim=3, classes=4)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 5))
    hidden_pre = x @ params.w1.T + params.b1
    # Rows 0-2 plant +0.0, -0.0 and NaN in every hidden unit: none passes the ReLU.
    hidden_pre[0], hidden_pre[1], hidden_pre[2] = 0.0, -0.0, np.nan
    hidden = np.maximum(hidden_pre, 0.0)
    feature = hidden @ params.w2.T + params.b2
    cache = ForwardCache(x, hidden, feature, feature @ params.phi)
    grad_logits, grad_feature = rng.normal(size=(8, 4)), rng.normal(size=(8, 3))
    got = backward_batch(cache, grad_logits, grad_feature, params)
    want = backward_from_pre_activations(x, hidden_pre, hidden, feature, grad_logits,
                                         grad_feature, params)
    assert np.isnan(got.w2).any() and np.isnan(got.phi).any()
    for name, arr in got.arrays().items():
        assert arr.tobytes() == want.arrays()[name].tobytes(), name


@pytest.mark.parametrize("scale", [1.0, 1e-3, 40.0, 1e150])
def test_norm_and_clipped_equal_the_summed_generator_bit_for_bit(scale):
    rng = np.random.default_rng(12)
    for seed in range(5):
        params = small_params(seed=seed, input_dim=7, hidden_dim=5, classes=6)
        params = ModelParams(*(scale * (a + rng.normal(size=a.shape))
                               for a in params.arrays().values()))
        old_norm = float(np.sqrt(sum(float(np.sum(a * a)) for a in params.arrays().values())))
        assert params.norm() == old_norm
        for max_norm in (0.5 * old_norm, old_norm, 2.0 * old_norm):
            s = max_norm / old_norm
            expected = params if old_norm <= max_norm else ModelParams(
                *(a * s for a in params.arrays().values()))
            got = clipped(params, max_norm)
            for name, arr in got.arrays().items():
                assert arr.tobytes() == expected.arrays()[name].tobytes(), (scale, name)


# -- SGD and expansion --------------------------------------------------------

def test_sgd_zero_grads_leave_params_unchanged():
    params = small_params(seed=1)
    after = sgd_step(params, zero_grads(params), 0.1)
    for name, arr in after.arrays().items():
        assert np.array_equal(arr, params.arrays()[name])


def test_sgd_single_scalar_arithmetic():
    params = ModelParams(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]),
                         np.zeros(1), np.array([[1.0]]))
    grads = ModelParams(np.array([[2.0]]), np.zeros(1), np.zeros((1, 1)),
                        np.zeros(1), np.zeros((1, 1)))
    after = sgd_step(params, grads, 0.1)
    assert after.w1[0, 0] == pytest.approx(0.8)


def test_sgd_descends_convex_quadratic_monotonically():
    # loss = 0.5 * sum(p^2) over every array; gradient is p itself.
    params = small_params(seed=13)

    def quad_loss(p):
        return 0.5 * sum(float(np.sum(a * a)) for a in p.arrays().values())

    losses = [quad_loss(params)]
    for _ in range(25):
        grads = params.copy()
        params = sgd_step(params, grads, 0.1)
        losses.append(quad_loss(params))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_sgd_rejects_nonpositive_lr():
    params = small_params()
    before = params.copy()
    for lr in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(InputError, match="learning rate must be positive and finite"):
            sgd_step(params, zero_grads(params), lr)
        with pytest.raises(InputError, match="learning rate must be positive and finite"):
            sgd_step_in_place(params, zero_grads(params), lr)
    for name, array in before.arrays().items():
        assert array.tobytes() == params.arrays()[name].tobytes()


def test_expand_keeps_old_columns_bit_identical():
    params = init_params(8, 16, 6, 60, seed=0)
    expanded = expand_output_layer(params, 5, seed=1)
    assert expanded.class_count == 65
    assert np.array_equal(expanded.phi[:, :60], params.phi)
    assert np.all(np.abs(expanded.phi[:, 60:]) <= 0.01)


def test_expand_preserves_old_class_logits():
    params = init_params(8, 16, 6, 60, seed=2)
    expanded = expand_output_layer(params, 5, seed=3)
    x = np.random.default_rng(4).normal(size=(10, 8))
    _, o_before, _ = forward_batch(x, params)
    _, o_after, _ = forward_batch(x, expanded)
    assert np.array_equal(o_before, o_after[:, :60])


def test_expand_twice_matches_once_in_shape():
    params = init_params(8, 16, 6, 60, seed=5)
    twice = expand_output_layer(expand_output_layer(params, 5, seed=6), 5, seed=7)
    once = expand_output_layer(params, 10, seed=8)
    assert twice.phi.shape == once.phi.shape == (6, 70)


def test_expand_rejects_nonpositive_count():
    with pytest.raises(InputError):
        expand_output_layer(small_params(), 0, seed=0)


# -- finite-difference checker -------------------------------------------------

def test_fd_check_linear_loss_is_exact():
    params = ModelParams(np.array([[0.3]]), np.array([0.2]), np.array([[-0.4]]),
                         np.array([0.1]), np.array([[0.5]]))
    rng = np.random.default_rng(21)
    coeffs = {name: np.sign(rng.normal(size=arr.shape)) * rng.uniform(0.5, 2.0, arr.shape)
              for name, arr in params.arrays().items()}

    def evaluator(p):
        loss = sum(float(np.sum(coeffs[name] * arr))
                   for name, arr in p.arrays().items())
        return loss, ModelParams(coeffs["w1"].copy(), coeffs["b1"].copy(),
                                 coeffs["w2"].copy(), coeffs["b2"].copy(),
                                 coeffs["phi"].copy())

    report = finite_difference_check(evaluator, params, tol=1e-9)
    assert report.passed
    assert report.max_error < 1e-9


def test_fd_check_softmax_ce_within_tolerance():
    params = small_params(seed=22)
    x = np.random.default_rng(23).normal(size=(3, 3))
    y = np.array([0, 1, 3])

    def evaluator(p):
        feat, logits, cache = forward_batch(x, p)
        loss, grad_o = softmax_cross_entropy_batch(logits, y)
        return loss, backward_batch(cache, grad_o, np.zeros_like(feat), p)

    report = finite_difference_check(evaluator, params, tol=1e-4)
    assert report.passed
    assert report.max_error < 1e-4


def test_fd_check_flags_corrupted_gradient():
    params = small_params(seed=24)
    x = np.random.default_rng(25).normal(size=3)

    def corrupted(p):
        feat, logits, cache = forward(x, p)
        loss, grad_o = softmax_cross_entropy(logits, 1)
        grads = backward_batch(cache, grad_o[None, :], np.zeros((1, feat.size)), p)
        add_scaled(grads, grads)  # doubles every gradient
        return loss, grads

    report = finite_difference_check(corrupted, params, tol=1e-4)
    assert not report.passed


def test_fd_check_rejects_nonfinite_loss():
    params = small_params()

    def bad(p):
        return float("nan"), zero_grads(p)

    with pytest.raises(DivergenceError):
        finite_difference_check(bad, params, tol=1e-4)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from oracles import finite_difference_check
from topogas import (HyperParams, NGGraph, anchor_loss, distillation_loss,
                     expand_output_layer, forward_batch, init_graph, init_params,
                     make_synthetic_stream, min_max_loss, parse_config, plan_session,
                     run_experiment, run_method, total_loss,
                     train_on_features, xi_heuristic)
from topogas.feature_model import backward_batch, softmax_cross_entropy_batch
from topogas.neural_gas import _exact_distances, _exact_order, age_dtype

DESK = dict(base_classes=10, new_classes=8, way=2, shot=5, input_dim=16,
            cluster_spread=0.55, train_per_base=100, test_per_class=100)
GRAD_TOL = 1e-4
ORACLE_TOL = 1e-9


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- criterion 1: gradient suite -------------------------------------------------


def random_loss_world(seed: int):
    """A small random model plus a graph wired for every loss term.

    Head columns are scaled to O(0.5) so every live gradient path stays well
    above the roundoff floor of a 1e-5 central difference; the freshly
    initialized +-0.01 head would leave near-zero entries whose relative
    error is pure float noise.
    """
    rng = np.random.default_rng([seed, 0xACC])
    params = init_params(3, 4, 3, 4, seed)
    params.phi *= 50.0
    n = 4
    z = rng.normal(size=(n, 3))
    centroids = forward_batch(z, params)[0] + rng.normal(scale=0.3, size=(n, 3))
    graph = NGGraph(centroids, rng.uniform(0.3, 2.0, size=(n, 3)), z,
                    np.array([0, 1, 2, 3]), np.array([1, 1, 2, 2]), 50, 1e-6,
                    session=2)
    graph.ages[:] = ~np.eye(n, dtype=bool)
    batch_x = rng.normal(size=(3, 3))
    batch_y = np.array(rng.integers(0, 4, size=3))
    old_params = init_params(3, 4, 3, 4, seed + 1000)
    old_params.phi *= 50.0
    return params, graph, batch_x, batch_y, old_params


def test_criterion_1_gradient_suite():
    started = time.time()
    hp = HyperParams()
    worst = {}
    for seed in range(20):
        params, graph, bx, by, old = random_loss_world(seed)
        xi = xi_heuristic(graph) * 1.2
        plan = plan_session((bx, by), graph, None, hp, "topic_al_mml", xi=xi)
        # The graph without its edges pushes nothing: the min-max loss is its pull.
        edgeless = NGGraph(graph.centroids, graph.variances, graph.pseudo_inputs, graph.labels,
                           graph.origins, graph.lifetime, graph.eps_var, graph.session)

        def ce(p):
            feat, logits, cache = forward_batch(bx, p)
            loss, grad_o = softmax_cross_entropy_batch(logits, by)
            return loss, backward_batch(cache, grad_o, np.zeros_like(feat), p)

        evaluators = {
            "ce": ce,
            "al": lambda p: anchor_loss(graph, [0, 1], p),
            "mml_min": lambda p: min_max_loss(bx, by, edgeless, p, xi),
            "mml": lambda p: min_max_loss(bx, by, graph, p, xi),
            "dl": lambda p: distillation_loss(bx, old, p, hp.t_distill, 4),
            "objective": lambda p: total_loss(plan, p),
        }
        for name, evaluator in evaluators.items():
            rep = finite_difference_check(evaluator, params, tol=GRAD_TOL)
            worst[name] = max(worst.get(name, 0.0), rep.max_error)
    elapsed = time.time() - started
    ok = all(v < GRAD_TOL for v in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("criterion 1 (gradient suite)", ok, f"{detail}, {elapsed:.1f}s")


# -- criterion 2: neural-gas oracle equivalence ------------------------------------


def random_small_graph(rng):
    n = int(rng.integers(2, 11))
    dim = int(rng.integers(2, 5))
    g = NGGraph(rng.normal(size=(n, dim)), np.full((n, dim), 1e-6),
                np.zeros((n, dim)), np.array(rng.integers(0, 4, size=n)),
                np.ones(n, dtype=int), int(rng.integers(1, 8)), 1e-6)
    mask = np.triu(rng.random((n, n)) < 0.4, 1)
    ages = np.where(mask, rng.integers(1, g.lifetime + 1, size=(n, n)), 0)
    g.ages = (ages + ages.T).astype(age_dtype(g.lifetime))
    return g


def test_criterion_2_neural_gas_oracles():
    rng = np.random.default_rng(1213)
    checks = {"rank": 0, "edges": 0, "pseudo": 0, "variance": 0, "qe": 0, "xi": 0}
    for _ in range(50):
        g = random_small_graph(rng)
        n, dim = len(g), g.feature_dim
        f = rng.normal(size=dim)

        # ranking vs exhaustive sort
        order, distances = _exact_order(f, g.centroids), _exact_distances(f, g.centroids)
        dists = [math.dist(f, g.centroids[j]) for j in range(n)]
        expected = sorted(range(n), key=lambda j: (dists[j], j))
        assert list(order) == expected
        assert max(abs(distances[j] - dists[j]) for j in expected) <= ORACLE_TOL
        checks["rank"] += 1

        # edge update vs a literal dictionary-based re-implementation
        r1, r2 = expected[0], expected[1] if n > 1 else None
        if r2 is not None:
            # age 0: no edge
            ages = {(i, j): int(g.ages[i, j]) for i in range(n) for j in range(n)}
            for j in range(n):
                if j in (r1, r2) or ages[(r1, j)] == 0:
                    continue
                age = ages[(r1, j)] + 1
                ages[(r1, j)] = ages[(j, r1)] = age if age <= g.lifetime else 0
            ages[(r1, r2)] = ages[(r2, r1)] = 1
            g.edge_update(r1, r2)
            for i in range(n):
                for j in range(n):
                    assert g.ages[i, j] == ages[(i, j)]
            g.check_invariants()
            checks["edges"] += 1

        # pseudo-exemplar assignment vs brute force
        inputs = [rng.normal(size=dim) for _ in range(8)]
        labels = rng.integers(0, 5, size=8)
        g.assign_pseudo_exemplars(inputs, labels, inputs)
        for j in range(n):
            d = [math.dist(x, g.centroids[j]) for x in inputs]
            best = d.index(min(d))
            assert np.array_equal(g.pseudo_inputs[j], inputs[best])
            assert g.labels[j] == labels[best]
        checks["pseudo"] += 1

        # variance estimation vs hand loop
        feats = rng.normal(size=(12, dim))
        g.estimate_variances(feats)
        winners = [min(range(n), key=lambda j: (math.dist(x, g.centroids[j]), j))
                   for x in feats]
        for j in range(n):
            won = [feats[i] for i in range(12) if winners[i] == j]
            if len(won) <= 1:
                expected_var = np.full(dim, 1e-6)
            else:
                mean = sum(won) / len(won)
                expected_var = sum((w - mean) ** 2 for w in won) / len(won) + 1e-6
            assert np.max(np.abs(g.variances[j] - expected_var)) <= ORACLE_TOL
        checks["variance"] += 1

        # quantization error vs exhaustive winner search
        qe = g.quantization_error(feats)
        expected_qe = np.mean([min(math.dist(x, c) for c in g.centroids)
                               for x in feats])
        assert abs(qe - expected_qe) <= ORACLE_TOL
        checks["qe"] += 1

        # margin heuristic vs O(N^2) brute force
        if n >= 2:
            expected_xi = max(math.dist(g.centroids[i], g.centroids[j])
                              for i in range(n) for j in range(n))
            assert abs(xi_heuristic(g) - expected_xi) <= ORACLE_TOL
            checks["xi"] += 1

    ok = checks["rank"] == 50 and all(v > 0 for v in checks.values())
    report("criterion 2 (neural-gas oracles)", ok,
           ", ".join(f"{k}x{v}" for k, v in checks.items()))


# -- criterion 3: trained nodes beat random exemplars --------------------------------


def test_criterion_3_nodes_beat_random_exemplars():
    started = time.time()
    hp = HyperParams()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 0x3B])
        means = rng.uniform(-5.0, 5.0, size=(5, 2))
        feats = np.vstack([m + 0.5 * rng.normal(size=(200, 2)) for m in means])
        labels = np.repeat(np.arange(5), 200)
        g = init_graph(feats, feats, labels, 25, hp.t_life, hp.eps_var, seed)
        train_on_features(g, feats, hp.eta, hp.alpha, passes=10, seed=seed)
        qe_trained = g.quantization_error(feats)
        picks = np.random.default_rng([seed, 0x3C]).choice(1000, 25, replace=False)
        exemplars = NGGraph(feats[picks].copy(), np.full((25, 2), hp.eps_var),
                            feats[picks], labels[picks], np.ones(25, dtype=int),
                            hp.t_life, hp.eps_var)
        qe_random = exemplars.quantization_error(feats)
        wins += qe_trained < qe_random
    elapsed = time.time() - started
    ok = wins >= 18 and elapsed < 30.0
    report("criterion 3 (nodes vs random exemplars)", ok,
           f"{wins}/20 wins, {elapsed:.1f}s")


# -- criteria 4 and 5: forgetting/overfitting trends ----------------------------------


@pytest.fixture(scope="module")
def desk_runs():
    started = time.time()
    hp = HyperParams()
    runs, bases = {}, {}  # the four methods of a seed share its base session
    for seed in range(10):
        stream = make_synthetic_stream(seed=seed, **DESK)
        for method in ("ft", "distill", "topic_al", "topic_al_mml"):
            runs[(method, seed)] = run_method(stream, method, hp, seed, bases=bases)
    return runs, time.time() - started


def final_mean(runs, method):
    return float(np.mean([runs[(method, s)][-1].joint_acc for s in range(10)]))


def test_criterion_4_forgetting_and_ablation_trends(desk_runs):
    runs, elapsed = desk_runs
    collapse = all(runs[("ft", s)][-1].old_acc
                   < 0.3 * runs[("ft", s)][0].joint_acc for s in range(10))
    ft = final_mean(runs, "ft")
    al = final_mean(runs, "topic_al")
    almml = final_mean(runs, "topic_al_mml")
    distill = final_mean(runs, "distill")
    chain = almml >= al + 0.02 and al >= ft + 0.10
    beats_distill = almml >= distill
    ok = collapse and chain and beats_distill and elapsed < 300.0
    report("criterion 4 (trend reproduction)", ok,
           f"ft={ft:.3f} dl={distill:.3f} al={al:.3f} al+mml={almml:.3f}, "
           f"collapse={collapse}, {elapsed:.0f}s")


def test_criterion_5_confusion_diagonal_mass(desk_runs):
    runs, _ = desk_runs
    margins = []
    for seed in range(10):
        ours = float(np.trace(runs[("topic_al_mml", seed)][-1].confusion))
        naive = float(np.trace(runs[("ft", seed)][-1].confusion))
        margins.append(ours - naive)
    ok = all(m > 0 for m in margins)
    report("criterion 5 (confusion diagonal mass)", ok,
           f"min margin {min(margins):.2f}, max {max(margins):.2f}")


# -- criterion 6: invariant suite ---------------------------------------------------


def test_criterion_6_invariants(tmp_path):
    notes = []

    # edge/age symmetry and lifetime bound under random update sequences
    rng = np.random.default_rng(99)
    g = NGGraph(rng.normal(size=(6, 2)), np.full((6, 2), 1e-6), np.zeros((6, 2)),
                np.zeros(6, dtype=int), np.ones(6, dtype=int), 5, 1e-6)
    for _ in range(200):
        g.edge_update(*g.hebbian_update(rng.normal(size=(1, 2)), eta=0.2, alpha=1.0))
    g.check_invariants()
    assert 0 < g.ages.max() <= g.lifetime
    notes.append("edges")

    # ranking validity
    for _ in range(20):
        f = rng.normal(size=2)
        order = _exact_order(f, g.centroids)
        assert sorted(order.tolist()) == list(range(6))
        assert np.all(np.diff(_exact_distances(f, g.centroids)[order]) >= 0)
    notes.append("ranking")

    # label-set disjointness
    for seed in range(5):
        stream = make_synthetic_stream(seed=seed, **DESK)
        seen = set()
        for s in stream.sessions:
            assert not set(s.labels) & seen
            seen |= set(s.labels)
    notes.append("labels")

    # classifier-width bookkeeping
    params = init_params(16, 32, 8, 10, seed=0)
    for t in range(4):
        params = expand_output_layer(params, 2, seed=t)
    assert params.class_count == 18
    notes.append("width")

    # CSV determinism: identical bytes on rerun
    cfg = ("base_classes = 4\nnew_classes = 4\nway = 2\nshot = 3\n"
           "input_dim = 8\ntrain_per_base = 30\ntest_per_class = 20\n"
           "hidden_dim = 12\nfeature_dim = 6\nbase_epochs = 8\n"
           "inc_epochs = 15\nnode_budget = 12\nng_passes = 1\n"
           "methods = ft,topic_al_mml\nseeds = 0,1\n")
    outputs = []
    for name in ("one", "two"):
        config = parse_config(cfg)
        config.out_dir = str(tmp_path / name)
        assert run_experiment(config, quiet=True) == 0
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    notes.append("csv")

    report("criterion 6 (invariant suite)", True, ", ".join(notes))

import dataclasses
import os

import numpy as np
import pytest

from topogas import (ConfigError, DivergenceError, HyperParams, InputError, StateError,
                     parse_config, run_experiment)
from topogas.cli import main
from topogas.harness import ExperimentConfig, default_config_text, set_key
from topogas.protocol import RUNNABLE_METHODS

TINY = """
# small everything so runs finish in well under a second each
base_classes = 4
new_classes = 4
way = 2
shot = 3
input_dim = 8
train_per_base = 30
test_per_class = 20
hidden_dim = 12
feature_dim = 6
base_epochs = 8
inc_epochs = 15
node_budget = 12
ng_passes = 1
methods = ft,topic_al
seeds = 0,1,2
"""


# -- parsing -----------------------------------------------------------------

def test_empty_text_gives_desk_defaults():
    config = parse_config("")
    assert config.base_classes == 10 and config.new_classes == 8
    assert config.way == 2 and config.shot == 5
    assert config.hp.lambda1 == 0.5 and config.hp.lambda2 == 0.005
    assert config.hp.node_budget == 40 and config.hp.growth_k == 1


def test_lambda1_round_trips():
    assert parse_config("lambda1 = 0.5").hp.lambda1 == 0.5
    assert parse_config("lambda1 = 0.25").hp.lambda1 == 0.25


def test_negative_lambda1_rejected():
    with pytest.raises(ConfigError):
        parse_config("lambda1 = -1").validate()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("lambda3 = 1.0")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("lambda1 = 0.5\n\njust some words\n")


def test_comments_and_blanks_are_ignored():
    config = parse_config("# full line\n\nlambda1 = 0.7  # trailing\n")
    assert config.hp.lambda1 == 0.7


def test_method_and_seed_lists_parse():
    config = parse_config("methods = ft, topic_al_mml\nseeds = 3, 5, 8\n")
    assert config.methods == ["ft", "topic_al_mml"]
    assert config.seeds == [3, 5, 8]


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config("methods = ft, warp").validate()


def test_bad_seed_rejected():
    with pytest.raises(ConfigError):
        parse_config("seeds = 1, two")


def test_xi_auto_and_numeric():
    assert parse_config("xi = auto").hp.xi is None
    assert parse_config("xi = 2.5").hp.xi == 2.5
    with pytest.raises(ConfigError):
        parse_config("xi = -1.0").validate()


def test_divisibility_validated():
    with pytest.raises(ConfigError):
        parse_config("new_classes = 7\nway = 2").validate()


def test_nan_cluster_spread_rejected():
    with pytest.raises(ConfigError, match="cluster_spread"):
        parse_config("cluster_spread = nan").validate()


def test_default_config_text_round_trips():
    assert parse_config(default_config_text()) == ExperimentConfig()


# int() and float() also read "1_0", "+5" and non-ASCII digits; the config
# takes numbers only as default_config_text and checkpoints write them.
@pytest.mark.parametrize("line", [
    "base_epochs = 1_0", "input_dim = \u0661\u0666", "t_life = +5", "seeds = 0, 1_0",
    "seeds = \u0661", "eta = 0.0_2", "cluster_spread = \u0661.5", "xi = 2_5.0",
])
def test_config_numbers_are_plain_ascii(line):
    with pytest.raises(ConfigError, match="line 2: "):
        parse_config("lambda1 = 0.5\n" + line)


def test_a_new_field_is_a_config_key():
    @dataclasses.dataclass
    class MoreParams(HyperParams):
        var_shrink: float = 0.0

    config = ExperimentConfig(hp=MoreParams())
    set_key(config, "var_shrink", "0.25")
    assert config.hp.var_shrink == 0.25


def test_a_text_field_is_a_config_key_that_validates():
    @dataclasses.dataclass
    class WithMode(HyperParams):
        ng_mode: str = "online"

    config = ExperimentConfig(hp=WithMode())
    set_key(config, "ng_mode", "batch")
    assert config.hp.ng_mode == "batch"
    config.validate()
    set_key(config, "eta", "nan")
    with pytest.raises(ConfigError, match="eta"):
        config.validate()


def test_run_experiment_reports_bad_hyperparameters_as_config_errors(tmp_path):
    config = ExperimentConfig(hp=HyperParams(eta=2.0), out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="eta"):
        run_experiment(config, quiet=True)
    assert not (tmp_path / "out").exists()


# -- experiment runner -----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = parse_config(TINY)
    config.out_dir = str(out)
    config.emit_confusion = True
    config.emit_graphs = True
    status = run_experiment(config, quiet=True)
    return out, status


def test_runner_exit_zero(tiny_run):
    _, status = tiny_run
    assert status == 0


def test_results_row_arithmetic(tiny_run):
    out, _ = tiny_run
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "method,seed,session,joint_acc,old_acc,new_acc"
    assert len(lines) == 1 + 2 * 3 * 3  # methods x seeds x sessions


def test_results_sorted_by_method_seed_session(tiny_run):
    out, _ = tiny_run
    keys = []
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        method, seed, session = line.split(",")[:3]
        keys.append((method, int(seed), int(session)))
    assert keys == sorted(keys)


def test_results_accuracies_are_six_decimal_fixed_point(tiny_run):
    out, _ = tiny_run
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        for cell in line.split(",")[3:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6
            assert 0.0 <= float(cell) <= 1.0


def test_summary_means_match_hand_average(tiny_run):
    out, _ = tiny_run
    per_key = {}
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        method, _, session, joint, old, new = line.split(",")
        per_key.setdefault((method, session), []).append(
            (float(joint), float(old), float(new)))
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,session,joint_acc,old_acc,new_acc"
    assert len(summary) == 1 + 2 * 3
    for line in summary[1:]:
        method, session, joint, old, new = line.split(",")
        vals = per_key[(method, session)]
        for got, idx in ((joint, 0), (old, 1), (new, 2)):
            expected = sum(v[idx] for v in vals) / len(vals)
            assert float(got) == pytest.approx(expected, abs=5e-7)


def test_confusion_and_graph_files_emitted(tiny_run):
    out, _ = tiny_run
    confusion = sorted(os.listdir(out / "confusion"))
    graphs = sorted(os.listdir(out / "graphs"))
    assert len(confusion) == 2 * 3 * 3
    assert "ft_0_1.txt" in confusion and "topic_al_2_3.txt" in confusion
    # topic_al writes every session's graph, ft only the shared base graph
    assert len(graphs) == 3 * 3 + 3
    assert "topic_al_1_2.ngtxt" in graphs
    assert "ft_0_1.ngtxt" in graphs and "ft_0_2.ngtxt" not in graphs
    text = (out / "confusion" / "topic_al_0_3.txt").read_text().splitlines()
    assert text[0] == "confusion v1"
    assert text[1] == "method topic_al" and text[4] == "classes 8"
    assert len(text) == 5 + 8


def test_graph_checkpoints_reload(tiny_run):
    from topogas import NGGraph
    out, _ = tiny_run
    g = NGGraph.load(out / "graphs" / "topic_al_0_3.ngtxt")
    assert g.session == 3
    assert len(g) == 12 + 2 * 2  # budget + grown nodes
    g.check_invariants()


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    out, _ = tiny_run
    config = parse_config(TINY)
    config.out_dir = str(tmp_path / "again")
    config.emit_confusion = True
    config.emit_graphs = True
    assert run_experiment(config, quiet=True) == 0
    first = (out / "results.csv").read_bytes()
    second = (tmp_path / "again" / "results.csv").read_bytes()
    assert first == second
    assert (out / "summary.csv").read_bytes() == (tmp_path / "again" / "summary.csv").read_bytes()
    for rel in ("confusion/topic_al_1_3.txt", "graphs/topic_al_1_3.ngtxt"):
        assert (out / rel).read_bytes() == (tmp_path / "again" / rel).read_bytes()


# The console step's divergence repros: a huge incremental step, one iteration
# and one new session; and a base session that overflows on its only epoch.
DIVERGE_REPROS = {
    "step": (("inc_lr", "1e300"), ("inc_epochs", "1"), ("new_classes", "2")),
    "base": (("base_epochs", "1"), ("base_lr", "1e300"), ("train_per_base", "10"),
             ("node_budget", "10")),
}


def test_divergence_exits_two_without_summary(tmp_path, monkeypatch, capsys):
    import topogas.harness as harness

    def blow_up(*args, **kwargs):
        raise DivergenceError("non-finite loss at session 2, iteration 0")

    monkeypatch.setattr(harness, "run_method", blow_up)
    config = parse_config(TINY)
    config.out_dir = str(tmp_path)
    assert run_experiment(config, quiet=True) == 2
    captured = capsys.readouterr()
    assert "method=ft" in captured.out and "seed=0" in captured.out
    assert "session 2" in captured.out
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("method", ["ft", "topic_al"])
@pytest.mark.parametrize("inc_epochs, new_classes", [(5, 8), (1, 2)])
def test_an_incremental_step_that_diverges_exits_two(tmp_path, capsys, method, inc_epochs,
                                                      new_classes):
    """A huge step overflows the model.  Five iterations reach a non-finite loss
    (ft) or non-finite features to present (topic_al); one iteration of ft
    reaches no further loss, so evaluation must see its non-finite logits."""
    config = parse_config(default_config_text())
    for key, value in (("inc_lr", "1e300"), ("base_epochs", "2"), ("seeds", "0"),
                       ("inc_epochs", str(inc_epochs)), ("new_classes", str(new_classes)),
                       ("methods", method), ("out_dir", str(tmp_path))):
        set_key(config, key, value)
    with np.errstate(all="ignore"):
        assert run_experiment(config, quiet=True) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"divergence: method={method} seed=0: ") and "session 2" in line
    assert (tmp_path / "results.csv").read_text().splitlines() == [
        "method,seed,session,joint_acc,old_acc,new_acc"]
    assert not (tmp_path / "summary.csv").exists()


# Where each repro stops: in an incremental step, methods whose loss reads the
# graph present non-finite features, and the others reach the evaluation (joint
# takes no incremental step); a base session whose last step diverges stops every
# method at that step's loss.
DIVERGE_LINES = {
    ("step", m): "non-finite logits evaluating session 2"
    for m in ("ft", "distill", "exemplar_anchor")
} | {
    ("step", m): "non-finite features at session 2, iteration 0"
    for m in ("topic_al", "topic_al_mml", "topic_al_mml_dl")
} | {
    ("base", m): "non-finite loss during base session, after its last step"
    for m in ("ft", "distill", "exemplar_anchor", "joint", "topic_al", "topic_al_mml",
              "topic_al_mml_dl")
}


@pytest.mark.parametrize("repro,method", sorted(DIVERGE_LINES),
                         ids=[f"{r}-{m}" for r, m in sorted(DIVERGE_LINES)])
def test_a_diverging_run_prints_its_one_line_and_no_warning(tmp_path, capsys, method, repro):
    """numpy's overflow warnings of a run that diverges are dropped: the run's
    divergence line names the cause.  No np.errstate is set around the run, and
    the suite's error::RuntimeWarning filter would raise any warning that escaped."""
    config = parse_config(default_config_text())
    for key, value in (*DIVERGE_REPROS[repro], ("seeds", "0"), ("methods", method),
                       ("out_dir", str(tmp_path))):
        set_key(config, key, value)
    assert run_experiment(config, quiet=True) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"divergence: method={method} seed=0: {DIVERGE_LINES[repro, method]}"]
    assert captured.err == ""


@pytest.mark.parametrize("stage, rows", [("shots", 3), ("anchors", 14)])
def test_a_non_finite_encode_of_the_shots_or_anchors_exits_two(tmp_path, capsys, monkeypatch,
                                                               stage, rows):
    """A NaN in the features of one class's 3 shots, or of the 12 + 2 pseudo inputs
    at session 2's anchor refresh, stops the run with its one divergence line."""
    import topogas.protocol as protocol
    encode = protocol.extract_features

    def encode_with_a_nan_row(params, x):
        feats = encode(params, x)
        if len(x) == rows:
            feats[0, -1] = np.nan
        return feats

    monkeypatch.setattr(protocol, "extract_features", encode_with_a_nan_row)
    config = parse_config(TINY)
    config.methods, config.seeds, config.out_dir = ["topic_al"], [0], str(tmp_path)
    assert run_experiment(config, quiet=True) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"divergence: method=topic_al seed=0: non-finite features of the {stage} at session 2"]
    assert not (tmp_path / "summary.csv").exists()


def test_a_run_that_succeeds_re_emits_its_warnings(tmp_path, monkeypatch):
    import topogas.harness as harness
    run_method = harness.run_method

    def overflowing(*args, **kwargs):
        np.exp(np.array([1e3]))
        return run_method(*args, **kwargs)

    monkeypatch.setattr(harness, "run_method", overflowing)
    config = parse_config(TINY + "methods = ft\nseeds = 0\n")
    config.out_dir = str(tmp_path)
    with pytest.raises(RuntimeWarning, match="overflow"):
        run_experiment(config, quiet=True)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_experiment(config, quiet=True) == 0
    assert (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("error", [InputError, StateError])
def test_run_error_exits_three_without_summary(tmp_path, monkeypatch, capsys, error):
    import topogas.harness as harness

    def fail(*args, **kwargs):
        raise error("no node carries batch label 7")

    monkeypatch.setattr(harness, "run_method", fail)
    config = parse_config(TINY)
    config.out_dir = str(tmp_path)
    assert run_experiment(config, quiet=True) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert "method=ft" in lines[0] and "seed=0" in lines[0]
    assert error.__name__ in lines[0] and "batch label 7" in lines[0]
    assert not (tmp_path / "summary.csv").exists()


def output_files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def count_base_training(monkeypatch):
    """Seeds of every base training and every base graph fit, in call order."""
    import topogas.protocol as protocol

    train_base_session, fit_base_graph = protocol.train_base_session, protocol.fit_base_graph
    trained, fitted = [], []

    def counting_base(stream, hp, seed, **kwargs):
        trained.append(seed)
        return train_base_session(stream, hp, seed, **kwargs)

    def counting_fit(params, stream, hp, seed):
        fitted.append(seed)
        return fit_base_graph(params, stream, hp, seed)

    monkeypatch.setattr(protocol, "train_base_session", counting_base)
    monkeypatch.setattr(protocol, "fit_base_graph", counting_fit)
    return trained, fitted


@pytest.mark.parametrize("methods,fits", [
    ("ft,topic_al,topic_al_mml,joint", [0, 1, 2]),
    ("joint", []),
    ("ft,distill,exemplar_anchor,joint", []),
])
def test_graph_is_fitted_only_for_runs_that_read_it(tmp_path, monkeypatch, methods, fits):
    from topogas import NGGraph

    trained, fitted = count_base_training(monkeypatch)
    present, presented = NGGraph.present, []

    def counting_present(graph, *args):
        presented.append(len(graph))
        return present(graph, *args)

    monkeypatch.setattr(NGGraph, "present", counting_present)
    config = parse_config(TINY + f"methods = {methods}\n")
    config.out_dir = str(tmp_path)
    assert run_experiment(config, quiet=True) == 0
    assert trained == [0, 1, 2]
    assert fitted == fits
    assert bool(presented) == bool(fits)


def watch_streams(monkeypatch):
    """(seed of each stream built, streams alive at each run) for the next experiment.

    Streams are held weakly; each count follows a full garbage collection.
    """
    import gc
    import weakref

    import topogas.harness as harness

    make, run = harness.make_synthetic_stream, harness.run_method
    built, refs, alive = [], [], []

    def making(*args):
        stream = make(*args)
        built.append(args[-1])
        refs.append(weakref.ref(stream))
        return stream

    def running(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "make_synthetic_stream", making)
    monkeypatch.setattr(harness, "run_method", running)
    return built, alive


def test_a_one_method_sweep_holds_one_seed_stream_at_a_time(tmp_path, monkeypatch):
    built, alive = watch_streams(monkeypatch)
    trained, _ = count_base_training(monkeypatch)
    config = parse_config(TINY + "methods = topic_al\n")
    config.out_dir = str(tmp_path)
    assert run_experiment(config, quiet=True) == 0
    assert built == trained == [0, 1, 2]
    assert alive == [1, 1, 1]


def test_shared_base_sessions_write_the_files_of_unshared_runs(tmp_path, monkeypatch):
    import topogas.harness as harness
    import topogas.protocol as protocol

    trained, fitted = count_base_training(monkeypatch)
    built, alive = watch_streams(monkeypatch)
    config = parse_config(TINY + "methods = " + ",".join(RUNNABLE_METHODS) + "\n")
    config.emit_confusion = config.emit_graphs = True
    config.out_dir = str(tmp_path / "shared")
    assert run_experiment(config, quiet=True) == 0
    assert trained == fitted == built == [0, 1, 2]  # once per seed
    # Runs go method-major, so each seed's stream lives until its run of the last method.
    assert alive == [1, 2] + [3] * (3 * len(RUNNABLE_METHODS) - 4) + [2, 1]

    # The oracle: every run trains its own base session.
    monkeypatch.setattr(harness, "run_method", lambda *args, bases, **kwargs:
                        protocol.run_method(*args, **kwargs))
    config.out_dir = str(tmp_path / "unshared")
    assert run_experiment(config, quiet=True) == 0
    assert len(trained) == 3 + len(RUNNABLE_METHODS) * 3

    shared, unshared = output_files(tmp_path / "shared"), output_files(tmp_path / "unshared")
    # results, summary, 7 x 3 x 3 confusion files, 3 x 3 x 3 topic_* graphs and
    # 4 x 3 base graphs (ft, distill, exemplar_anchor and joint emit session 1's)
    assert len(shared) == 2 + 63 + 39
    assert shared.keys() == unshared.keys()
    for name in shared:
        assert shared[name] == unshared[name], name


# -- CLI ----------------------------------------------------------------------

def test_cli_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda1 = -3\n")
    assert main(["--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 1


def test_cli_overrides_and_quiet(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "cli_out"
    status = main(["--config", str(cfg), "--out", str(out),
                   "--seeds", "4", "--methods", "ft", "--quiet"])
    assert status == 0
    assert capsys.readouterr().out == ""
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # one method, one seed, three sessions
    assert all(line.startswith("ft,4,") for line in lines[1:])


def test_cli_override_replaces_file_value_before_validation(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(TINY + "seeds = 1,1\n")
    out = tmp_path / "dup_out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--seeds", "0", "--methods", "ft", "--quiet"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 and all(line.startswith("ft,0,") for line in lines[1:])
    bad_out = tmp_path / "bad_out"
    assert main(["--config", str(cfg), "--out", str(bad_out), "--seeds", "0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not bad_out.exists()


def test_cli_bad_override_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["--config", str(cfg), "--methods", "bogus"]) == 1


@pytest.mark.parametrize("where", ["file", "under_file", "graphs_file"])
def test_cli_rejects_unusable_output_directory(tmp_path, capsys, where):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + "emit_graphs = true\n")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = {"file": blocker, "under_file": blocker / "out", "graphs_file": tmp_path}[where]
    if where == "graphs_file":
        (tmp_path / "graphs").write_text("not a directory\n")
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use output directory")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "results.csv").exists()


# Without a check before training, each of these configs would fail only after
# the base session trained, or would repeat runs.  TINY has shot = 3 and 4 x 30
# base samples.
@pytest.mark.parametrize("extra,overrides", [
    ("growth_k = 3", []),
    ("shot = 1", []),
    ("node_budget = 121", []),
    ("seeds = 1,2,1", []),
    ("methods = ft,topic_al,ft", []),
    ("", ["--seeds", "5,5"]),
    ("", ["--methods", "ft,ft"]),
    ("eps_var = 1e-320", []),
    ("t_life = 100000000000000000000", []),
    ("t_life = 9223372036854775807", []),
    ("seeds = 0,-1", []),
    ("", ["--seeds=-1"]),
    ("", ["--seeds", "1_0"]),
    ("cluster_spread = 0", []),
], ids=["growth_k_at_shot", "shot_one", "node_budget_over_samples",
        "duplicate_seeds", "duplicate_methods", "duplicate_seed_override",
        "duplicate_method_override", "eps_var_reciprocal_overflows",
        "t_life_outside_int64", "t_life_ages_would_wrap", "negative_seed",
        "negative_seed_override", "underscore_seed_override", "cluster_spread_zero"])
def test_cli_rejects_config_before_training(tmp_path, capsys, extra, overrides):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + extra + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *overrides]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not out.exists()

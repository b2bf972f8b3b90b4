import os

import pytest

from topogas import ConfigError, DivergenceError, parse_config, run_experiment
from topogas.cli import main
from topogas.harness import ExperimentConfig, default_config_text

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
        parse_config("lambda1 = -1")


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
        parse_config("methods = ft, warp")


def test_bad_seed_rejected():
    with pytest.raises(ConfigError):
        parse_config("seeds = 1, two")


def test_xi_auto_and_numeric():
    assert parse_config("xi = auto").hp.xi is None
    assert parse_config("xi = 2.5").hp.xi == 2.5
    with pytest.raises(ConfigError):
        parse_config("xi = -1.0")


def test_divisibility_validated():
    with pytest.raises(ConfigError):
        parse_config("new_classes = 7\nway = 2")


def test_nan_cluster_spread_rejected():
    with pytest.raises(ConfigError, match="cluster_spread"):
        parse_config("cluster_spread = nan")


def test_default_config_text_round_trips():
    assert parse_config(default_config_text()) == ExperimentConfig()


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
    assert len(graphs) == 2 * 3 * 3
    assert "topic_al_1_2.ngtxt" in graphs
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


def test_cli_bad_override_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["--config", str(cfg), "--methods", "bogus"]) == 1


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
], ids=["growth_k_at_shot", "shot_one", "node_budget_over_samples",
        "duplicate_seeds", "duplicate_methods", "duplicate_seed_override",
        "duplicate_method_override"])
def test_cli_rejects_config_before_training(tmp_path, capsys, extra, overrides):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + extra + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *overrides]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "results.csv").exists()

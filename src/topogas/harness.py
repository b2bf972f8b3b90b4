"""Experiment harness: plain-text config, multi-run orchestration, CSV output.

Config files are line-oriented `key = value` with `#` comments.  Every run
(method x seed) appends per-session rows to results.csv; a mean-over-seeds
summary.csv is written only after all runs succeed.  All emitted files are
deterministic functions of the config.
"""

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, DivergenceError, InputError, StateError
from .losses import HyperParams
from .protocol import RUNNABLE_METHODS, make_synthetic_stream, run_method

RESULTS_HEADER = "method,seed,session,joint_acc,old_acc,new_acc"
SUMMARY_HEADER = "method,session,joint_acc,old_acc,new_acc"
CONFUSION_HEADER = "confusion v1"


@dataclass
class ExperimentConfig:
    """Stream, model and training parameters plus run matrix and emit flags."""

    # stream
    base_classes: int = 10
    new_classes: int = 8
    way: int = 2
    shot: int = 5
    input_dim: int = 16
    cluster_spread: float = 0.55
    train_per_base: int = 100
    test_per_class: int = 100
    # model
    hidden_dim: int = 32
    feature_dim: int = 8
    # training
    hp: HyperParams = field(default_factory=HyperParams)
    # run matrix
    methods: list = field(default_factory=lambda: ["ft", "topic_al", "topic_al_mml"])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    out_dir: str = "results"
    emit_confusion: bool = False
    emit_graphs: bool = False

    def validate(self) -> None:
        self.hp.validate()
        for name in _INT_KEYS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not 0 < self.cluster_spread < math.inf:
            raise ConfigError(f"cluster_spread must be positive and finite: {self.cluster_spread}")
        if self.new_classes % self.way != 0:
            raise ConfigError("new_classes must be divisible by way")
        if self.hp.growth_k >= self.shot:
            raise ConfigError(f"growth_k={self.hp.growth_k} must be below shot={self.shot}")
        if self.hp.node_budget > self.base_classes * self.train_per_base:
            raise ConfigError(f"node_budget={self.hp.node_budget} exceeds the base train samples")
        for name in ("methods", "seeds"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be a non-empty list without duplicates")
        for m in self.methods:
            if m not in RUNNABLE_METHODS:
                raise ConfigError(
                    f"unknown method {m!r}; expected one of {RUNNABLE_METHODS}")


_INT_KEYS = ("base_classes", "new_classes", "way", "shot", "input_dim",
             "train_per_base", "test_per_class", "hidden_dim", "feature_dim")
_FLOAT_KEYS = ("cluster_spread",)
_BOOL_KEYS = ("emit_confusion", "emit_graphs")
_HP_INT_KEYS = ("t_life", "base_epochs", "inc_epochs", "node_budget",
                "growth_k", "exemplars_per_class", "ng_passes")
_HP_FLOAT_KEYS = ("eta", "alpha", "lambda1", "lambda2", "gamma", "t_distill",
                  "base_lr", "inc_lr", "eps_var")


def parse_methods(value: str) -> list:
    methods = [m.strip() for m in value.split(",") if m.strip()]
    for m in methods:
        if m not in RUNNABLE_METHODS:
            raise ConfigError(
                f"unknown method {m!r}; expected one of {RUNNABLE_METHODS}")
    return methods


def parse_seeds(value: str) -> list:
    try:
        return [int(s.strip()) for s in value.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"seeds must be a comma list of integers: {value!r}") from exc


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines into a validated ExperimentConfig.

    Unknown keys are rejected; missing keys keep the desk-scale defaults.
    """
    config = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        try:
            _apply_key(config, key, value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        config.validate()
    except InputError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _apply_key(config: ExperimentConfig, key: str, value: str) -> None:
    if key in _INT_KEYS:
        setattr(config, key, int(value))
    elif key in _FLOAT_KEYS:
        setattr(config, key, float(value))
    elif key in _BOOL_KEYS:
        setattr(config, key, _parse_bool(key, value))
    elif key in _HP_INT_KEYS:
        setattr(config.hp, key, int(value))
    elif key in _HP_FLOAT_KEYS:
        setattr(config.hp, key, float(value))
    elif key == "xi":
        config.hp.xi = None if value.lower() == "auto" else float(value)
    elif key == "methods":
        config.methods = parse_methods(value)
    elif key == "seeds":
        config.seeds = parse_seeds(value)
    elif key == "out_dir":
        config.out_dir = value
    else:
        raise ConfigError(f"unknown config key {key!r}")


def default_config_text() -> str:
    """A commented config with every key at its default value."""
    config = ExperimentConfig()
    lines = ["# experiment configuration (key = value, '#' starts a comment)"]
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "hp":
            continue
        value = getattr(config, f.name)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    for f in dataclasses.fields(HyperParams):
        value = getattr(config.hp, f.name)
        lines.append(f"{f.name} = {'auto' if value is None else value}")
    return "\n".join(lines) + "\n"


def _format_row(method: str, seed: int, m) -> str:
    return (f"{method},{seed},{m.session},"
            f"{m.joint_acc:.6f},{m.old_acc:.6f},{m.new_acc:.6f}")


def _write_confusion(path: str, method: str, seed: int, session: int,
                     confusion) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CONFUSION_HEADER}\n")
        fh.write(f"method {method}\nseed {seed}\nsession {session}\n")
        fh.write(f"classes {confusion.shape[0]}\n")
        for row in confusion:
            fh.write(" ".join(f"{v:.6f}" for v in row) + "\n")


def run_experiment(config: ExperimentConfig, quiet: bool = False) -> int:
    """Run every (method, seed) pair and write result files.

    Returns the process exit status: 0 on success, 2 on divergence and 3
    when a run raises InputError or StateError; on 2 and 3 a diagnostic line
    names the failed run and summary.csv is not written.  An output
    directory that cannot be created raises ConfigError before any run.
    Runs of one seed share its base session, which is trained once; the
    neural gas is fitted only for runs that read it or write checkpoints.
    """
    config.validate()
    out = config.out_dir
    dirs = [out]
    if config.emit_confusion:
        dirs.append(os.path.join(out, "confusion"))
    if config.emit_graphs:
        dirs.append(os.path.join(out, "graphs"))
    for path in dirs:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {path!r}: {exc}") from exc

    streams = {seed: make_synthetic_stream(
        config.base_classes, config.new_classes, config.way, config.shot,
        config.input_dim, config.cluster_spread, config.train_per_base,
        config.test_per_class, seed) for seed in config.seeds}

    rows, bases = [], {}
    results_path = os.path.join(out, "results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
    for method in sorted(config.methods):
        for seed in sorted(config.seeds):
            sink = None
            if config.emit_graphs:
                sink = lambda t, g, m=method, s=seed: g.save(
                    os.path.join(out, "graphs", f"{m}_{s}_{t}.ngtxt"))
            try:
                metrics = run_method(streams[seed], method, config.hp, seed,
                                     config.hidden_dim, config.feature_dim,
                                     graph_sink=sink, bases=bases)
            except DivergenceError as exc:
                print(f"divergence: method={method} seed={seed}: {exc}")
                return 2
            except (InputError, StateError) as exc:
                print(f"run error: method={method} seed={seed}: "
                      f"{type(exc).__name__}: {exc}")
                return 3
            run_rows = [_format_row(method, seed, m) for m in metrics]
            rows.extend(run_rows)
            with open(results_path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(run_rows) + "\n")
            if config.emit_confusion:
                for m in metrics:
                    _write_confusion(
                        os.path.join(out, "confusion", f"{method}_{seed}_{m.session}.txt"),
                        method, seed, m.session, m.confusion)
            if not quiet:
                print(f"{method} seed {seed}: final joint {metrics[-1].joint_acc:.4f}")

    _write_summary(os.path.join(out, "summary.csv"), rows)
    return 0


def _write_summary(path: str, rows: list) -> None:
    grouped: dict = {}
    for row in rows:
        method, seed, session, joint, old, new = row.split(",")
        grouped.setdefault((method, int(session)), []).append(
            (float(joint), float(old), float(new)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for (method, session) in sorted(grouped):
            vals = grouped[(method, session)]
            means = [sum(v[i] for v in vals) / len(vals) for i in range(3)]
            fh.write(f"{method},{session},"
                     f"{means[0]:.6f},{means[1]:.6f},{means[2]:.6f}\n")

"""Experiment harness: plain-text config, multi-run orchestration, CSV output.

Config files are line-oriented `key = value` with `#` comments; the keys are
the fields of ExperimentConfig and HyperParams, and each value is parsed by
its field's type.  Values are checked by ExperimentConfig.validate, which
run_experiment calls first, so CLI overrides replace file values before the
check.  Every run (method x seed) appends per-session rows to
results.csv; a mean-over-seeds summary.csv is written only after all runs
succeed.  All emitted files are deterministic functions of the config.
"""

import dataclasses
import math
import os
import typing
import warnings
from dataclasses import dataclass, field

from .errors import ConfigError, DivergenceError, InputError, StateError
from .losses import HyperParams
from .neural_gas import _number_word
from .protocol import RUNNABLE_METHODS, make_synthetic_stream, run_method

RESULTS_HEADER = "method,seed,session,joint_acc,old_acc,new_acc"
SUMMARY_HEADER = "method,session,joint_acc,old_acc,new_acc"
CONFUSION_HEADER = "confusion v1"
BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
              "false": False, "no": False, "0": False, "off": False}


@dataclass
class ExperimentConfig:
    """Stream parameters, hyperparameters (the model's dims too), run matrix and emit flags."""

    # stream
    base_classes: int = 10
    new_classes: int = 8
    way: int = 2
    shot: int = 5
    input_dim: int = 16
    cluster_spread: float = 0.55
    train_per_base: int = 100
    test_per_class: int = 100
    # training and the model's dims
    hp: HyperParams = field(default_factory=HyperParams)
    # run matrix
    methods: list[str] = field(default_factory=lambda: ["ft", "topic_al", "topic_al_mml"])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    out_dir: str = "results"
    emit_confusion: bool = False
    emit_graphs: bool = False

    def validate(self) -> None:
        """Raise ConfigError for any value no run can use."""
        try:
            self.hp.validate()
        except InputError as exc:
            raise ConfigError(str(exc)) from exc
        for f in dataclasses.fields(self):
            if f.type is int and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be a positive integer")
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
        unknown = [m for m in self.methods if m not in RUNNABLE_METHODS]
        if unknown:
            raise ConfigError(f"unknown method {unknown[0]!r}; expected one of {RUNNABLE_METHODS}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")


def _parse_value(key: str, kind, value: str):
    """`value` as the field type `kind`; numbers are written as plain ASCII."""
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return [_parse_value(key, item, v.strip()) for v in value.split(",") if v.strip()]
    if kind == float | None and value.lower() == "auto":
        return None
    if kind is str:
        return value
    if kind is bool and value.lower() in BOOL_WORDS:
        return BOOL_WORDS[value.lower()]
    try:
        if kind in (int, float, float | None):
            return _number_word(value, int if kind is int else float)
    except ValueError:
        pass
    raise ConfigError(f"{key} expects {getattr(kind, '__name__', kind)}, got {value!r}")


def set_key(config: ExperimentConfig, key: str, value: str) -> None:
    """Set the field `key` of config or config.hp to `value` parsed by the field's type."""
    for target in (config, config.hp):
        kinds = {f.name: f.type for f in dataclasses.fields(target) if f.name != "hp"}
        if key in kinds:
            setattr(target, key, _parse_value(key, kinds[key], value))
            return
    raise ConfigError(f"unknown config key {key!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines into an ExperimentConfig, not yet validated.

    Unknown keys are rejected; missing keys keep the desk-scale defaults.
    """
    config = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        try:
            set_key(config, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return config


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
    names the failed run and summary.csv is not written.  Warnings raised
    during a run are held until it ends: a failed run drops them, a run
    that succeeds re-emits them.  An output
    directory that cannot be created raises ConfigError before any run.
    Runs of one seed share its stream and base session, each built once;
    the neural gas is fitted only for runs that read it or write
    checkpoints.  Runs go method-major, and a seed's stream and base live
    from its first run to its last (that of the last method), so a
    one-method sweep holds one seed's data at a time while a sweep of
    several methods holds every seed's stream.
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

    rows, streams, bases, seen = [], {}, {}, {}
    last_method = max(config.methods)
    results_path = os.path.join(out, "results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
    for method in sorted(config.methods):
        for seed in sorted(config.seeds):
            if seed not in streams:
                streams[seed] = make_synthetic_stream(
                    config.base_classes, config.new_classes, config.way, config.shot,
                    config.input_dim, config.cluster_spread, config.train_per_base,
                    config.test_per_class, seed)
            sink = None
            if config.emit_graphs:
                sink = lambda t, g, m=method, s=seed: g.save(
                    os.path.join(out, "graphs", f"{m}_{s}_{t}.ngtxt"))
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    metrics = run_method(streams[seed], method, config.hp, seed,
                                         graph_sink=sink, bases=bases)
            except DivergenceError as exc:
                print(f"divergence: method={method} seed={seed}: {exc}")
                return 2
            except (InputError, StateError) as exc:
                print(f"run error: method={method} seed={seed}: "
                      f"{type(exc).__name__}: {exc}")
                return 3
            if method == last_method:
                del streams[seed]
                bases.pop(seed, None)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=seen)
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

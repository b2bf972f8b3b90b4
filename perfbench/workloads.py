"""Benchmark workloads: each turns a seed into the experiment config the program receives.

The program sees only the generated `key = value` config; everything a
workload varies (stream shape, graph size, method list, emit flags) is a
config key, and the seed picks the synthetic stream.
"""

from dataclasses import dataclass, field

ALL_METHODS = ("ft", "distill", "exemplar_anchor", "topic_al", "topic_al_mml",
               "topic_al_mml_dl", "joint")

# Methods whose incremental loss never reads the neural-gas graph, although
# the protocol still presents every batch feature to it.
GRAPH_UNREAD_METHODS = ("ft", "distill", "exemplar_anchor")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    seed_count: int
    settings: dict = field(default_factory=dict)

    @property
    def emits_files(self) -> bool:
        return self.settings.get("emit_graphs") == "true"

    @property
    def sessions(self) -> int:
        """Sessions per run: the base session plus one per `way` new classes."""
        return 1 + int(self.settings["new_classes"]) // int(self.settings["way"])

    def seeds(self, seed: int) -> list:
        return [seed + i for i in range(self.seed_count)]

    def runs(self, seed: int) -> list:
        return [(m, s) for m in sorted(self.methods) for s in self.seeds(seed)]

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings.items()]
        lines.append("methods = " + ",".join(self.methods))
        lines.append("seeds = " + ",".join(str(s) for s in self.seeds(seed)))
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    # README desk scale (10 + 8 classes, 2-way 5-shot, 40 nodes); every
    # method tag, checkpoints and confusion matrices written and reloaded.
    Workload("desk_sweep", ALL_METHODS, 3, {
        "base_classes": 10, "new_classes": 8, "way": 2, "shot": 5,
        "input_dim": 16, "hidden_dim": 32, "feature_dim": 8,
        "train_per_base": 100, "test_per_class": 100, "node_budget": 40,
        "emit_graphs": "true", "emit_confusion": "true"}),
    # Paper shape (60 + 40 classes, 5-way 5-shot, 400 nodes) with 200
    # training samples per base class, which keeps peak memory near 2.5 GB.
    # At the default inc_lr = 0.1 the final accuracy of this single run
    # swings from 0.10 to 0.50 with the seed; at 0.05 it stays near 0.6,
    # steady enough to bound, and new classes are still learned.
    Workload("paper_stream", ("topic_al_mml",), 1, {
        "base_classes": 60, "new_classes": 40, "way": 5, "shot": 5,
        "input_dim": 64, "hidden_dim": 128, "feature_dim": 32,
        "train_per_base": 200, "test_per_class": 100, "node_budget": 400,
        "base_epochs": 10, "inc_lr": 0.05}),
    # Joint upper bound: large-batch cross-entropy retraining each session.
    Workload("joint_retrain", ("joint",), 2, {
        "base_classes": 20, "new_classes": 20, "way": 5, "shot": 5,
        "input_dim": 64, "hidden_dim": 128, "feature_dim": 32,
        "train_per_base": 200, "test_per_class": 100, "node_budget": 40,
        "base_epochs": 20, "cluster_spread": 1.0}),
)}

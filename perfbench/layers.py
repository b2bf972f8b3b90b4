"""Which package functions the benchmark traces, and the per-layer metrics built from the spans.

Layers are the package modules: feature_model, losses, neural_gas, protocol
and harness (with cli).  A function is patched in each namespace that calls
it, so calls made through directly imported names are caught too.
"""

import os
from pathlib import Path

import numpy as np

from workloads import GRAPH_UNREAD_METHODS

LAYERS = ("feature_model", "losses", "neural_gas", "protocol", "harness")

# Metrics that count work or time in one layer, as "<layer>.<function>.<stat>".
FUNCTION_STATS = {
    "feature_model": {"forward_batch": ("calls", "rows", "busy_s"),
                      "backward_batch": ("calls", "busy_s"),
                      "forward": ("calls", "busy_s"),
                      "sgd_step": ("calls", "busy_s")},
    "losses": {"total_loss": ("calls", "self_s"),
               "anchor_loss": ("busy_s",),
               "min_max_loss": ("busy_s", "self_s"),
               "distillation_loss": ("busy_s",),
               "xi_heuristic": ("busy_s",)},
    "neural_gas": {"hebbian_update": ("calls", "busy_s"),
                   "edge_update": ("calls", "busy_s"),
                   "train_on_features": ("self_s",),
                   "quantization_error": ("busy_s", "maxrss_delta_mb"),
                   "estimate_variances": ("busy_s", "maxrss_delta_mb"),
                   "assign_pseudo_exemplars": ("busy_s", "maxrss_delta_mb"),
                   "refresh_anchors": ("busy_s",),
                   "grow": ("busy_s",),
                   "to_text": ("busy_s",),
                   "from_text": ("busy_s",)},
    "protocol": {"run_method": ("calls",),
                 "train_base_session": ("self_s",),
                 "train_incremental_session": ("self_s",),
                 "_train_cross_entropy": ("busy_s",),
                 "evaluate_joint": ("calls", "rows", "busy_s"),
                 "make_synthetic_stream": ("busy_s",)},
    "harness": {"run_experiment": ("self_s",),
                "parse_config": ("busy_s",)},
}

STAT_UNITS = {"calls": "count", "rows": "count", "busy_s": "s", "self_s": "s",
              "maxrss_delta_mb": "MB"}


def _first_len(args, kwargs):
    """Rows of forward_batch's input, or nodes of the graph a method is called on."""
    return len(args[0])


def _graph_unread(args, kwargs):
    method = args[4] if len(args) > 4 else kwargs["method"]
    return method in GRAPH_UNREAD_METHODS


def _evaluated_rows(args, kwargs):
    stream, upto = args[1], args[2]
    return sum(len(s.test_y) for s in stream.sessions[:upto])


def instrument(tracer, full: bool) -> None:
    """Patch the package.  Without `full`, only the harness's run_method calls become spans."""
    from topogas import cli, harness, losses, protocol
    from topogas.neural_gas import NGGraph

    tracer.patch(harness, "run_method")
    if not full:
        return
    tracer.patch(cli, "parse_config")
    tracer.patch(cli, "run_experiment")
    tracer.patch(harness, "make_synthetic_stream")
    for namespace in (protocol, losses):
        tracer.patch(namespace, "forward_batch", measure=_first_len)
        for name in ("forward", "backward_batch", "softmax_cross_entropy_batch"):
            tracer.patch(namespace, name)
    for name in ("sgd_step", "total_loss", "xi_heuristic", "init_graph",
                 "train_on_features", "_train_cross_entropy",
                 "train_base_session"):
        tracer.patch(protocol, name)
    tracer.patch(protocol, "train_incremental_session", measure=_graph_unread)
    tracer.patch(protocol, "evaluate_joint", measure=_evaluated_rows)
    for name in ("anchor_loss", "_exemplar_anchor_loss", "min_max_loss",
                 "distillation_loss"):
        tracer.patch(losses, name)
    tracer.patch(NGGraph, "hebbian_update", measure=_first_len)
    for name in ("assign_pseudo_exemplars", "estimate_variances", "quantization_error"):
        tracer.patch(NGGraph, name, rss=True)
    for name in ("edge_update", "grow", "refresh_anchors", "to_text", "from_text"):
        tracer.patch(NGGraph, name)


def src_lines(root: Path) -> dict:
    """Line count of each package module, plus the package total."""
    counts = {}
    for path in sorted((root / "src" / "topogas").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem.strip("_")] = sum(1 for _ in fh)
    counts["topogas"] = sum(counts.values())
    return {f"{module}.src_lines": n for module, n in counts.items()}


def metric_name(layer: str, function: str, stat: str) -> str:
    return f"{layer}.{function.lstrip('_')}.{stat}"


def per_layer_metrics(tracer, window_s: float) -> dict:
    """Per-layer numbers from the spans of one traced workload run."""
    names, parents, durations, values, self_s = tracer.arrays()
    out = {}

    def spans_of(layer, function):
        return names == tracer.id_of(layer, function)

    for layer, functions in FUNCTION_STATS.items():
        for function, stats in functions.items():
            mask = spans_of(layer, function)
            found = {"calls": int(mask.sum()),
                     "rows": float(values[mask].sum()),
                     "busy_s": float(durations[mask].sum()),
                     "self_s": float(self_s[mask].sum()),
                     "maxrss_delta_mb": float(values[mask].sum())}
            for stat in stats:
                out[metric_name(layer, function, stat)] = (found[stat], STAT_UNITS[stat])

    layer_ids = np.array([LAYERS.index(layer) for layer in tracer.layers], dtype=np.int64)
    span_layers = layer_ids[names] if names.size else names
    for i, layer in enumerate(LAYERS):
        layer_self = float(self_s[span_layers == i].sum())
        out[f"{layer}.self_s"] = (layer_self, "s")
        out[f"{layer}.self_share"] = (layer_self / window_s, "ratio")

    hebbian = spans_of("neural_gas", "hebbian_update")
    calls = int(hebbian.sum())
    out["neural_gas.hebbian_update.us_per_call"] = (
        1e6 * float(durations[hebbian].sum()) / calls if calls else 0.0, "us")
    out["neural_gas.nodes.mean"] = (float(values[hebbian].mean()) if calls else 0.0, "count")

    session = tracer.enclosing("protocol", "train_incremental_session")
    incremental = hebbian & (session >= 0)
    unread = incremental & (values[np.maximum(session, 0)] > 0)
    out["neural_gas.presentations_unread_ratio"] = (
        float(unread.sum() / incremental.sum()) if incremental.any() else 0.0, "ratio")

    step = tracer.enclosing("losses", "total_loss")
    in_step = spans_of("feature_model", "forward_batch") & (step >= 0)
    steps = int(spans_of("losses", "total_loss").sum())
    out["losses.total_loss.forward_batch_per_call"] = (
        float(in_step.sum() / steps) if steps else 0.0, "count")

    out["trace.unattributed_s"] = (window_s - float(durations[parents < 0].sum()), "s")
    out["trace.spans"] = (len(durations), "count")
    return out


def written_files(out_dir: Path) -> tuple:
    """(file count, total bytes) under a run's output directory."""
    count = size = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            count += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return count, size

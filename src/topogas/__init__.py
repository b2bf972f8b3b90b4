"""Topology-preserving class-incremental learning on synthetic streams.

A neural-gas graph models the feature-space layout of everything learned so
far; incremental sessions stabilize the old part of the graph with a
variance-weighted anchor penalty and adapt new-class nodes with a min-max
margin loss, all on top of a small hand-differentiated feature model.
"""

from .errors import ConfigError, DivergenceError, InputError, StateError
from .feature_model import (ForwardCache, GradReport, Gradients, ModelParams,
                            backward, backward_batch, expand_output_layer,
                            finite_difference_check, forward, forward_batch,
                            init_params, sgd_step, softmax,
                            softmax_cross_entropy, softmax_cross_entropy_batch)
from .losses import (METHODS, ExemplarSet, HyperParams, anchor_loss,
                     distillation_loss, min_max_loss, total_loss, xi_heuristic)
from .neural_gas import NGGraph, Ranking, init_graph, train_on_features
from .protocol import (RUNNABLE_METHODS, Session, SessionMetrics,
                       SessionStream, evaluate_joint, make_synthetic_stream,
                       run_method, train_base_session,
                       train_incremental_session)
from .harness import ExperimentConfig, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DivergenceError", "InputError", "StateError",
    "ForwardCache", "GradReport", "Gradients", "ModelParams",
    "backward", "backward_batch", "expand_output_layer",
    "finite_difference_check", "forward", "forward_batch", "init_params",
    "sgd_step", "softmax", "softmax_cross_entropy", "softmax_cross_entropy_batch",
    "METHODS", "ExemplarSet", "HyperParams", "anchor_loss",
    "distillation_loss", "min_max_loss", "total_loss", "xi_heuristic",
    "NGGraph", "Ranking", "init_graph", "train_on_features",
    "RUNNABLE_METHODS", "Session", "SessionMetrics", "SessionStream",
    "evaluate_joint", "make_synthetic_stream", "run_method",
    "train_base_session", "train_incremental_session",
    "ExperimentConfig", "parse_config", "run_experiment",
    "__version__",
]

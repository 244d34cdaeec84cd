"""Experiment orchestration: configs, runners, plot data, CLI, and the
benchmark-reproduction suite."""

from .config import ExperimentConfig, parse_config, serialize_config
from .plotdata import PLOT_KINDS, emit_plot_data
from .reproduce import CheckResult, full_scale_config
from .runner import RunArtifact, persist, run_experiment, run_single

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "PLOT_KINDS",
    "emit_plot_data",
    "CheckResult",
    "full_scale_config",
    "RunArtifact",
    "persist",
    "run_experiment",
    "run_single",
]

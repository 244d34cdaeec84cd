"""Experiment orchestration: configs, runners, plot data, CLI, and the
benchmark-reproduction suite, each imported from its own module."""

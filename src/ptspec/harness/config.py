"""Experiment configuration: a flat INI file with full round-tripping.

A config names one potential (family + strength), a list of interval
half-widths to sweep, the grid resolution, the scalar precision, and the
classification thresholds.  Serialization uses repr() for floats so that
parse(serialize(config)) == config holds exactly.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple, Union

from ..potentials import FAMILIES
from ..precision import from_name
from ..spectrum import ClassificationPolicy

OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a potential, grid sizes, precision, and output routing."""

    family: str
    strength: float
    half_widths: Tuple[float, ...]
    n_intervals: int
    precision_mode: str = "double64"
    output_dir: str = "runs"
    output_format: str = "csv"
    policy: ClassificationPolicy = field(default_factory=ClassificationPolicy)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        widths = tuple(float(w) for w in self.half_widths)
        if not widths:
            raise ValueError("half_widths must be non-empty")
        if not all(0 < w < math.inf for w in widths):  # False for nan too
            raise ValueError("half_widths must be positive and finite")
        if list(widths) != sorted(set(widths)):
            raise ValueError("half_widths must be strictly ascending")
        object.__setattr__(self, "half_widths", widths)
        object.__setattr__(self, "strength", float(self.strength))
        if not math.isfinite(self.strength):
            raise ValueError(f"strength must be finite, got {self.strength!r}")
        if self.n_intervals < 4:
            raise ValueError(f"n_intervals must be >= 4, got {self.n_intervals}")
        # one spelling per mode, so that one job gets one run directory
        object.__setattr__(self, "precision_mode",
                           from_name(self.precision_mode).mode)
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output_format must be one of {OUTPUT_FORMATS}, "
                f"got {self.output_format!r}"
            )


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as INI text (sections [experiment], [classification])."""
    cp = configparser.ConfigParser()
    cp["experiment"] = {
        "family": config.family,
        "strength": repr(config.strength),
        "half_widths": ", ".join(repr(w) for w in config.half_widths),
        "n_intervals": str(config.n_intervals),
        "precision": config.precision_mode,
        "output_dir": config.output_dir,
        "output_format": config.output_format,
    }
    cp["classification"] = {
        f.name: repr(getattr(config.policy, f.name))
        for f in dataclasses.fields(config.policy)
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(source: Union[str, Path]) -> ExperimentConfig:
    """Parse INI text (or a path to an INI file) into an ExperimentConfig.

    The [classification] section is optional and may be partial; omitted
    keys keep their defaults.  Text that is not INI, or lacks a required
    key, raises ``ValueError``; an unreadable path raises ``OSError``.
    """
    cp = configparser.ConfigParser()
    try:
        if isinstance(source, Path):
            with open(source) as fh:
                cp.read_file(fh)
        else:
            cp.read_string(source)
        # values are interpolated when read, and a bad '%' raises then
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:  # a message of several lines
        message = " ".join(str(exc).splitlines())
        raise ValueError(f"config is not valid INI: {message}") from None
    if "experiment" not in sections:
        raise ValueError("config is missing the [experiment] section")
    exp = sections["experiment"]
    missing = [key for key in ("family", "strength", "half_widths", "n_intervals")
               if key not in exp]
    if missing:
        raise ValueError(f"config [experiment] is missing {', '.join(missing)}")
    widths = tuple(
        float(tok) for tok in exp["half_widths"].replace(",", " ").split()
    )
    policy_kwargs = {}
    if "classification" in sections:
        names = {f.name for f in dataclasses.fields(ClassificationPolicy)}
        for key, raw in sections["classification"].items():
            if key not in names:
                raise ValueError(f"unknown classification key {key!r}")
            policy_kwargs[key] = float(raw)
    return ExperimentConfig(
        family=exp["family"],
        strength=float(exp["strength"]),
        half_widths=widths,
        n_intervals=int(exp["n_intervals"]),
        precision_mode=exp.get("precision", "double64"),
        output_dir=exp.get("output_dir", "runs"),
        output_format=exp.get("output_format", "csv"),
        policy=ClassificationPolicy(**policy_kwargs),
    )

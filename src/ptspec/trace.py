"""Stage spans of one pipeline run: where its time went, timed by the code
that runs each stage.

``record()`` collects the spans opened inside it; ``span(name)`` times a
block and yields a dict to which the block adds its counters.  A span
opened inside another becomes its child.  Outside ``record()`` a span
records nothing.  The open recorder is held in a context variable, so
each thread records only its own spans and a finished ``record()``
leaves none behind.  ``environment()`` describes what produced the
spans: the library versions, the CPUs and the BLAS threads.
``installed_version`` reads a distribution's version from its metadata,
once per process: ``importlib.metadata`` is imported by the first lookup,
when a run is persisted, not by a run itself.
"""

import contextlib
import contextvars
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy

# the list that a span opened now is appended to; None outside record()
_siblings: contextvars.ContextVar = contextvars.ContextVar("siblings", default=None)


@dataclass
class Span:
    """One timed block: its wall-clock seconds, counters and child spans."""

    name: str
    seconds: float = 0.0
    counters: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)


@contextlib.contextmanager
def record() -> Iterator[List[Span]]:
    """Collect the spans opened in the block; yields their (top-level) list."""
    spans: List[Span] = []
    token = _siblings.set(spans)
    try:
        yield spans
    finally:
        _siblings.reset(token)


@contextlib.contextmanager
def span(name: str) -> Iterator[Dict[str, object]]:
    """Time the block as span ``name``; yields the span's counters to fill.

    Outside ``record()`` the span and its children are dropped on exit.
    The seconds are recorded also when the block raises.
    """
    node = Span(name)
    siblings = _siblings.get()
    if siblings is not None:
        siblings.append(node)
    token = _siblings.set(node.children)
    start = time.perf_counter()
    try:
        yield node.counters
    finally:
        node.seconds = time.perf_counter() - start
        _siblings.reset(token)


@functools.lru_cache(maxsize=None)  # the lookup scans sys.path: ms, per persist
def installed_version(distribution: str) -> Optional[str]:
    """The version of the installed ``distribution``, read from its
    metadata without importing it; None if it is not installed."""
    from importlib import metadata  # ~20 ms to import, so only when asked

    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """The numpy, scipy and mpmath versions, the CPUs this process may run
    on, and the build string and thread count of numpy's OpenBLAS, which
    runs the Schur decompositions and the matrix products, each None where
    numpy's library exports no OpenBLAS controls.  scipy's and mpmath's
    versions are those of their installed distributions
    (``installed_version``), so neither need be imported: the first call
    imports ``importlib.metadata`` instead."""
    from .eigensolver import _openblas  # eigensolver imports this module

    info = {"numpy": numpy.__version__}
    for name in ("scipy", "mpmath"):
        info[name] = installed_version(name)
    info["cpu_count"] = (len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else os.cpu_count())
    lib = _openblas()
    info["openblas"] = None if lib.config is None else lib.config().decode()
    info["openblas_threads"] = None if lib.get_threads is None else lib.get_threads()
    return info

"""Stage spans of one pipeline run: where its time went, timed by the code
that runs each stage.

``record()`` collects the spans opened inside it; ``span(name)`` times a
block and yields a dict to which the block adds its counters.  A span
opened inside another becomes its child.  Outside ``record()`` a span
records nothing.  The open recorder is held in a context variable, so
each thread records only its own spans and a finished ``record()``
leaves none behind.  ``environment()`` describes what produced the
spans: the library versions, the CPUs and the BLAS threads.
"""

import contextlib
import contextvars
import functools
import os
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Dict, Iterator, List, Optional

import mpmath
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
def _scipy_version() -> Optional[str]:
    """The installed scipy's version, read without importing it; None if
    scipy is not installed."""
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """The numpy, scipy and mpmath versions, the CPUs this process may run
    on, and the build string and thread count of numpy's OpenBLAS, which
    runs the Schur decompositions and the matrix products, each None where
    numpy's library exports no OpenBLAS controls.  scipy's version is that
    of its installed distribution, so scipy need not be imported."""
    from .eigensolver import _openblas_threads  # eigensolver imports this module

    info = {module.__name__: module.__version__ for module in (numpy, mpmath)}
    info["scipy"] = _scipy_version()
    info["cpu_count"] = (len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else os.cpu_count())
    get, _, config = _openblas_threads() or (None, None, None)
    info["openblas"] = None if config is None else config().decode()
    info["openblas_threads"] = None if get is None else get()
    return info

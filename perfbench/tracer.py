"""In-memory span recorder that times ptspec's layers from outside.

Each wrapped function is patched at the name through which the pipeline
calls it (for example ``ptspec.harness.runner.eigenvalues``, not the
definition in ``ptspec.eigensolver``), so the timed runs execute the
unpatched program and a traced run sees exactly the calls the pipeline
makes.  A span records its name, start, end, parent span and the
iteration it belongs to; counters computed from a call's arguments and
result ride on the span.  A wrap point that no longer exists is skipped
and listed in ``missing``: the layer then reports zero.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    iteration: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# counters(args, kwargs, result, error) -> {counter name: value}
CounterFn = Callable[[tuple, dict, object, Optional[BaseException]],
                     Dict[str, float]]


class Tracer:
    """Patches functions with span-recording wrappers; ``restore`` undoes it."""

    def __init__(self):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.iteration = 0
        self._stack: List[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str,
             counters: Optional[CounterFn] = None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, self.iteration,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counters is not None:
                    span.counters.update(counters(args, kwargs, result, error))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list:
        return [
            {"name": s.name, "iteration": s.iteration, "parent": s.parent,
             "start": s.start, "end": s.end, "error": s.error,
             "counters": s.counters}
            for s in self.spans
        ]

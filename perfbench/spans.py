"""In-memory span recording for the traced benchmark run.

The benchmark attributes time to layers without touching the program:
it records spans around calls into each layer's public functions.  Two
ways in:

* :meth:`SpanTracer.span` — a span around a call the benchmark makes
  itself (the driver call of a pass, an obs export, a client request);
* :func:`interpose` — for layer calls made *inside* a driver function
  (``run_sweep`` calling ``batch_plan_groupings``), the module attribute
  the driver looks the callee up through is swapped for a timing
  wrapper for the duration of the pass, then restored.  The wrapped
  function is the original one, so the program's outputs are unchanged.

Each span has a name, start, end, parent and run id.  Counts are kept
beside the spans, at the same boundaries.  Nothing is written until
the end of the run, when the runner writes
:meth:`SpanTracer.as_dict` of every traced pass to one file.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Spans and counts of one traced run; single-threaded by design."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        count: Callable[[Any], int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``.

        ``count``, when given, maps each return value to an amount added
        to the count called ``name`` (e.g. events in a generated trace).
        """

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.count(name, count(result))
            return result

        return timed

    def timed(
        self, name: str, count: Callable[[Any], int] | None = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """A wrapper factory for :func:`interpose`."""
        return lambda fn: self.wrap(fn, name, count)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: durations minus the time children cover.

        Spans nest strictly (one thread, a stack), so the children of a
        span cover exactly the sum of their durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration - child_time[span.span_id]
        return dict(totals)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def as_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": [asdict(span) for span in self.spans],
            "counts": dict(self.counts),
        }


@contextmanager
def interpose(
    targets: list[tuple[Any, str, Callable[[Any], Any]]],
) -> Iterator[None]:
    """Replace ``module.attr`` by ``wrapper(original)`` for the ``with`` body.

    ``targets`` holds ``(module, attribute, wrapper factory)`` triples,
    usually with :meth:`SpanTracer.timed` factories.  A missing
    attribute raises: a renamed layer entry point must break the traced
    run loudly, not silently attribute nothing.
    """
    originals = []
    try:
        for module, attr, make_wrapper in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

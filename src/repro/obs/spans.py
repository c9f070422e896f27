"""Nested wall/CPU-timed spans with a process-local collector.

A *span* times one named phase of work — ``trace_build``, ``simulate``,
``store_write`` — and records where it ran (worker id) and where it sat
in the phase nesting (``path``, slash-joined from the enclosing spans).
Finished spans are plain dicts: they must cross the worker process
boundary on result payloads and land verbatim in the JSONL run journal,
so there is nothing to encode or decode.

The process holds one :class:`SpanCollector`
(:func:`collector`); engine workers accumulate spans there during a
request, ship them back to the parent on the result payload (exactly the
mechanism the trace-cache delta established), and the parent merges them
into *its* collector — so after a parallel batch the parent's collector
holds every span of the campaign exactly once.

Telemetry is off by default and the disabled path is one attribute
check: ``with span("simulate"):`` yields immediately without reading a
clock, so instrumented hot paths cost nothing when no journal is
active.  Enable explicitly (:func:`set_enabled`) or by exporting
``REPRO_TELEMETRY`` — worker processes receive the parent's enablement
as a submit-time argument, so spawn-based pools need no environment
plumbing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "SpanCollector",
    "collector",
    "reset_collector",
    "set_enabled",
    "span",
    "spans_enabled",
    "timed_iter",
    "worker_id",
]


def worker_id() -> str:
    """This process's span/journal worker identity (``pid<N>``)."""
    return f"pid{os.getpid()}"


class SpanCollector:
    """Ordered list of finished spans plus the live nesting stack.

    ``enabled`` defaults to whether ``REPRO_TELEMETRY`` is set; when
    False, :meth:`span` is a no-op context manager.  The nesting stack
    is thread-local (concurrent threads time independent phases); the
    finished-span list is shared and lock-protected.
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = bool(os.environ.get("REPRO_TELEMETRY"))
        self.enabled = enabled
        self._spans: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a phase; yields the (mutable) span dict, or ``None``.

        The yielded dict gains ``wall_s``/``cpu_s``/``start_s`` on exit
        and is appended to the collector — including when the body
        raises, so a failed phase still shows up in the accounting.
        """
        if not self.enabled:
            yield None
            return
        record = self._open(name, attrs)
        stack = self._local.stack
        stack.append(name)
        start = time.time()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            yield record
        finally:
            stack.pop()
            self._close(record, start, time.perf_counter() - wall0,
                        time.process_time() - cpu0)

    def timed_iter(self, name: str, items: Iterable,
                   **attrs) -> Iterator:
        """Iterate ``items``, timing only the production of each item.

        A ``with span(...)`` around a generator's ``yield`` would also
        time the consumer between items — and nest the consumer's spans
        under it.  This times each ``next()`` instead and records one
        span with the summed wall and CPU time when the iteration ends
        or is abandoned.  Disabled, ``items`` is iterated untouched.
        """
        if not self.enabled:
            return iter(items)
        return self._timed(name, iter(items), attrs)

    def _timed(self, name: str, items: Iterator, attrs: Dict) -> Iterator:
        record = self._open(name, attrs)
        start = time.time()
        wall = cpu = 0.0
        try:
            while True:
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    wall += time.perf_counter() - wall0
                    cpu += time.process_time() - cpu0
                yield item
        finally:
            self._close(record, start, wall, cpu)

    def _open(self, name: str, attrs: Dict) -> Dict:
        """A new span record nested under this thread's open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return {
            "name": name,
            "path": "/".join(stack + [name]),
            "worker": worker_id(),
            **attrs,
        }

    def _close(self, record: Dict, start: float, wall: float,
               cpu: float) -> None:
        """Stamp a record's timings and append it to the collector."""
        record["wall_s"] = wall
        record["cpu_s"] = cpu
        record["start_s"] = start
        with self._lock:
            self._spans.append(record)

    def merge(self, spans: Iterable[Dict]) -> None:
        """Fold externally produced spans in (worker payload deltas)."""
        spans = list(spans)
        if spans:
            with self._lock:
                self._spans.extend(spans)

    # -- reading ------------------------------------------------------------

    @property
    def spans(self) -> List[Dict]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def take_since(self, mark: int) -> List[Dict]:
        """Remove and return every span recorded after position ``mark``.

        Workers use this to ship exactly one request's spans on the
        result payload without disturbing anything recorded earlier
        (e.g. parent spans inherited across a ``fork``).
        """
        with self._lock:
            taken = self._spans[mark:]
            del self._spans[mark:]
            return taken

    def drain(self) -> List[Dict]:
        """Remove and return every finished span."""
        return self.take_since(0)


_COLLECTOR: Optional[SpanCollector] = None
_COLLECTOR_LOCK = threading.Lock()


def collector() -> SpanCollector:
    """The process-wide collector (created lazily from the environment)."""
    global _COLLECTOR
    if _COLLECTOR is None:
        with _COLLECTOR_LOCK:
            if _COLLECTOR is None:
                _COLLECTOR = SpanCollector()
    return _COLLECTOR


def reset_collector(
    new: Optional[SpanCollector] = None,
) -> SpanCollector:
    """Replace the process-wide collector (tests; env-var changes)."""
    global _COLLECTOR
    with _COLLECTOR_LOCK:
        _COLLECTOR = new if new is not None else SpanCollector()
    return _COLLECTOR


def spans_enabled() -> bool:
    return collector().enabled


def set_enabled(flag: bool) -> None:
    collector().enabled = bool(flag)


def span(name: str, **attrs):
    """Record one span on the process-wide collector (context manager)."""
    return collector().span(name, **attrs)


def timed_iter(name: str, items: Iterable, **attrs) -> Iterator:
    """Iterate ``items`` under one production-only span
    (:meth:`SpanCollector.timed_iter`) on the process-wide collector."""
    return collector().timed_iter(name, items, **attrs)

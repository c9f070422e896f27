"""Layer tracing from outside the program: class-level call wrappers.

:func:`install` replaces the public entry points of every layer on the
run path with timing wrappers, in this process and — because the pool
forks its workers from it — in every worker.  It must run before any
hierarchy is built: the simulator and the hierarchy cache bound methods
at construction, so only instances built after wrapping pick the
wrappers up.

Each wrapped call is a span: name, start, end, parent span and request
id.  A span's *self* time is its duration minus the part covered by its
child spans.  Spans of the coarse layers (planning, store, queue, trace
build, one simulation) are kept as full records; the per-access
simulator calls (millions of them) are only added to per-name totals
of calls and self time, so memory stays bounded.  Everything stays in
memory until the pass ends, except that a worker process appends its
totals and records to a file in the trace directory after each request
it executes; the parent reads them back and writes them out with its
own in one ``spans.jsonl``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import time
from typing import Callable, Dict, List, Optional

#: span names kept as full records (the rest are folded into totals).
COARSE = frozenset({
    "api.plan", "engine.driver", "engine.execute", "engine.store.get",
    "engine.store.put", "engine.queue.dispatch", "engine.queue.lease",
    "engine.queue.complete", "engine.queue.poll", "workloads.build",
    "workloads.chunk_read", "sim.core", "sim.multicore",
})


class Tracer:
    """Span stack plus per-name totals for one process."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.pid = os.getpid()
        self.parent_pid = self.pid
        self.stack: List[list] = []
        #: name -> [calls, self_s]
        self.totals: Dict[str, list] = {}
        #: extra per-name counts (requests planned, jobs dispatched...)
        self.counts: Dict[str, int] = {}
        self.records: List[dict] = []
        self.request: Optional[str] = None
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []

    # -- span bookkeeping --------------------------------------------------

    def _fork_check(self) -> None:
        """A forked worker inherits the parent's open spans: drop them."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.stack.clear()
            self.totals.clear()
            self.counts.clear()
            self.records.clear()
            self.request = None

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, next(self._ids)]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += duration - child
        stack = self.stack
        if stack:
            stack[-1][2] += duration
        if name in COARSE:
            self.records.append({
                "name": name, "start": start, "end": end,
                "self_s": duration - child, "id": span_id,
                "parent": stack[-1][3] if stack else None,
                "request": self.request, "pid": self.pid,
            })

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a ``name`` span.

        A call made while a span of the same name is innermost (a
        subclass delegating to its base) stays part of that span.
        ``after(result)`` may count work done by the call.
        """
        fn = owner.__dict__[attr]
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(result)
            return result

        self._set(owner, attr, wrapper)

    def wrap_all(self, base, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)
            pending.extend(cls.__subclasses__())

    def wrap_iter(self, owner, attr: str, timed: Callable) -> None:
        """Time each step of the iterator ``owner.attr(...)`` returns
        (generators do their work in ``next``, not in the call)."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        self._set(owner, attr, wrapper)

    def timed_steps(self, iterator, name: str):
        """Yield from ``iterator``, timing each ``next`` as a span."""
        while True:
            frame = self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.leave(frame)
            yield item

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- request scope (worker side) ---------------------------------------

    def wrap_execute(self, owner) -> None:
        """Scope spans under one executed request and ship them back.

        In a worker the request's totals and records are appended to a
        per-process file and cleared; in the parent (serial execution)
        they stay in the parent's own totals.
        """
        fn = owner.__dict__["execute"]
        # Read the key through the unwrapped function, so the tracer's own
        # lookup is not counted as an engine.key call.
        key = getattr(owner.__dict__["key"], "__wrapped__",
                      owner.__dict__["key"])
        tracer = self

        @functools.wraps(fn)
        def execute(request):
            tracer._fork_check()
            tracer.request = key(request)
            frame = tracer.enter("engine.execute")
            try:
                return fn(request)
            finally:
                tracer.leave(frame)
                if tracer.pid != tracer.parent_pid:
                    tracer.flush_worker()
                tracer.request = None

        self._set(owner, "execute", execute)

    def flush_worker(self) -> None:
        line = json.dumps({
            "pid": self.pid, "request": self.request,
            "totals": self.totals, "counts": self.counts,
            "records": self.records,
        })
        path = self.out_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.totals.clear()
        self.counts.clear()
        self.records.clear()

    # -- collection --------------------------------------------------------

    def collect(self) -> dict:
        """Merge parent and worker spans; write ``spans.jsonl``."""
        lanes = {self.pid: {"totals": self.totals, "counts": self.counts,
                            "records": list(self.records)}}
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                part = json.loads(line)
                lane = lanes.setdefault(
                    part["pid"], {"totals": {}, "counts": {}, "records": []})
                for name, (calls, self_s) in part["totals"].items():
                    total = lane["totals"].setdefault(name, [0, 0.0])
                    total[0] += calls
                    total[1] += self_s
                for name, amount in part["counts"].items():
                    lane["counts"][name] = lane["counts"].get(name, 0) \
                        + amount
                lane["records"].extend(part["records"])
        with open(self.out_dir / "spans.jsonl", "w",
                  encoding="utf-8") as handle:
            for pid, lane in lanes.items():
                for record in lane["records"]:
                    handle.write(json.dumps(record) + "\n")
                for name, (calls, self_s) in sorted(lane["totals"].items()):
                    handle.write(json.dumps({
                        "name": name, "pid": pid, "calls": calls,
                        "self_s": self_s, "aggregate": True}) + "\n")
        return lanes


def install(out_dir: pathlib.Path) -> Tracer:
    """Wrap every layer's public entry points; returns the tracer."""
    from repro.api.spec import MixSpec, RunSpec
    from repro.engine.api import Engine
    from repro.engine.jobs import MixRequest, RunRequest
    from repro.engine.queue import JobQueue
    from repro.engine.store import ResultStore
    from repro.ocp.base import OffChipPredictor
    from repro.policies.base import CoordinationPolicy
    from repro.prefetchers.base import Prefetcher
    from repro.sim.cache import Cache
    from repro.sim.dram import MainMemory
    from repro.sim.hierarchy import CacheHierarchy
    from repro.sim.multicore import MultiCoreSimulator
    from repro.sim.simulator import Simulator
    from repro.workloads.streaming import TraceStream
    from repro.workloads.suites import WorkloadSpec
    from repro.workloads.tracecache import trace_cache

    tracer = Tracer(out_dir)

    def planned(result) -> None:
        tracer.count("api.plan.requests",
                     len(result) if isinstance(result, list) else 1)

    for spec_cls in (RunSpec, MixSpec):
        tracer.wrap(spec_cls, "plan", "api.plan", after=planned)
    for request_cls in (RunRequest, MixRequest):
        tracer.wrap(request_cls, "key", "engine.key")
        tracer.wrap_execute(request_cls)
    tracer.wrap(Engine, "run_many", "engine.driver")
    tracer.wrap_iter(Engine, "as_completed",
                     lambda it: tracer.timed_steps(it, "engine.driver"))

    def got(result) -> None:
        tracer.count("engine.store.get.hits", result is not None)

    tracer.wrap(ResultStore, "get", "engine.store.get", after=got)
    tracer.wrap(ResultStore, "put", "engine.store.put")

    def dispatched(report) -> None:
        tracer.count("engine.queue.jobs", len(report.enqueued))

    tracer.wrap(JobQueue, "dispatch", "engine.queue.dispatch",
                after=dispatched)
    tracer.wrap(JobQueue, "lease", "engine.queue.lease")
    tracer.wrap(JobQueue, "complete", "engine.queue.complete")
    for attr in ("reclaim", "counts", "states", "heartbeat", "get"):
        tracer.wrap(JobQueue, attr, "engine.queue.poll")

    def built(trace) -> None:
        tracer.count("workloads.build.instructions", len(trace))

    tracer.wrap(WorkloadSpec, "build", "workloads.build", after=built)

    def stream_steps(iterator):
        # A cold stream emits on a producer thread; whether its first step
        # built the trace (the cache counts a build) tells emission from
        # a chunk-tier read.
        stats = trace_cache().stats
        builds = stats.builds
        frame = tracer.enter("workloads.build")
        try:
            block = next(iterator, None)
            if stats.builds == builds:
                frame[0] = "workloads.chunk_read"
        finally:
            tracer.leave(frame)
        if block is None:
            return
        name = frame[0]
        instructions = len(block)
        yield block
        for block in tracer.timed_steps(iterator, name):
            instructions += len(block)
            yield block
        if name == "workloads.build":
            tracer.count("workloads.build.instructions", instructions)

    tracer.wrap_iter(TraceStream, "__iter__", stream_steps)
    tracer.wrap(Simulator, "run", "sim.core")
    tracer.wrap(MultiCoreSimulator, "run", "sim.multicore")
    tracer.wrap(CacheHierarchy, "load", "sim.hierarchy.load")
    tracer.wrap(CacheHierarchy, "store", "sim.hierarchy.store")
    tracer.wrap(Cache, "lookup_slot", "sim.cache.lookup")
    tracer.wrap(Cache, "fill_fast", "sim.cache.fill")
    tracer.wrap(MainMemory, "access_time", "sim.dram.access")
    tracer.wrap_all(Prefetcher, "observe", "prefetchers.observe")
    tracer.wrap_all(OffChipPredictor, "predict", "ocp.predict")
    tracer.wrap_all(OffChipPredictor, "train", "ocp.train")
    tracer.wrap_all(CoordinationPolicy, "decide", "policies.decide")
    return tracer

"""One benchmark pass: resolve a workload's specs through a Session.

A *repetition* is a cold pass (empty store, empty trace cache, fresh
Session) followed by warm passes (each a fresh Session over the filled
store).
This module runs both, times every simulation request from the moment
its batch was submitted until the engine reported its result, and
checks the simulated outputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import ExecutionError, MixResult, Session
from repro.engine.jobs import encode_result
from repro.workloads.suites import SCALES
from repro.workloads.tracecache import reset_trace_cache, trace_cache

from perfbench.workloads import SCALE, Workload, experiment

#: the percentile ladder request_tail_ms picks from
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Pass:
    """What one cold or warm pass measured."""

    wall_s: float
    #: request key -> host ms from its batch's submission to its result
    latencies_ms: Dict[str, float]
    counters: Dict[str, int]
    #: output label -> canonical payload JSON (schema field dropped)
    payloads: Dict[str, str]
    #: executed request key -> (simulated instructions, kind, the stats
    #: dict of each core)
    executed: Dict[str, tuple]
    #: simulation requests resolved or failed (unique keys)
    requests: int
    chunk_hits: int
    check_failures: List[str] = field(default_factory=list)

    @property
    def simulated_instructions(self) -> int:
        return sum(n for n, _, _ in self.executed.values())


def _canonical(result) -> str:
    payload = encode_result(result)
    payload.pop("schema", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expected_measured(spec, scale) -> int:
    length = spec.trace_length or scale.trace_length
    warmup = spec.warmup_fraction
    if warmup is None:
        warmup = scale.warmup_fraction
    return length - int(length * warmup)


def _check_payload(label: str, payload: dict, expected: int) -> List[str]:
    """Measured instructions = length × (1 − warmup); loads + stores ≤
    instructions, for a run and for every core of a mix."""
    units = payload["cores"] if payload["kind"] == "mix" else [payload]
    problems = []
    for index, unit in enumerate(units):
        where = f"{label} core {index}"
        if unit["instructions"] != expected:
            problems.append(f"{where}: {unit['instructions']} measured "
                            f"instructions, expected {expected}")
        stats = unit["stats"]
        if stats["loads"] + stats["stores"] > unit["instructions"]:
            problems.append(f"{where}: loads + stores exceed instructions")
    return problems


def _collect(results, scale, executed_keys) -> tuple:
    """Labelled payloads, executed-request details and check failures."""
    payloads: Dict[str, str] = {}
    executed: Dict[str, tuple] = {}
    problems: List[str] = []
    for result in results:
        spec = result.spec
        if not result.ok:  # counted by the engine's failure counter
            continue
        if isinstance(result, MixResult):
            pairs = [(f"mix|{result.name}|{spec.design}|{spec.policy}|"
                      f"{spec.variant}", result.key, result.result)]
            cores = len(spec.workloads)
        else:
            pairs = [(f"run|{spec.workload}|{spec.design}|{spec.policy}|{i}",
                      key, sim)
                     for i, (key, sim) in enumerate(zip(result.keys,
                                                        result.results))]
            cores = 1
        expected = _expected_measured(spec, scale)
        length = spec.trace_length or scale.trace_length
        for label, key, sim in pairs:
            text = _canonical(sim)
            payloads[label] = text
            payload = json.loads(text)
            problems.extend(_check_payload(label, payload, expected))
            if key in executed_keys:
                units = payload.get("cores", [payload])
                executed[key] = (length * cores, payload["kind"],
                                 [unit["stats"] for unit in units])
    return payloads, executed, problems


def run_pass(workload: Workload, store: pathlib.Path,
             queue: Optional[pathlib.Path],
             telemetry: Optional[pathlib.Path] = None) -> Pass:
    """Resolve every batch of ``workload`` in one fresh Session."""
    scale = SCALES[SCALE]
    finished: Dict[str, float] = {}

    def progress(done, total, key) -> None:
        finished.setdefault(key, time.perf_counter())

    # Start every pass from a collected heap: garbage left by earlier
    # passes would otherwise time collections that are not this pass's.
    gc.collect()
    session = Session(store=store, jobs=workload.jobs, scale=scale,
                      progress=progress, queue=queue, telemetry=telemetry)
    latencies: Dict[str, float] = {}
    results = []
    unresolved = 0
    try:
        start = time.perf_counter()
        for batch in workload.batches:
            submitted = time.perf_counter()
            before = set(finished)
            if workload.queue:
                try:
                    outcome = session.run_experiment(experiment(batch))
                    results.extend(outcome.of_kind("mix"))
                except ExecutionError as exc:
                    unresolved += len(exc.failures)
            else:
                results.extend(session.as_completed(batch))
            latencies.update(
                (key, (finished[key] - submitted) * 1e3)
                for key in finished if key not in before)
        wall = time.perf_counter() - start
        counters = session.counters.to_dict()
        executed_keys = set(session.engine.executed_keys)
    finally:
        session.close()
    payloads, executed, problems = _collect(results, scale, executed_keys)
    requests = len({key for result in results
                    for key in ([result.key] if isinstance(result, MixResult)
                                else result.keys)})
    return Pass(
        wall_s=wall, latencies_ms=latencies, counters=counters,
        payloads=payloads, executed=executed,
        requests=requests + unresolved,
        chunk_hits=trace_cache().stats.chunk_hits,
        check_failures=problems,
    )


@dataclass
class Repetition:
    cold: Pass
    warm: List[Pass]
    problems: List[str]
    #: digest of the cold pass's labelled outputs
    digest: str


def run_repetition(workload: Workload, work: pathlib.Path,
                   warm_passes: int = 1,
                   telemetry: Optional[pathlib.Path] = None) -> Repetition:
    """Cold pass on an empty store and trace cache, then warm passes."""
    work.mkdir(parents=True)
    store = work / "results.sqlite"
    queue = work / "queue.sqlite" if workload.queue else None
    if workload.stream_block is not None:
        os.environ["REPRO_STREAM_BLOCK"] = str(workload.stream_block)
        os.environ["REPRO_TRACE_DIR"] = str(work / "traces")
    else:
        os.environ.pop("REPRO_STREAM_BLOCK", None)
        os.environ.pop("REPRO_TRACE_DIR", None)
    reset_trace_cache()
    cold = run_pass(workload, store, queue, telemetry)
    warm = [run_pass(workload, store, queue) for _ in range(warm_passes)]
    problems = list(cold.check_failures)
    for one in warm:
        if one.counters["executed"]:
            problems.append(f"warm pass executed "
                            f"{one.counters['executed']} simulations, "
                            "expected 0")
        if one.payloads != cold.payloads:
            differing = [label for label in cold.payloads
                         if one.payloads.get(label) != cold.payloads[label]]
            problems.append(f"warm payloads differ from cold for "
                            f"{len(differing) or 'extra'} outputs")
        one.payloads.clear()
    outputs = digest(cold.payloads)
    cold.payloads.clear()
    return Repetition(cold=cold, warm=warm, problems=problems,
                      digest=outputs)


def digest(payloads: Dict[str, str]) -> str:
    """Canonical digest of a pass's labelled outputs."""
    h = hashlib.sha256()
    for label in sorted(payloads):
        h.update(label.encode())
        h.update(b"\n")
        h.update(payloads[label].encode())
        h.update(b"\n")
    return h.hexdigest()


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best

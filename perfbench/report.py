"""Turn repetitions into the benchmark's named metrics.

:func:`timed` produces the end-to-end metrics (untraced), :func:`traced`
the per-layer split (one untraced and one traced repetition).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from statistics import mean, median
from typing import Dict, List, Tuple

from perfbench.measure import (Repetition, percentile, run_repetition,
                               tail_percentile)
from perfbench.workloads import Workload

#: warm passes per repetition.  A fixed count: peak RSS rises with the
#: number of passes (campaign_1c read 137 MB after 3 per repetition and
#: 193 MB after 10), so a count set by time would tie it to host speed.
WARM_PASSES = 10
#: requests pooled per latency percentile at least (ten beyond p75)
TAIL_SAMPLES = 40


@dataclass
class Outcome:
    """Metrics plus the output-check verdict of one benchmark run."""

    workload: Workload
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: List[str] = field(default_factory=list)

    def add_repetition(self, rep: Repetition) -> None:
        self.digests.append(rep.digest)
        self.problems.extend(rep.problems)
        for one in [rep.cold, *rep.warm]:
            self.attempted += one.requests
            self.failed += one.counters["failures"]
        self.failed += len(rep.problems)
        if rep.digest != self.digests[0]:
            self.problems.append("repetitions of one seed disagree on "
                                 "their outputs")

    def check_digest(self, expected: Dict[str, str]) -> None:
        want = expected.get(self.workload.name)
        got = self.digests[0] if self.digests else None
        if want != got:
            self.problems.append(f"output digest {got} differs from the "
                                 f"recorded {want}")
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.problems and not self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / max(1, self.attempted)

    def print(self, provenance: dict) -> None:
        print(f"workload {self.workload.name}: "
              + ", ".join(self.workload.drawn))
        print("provenance " + json.dumps(provenance, sort_keys=True))
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        print(f"  {'error_rate':32s} {self.error_rate:14.6g} fraction "
              f"({self.failed} of {self.attempted} requests)")
        if self.digests:
            print(f"  output digest {self.digests[0]}")
        for note in self.notes:
            print(f"  note: {note}")
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }))


def tail_group(per_rep: int) -> int:
    """Repetitions pooled per latency percentile: the fewest whose cold
    passes hold ``TAIL_SAMPLES`` requests between them."""
    return max(1, math.ceil(TAIL_SAMPLES / max(1, per_rep)))


def repeat(workload: Workload, work, seconds: float) -> tuple:
    """Cold + warm repetitions for about ``seconds``.

    Another repetition starts while less than half of one would run past
    ``seconds``, so a run ends close to ``seconds`` on average; at least
    three repetitions and one full latency group (see :func:`tail_group`)
    run regardless.  Returns the repetitions and the group size.
    """
    reps: List[Repetition] = []
    start = time.perf_counter()
    needed = 3
    group = 1
    last = 0.0
    while (len(reps) < needed
           or time.perf_counter() - start + last / 2 < seconds):
        began = time.perf_counter()
        reps.append(run_repetition(workload, work / f"rep-{len(reps)}",
                                   warm_passes=WARM_PASSES))
        last = time.perf_counter() - began
        group = tail_group(len(reps[0].cold.latencies_ms))
        needed = max(3, group)
    return reps, group


def timed(workload: Workload, work, seconds: float) -> Outcome:
    """End-to-end metrics over untraced repetitions."""
    outcome = Outcome(workload)
    reps, group = repeat(workload, work, seconds)
    for rep in reps:
        outcome.add_repetition(rep)
    outcome.metrics, note = end_to_end(reps, group)
    outcome.notes.append(note)
    return outcome


def end_to_end(reps: List[Repetition], group: int) -> tuple:
    """Medians over repetitions; ``setup_s`` and ``peak_rss_mb`` are
    measured by the caller and left as placeholders here.

    The request latencies of every ``group`` consecutive repetitions are
    pooled (a group is one repetition when its cold pass alone has
    ``TAIL_SAMPLES`` requests); each latency percentile is taken per
    group and the median over the groups reported, so one slow
    repetition does not set the tail.  The tail percentile is the
    highest with ten requests beyond it within one group, so it does not
    change with how many repetitions happened to fit.
    ``warm_s`` is the median over repetitions of each repetition's mean
    warm pass.
    """
    pooled = [[ms for rep in reps[first:first + group]
               for ms in rep.cold.latencies_ms.values()]
              for first in range(len(reps) - group + 1)]
    count = len(pooled[0])
    tail = tail_percentile(count)

    def latency(pct: float) -> float:
        return median(percentile(samples, pct) for samples in pooled)

    warm = [mean(one.wall_s for one in r.warm) for r in reps]
    metrics = {
        "setup_s": (math.nan, "s"),
        "campaign_s": (median(r.cold.wall_s for r in reps), "s"),
        "sim_ips": (median(r.cold.simulated_instructions / r.cold.wall_s
                           for r in reps), "instr/s"),
        "request_p50_ms": (latency(50.0), "ms"),
        "request_tail_ms": (latency(tail), "ms"),
        "warm_s": (median(warm), "s"),
        "peak_rss_mb": (math.nan, "MB"),
    }
    note = (f"{len(reps)} repetitions, cold passes "
            + " ".join(f"{r.cold.wall_s:.3f}" for r in reps)
            + " s, mean warm pass per repetition "
            + " ".join(f"{w:.5f}" for w in warm)
            + f" s; request percentiles over {len(pooled)} group(s) of "
            f"{group} repetition(s), {count} requests each; "
            f"request_tail_ms is p{tail:g}, "
            f"{count * (100 - tail) / 100:.1f} requests beyond it per group")
    return metrics, note


@dataclass
class Traced:
    """One untraced and one traced repetition of a workload."""

    plain: Repetition
    rep: Repetition
    #: per process: span totals, counts and records (see tracing.py)
    lanes: dict
    #: wall time of the traced repetition
    wall_s: float
    #: the engine journal's phase totals
    phases: dict


def trace_workload(workload: Workload, work) -> Traced:
    """Run the workload untraced, then traced.

    The traced repetition passes ``telemetry=`` so the engine's own
    journal records its phases, and runs with every layer wrapped.  A
    streamed workload's trace producer runs on a thread; the traced
    repetition raises the interpreter's switch interval so the producer
    runs only while the simulator waits for its next block, which makes
    that wait equal to the emission time.
    """
    from perfbench import tracing
    from repro.obs.journal import summarize_journals

    plain = run_repetition(workload, work / "plain")
    spans = work / "spans"
    spans.mkdir()
    journal = work / "journal.jsonl"
    tracer = tracing.install(spans)
    interval = sys.getswitchinterval()
    if workload.stream_block is not None:
        sys.setswitchinterval(1.0)
    try:
        start = time.perf_counter()
        rep = run_repetition(workload, work / "traced", telemetry=journal)
        wall = time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    return Traced(plain=plain, rep=rep, lanes=tracer.collect(),
                  wall_s=wall,
                  phases=summarize_journals([journal])["phases"])


def traced(workload: Workload, work) -> Outcome:
    """Per-layer metrics of one traced repetition."""
    run = trace_workload(workload, work)
    outcome = Outcome(workload)
    outcome.add_repetition(run.plain)
    outcome.add_repetition(run.rep)
    outcome.metrics = layer_metrics(workload, run)
    outcome.notes.append(
        f"one traced repetition ({run.wall_s:.3f} s); self times summed "
        f"over {len(run.lanes)} processes")
    return outcome


def _totals(lanes: dict) -> Tuple[Dict[str, list], Dict[str, int]]:
    totals: Dict[str, list] = {}
    counts: Dict[str, int] = {}
    for lane in lanes.values():
        for name, (calls, self_s) in lane["totals"].items():
            total = totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
        for name, amount in lane["counts"].items():
            counts[name] = counts.get(name, 0) + amount
    return totals, counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: Workload,
                  run: Traced) -> Dict[str, Tuple[float, str]]:
    """The per-layer split of one traced repetition."""
    rep, plain, lanes, phases = run.rep, run.plain, run.lanes, run.phases
    totals, counts = _totals(lanes)

    def self_s(*names: str) -> float:
        return sum(totals.get(name, [0, 0.0])[1] for name in names)

    def calls(name: str) -> int:
        return totals.get(name, [0, 0.0])[0]

    cold = rep.cold
    executes = {
        record["request"]: record["end"] - record["start"]
        for lane in lanes.values() for record in lane["records"]
        if record["name"] == "engine.execute"}
    wait_s = sum(cold.latencies_ms[key] / 1e3 - executes[key]
                 for key in cold.latencies_ms if key in executes)
    counters = dict(cold.counters)
    for one in rep.warm:
        for name, value in one.counters.items():
            counters[name] += value
    single_core = sum(n for n, kind, _ in cold.executed.values()
                      if kind == "run")
    stats = [one for _, _, cores in cold.executed.values() for one in cores]

    def stat(name: str) -> float:
        return sum(one[name] for one in stats)

    memory = self_s("sim.hierarchy.load", "sim.hierarchy.store",
                    "sim.cache.lookup", "sim.cache.fill", "sim.dram.access",
                    "prefetchers.observe", "ocp.predict", "ocp.train")
    accesses = calls("sim.hierarchy.load") + calls("sim.hierarchy.store")
    trace_hits = counters["trace_hits"] + cold.chunk_hits
    build_s = self_s("workloads.build")
    instructions = stat("instructions")
    return {
        "api.plan_s": (self_s("api.plan"), "s"),
        "api.plan.requests": (counts.get("api.plan.requests", 0), "count"),
        "engine.key_s": (self_s("engine.key"), "s"),
        "engine.key.calls": (calls("engine.key"), "count"),
        "engine.driver_s": (self_s("engine.driver"), "s"),
        "engine.store.get_s": (self_s("engine.store.get"), "s"),
        "engine.store.get.calls": (calls("engine.store.get"), "count"),
        "engine.store.hit_ratio": (_ratio(
            counts.get("engine.store.get.hits", 0),
            calls("engine.store.get")), "ratio"),
        "engine.store.put_s": (self_s("engine.store.put"), "s"),
        "engine.store.put.calls": (calls("engine.store.put"), "count"),
        "engine.queue.dispatch_s": (self_s("engine.queue.dispatch"), "s"),
        "engine.queue.lease_s": (self_s("engine.queue.lease"), "s"),
        "engine.queue.complete_s": (self_s("engine.queue.complete"), "s"),
        "engine.queue.poll_s": (self_s("engine.queue.poll"), "s"),
        "engine.queue.jobs": (counts.get("engine.queue.jobs", 0), "count"),
        "engine.wait_s": (wait_s, "s"),
        "engine.worker_busy_frac": (_ratio(
            sum(executes.values()), workload.jobs * cold.wall_s), "ratio"),
        "engine.executed": (counters["executed"], "count"),
        "engine.memo_hits": (counters["memo_hits"], "count"),
        "engine.store_hits": (counters["store_hits"], "count"),
        "engine.retries": (counters["retries"], "count"),
        "engine.failures": (counters["failures"], "count"),
        "engine.rebuilds": (counters["rebuilds"], "count"),
        "phase.trace_build_s": (_phase(phases, "trace_build"), "s"),
        "phase.simulate_s": (_phase(phases, "simulate"), "s"),
        "phase.store_write_s": (_phase(phases, "store_write"), "s"),
        "phase.request_s": (_phase(phases, "request"), "s"),
        "workloads.build_s": (build_s, "s"),
        "workloads.build_ips": (_ratio(
            counts.get("workloads.build.instructions", 0), build_s),
            "instr/s"),
        "workloads.chunk_read_s": (self_s("workloads.chunk_read"), "s"),
        "workloads.trace_builds": (counters["trace_builds"], "count"),
        "workloads.trace_hits": (counters["trace_hits"], "count"),
        "workloads.chunk_hits": (cold.chunk_hits, "count"),
        "workloads.trace_hit_ratio": (_ratio(
            trace_hits, trace_hits + counters["trace_builds"]), "ratio"),
        "sim.core.self_s": (self_s("sim.core"), "s"),
        "sim.core.us_per_instr": (_ratio(
            self_s("sim.core") * 1e6, single_core), "us/instr"),
        "sim.multicore.self_s": (self_s("sim.multicore"), "s"),
        "sim.hierarchy.self_s": (self_s("sim.hierarchy.load",
                                        "sim.hierarchy.store"), "s"),
        "sim.hierarchy.load.calls": (calls("sim.hierarchy.load"), "count"),
        "sim.hierarchy.store.calls": (calls("sim.hierarchy.store"),
                                      "count"),
        "sim.cache.self_s": (self_s("sim.cache.lookup", "sim.cache.fill"),
                             "s"),
        "sim.cache.lookup.calls": (calls("sim.cache.lookup"), "count"),
        "sim.cache.fill.calls": (calls("sim.cache.fill"), "count"),
        "sim.cache.us_per_fill": (_ratio(
            self_s("sim.cache.fill") * 1e6, calls("sim.cache.fill")),
            "us"),
        "sim.dram.self_s": (self_s("sim.dram.access"), "s"),
        "sim.dram.access.calls": (calls("sim.dram.access"), "count"),
        "sim.us_per_access": (_ratio(memory * 1e6, accesses), "us"),
        "prefetchers.self_s": (self_s("prefetchers.observe"), "s"),
        "prefetchers.observe.calls": (calls("prefetchers.observe"),
                                      "count"),
        "ocp.self_s": (self_s("ocp.predict", "ocp.train"), "s"),
        "ocp.predict.calls": (calls("ocp.predict"), "count"),
        "ocp.train.calls": (calls("ocp.train"), "count"),
        "policies.self_s": (self_s("policies.decide"), "s"),
        "policies.decide.calls": (calls("policies.decide"), "count"),
        "model.instructions": (instructions, "count"),
        "model.cycles": (stat("cycles"), "cycles"),
        "model.l1d.miss_ratio": (_ratio(
            stat("l1d_misses"), stat("l1d_hits") + stat("l1d_misses")),
            "ratio"),
        "model.l2c.miss_ratio": (_ratio(
            stat("l2c_misses"), stat("l2c_hits") + stat("l2c_misses")),
            "ratio"),
        "model.llc.mpki": (_ratio(stat("llc_misses") * 1e3, instructions),
                           "1/kinstr"),
        "model.dram.requests": (sum(stat(name) for name in (
            "dram_demand_requests", "dram_prefetch_requests",
            "dram_ocp_requests", "dram_writeback_requests")), "count"),
        "model.prefetch.accuracy": (_ratio(
            stat("prefetches_useful"), stat("prefetches_issued")), "ratio"),
        "model.ocp.accuracy": (_ratio(
            stat("ocp_correct"), stat("ocp_predictions")), "ratio"),
        "trace.overhead_frac": (cold.wall_s / plain.cold.wall_s - 1.0,
                                "ratio"),
    }


def _phase(phases: dict, name: str) -> float:
    return phases.get(name, {}).get("wall_s", 0.0)

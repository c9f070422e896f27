"""Tests of the benchmark itself, on cut-down copies of its workloads.

A cut-down workload keeps the first two specs of the first batch, so
it runs the same code path as the full workload in seconds.
"""

import dataclasses
import json
import os
import pathlib

import pytest

from perfbench import report
from perfbench.measure import Pass, Repetition, run_repetition
from perfbench.workloads import WORKLOADS, campaign_1c, stream_long
from repro.workloads.tracecache import reset_trace_cache

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(workload, jobs=None):
    return dataclasses.replace(
        workload, batches=[workload.batches[0][:2]],
        jobs=workload.jobs if jobs is None else jobs)


@pytest.fixture
def clean_env():
    """Repetitions set REPRO_* variables and replace the trace cache."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)
    reset_trace_cache()


def test_same_seed_repeats_counts_and_digests(tmp_path, clean_env):
    assert campaign_1c(7).drawn == campaign_1c(7).drawn
    first, second = (run_repetition(small(campaign_1c(7), jobs=1),
                                    tmp_path / str(index))
                     for index in range(2))
    assert not first.problems and not second.problems
    assert first.digest == second.digest
    assert first.cold.counters == second.cold.counters
    assert first.cold.executed == second.cold.executed
    assert first.cold.counters["executed"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_draws_other_workloads(name):
    one, other = WORKLOADS[name](0), WORKLOADS[name](1)
    assert one.drawn != other.drawn
    assert len(one.specs) == len(other.specs)


def test_other_seed_reports_same_metric_names(tmp_path, clean_env):
    names, digests = [], []
    for seed in (0, 1):
        rep = run_repetition(small(campaign_1c(seed), jobs=1),
                             tmp_path / str(seed))
        metrics, _ = report.end_to_end([rep], group=1)
        names.append([(name, unit) for name, (_, unit) in metrics.items()])
        digests.append(rep.digest)
    assert digests[0] != digests[1]
    assert names[0] == names[1] == [
        (metric["name"], metric["unit"])
        for metric in BENCHMARK["end_to_end"]]


def _pass(latencies):
    return Pass(wall_s=1.0, latencies_ms=latencies, counters={},
                payloads={}, executed={}, requests=len(latencies),
                chunk_hits=0)


@pytest.mark.parametrize("per_rep", [8, 60, 232])
def test_tail_percentile_has_ten_requests_beyond_it(per_rep):
    """Each repetition's cold pass has latencies 0..per_rep-1 ms."""
    group = report.tail_group(per_rep)
    reps = [Repetition(cold=_pass({f"{r}.{i}": float(i)
                                   for i in range(per_rep)}),
                       warm=[_pass({})], problems=[], digest="")
            for r in range(max(3, group) + 1)]
    metrics, _ = report.end_to_end(reps, group)
    tail = metrics["request_tail_ms"][0]
    beyond = sum(ms > tail for rep in reps[:group]
                 for ms in rep.cold.latencies_ms.values())
    assert beyond >= 10


@pytest.mark.parametrize("workload", [
    small(campaign_1c(0), jobs=2),
    dataclasses.replace(stream_long(0),
                        batches=[stream_long(0).batches[0][:1]]),
], ids=["pool", "streamed"])
def test_traced_self_times_fit_in_wall_time(workload, tmp_path, clean_env):
    run = report.trace_workload(workload, tmp_path)
    assert run.plain.digest == run.rep.digest
    if workload.jobs > 1:
        assert len(run.lanes) > 1  # worker processes reported spans
    for lane in run.lanes.values():
        assert sum(self_s for _, self_s in lane["totals"].values()) \
            <= run.wall_s
    metrics = report.layer_metrics(workload, run)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (metric["name"], metric["unit"])
        for metric in BENCHMARK["per_layer"]]
    assert metrics["sim.hierarchy.load.calls"][0] > 0
    assert metrics["workloads.build_s"][0] > 0


def test_every_layer_metric_names_what_it_should_move():
    layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    workloads = set(WORKLOADS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for entry in layers.values():
        assert set(entry["on"]) <= workloads
        assert set(entry["moves"]) <= end_to_end | {"error_rate"}

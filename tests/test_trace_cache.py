"""Tests for the content-addressed compiled-trace cache.

Covers the ``build_trace`` regression (the docstring always promised
memoization; the cache now delivers it), LRU byte-budget eviction, the
on-disk tier, and the engine's trace-cache hit counters.
"""

import numpy as np
import pytest

from repro.workloads.suites import build_trace, find_workload
from repro.workloads.tracecache import (
    TraceCache,
    fingerprint,
    reset_trace_cache,
    trace_cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from the process-wide singleton."""
    cache = reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
    yield cache
    reset_trace_cache()


SPEC = find_workload("spec06.mcf_like.0")
OTHER = find_workload("ligra.BFS.0")


class TestBuildTraceMemoization:
    def test_second_build_is_a_cache_hit(self, fresh_cache):
        first = build_trace(SPEC, 2_000)
        second = build_trace(SPEC, 2_000)
        assert second is first          # same object, not a rebuild
        assert fresh_cache.stats.builds == 1
        assert fresh_cache.stats.hits == 1

    def test_lengths_are_distinct_entries(self, fresh_cache):
        a = build_trace(SPEC, 1_000)
        b = build_trace(SPEC, 2_000)
        assert len(a) == 1_000 and len(b) == 2_000
        assert fresh_cache.stats.builds == 2

    def test_specs_are_distinct_entries(self, fresh_cache):
        build_trace(SPEC, 1_000)
        build_trace(OTHER, 1_000)
        assert fresh_cache.stats.builds == 2

    def test_cached_trace_is_correct(self, fresh_cache):
        direct = SPEC.build(1_500)
        via_cache = build_trace(SPEC, 1_500)
        assert np.array_equal(direct.pcs, via_cache.pcs)
        assert np.array_equal(direct.addrs, via_cache.addrs)
        assert np.array_equal(direct.flags, via_cache.flags)


class TestFingerprint:
    def test_depends_on_every_recipe_field(self):
        base = fingerprint(SPEC, 1_000)
        assert fingerprint(SPEC, 1_001) != base
        assert fingerprint(OTHER, 1_000) != base

    def test_stable_across_calls(self):
        assert fingerprint(SPEC, 1_000) == fingerprint(SPEC, 1_000)


class TestEviction:
    def test_lru_respects_byte_budget(self):
        probe = SPEC.build(1_000)
        one = (probe.pcs.nbytes + probe.addrs.nbytes + probe.flags.nbytes)
        cache = TraceCache(max_bytes=int(one * 2.5), disk_dir=None)
        specs = [find_workload(n) for n in (
            "spec06.mcf_like.0", "spec06.libquantum_like.0", "ligra.BFS.0",
        )]
        for spec in specs:
            cache.get_or_build(spec, 1_000)
        assert cache.stats.evictions >= 1
        assert len(cache) <= 2
        # Least-recently-used entry (the first spec) was the one evicted.
        cache.get_or_build(specs[-1], 1_000)
        assert cache.stats.hits == 1

    def test_single_oversized_entry_still_cached(self):
        cache = TraceCache(max_bytes=1, disk_dir=None)
        cache.get_or_build(SPEC, 1_000)
        assert len(cache) == 1  # never evict down to zero

    def test_replacing_an_entry_does_not_leak_bytes(self):
        """Racing builders insert the same key twice; accounting must
        reflect one resident copy."""
        cache = TraceCache(max_bytes=1 << 30, disk_dir=None)
        trace = SPEC.build(1_000)
        key = fingerprint(SPEC, 1_000)
        cache._insert(key, trace)
        cache._insert(key, SPEC.build(1_000))
        assert cache._bytes == cache._trace_bytes(trace)


class TestDiskTier:
    def test_round_trip_across_cache_instances(self, tmp_path):
        writer = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
        built = writer.get_or_build(SPEC, 1_200)
        assert writer.stats.builds == 1
        key = fingerprint(SPEC, 1_200)
        assert (tmp_path / f"{key}.npz").exists()

        reader = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
        loaded = reader.get_or_build(SPEC, 1_200)
        assert reader.stats.builds == 0
        assert reader.stats.disk_hits == 1
        assert np.array_equal(loaded.pcs, built.pcs)
        assert np.array_equal(loaded.addrs, built.addrs)
        assert np.array_equal(loaded.flags, built.flags)

    @pytest.mark.parametrize("corruption", ["garbage", "torn"])
    def test_corrupt_file_is_rebuilt(self, tmp_path, corruption):
        key = fingerprint(SPEC, 1_200)
        if corruption == "garbage":
            (tmp_path / f"{key}.npz").write_bytes(b"not a trace archive")
        else:
            # a torn write: a valid archive truncated mid-stream (raises
            # zipfile.BadZipFile inside np.load, not ValueError)
            writer = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
            writer.get_or_build(SPEC, 1_200)
            blob = (tmp_path / f"{key}.npz").read_bytes()
            (tmp_path / f"{key}.npz").write_bytes(blob[: len(blob) // 2])
        cache = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
        trace = cache.get_or_build(SPEC, 1_200)
        assert cache.stats.builds == 1
        assert len(trace) == 1_200
        # the rebuild overwrote the corrupt entry with a loadable one
        fresh = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
        fresh.get_or_build(SPEC, 1_200)
        assert fresh.stats.disk_hits == 1

    def test_clear_disk(self, tmp_path):
        cache = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
        cache.get_or_build(SPEC, 1_000)
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.npz"))
        assert len(cache) == 0

    def test_env_var_configures_singleton(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        cache = reset_trace_cache()
        assert cache.disk_dir == tmp_path


class TestEngineCounters:
    def test_warm_engine_runs_hit_the_trace_cache(self, fresh_cache):
        """Two cold simulations of one workload share one trace build."""
        from repro.engine.api import Engine
        from repro.engine.jobs import RunRequest
        from repro.experiments.configs import CacheDesign

        engine = Engine(store=None)
        for policy in ("none", "tlp"):
            engine.run(RunRequest(
                spec=SPEC, trace_length=2_000, design=CacheDesign.cd1(),
                policy_name=policy, epoch_length=200,
            ))
        assert engine.counters.executed == 2
        assert engine.counters.trace_builds == 1
        assert engine.counters.trace_hits == 1
        assert "trace cache: 1 hits, 1 builds" in engine.counters.summary()

    def test_memoized_requests_touch_no_traces(self, fresh_cache):
        from repro.engine.api import Engine
        from repro.engine.jobs import RunRequest
        from repro.experiments.configs import CacheDesign

        engine = Engine(store=None)
        request = RunRequest(
            spec=SPEC, trace_length=2_000, design=CacheDesign.cd1(),
            policy_name="none", epoch_length=200,
        )
        engine.run(request)
        engine.run(request)   # memo hit: no execution, no trace activity
        assert engine.counters.memo_hits == 1
        assert engine.counters.trace_builds == 1
        assert engine.counters.trace_hits == 0


class TestStreamedBuildSpan:
    def test_span_times_emission_not_the_consumer(self, tmp_path):
        import time

        from repro.obs.spans import SpanCollector, reset_collector, span

        spans = reset_collector(SpanCollector(enabled=True))
        try:
            cache = TraceCache(max_bytes=1 << 30, disk_dir=tmp_path)
            stream = cache.stream(SPEC, 4_000, 500)
            blocks, pause = 0, 0.05
            for _ in stream:  # a slow consumer: simulates each block
                with span("simulate"):
                    time.sleep(pause)
                blocks += 1
            assert cache.stats.builds == 1
            assert list(tmp_path.rglob("meta.json"))  # the tee ran
        finally:
            reset_collector()
        [build] = [s for s in spans.spans if s["name"] == "trace_build"]
        assert blocks == 8
        assert build["wall_s"] < blocks * pause
        assert build["path"] == "trace_build"
        simulate = [s for s in spans.spans if s["name"] == "simulate"]
        assert len(simulate) == blocks
        assert all(s["path"] == "simulate" for s in simulate)

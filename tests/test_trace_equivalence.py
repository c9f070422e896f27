"""Golden trace-equivalence suite.

``tests/golden/trace_hashes.json`` pins a sha256 digest of the exact
``pcs``/``addrs``/``flags`` arrays for every registered workload spec at
two lengths, recorded from the original one-instruction-at-a-time
generator loops.  Rebuilding every trace through the current (vectorized)
generators and matching digests proves the rewrite is *byte-identical* —
a single differing flag bit in any tail anywhere fails loudly.

Also pins :class:`repro.workloads.rng.BulkRandom` — the vectorized
reproduction of CPython's Mersenne-Twister stream the generators draw
from — directly against ``random.Random``.
"""

import json
import random

import numpy as np
import pytest

import trace_goldens
from repro.workloads.rng import BulkRandom

GOLDEN = json.loads(trace_goldens.GOLDEN_PATH.read_text())
SPECS = trace_goldens.all_specs()


@pytest.mark.parametrize("length", trace_goldens.LENGTHS)
@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_trace_digest_matches_scalar_golden(spec, length):
    key = trace_goldens.case_key(spec, length)
    assert key in GOLDEN, (
        f"no golden digest for {key}; regenerate with "
        f"PYTHONPATH=src:tests python -m trace_goldens"
    )
    trace = spec.build(length)
    assert len(trace) == length
    assert trace_goldens.trace_digest(trace) == GOLDEN[key], (
        f"{key}: trace arrays diverge from the scalar-generator golden"
    )


GROW_SPECS = [
    s for s in SPECS if s.name in (
        "spec06.mcf_like.0",        # pointer_chase
        "spec06.xalancbmk_like.0",  # hash_probe
        "ligra.BFS.0",              # graph
        "parsec.streamcluster_like.1",  # gups
        "cvp.compute_int_0",        # compute
        "google.arizona",           # datacenter (phase composition)
    )
]


@pytest.mark.parametrize("spec", GROW_SPECS, ids=[s.name for s in GROW_SPECS])
def test_window_regrow_path_stays_bit_identical(spec, monkeypatch):
    """Cap the initial decode window so every chain-walking emitter is
    forced through the grow-and-recompute recovery path (never reached
    with production hints), and pin the result to the golden digest."""
    from repro.workloads import vectorize

    original_init = vectorize.WordWindow.__init__

    def tiny_init(self, br, words_hint):
        original_init(self, br, 4096)

    monkeypatch.setattr(vectorize.WordWindow, "__init__", tiny_init)
    length = trace_goldens.LENGTHS[1]
    key = trace_goldens.case_key(spec, length)
    trace = spec.build(length)
    assert trace_goldens.trace_digest(trace) == GOLDEN[key], (
        f"{key}: regrow recovery path diverged from the scalar golden"
    )


def test_golden_file_covers_all_specs():
    want = {
        trace_goldens.case_key(spec, length)
        for spec in SPECS
        for length in trace_goldens.LENGTHS
    }
    assert want == set(GOLDEN)


# ---------------------------------------------------------------------------
# BulkRandom vs random.Random
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_bulk_random_matches_scalar_stream(seed):
    scalar = random.Random(seed)
    want = [scalar.random() for _ in range(2000)]
    bulk = BulkRandom(random.Random(seed))
    got = bulk.random(2000)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("bound", [3, 8, 163, 1 << 14, (1 << 16) - 5])
def test_bulk_randrange_matches_scalar(bound):
    scalar = random.Random(99)
    want = [scalar.randrange(bound) for _ in range(500)]
    bulk = BulkRandom(random.Random(99))
    got = bulk.randrange(bound, 500)
    assert got.tolist() == want


def test_bulk_randrange_var_matches_sattolo_bounds():
    scalar = random.Random(4242)
    bounds = list(range(300, 0, -1))
    want = [scalar.randrange(n) for n in bounds]
    bulk = BulkRandom(random.Random(4242))
    assert bulk.randrange_var(bounds).tolist() == want


def test_bulk_sync_resumes_scalar_stream_exactly():
    """Bulk draws then sync(): the wrapped Random continues in lockstep."""
    reference = random.Random(31337)
    mixed = random.Random(31337)
    want = [reference.random() for _ in range(137)]
    want += [reference.randrange(1000) for _ in range(41)]
    want += [reference.random() for _ in range(10)]

    bulk = BulkRandom(mixed)
    got = list(bulk.random(137))
    got += list(bulk.randrange(1000, 41))
    bulk.sync()
    got += [mixed.random() for _ in range(10)]
    assert got == want


def test_bulk_peek_commit_windows_then_sync_across_snapshots():
    """Window-by-window peek/commit, as the vectorized emitters do,
    reading past several generator state snapshots: every peeked word is
    the scalar stream's next ``getrandbits(32)``, and ``sync`` hands the
    wrapped Random back exactly at the committed position."""
    reference = random.Random(2718)
    mixed = random.Random(2718)
    bulk = BulkRandom(mixed)
    committed = 0
    for window in (5, 4096, 70_000, 3, 90_000, 12_345):
        peeked = bulk.peek_words(window + 17)  # look ahead, commit less
        want = [reference.getrandbits(32) for _ in range(window)]
        assert peeked[:window].tolist() == want
        bulk.advance_words(window)
        committed += window
    assert committed > 2 * BulkRandom._MARK_EVERY
    bulk.sync()
    assert [mixed.random() for _ in range(50)] == \
        [reference.random() for _ in range(50)]

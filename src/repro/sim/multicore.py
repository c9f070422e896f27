"""Multi-core simulation: private L1D/L2C per core, shared LLC and DRAM.

Mirrors the paper's multi-core methodology (§6.1): each core runs its own
workload trace (replayed as needed), has private L1D/L2C with its own
prefetchers and OCP, and contends for the shared LLC and the shared DRAM
channel.  Each core also runs its *own* coordination-policy instance
(Athena is per-core hardware), using the single-core-tuned configuration
unaltered — exactly the paper's §7.4 setup.  The epoch step is the
single-core simulator's (:func:`~repro.sim.simulator.epoch_telemetry`,
:func:`~repro.sim.simulator.apply_action`).

Cores are interleaved in time order.  The reference semantics are the
seed implementation's per-instruction heap: at every step the core with
the smallest ``(clock, core_id)`` executes its next instruction, so DRAM
and LLC see an (approximately) time-ordered request stream and bandwidth
contention behaves like a shared channel.

The run loop reproduces that schedule at *event* granularity.  Only
instructions that touch shared state or sample it — loads/stores (LLC +
DRAM) and the epoch-boundary/warmup-reset transitions (which read shared
DRAM telemetry) — need global ordering; everything between two events of
one core is private (nops, predicted branches, mispredicted branches),
touches nothing shared, and is bulk-stepped through
:meth:`~repro.sim.cpu.CoreModel.run_simple` with branch counts taken from
a prefix sum.  Each core advances privately to just before its next
event; the heap then orders events by the same ``(clock before the event
instruction, core_id)`` key the per-instruction loop would have used, so
shared-state mutations happen in the identical order and the results are
bit-identical (pinned by the multicore golden cases in
``tests/golden/``).

Each core reads its trace through a window of resident blocks
(:class:`~repro.workloads.streaming.TraceBlock`; a materialized trace is
one block, and a replay restarts the block iterator), so a streamed core
holds O(block) instructions, not O(trace).  Every resident block
precomputes the run loop's fast-path aggregates for the private gap after
each memory access; a block's last gap is clipped at the block edge and
taken by the generic path, which carries runs across block and replay
edges.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid a sim <-> policies import cycle
    from ..policies.base import CoordinationPolicy
from ..workloads.streaming import TraceBlock, TraceStream
from ..workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)
from .cache import Cache
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .params import SystemParams
from .simulator import (
    apply_action,
    epoch_start,
    epoch_telemetry,
    reset_measured_stats,
    trace_blocks,
)
from .stats import SimStats
@dataclass
class CoreResult:
    """Per-core outcome of a multi-core run."""

    workload: str
    instructions: int
    cycles: float
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class MultiCoreResult:
    cores: List[CoreResult] = field(default_factory=list)

    def weighted_speedup(self, baseline: "MultiCoreResult") -> float:
        """Geometric-mean per-core speedup against a baseline run."""
        if len(self.cores) != len(baseline.cores):
            raise ValueError("core count mismatch between runs")
        product = 1.0
        for mine, base in zip(self.cores, baseline.cores):
            if base.ipc <= 0:
                raise ValueError(f"baseline IPC is zero for {base.workload}")
            product *= mine.ipc / base.ipc
        return product ** (1.0 / len(self.cores))


#: sentinel index no run ever reaches (schedules nothing)
_NEVER = 1 << 62


class _Block:
    """One resident trace block in the plain-scalar layout the event loop
    reads, with the fast-path aggregates of its memory gaps."""

    __slots__ = ("start", "stop", "pcs", "addrs", "flags", "mispred",
                 "branch_prefix", "mem", "gap_len", "gap_branches",
                 "gap_clean")

    def __init__(self, start: int, block: TraceBlock) -> None:
        flags = block.flags
        n = len(flags)
        self.start = start
        self.stop = start + n
        # Plain-scalar columns, converted once (no per-instruction
        # int(np.int64) conversions on the event path).
        self.pcs = block.pcs.tolist()
        self.addrs = block.addrs.tolist()
        self.flags = flags.tolist()
        is_mem = (flags & (FLAG_LOAD | FLAG_STORE)) != 0
        is_mispred = ((flags & FLAG_MISPRED) != 0) & ~is_mem
        mem = np.flatnonzero(is_mem)
        #: block-local positions that touch the shared LLC/DRAM (events)
        self.mem = mem.tolist()
        #: block-local private positions needing an individual step
        self.mispred = np.flatnonzero(is_mispred).tolist()
        zero = np.zeros(1, dtype=np.int64)
        branch_prefix = np.concatenate(
            (zero, np.cumsum((flags & FLAG_BRANCH) != 0, dtype=np.int64))
        )
        #: branch_prefix[i] = branches among the first i block positions
        self.branch_prefix = branch_prefix.tolist()
        # Per-gap aggregates, indexed like ``mem``: for the run of private
        # instructions after each memory position, its length, branch
        # count, and whether it is free of mispredicted branches.  The
        # last gap is clipped at the block edge and never clean, so the
        # generic path carries it into the next block or replay.
        nxt = np.append(mem[1:], n)
        mis_prefix = np.concatenate(
            (zero, np.cumsum(is_mispred, dtype=np.int64))
        )
        self.gap_len = (nxt - mem - 1).tolist()
        self.gap_branches = (branch_prefix[nxt]
                             - branch_prefix[mem + 1]).tolist()
        clean = mis_prefix[nxt] == mis_prefix[mem + 1]
        clean[-1:] = False
        self.gap_clean = clean.tolist()


class _CoreContext:
    """Execution state of one core inside the multi-core event loop.

    The trace is read through a window of :class:`_Block`\\ s, pulled as
    the schedule needs them and evicted once retired past.  Every
    instruction position the loop asks for is resident: :meth:`next_event`
    loads up to the next memory event, or past the next transition.
    """

    def __init__(
        self,
        core_id: int,
        trace: Union[Trace, TraceStream],
        hierarchy: CacheHierarchy,
        policy: Optional["CoordinationPolicy"],
        epoch_length: int,
        warmup_instructions: int,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.policy = policy
        self.epoch_length = epoch_length
        self.warmup_instructions = warmup_instructions
        self.core = CoreModel(hierarchy.params.core)
        self.retired = 0
        self.measure_start_cycles = 0.0
        #: resident blocks covering [window[0].start, _loaded_to)
        self._window: deque = deque()
        self._blocks = trace_blocks(trace)
        self._replay_base = 0
        self._loaded_to = 0
        #: memory schedule: the block holding the pending memory event,
        #: its index in the block's ``mem``, and its global index
        #: (``_NEVER`` until a loaded block holds one; ``_blk`` is then
        #: the last block loaded)
        self._blk: Optional[_Block] = None
        self._mem_ptr = 0
        self._mem_next = _NEVER
        #: global indices of the next epoch-/warmup-transition instruction
        self._next_epoch = epoch_length - 1 if policy is not None else _NEVER
        self._warm_idx = (warmup_instructions - 1 if warmup_instructions
                          else _NEVER)
        self._epoch_start = epoch_start(hierarchy, self.core)
        self._epoch_index = 0
        if policy is not None:
            policy.attach(hierarchy)

    # -- block window -------------------------------------------------------

    def _load_next_block(self) -> None:
        """Pull one more block into the window (restarting the trace at
        the replay boundary) and evict fully-retired blocks.  Blocks load
        only while no memory event is pending, so the new block's first
        one, if any, becomes the pending event."""
        try:
            block = next(self._blocks)
        except StopIteration:
            self._replay_base = self._loaded_to
            self._blocks = trace_blocks(self.trace)
            block = next(self._blocks)
        blk = _Block(self._replay_base + block.start, block)
        window = self._window
        window.append(blk)
        self._loaded_to = blk.stop
        while window[0].stop <= self.retired:
            window.popleft()
        if blk.mem:
            self._blk = blk
            self._mem_ptr = 0
            self._mem_next = blk.start + blk.mem[0]

    def _block_at(self, index: int) -> _Block:
        """The resident block containing global position ``index``."""
        window = self._window
        while window[0].stop <= index:
            window.popleft()
        return window[0]

    # -- event schedule -----------------------------------------------------

    def _advance_mem_ptr(self) -> None:
        """Consume the pending memory event from the schedule."""
        blk = self._blk
        ptr = self._mem_ptr + 1
        if ptr < len(blk.mem):
            self._mem_ptr = ptr
            self._mem_next = blk.start + blk.mem[ptr]
        else:
            self._mem_next = _NEVER

    def next_event(self, limit: int) -> int:
        """Smallest global index >= ``retired`` whose instruction must be
        globally ordered (memory access, epoch boundary, or warmup end);
        ``limit`` when the core finishes first."""
        nxt = self._mem_next
        if nxt == _NEVER:
            # Load until a block holds a memory event or every position
            # up to the next transition (or ``limit``) is resident.
            need = min(self._next_epoch + 1, self._warm_idx + 1, limit)
            while self._mem_next == _NEVER and self._loaded_to < need:
                self._load_next_block()
            nxt = self._mem_next
        if self._next_epoch < nxt:
            nxt = self._next_epoch
        if self._warm_idx < nxt:
            nxt = self._warm_idx
        return nxt if nxt < limit else limit

    def advance_private(self, start: int, stop: int) -> None:
        """Bulk-execute global positions ``[start, stop)`` — guaranteed
        free of events: runs of unit-latency instructions stepped through
        ``run_simple``, mispredicted branches stepped individually."""
        if stop <= start:
            return
        stats = self.hierarchy.stats
        core = self.core
        run_simple = core.run_simple
        step = core.step
        g = start
        while g < stop:
            blk = self._block_at(g)
            i = g - blk.start
            j = min(blk.stop, stop) - blk.start
            prefix = blk.branch_prefix
            stats.branches += prefix[j] - prefix[i]
            mispreds = blk.mispred
            pos = i
            for m in mispreds[bisect_left(mispreds, i):
                              bisect_left(mispreds, j)]:
                if m > pos:
                    run_simple(m - pos)
                step(1.0, False, False, True)
                stats.mispredicted_branches += 1
                pos = m + 1
            if j > pos:
                run_simple(j - pos)
            g = blk.start + j
        stats.instructions += stop - start
        self.retired = stop

    def execute_event(self) -> None:
        """Execute the single instruction at ``retired`` (the pending
        event) plus any epoch/warmup transition it triggers — exactly the
        per-instruction reference semantics.  This is the generic path;
        the run loop inlines the common case (a memory access away from
        any transition boundary)."""
        event_index = self.retired
        blk = self._block_at(event_index)
        i = event_index - blk.start
        f = blk.flags[i]
        hierarchy = self.hierarchy
        core = self.core
        stats = hierarchy.stats
        if f & FLAG_LOAD:
            issue = core.begin((f & FLAG_DEP) != 0)
            result = hierarchy.load(blk.pcs[i], blk.addrs[i], issue)
            core.finish(result.latency, True)
            stats.loads += 1
            self._advance_mem_ptr()
        elif f & FLAG_STORE:
            issue = core.begin()
            latency = hierarchy.store(blk.pcs[i], blk.addrs[i], issue)
            core.finish(latency)
            stats.stores += 1
            self._advance_mem_ptr()
        elif f & FLAG_BRANCH:
            mispred = bool(f & FLAG_MISPRED)
            core.step(1.0, False, False, mispred)
            stats.branches += 1
            if mispred:
                stats.mispredicted_branches += 1
        else:
            core.step()
        stats.instructions += 1
        self.retired += 1
        self._post_event(event_index)

    def _post_event(self, event_index: int) -> None:
        """Apply any warmup-end / epoch-boundary transition triggered by
        the instruction just executed at ``event_index``."""
        if event_index == self._warm_idx:
            self._warm_idx = _NEVER
            # End of this core's warm-up: caches and predictors stay warm,
            # measured statistics restart (paper §6.1 methodology).  Only
            # the private caches' hit counters reset — the shared LLC is
            # still mid-warmup for other cores.
            self.measure_start_cycles = self.core.cycles
            reset_measured_stats(self.hierarchy, include_shared_caches=False)
            self._epoch_start = epoch_start(self.hierarchy, self.core)
        if event_index == self._next_epoch:
            self._next_epoch += self.epoch_length
            hierarchy = self.hierarchy
            telemetry = epoch_telemetry(
                self._epoch_index, hierarchy, self.core, self._epoch_start
            )
            apply_action(hierarchy, self.policy.decide(telemetry))
            self._epoch_index += 1
            self._epoch_start = epoch_start(hierarchy, self.core)


class MultiCoreSimulator:
    """Run N workloads on N cores with shared LLC + DRAM."""

    def __init__(
        self,
        traces: Sequence[Union[Trace, TraceStream]],
        params: SystemParams,
        hierarchy_factory,
        policy_factory,
        instructions_per_core: int,
        epoch_length: int = 250,
        warmup_fraction: float = 0.0,
    ) -> None:
        """``hierarchy_factory(params, llc, dram)`` builds one core's
        private hierarchy (with its prefetchers/OCP) around the shared LLC
        and DRAM; ``policy_factory()`` builds one per-core policy instance
        (or returns ``None`` for uncoordinated runs)."""
        if not traces:
            raise ValueError("need at least one trace")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.params = params
        self.shared_llc = Cache(params.llc)
        self.shared_dram = MainMemory(params.dram)
        self.instructions_per_core = instructions_per_core
        self.contexts: List[_CoreContext] = []
        warmup_instructions = int(instructions_per_core * warmup_fraction)
        for core_id, trace in enumerate(traces):
            hierarchy = hierarchy_factory(
                params, self.shared_llc, self.shared_dram
            )
            self.contexts.append(_CoreContext(
                core_id=core_id,
                trace=trace,
                hierarchy=hierarchy,
                policy=policy_factory(),
                epoch_length=epoch_length,
                warmup_instructions=warmup_instructions,
            ))

    def run(self) -> MultiCoreResult:
        limit = self.instructions_per_core
        contexts = self.contexts
        heap = []
        for ctx in contexts:
            event = ctx.next_event(limit)
            ctx.advance_private(0, event)
            if event < limit:
                # key = clock before the event instruction: identical to
                # the per-instruction heap's key when it pops this
                # instruction, so events order the same way.
                heap.append((ctx.core.cycles, ctx.core_id))
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        while heap:
            key = heappop(heap)
            while True:
                ctx = contexts[key[1]]
                r = ctx.retired
                if r == ctx._mem_next and r < ctx._next_epoch \
                        and r < ctx._warm_idx:
                    # Fast path: a memory access away from any transition
                    # boundary, followed by its precomputed private gap.
                    core = ctx.core
                    hierarchy = ctx.hierarchy
                    stats = hierarchy.stats
                    blk = ctx._blk
                    ptr = ctx._mem_ptr
                    i = blk.mem[ptr]
                    f = blk.flags[i]
                    if f & FLAG_LOAD:
                        issue = core.begin((f & FLAG_DEP) != 0)
                        result = hierarchy.load(
                            blk.pcs[i], blk.addrs[i], issue
                        )
                        core.finish(result.latency, True)
                        stats.loads += 1
                    else:
                        issue = core.begin()
                        latency = hierarchy.store(
                            blk.pcs[i], blk.addrs[i], issue
                        )
                        core.finish(latency)
                        stats.stores += 1
                    r += 1
                    ctx._advance_mem_ptr()
                    gap = blk.gap_len[ptr]
                    end = r + gap
                    if gap and blk.gap_clean[ptr] and end <= limit \
                            and end <= ctx._next_epoch \
                            and end <= ctx._warm_idx:
                        core.run_simple(gap)
                        stats.branches += blk.gap_branches[ptr]
                        stats.instructions += gap + 1
                        ctx.retired = end
                    else:
                        # the gap holds a mispredicted branch, crosses a
                        # boundary, or is its block's last (clipped) one
                        stats.instructions += 1
                        ctx.retired = r
                        ctx.advance_private(r, ctx.next_event(limit))
                else:
                    # Generic path: epoch/warmup transitions.
                    ctx.execute_event()
                    ctx.advance_private(ctx.retired, ctx.next_event(limit))
                if ctx.retired >= limit:
                    break
                key = (ctx.core.cycles, key[1])
                if heap and key > heap[0]:
                    heappush(heap, key)
                    break
                # this core still holds the minimum event key: continue
                # with it without touching the heap
        result = MultiCoreResult()
        for ctx in self.contexts:
            measured_cycles = ctx.core.cycles - ctx.measure_start_cycles
            ctx.hierarchy.stats.cycles = measured_cycles
            result.cores.append(
                CoreResult(
                    workload=ctx.trace.name,
                    instructions=ctx.retired - ctx.warmup_instructions,
                    cycles=measured_cycles,
                    stats=ctx.hierarchy.stats,
                )
            )
        return result

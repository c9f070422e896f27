"""Seed-drawn workload definitions for the benchmark.

Each workload is a list of *batches*; a batch is the list of specs one
Session call receives (``Session.as_completed`` for single-core specs,
``Session.run_experiment`` for mixes).  Everything is drawn from the
workload seed, and the program only ever sees the resulting specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import ExperimentSpec, MixSpec, RunSpec
from repro.workloads.mixes import build_mixes
from repro.workloads.suites import evaluation_workloads

#: the scale every Session runs at: campaign_1c takes its trace length
#: (a whole multi-policy campaign fits in seconds), every workload its
#: epoch length and warmup fraction.
SCALE = "tiny"

#: coordination policies of the single-core campaign; each RunSpec also
#: plans its baseline, and athena plans one run per agent seed (3).
CAMPAIGN_POLICIES = ("naive", "hpac", "mab", "tlp", "athena")
CAMPAIGN_DESIGNS = ("cd1", "cd2", "cd3", "cd4")

#: 4-core mix policies; "baseline" is the mechanism-free variant.
MIX_POLICIES = ("baseline", "naive", "hpac", "mab", "athena")
MIX_TRACE_LENGTH = 5_000
MIXES_PER_CATEGORY = 4

#: stream_long draws one instance from each of these families: a
#: prefetch-friendly stream, an irregular pointer chase, a graph kernel
#: and a low-memory-intensity compute trace.
STREAM_FAMILIES = ("streaming", "pointer_chase", "graph", "compute")
STREAM_TRACE_LENGTH = 100_000
STREAM_BLOCK = 8192


@dataclass
class Workload:
    """One benchmark workload, fully drawn from its seed."""

    name: str
    jobs: int
    batches: List[list]
    #: route execution through a durable JobQueue
    queue: bool = False
    #: REPRO_STREAM_BLOCK for the executing process (None: materialize)
    stream_block: Optional[int] = None
    #: the workload instances (or mix members) the seed drew
    drawn: List[str] = field(default_factory=list)

    @property
    def specs(self) -> list:
        return [spec for batch in self.batches for spec in batch]


def _strata() -> Dict[str, list]:
    """Per workload family, the instances of its most common recipe.

    Instances of one recipe (generator and parameters) differ only in
    their generator seed, so drawing among them changes the simulated
    workload but hardly the host cost: the campaign stays comparable
    across benchmark seeds.
    """
    recipes: Dict[tuple, list] = {}
    for spec in evaluation_workloads():
        recipes.setdefault((spec.pattern, spec.params), []).append(spec)
    strata: Dict[str, list] = {}
    for (pattern, params), members in sorted(recipes.items(),
                                             key=lambda item: repr(item[0])):
        if len(members) > len(strata.get(pattern, ())):
            strata[pattern] = members
    return strata


def campaign_1c(seed: int) -> Workload:
    """One seed-drawn instance per workload family × CD1-CD4 × policies.

    The eight families span memory intensity, from cache-resident
    compute to pointer chasing and random updates.  There is one batch
    per design, as ``repro figures`` prefetches one figure's matrix at a
    time (Fig7/9/10/11 are CD1-CD4).
    """
    rng = random.Random(f"campaign_1c:{seed}")
    strata = _strata()
    drawn = [rng.choice(strata[name]).name for name in sorted(strata)]
    batches = [
        [RunSpec(workload=workload, design=design, policy=policy)
         for workload in drawn for policy in CAMPAIGN_POLICIES]
        for design in CAMPAIGN_DESIGNS
    ]
    return Workload("campaign_1c", jobs=2, batches=batches, drawn=drawn)


def mix_4c(seed: int) -> Workload:
    """Seed-drawn 4-core mixes of each category × CD1 × policies."""
    mixes = build_mixes(4, mixes_per_category=MIXES_PER_CATEGORY,
                        seed=seed)
    specs = []
    for mix in mixes:
        members = [w.name for w in mix.workloads]
        for policy in MIX_POLICIES:
            specs.append(MixSpec(
                workloads=members, design="cd1", name=mix.name,
                policy="none" if policy == "baseline" else policy,
                variant="baseline" if policy == "baseline" else "full",
                trace_length=MIX_TRACE_LENGTH,
            ))
    drawn = [f"{mix.name}=" + "+".join(w.name for w in mix.workloads)
             for mix in mixes]
    return Workload("mix_4c", jobs=2, batches=[specs], queue=True,
                    drawn=drawn)


def stream_long(seed: int) -> Workload:
    """Long streamed traces: baseline plus uncoordinated ``none``."""
    rng = random.Random(f"stream_long:{seed}")
    strata = _strata()
    drawn = [rng.choice(strata[name]).name for name in STREAM_FAMILIES]
    specs = [RunSpec(workload=workload, design="cd1", policy="none",
                     trace_length=STREAM_TRACE_LENGTH)
             for workload in drawn]
    return Workload("stream_long", jobs=1, batches=[specs],
                    stream_block=STREAM_BLOCK, drawn=drawn)


WORKLOADS = {
    "campaign_1c": campaign_1c,
    "mix_4c": mix_4c,
    "stream_long": stream_long,
}


def experiment(specs: list) -> ExperimentSpec:
    """Wrap mix specs as one experiment (the queue-routed batch path)."""
    return ExperimentSpec(name="mix_4c", scale=SCALE, mixes=list(specs))

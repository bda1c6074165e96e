"""The three benchmark workloads and the findings each must produce.

A workload is a campaign shape plus a fixed number of seeds per pass.
The seeds of a pass start at ``seed_start(--seed)``, so the same seed
always gives the same schedules, and every pass of one benchmark run
explores the same seeds (which is what lets the harness demand
identical findings across passes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

#: seeds reserved per benchmark ``--seed``; larger than any pass budget
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: workload spec: registry name or ``module:function``
    factory: str
    mode: str = "random"
    #: 0 runs the campaign inline, in the orchestrator process
    workers: int = 0
    detect: bool = False
    metrics: bool = False
    trace_mode: str = "full"
    #: a journal and a ``LiveAggregator`` attached, as ``campaign --serve`` does
    serve: bool = False
    faults: Optional[str] = None
    spurious_rate: float = 0.0
    shard_size: int = 25
    #: runs per timed pass
    budget: int = 100
    #: runs per traced pass (per-layer metrics)
    trace_budget: int = 100
    #: failure classes every pass must find
    expected: FrozenSet[str] = frozenset()
    #: failure classes a pass may find (superset of ``expected``)
    allowed: FrozenSet[str] = frozenset()
    #: every run must complete
    all_complete: bool = False

    @property
    def seeded_bug(self) -> bool:
        """The program carries a seeded bug (``failures_per_s`` applies)."""
        return bool(self.expected)

    def spec(
        self,
        seed_start: int,
        budget: Optional[int] = None,
        workers: Optional[int] = None,
        journal_path: Optional[str] = None,
    ):
        """The :class:`~repro.engine.campaign.CampaignSpec` of one pass."""
        from repro.engine.campaign import CampaignSpec

        return CampaignSpec(
            factory=self.factory,
            mode=self.mode,
            budget=self.budget if budget is None else budget,
            workers=self.workers if workers is None else workers,
            shard_size=self.shard_size,
            seed_start=seed_start,
            detect=self.detect,
            metrics=self.metrics,
            trace_mode=self.trace_mode,
            journal_path=journal_path,
            faults=self.faults,
            spurious_rate=self.spurious_rate,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campaign-pool",
            why=(
                "short pc-bug runs over 2 worker processes: per-event "
                "detection, metrics, IPC, merge, journal and live fold"
            ),
            factory="pc-bug",
            workers=2,
            detect=True,
            metrics=True,
            trace_mode="none",
            serve=True,
            budget=600,
            trace_budget=400,
            expected=frozenset({"FF-T5"}),
            allowed=frozenset({"FF-T5"}),
        ),
        Workload(
            name="kernel-long",
            why=(
                "2,000-item monitor producer-consumer inline, detection "
                "and metrics off: nearly all time in the VM kernel"
            ),
            factory="programs:kernel_long",
            # one shard per pass, so consecutive runs of a shard exist
            shard_size=1000,
            budget=4,
            trace_budget=2,
            all_complete=True,
        ),
        Workload(
            name="prims-faults",
            why=(
                "PCT over pc, semaphore, rw-lock and barrier in one kernel "
                "with a fault plan and spurious wakeups, detection on"
            ),
            factory="programs:prims_faults",
            mode="pct",
            detect=True,
            metrics=True,
            trace_mode="none",
            faults="expire-first-wait",
            spurious_rate=0.01,
            budget=300,
            trace_budget=200,
            expected=frozenset({"EV-TMO", "FF-T5"}),
            allowed=frozenset({"EV-TMO", "FF-T5", "EV-SPU"}),
        ),
    )
}


def seed_start(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed * SEED_STRIDE

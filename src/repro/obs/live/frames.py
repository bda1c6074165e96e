"""Telemetry frames: the compact streaming currency of a live campaign.

A :class:`TelemetryFrame` is what a campaign worker posts to the
orchestrator queue for every completed run — the run's
:class:`~repro.testing.explorer.RunSummary` plus the shard-local counters
the summary alone cannot provide: how many runs this shard has completed
so far and how many of them timed out.  Frames are plain-dict
serializable, so they ride the multiprocessing queue unchanged, and the
embedded summary dict is the one the journal records.

The campaign state (:class:`~repro.obs.live.aggregate.LiveAggregator`)
folds frames incrementally; the SSE stream re-publishes an annotated
projection of each one (see :mod:`repro.obs.live.server`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.testing.explorer import RunSummary

__all__ = ["FRAME_RUN", "TelemetryFrame"]

#: The frame kind: every frame carries one completed run.
FRAME_RUN = "run"


@dataclass(frozen=True)
class TelemetryFrame:
    """One telemetry message from a campaign worker.

    Attributes:
        kind: :data:`FRAME_RUN`.
        shard: id of the emitting shard.
        runs: runs this shard has completed so far, the carried one
            included.
        timeouts: how many of those runs ended with TIMEOUT status.
        classes: failure-class codes detected by the carried run.
        summary: the carried run.
    """

    kind: str
    shard: str
    runs: int = 0
    timeouts: int = 0
    classes: Tuple[str, ...] = ()
    summary: Optional[RunSummary] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind != FRAME_RUN:
            raise ValueError(f"unknown frame kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_run(
        cls,
        shard: str,
        summary: RunSummary,
        runs: int,
        timeouts: int = 0,
    ) -> "TelemetryFrame":
        return cls(
            kind=FRAME_RUN,
            shard=shard,
            runs=runs,
            timeouts=timeouts,
            classes=summary.detected_classes,
            summary=summary,
        )

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict projection (picklable and JSON-safe)."""
        payload: Dict[str, Any] = {"kind": self.kind, "shard": self.shard}
        if self.runs:
            payload["runs"] = self.runs
        if self.timeouts:
            payload["timeouts"] = self.timeouts
        if self.classes:
            payload["classes"] = list(self.classes)
        if self.summary is not None:
            payload["summary"] = self.summary.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TelemetryFrame":
        raw_summary = payload.get("summary")
        summary = (
            RunSummary.from_dict(dict(raw_summary))
            if raw_summary is not None
            else None
        )
        return cls(
            kind=str(payload["kind"]),
            shard=str(payload["shard"]),
            runs=int(payload.get("runs", 0)),
            timeouts=int(payload.get("timeouts", 0)),
            classes=tuple(str(c) for c in payload.get("classes", ())),
            summary=summary,
        )

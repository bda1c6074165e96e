"""The campaign state: one fold of every merged run, safe to read live.

A campaign keeps exactly one :class:`LiveAggregator`.  The
orchestrator's ``_Aggregator`` makes the dedup verdict and hands each
merged run to :meth:`LiveAggregator.note_run` — the one per-run fold of
the campaign's counts, statuses, class counts, failure signatures,
merged per-run metrics and shard rows — and records every shard
transition here, once.  Every view of the campaign renders this state:
``CampaignResult`` reads its counters and metrics, the text and
``--progress-json`` heartbeat (:class:`~repro.engine.progress.ProgressTracker`)
renders it on stderr, and ``/status``, ``/metrics`` and ``repro dash``
serve it over HTTP.  Folding a journal on ``--resume`` rebuilds the same
state; the tests pin that equality.

Everything is guarded by one lock so the embedded HTTP server's handler
threads (``/status``, ``/metrics``, SSE) can read mid-campaign without
torn counters.  SSE subscribers receive one compact dict per frame via
bounded queues; a slow consumer drops frames rather than stalling the
orchestrator, and with no subscriber no frame is built.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.obs.metrics import Counter as MetricsCounter
from repro.obs.metrics import Gauge, MetricsRegistry, MetricsSnapshot
from repro.testing.explorer import RunSummary
from repro.vm.kernel import RunStatus

from .frames import TelemetryFrame

__all__ = ["LiveAggregator", "ShardRow", "STATUS_FORMAT", "eta_seconds"]

#: ``format`` marker of the ``/status`` JSON document.
STATUS_FORMAT = "repro-live-status"

#: Dropped-frame ceiling per SSE subscriber: a consumer more than this
#: many frames behind loses the oldest rather than blocking the campaign.
_SUBSCRIBER_DEPTH = 256


@dataclass
class ShardRow:
    """Live view of one shard's disposition."""

    shard: str
    state: str = "pending"  # pending|running|done|failed|resumed
    runs: int = 0
    timeouts: int = 0
    attempts: int = 1
    exhausted: bool = False
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "shard": self.shard,
            "state": self.state,
            "runs": self.runs,
            "attempts": self.attempts,
        }
        if self.timeouts:
            row["timeouts"] = self.timeouts
        if self.exhausted:
            row["exhausted"] = True
        if self.error:
            row["error"] = self.error
        return row


def eta_seconds(
    total_runs: Optional[int], executed: int, elapsed: float
) -> Optional[float]:
    """Seconds until ``total_runs`` executions at the observed rate, or
    None when no budget is known or no run has finished yet."""
    if not total_runs or executed <= 0:
        return None
    remaining = total_runs - executed
    if remaining <= 0:
        return 0.0
    return remaining / (executed / elapsed)


class LiveAggregator:
    """The campaign state: a thread-safe incremental fold of its runs."""

    def __init__(
        self,
        info: Optional[Mapping[str, Any]] = None,
        total_runs: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self.started_at = clock()
        #: campaign identity (fingerprint, factory, mode, budget, ...)
        self.info: Dict[str, Any] = dict(info or {})
        self.total_runs = total_runs
        self.state = "running"
        self.goal: Optional[str] = None

        self.runs = 0  # unique schedules merged
        self.executed = 0  # every execution, duplicates included
        self.duplicates = 0
        self.failures = 0  # unique non-ok schedules
        #: every non-ok execution, duplicates included (the heartbeat's
        #: ``failures``)
        self.failed_executions = 0
        self.statuses: "Counter[str]" = Counter()
        self.class_counts: "Counter[str]" = Counter()
        self.signatures: Set[Tuple[str, Tuple[str, ...]]] = set()
        #: merged per-run metrics registry (unique schedules only); what
        #: ``CampaignResult.metrics`` returns
        self.metrics = MetricsRegistry()

        self.shards: Dict[str, ShardRow] = {}
        self.shards_total = 0
        self.shards_done = 0
        self.shards_failed = 0
        self.shards_requeued = 0
        self.shards_resumed = 0

        self._frame_seq = 0
        self._subscribers: List["queue.Queue[Dict[str, Any]]"] = []

    # -- intake (orchestrator thread) --------------------------------------

    def set_shards_total(self, count: int) -> None:
        with self._lock:
            self.shards_total = count

    def note_run(
        self,
        summary: RunSummary,
        duplicate: bool,
        shard_id: str = "",
        frame: Optional[TelemetryFrame] = None,
    ) -> None:
        """Fold one merged run: the campaign's one per-run fold.
        ``duplicate`` is the orchestrator's schedule-dedup verdict;
        duplicates count as executions only."""
        with self._lock:
            self.executed += 1
            failed = not summary.ok
            if failed:
                self.failed_executions += 1
            if duplicate:
                self.duplicates += 1
            else:
                self.runs += 1
                self.statuses[summary.status] += 1
                if failed:
                    self.failures += 1
                    self.signatures.add(summary.signature)
                for code in summary.detected_classes:
                    self.class_counts[code] += 1
                if summary.metrics:
                    self.metrics.merge_snapshot(
                        MetricsSnapshot.from_dict(summary.metrics)
                    )
            shard_id = shard_id or (frame.shard if frame else "")
            row = self._row(shard_id)
            if row is not None:
                row.state = "running"
                if frame is not None:
                    row.runs = max(row.runs, frame.runs)
                    row.timeouts = max(row.timeouts, frame.timeouts)
                else:
                    row.runs += 1
                    if summary.status == RunStatus.TIMEOUT.value:
                        row.timeouts += 1
            if self._subscribers:
                self._publish(
                    {
                        "kind": "run",
                        "shard": shard_id,
                        "status": summary.status,
                        "duplicate": duplicate,
                        "classes": list(summary.detected_classes),
                        "runs": self.runs,
                        "executed": self.executed,
                        "duplicates": self.duplicates,
                        "failures": self.failures,
                    }
                )

    def note_shard_done(self, shard_id: str, exhausted: bool = False) -> None:
        with self._lock:
            self.shards_done += 1
            row = self._row(shard_id)
            if row is not None:
                row.state = "done"
                row.exhausted = exhausted
            self._publish(
                {
                    "kind": "shard-done",
                    "shard": shard_id,
                    "exhausted": exhausted,
                    "shards_done": self.shards_done,
                    "shards_total": self.shards_total,
                }
            )

    def note_shard_failed(self, shard_id: str, error: str = "") -> None:
        with self._lock:
            self.shards_failed += 1
            row = self._row(shard_id)
            if row is not None:
                row.state = "failed"
                row.error = error
            self._publish(
                {"kind": "shard-failed", "shard": shard_id, "error": error}
            )

    def note_shard_requeued(self, shard_id: str) -> None:
        with self._lock:
            self.shards_requeued += 1
            row = self._row(shard_id)
            if row is not None:
                row.attempts += 1
                row.state = "pending"
                row.runs = 0
                row.timeouts = 0
            self._publish({"kind": "shard-requeued", "shard": shard_id})

    def note_shards_resumed(self, shard_ids: List[str]) -> None:
        with self._lock:
            self.shards_resumed += len(shard_ids)
            self.shards_done += len(shard_ids)
            for shard_id in shard_ids:
                row = self._row(shard_id)
                if row is not None:
                    row.state = "resumed"

    def close(self, goal: Optional[str] = None, state: str = "done") -> None:
        """Mark the campaign finished and wake every SSE subscriber."""
        with self._lock:
            self.state = state
            self.goal = goal
            self._publish({"kind": "end", "state": state, "goal": goal})

    # -- reads (HTTP handler threads) --------------------------------------

    def elapsed(self) -> float:
        return max(self._clock() - self.started_at, 1e-9)

    def runs_per_sec(self) -> float:
        return self.executed / self.elapsed()

    def eta_seconds(self) -> Optional[float]:
        return eta_seconds(self.total_runs, self.executed, self.elapsed())

    def status(self) -> Dict[str, Any]:
        """The ``/status`` JSON document (see docs/formats.md)."""
        with self._lock:
            eta = self.eta_seconds()
            doc: Dict[str, Any] = {
                "format": STATUS_FORMAT,
                "version": 1,
                "state": self.state,
                "goal": self.goal,
                "runs": self.runs,
                "executed": self.executed,
                "duplicates": self.duplicates,
                "failures": self.failures,
                "signatures": len(self.signatures),
                "total_runs": self.total_runs,
                "statuses": dict(sorted(self.statuses.items())),
                "class_counts": dict(sorted(self.class_counts.items())),
                "elapsed_seconds": round(self.elapsed(), 3),
                "runs_per_sec": round(self.runs_per_sec(), 3),
                "eta_seconds": None if eta is None else round(eta, 3),
                "shards": {
                    "total": self.shards_total,
                    "done": self.shards_done,
                    "failed": self.shards_failed,
                    "requeued": self.shards_requeued,
                    "resumed": self.shards_resumed,
                },
                "shard_table": [
                    row.to_dict()
                    for _, row in sorted(self.shards.items())
                ],
            }
            doc.update(self.info)
            top = self.top_contended()
            if top is not None:
                doc["top_contended"] = {"monitor": top[0], "ticks": top[1]}
            return doc

    def status_json(self) -> str:
        return json.dumps(self.status(), sort_keys=True)

    def registry(self, wall_time: Optional[float] = None) -> MetricsRegistry:
        """A fresh campaign-level registry: the merged per-run series plus
        the campaign's own counters (``campaign_runs_total`` by status,
        duplicates, failure classes, shard accounting, throughput and the
        ``campaign_info`` identity gauge).

        What ``/metrics`` serves mid-run and, through
        :meth:`repro.engine.campaign.CampaignResult.build_metrics`, what
        ``--metrics-out``/``--metrics-prom`` write.  Throughput is over
        ``wall_time`` when given, else over the time elapsed so far.
        Pure: the state is left untouched, so it is safe to call
        repeatedly.
        """
        with self._lock:
            registry = MetricsRegistry()
            registry.merge(self.metrics)
            runs = registry.counter(
                "campaign_runs_total", "unique schedules merged, by run status"
            )
            for status_value, count in self.statuses.items():
                runs.inc(count, status=status_value)
            registry.counter(
                "campaign_duplicate_schedules_total",
                "runs discarded as duplicate schedules",
            ).inc(self.duplicates)
            classes = registry.counter(
                "campaign_failure_classes_total",
                "unique schedules implicating each Table-1 failure class",
            )
            for code, count in self.class_counts.items():
                classes.inc(count, failure_class=code)
            shards = registry.counter(
                "campaign_shards_total", "shard dispositions across the campaign"
            )
            shards.inc(self.shards_done, state="completed")
            shards.inc(self.shards_failed, state="failed")
            shards.inc(self.shards_requeued, state="requeued")
            shards.inc(self.shards_resumed, state="resumed")
            registry.gauge(
                "campaign_runs_per_second",
                "overall campaign throughput (executed runs / wall time)",
                agg="last",
            ).set(self.executed / (wall_time or self.elapsed()))
            attach_campaign_info(registry, self.info, self.shards_total)
            return registry

    # -- SSE plumbing ------------------------------------------------------

    def subscribe(self) -> "queue.Queue[Dict[str, Any]]":
        subscriber: "queue.Queue[Dict[str, Any]]" = queue.Queue(
            maxsize=_SUBSCRIBER_DEPTH
        )
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue[Dict[str, Any]]") -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    # -- internals ---------------------------------------------------------

    def _row(self, shard_id: str) -> Optional[ShardRow]:
        if not shard_id:
            return None
        row = self.shards.get(shard_id)
        if row is None:
            row = ShardRow(shard=shard_id)
            self.shards[shard_id] = row
        return row

    def _publish(self, frame: Dict[str, Any]) -> None:
        """Number ``frame`` and queue it for every SSE subscriber."""
        self._frame_seq += 1
        frame["seq"] = self._frame_seq
        for subscriber in self._subscribers:
            try:
                subscriber.put_nowait(frame)
            except queue.Full:
                try:  # drop the oldest frame, never the stream
                    subscriber.get_nowait()
                    subscriber.put_nowait(frame)
                except (queue.Empty, queue.Full):
                    pass

    def top_contended(self) -> Optional[Tuple[str, float]]:
        """``(monitor, contended_ticks)`` of the most contended monitor
        in the merged metrics, or None without metrics."""
        contended = self.metrics.get("vm_monitor_contended_ticks_total")
        if isinstance(contended, MetricsCounter):
            top = contended.top(1, label="monitor")
            if top:
                return top[0]
        return None


def attach_campaign_info(
    registry: MetricsRegistry,
    info: Mapping[str, Any],
    shards_total: int,
) -> Optional[Gauge]:
    """Add the ``campaign_info`` labeled gauge (value always 1) carrying
    campaign identity: fingerprint, factory, mode, shard count, and the
    repro version — the Prometheus ``*_info`` convention."""
    labels: Dict[str, str] = {}
    for key in ("fingerprint", "factory", "mode"):
        value = info.get(key)
        if value is not None:
            labels[key] = str(value)
    if not labels and not shards_total:
        return None
    from repro import __version__

    labels["version"] = __version__
    labels["shards"] = str(shards_total)
    gauge = registry.gauge(
        "campaign_info",
        "campaign identity labels; the value is always 1",
        agg="last",
    )
    gauge.set(1, **labels)
    return gauge

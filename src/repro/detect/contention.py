"""Monitor contention profiling from traces.

Not a failure detector but the measurement side of the same trace: how
contended is each monitor, how long do threads block or wait (in virtual
time), which notifies found an empty wait set.  High contention with
unfair policies is the precondition of FF-T2/FF-T5 starvation, so these
profiles are how a tester decides *where* to aim the fairness analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.report.text import render_table
from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = [
    "MonitorProfile",
    "ContentionReport",
    "OnlineContentionProfiler",
    "profile_contention",
]


@dataclass
class MonitorProfile:
    """Aggregate synchronization statistics of one monitor."""

    monitor: str
    acquisitions: int = 0
    contended_acquisitions: int = 0
    waits: int = 0
    notifies: int = 0
    notify_alls: int = 0
    lost_notifies: int = 0
    total_blocked_time: int = 0
    max_blocked_time: int = 0
    total_wait_time: int = 0
    max_wait_time: int = 0

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to block first."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    @property
    def mean_blocked_time(self) -> float:
        if self.contended_acquisitions == 0:
            return 0.0
        return self.total_blocked_time / self.contended_acquisitions

    @property
    def mean_wait_time(self) -> float:
        if self.waits == 0:
            return 0.0
        return self.total_wait_time / self.waits

    def describe(self) -> str:
        return (
            f"{self.monitor}: {self.acquisitions} acquisitions "
            f"({self.contention_ratio:.0%} contended, "
            f"mean block {self.mean_blocked_time:.1f}), "
            f"{self.waits} waits (mean {self.mean_wait_time:.1f}), "
            f"{self.notifies}+{self.notify_alls} notifies "
            f"({self.lost_notifies} lost)"
        )


@dataclass
class ContentionReport:
    """Profiles of every monitor appearing in a trace."""

    monitors: Dict[str, MonitorProfile] = field(default_factory=dict)

    def most_contended(self) -> Optional[MonitorProfile]:
        """The monitor with the highest contention ratio (ties: most
        acquisitions), or None for an empty report."""
        if not self.monitors:
            return None
        return max(
            self.monitors.values(),
            key=lambda p: (p.contention_ratio, p.acquisitions),
        )

    def _ranked(self) -> List[MonitorProfile]:
        return sorted(
            self.monitors.values(),
            key=lambda p: (-p.contention_ratio, p.monitor),
        )

    def describe(self) -> str:
        if not self.monitors:
            return "no monitor activity in trace"
        return "\n".join(profile.describe() for profile in self._ranked())

    def table(self) -> str:
        """The profile as a ruled table (the shared CLI renderer), most
        contended monitor first."""
        if not self.monitors:
            return "no monitor activity in trace"
        rows = [
            [
                p.monitor,
                str(p.acquisitions),
                f"{p.contention_ratio:.0%}",
                f"{p.mean_blocked_time:.1f}",
                str(p.waits),
                f"{p.mean_wait_time:.1f}",
                str(p.notifies + p.notify_alls),
                str(p.lost_notifies),
            ]
            for p in self._ranked()
        ]
        return render_table(
            [
                "monitor",
                "acq",
                "contended",
                "mean block",
                "waits",
                "mean wait",
                "notifies",
                "lost",
            ],
            rows,
            title="monitor contention",
        )


@register_detector("contention")
class OnlineContentionProfiler(OnlineDetector):
    """Streaming per-monitor contention statistics.

    Blocked time is the virtual time between a MONITOR_REQUEST and the
    matching MONITOR_ACQUIRE; wait time is between MONITOR_WAIT and the
    post-notification MONITOR_ACQUIRE (i.e. includes the re-entry delay,
    which is what a caller actually experiences).
    """

    name = "contention"
    #: every kind the kernel emits with a ``monitor`` name: each one
    #: creates the monitor's profile (report order is first-seen order),
    #: even the kinds whose counters this profiler does not keep.
    kinds = frozenset(
        {
            EventKind.MONITOR_REQUEST,
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_NOTIFIED,
            EventKind.NOTIFY,
            EventKind.NOTIFY_ALL,
            EventKind.SPURIOUS_WAKEUP,
            EventKind.WAIT_TIMEOUT,
            EventKind.SEM_REQUEST,
            EventKind.SEM_ACQUIRE,
            EventKind.SEM_RELEASE,
            EventKind.RW_REQUEST,
            EventKind.RW_ACQUIRE,
            EventKind.RW_RELEASE,
            EventKind.RW_DOWNGRADE,
            EventKind.BARRIER_AWAIT,
            EventKind.BARRIER_TRIP,
            EventKind.BARRIER_RESUME,
            EventKind.BARRIER_BROKEN,
        }
    )

    def __init__(self) -> None:
        self.report = ContentionReport()
        # (thread, monitor) -> request time, for open requests
        self._pending_request: Dict[Tuple[str, str], int] = {}
        # (thread, monitor) -> wait time, for threads in/returning from wait
        self._pending_wait: Dict[Tuple[str, str], int] = {}

    def reset(self) -> None:
        self.__init__()

    def _profile(self, monitor: str) -> MonitorProfile:
        if monitor not in self.report.monitors:
            self.report.monitors[monitor] = MonitorProfile(monitor)
        return self.report.monitors[monitor]

    def on_event(self, event: Event) -> None:
        monitor = event.monitor
        if monitor is None:
            return
        key = (event.thread, monitor)
        p = self._profile(monitor)
        if event.kind is EventKind.MONITOR_REQUEST:
            self._pending_request[key] = event.time
        elif event.kind is EventKind.MONITOR_ACQUIRE:
            p.acquisitions += 1
            if key in self._pending_wait:
                waited = event.time - self._pending_wait.pop(key)
                p.total_wait_time += waited
                p.max_wait_time = max(p.max_wait_time, waited)
                self._pending_request.pop(key, None)
            elif key in self._pending_request:
                blocked = event.time - self._pending_request.pop(key)
                if blocked > 0:
                    p.contended_acquisitions += 1
                    p.total_blocked_time += blocked
                    p.max_blocked_time = max(p.max_blocked_time, blocked)
        elif event.kind is EventKind.MONITOR_WAIT:
            p.waits += 1
            self._pending_wait[key] = event.time
        elif event.kind is EventKind.NOTIFY:
            p.notifies += 1
            if not event.detail.get("woken"):
                p.lost_notifies += 1
        elif event.kind is EventKind.NOTIFY_ALL:
            p.notify_alls += 1
            if not event.detail.get("woken"):
                p.lost_notifies += 1

    def finish(self) -> ContentionReport:
        return self.report


def profile_contention(trace: Trace) -> ContentionReport:
    """Compute per-monitor contention statistics from one trace (replays
    the stored events through :class:`OnlineContentionProfiler`)."""
    return replay(trace, OnlineContentionProfiler()).finish()

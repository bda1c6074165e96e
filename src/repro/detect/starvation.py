"""Starvation and fairness analysis (FF-T2 way 2, FF-T5 unfair notify).

Section 5.2.1: *"If there is high contention and there is always more than
one thread requesting a lock, it is possible that one thread is never
selected to receive a lock ... Since the Java virtual machine is not
required to be fair, this could be a potential problem."*  Section 5.5.1
makes the same point for notify selection.

Two measures are computed from a trace:

* **lock bypasses** — each time monitor ``M`` is granted to thread ``B``
  while an *earlier-arrived* thread ``A`` sits in the entry set, ``A`` is
  *bypassed* (overtaken) once.  Under a FIFO grant policy the count is
  zero by construction; unfair policies accumulate overtakes.  A thread
  bypassed more than ``threshold`` times (or bypassed and still blocked
  at the end) is flagged as starved.
* **notify bypasses** — each time a waiter is woken on ``M`` while an
  earlier-waiting ``A`` remains in the wait set, ``A`` is overtaken once.
  Symmetric flagging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import Trace

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = ["StarvationReport", "OnlineStarvationDetector", "analyze_starvation"]


@dataclass(frozen=True)
class StarvationReport:
    """One starved thread.

    ``kind`` is ``"lock"`` (never granted the monitor: FF-T2) or
    ``"notify"`` (never selected by notify: FF-T5).
    """

    thread: str
    monitor: str
    kind: str
    bypasses: int
    resolved: bool  # True when the thread did eventually proceed

    # ``kind`` values beyond the monitor pair: "permit" (semaphore
    # acquirer overtaken, the §5.2.1 fairness point applied to permits)
    # and "writer"/"reader" (rw acquirer overtaken in that mode —
    # "writer" under reader preference is the classic writer starvation).

    def __str__(self) -> str:
        fate = "eventually proceeded" if self.resolved else "still stuck at end"
        return (
            f"{self.kind}-starvation: {self.thread!r} bypassed {self.bypasses}x "
            f"on {self.monitor!r} ({fate})"
        )


@register_detector("starvation")
class OnlineStarvationDetector(OnlineDetector):
    """Streaming bypass counting per (thread, monitor).

    State is the live entry/wait sets (monitor -> {thread: arrival seq})
    plus the bypass counters; a bypass is a grant/wake of a thread while
    a STRICTLY EARLIER arrival is still queued (an overtake) — FIFO
    policies therefore score zero by construction.  Flagging happens in
    :meth:`finish`, since "still stuck at the end" is only knowable then.
    """

    name = "starvation"
    kinds = frozenset(
        {
            EventKind.MONITOR_REQUEST,
            EventKind.MONITOR_ACQUIRE,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_NOTIFIED,
            EventKind.SEM_REQUEST,
            EventKind.SEM_ACQUIRE,
            EventKind.RW_REQUEST,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
            EventKind.WAIT_TIMEOUT,
            EventKind.INTERRUPT,
            EventKind.THREAD_END,
            EventKind.THREAD_CRASH,
        }
    )

    def __init__(
        self, bypass_threshold: int = 3, include_resolved: bool = False
    ) -> None:
        self.bypass_threshold = bypass_threshold
        self.include_resolved = include_resolved
        self._entry_sets: Dict[str, Dict[str, int]] = {}
        self._wait_sets: Dict[str, Dict[str, int]] = {}
        self._lock_bypasses: Dict[Tuple[str, str], int] = {}
        self._notify_bypasses: Dict[Tuple[str, str], int] = {}
        #: primitive kind per queued-on name ("semaphore"/"rwlock";
        #: absent means plain monitor) — picks the report kind.
        self._prim_kind: Dict[str, str] = {}
        #: mode of each thread's last rw request on a lock.
        self._rw_mode: Dict[Tuple[str, str], str] = {}

    def reset(self) -> None:
        self.__init__(self.bypass_threshold, self.include_resolved)

    def on_event(self, event: Event) -> None:
        monitor = event.monitor
        thread = event.thread
        if event.kind is EventKind.MONITOR_REQUEST:
            self._entry_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
        elif event.kind is EventKind.MONITOR_ACQUIRE:
            queued = self._entry_sets.setdefault(monitor, {})
            arrived = queued.pop(thread, event.seq)
            for bystander, bystander_arrived in queued.items():
                if bystander_arrived < arrived:
                    key = (bystander, monitor)
                    self._lock_bypasses[key] = self._lock_bypasses.get(key, 0) + 1
        elif event.kind is EventKind.MONITOR_WAIT:
            self._wait_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
        elif event.kind is EventKind.MONITOR_NOTIFIED:
            waiters = self._wait_sets.setdefault(monitor, {})
            arrived = waiters.pop(thread, event.seq)
            for bystander, bystander_arrived in waiters.items():
                if bystander_arrived < arrived:
                    key = (bystander, monitor)
                    self._notify_bypasses[key] = self._notify_bypasses.get(key, 0) + 1
            # the woken thread re-enters the entry set
            self._entry_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
        elif event.kind in (EventKind.SEM_REQUEST, EventKind.RW_REQUEST):
            # Semaphore and rw-lock queues starve exactly like entry sets:
            # same arrival bookkeeping, different report kind.
            self._entry_sets.setdefault(monitor, {}).setdefault(thread, event.seq)
            if event.kind is EventKind.RW_REQUEST:
                self._prim_kind[monitor] = "rwlock"
                self._rw_mode[(thread, monitor)] = event.detail.get("mode", "read")
            else:
                self._prim_kind[monitor] = "semaphore"
        elif event.kind in (
            EventKind.SEM_ACQUIRE,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
        ):
            queued = self._entry_sets.setdefault(monitor, {})
            arrived = queued.pop(thread, event.seq)
            for bystander, bystander_arrived in queued.items():
                if bystander_arrived < arrived:
                    key = (bystander, monitor)
                    self._lock_bypasses[key] = self._lock_bypasses.get(key, 0) + 1
        elif event.kind is EventKind.WAIT_TIMEOUT:
            if event.detail.get("primitive") == "semaphore":
                self._entry_sets.setdefault(monitor, {}).pop(thread, None)
        elif event.kind is EventKind.INTERRUPT:
            # An interrupted primitive acquirer leaves its queue for good;
            # monitor entry sets are left to the monitor protocol events
            # (a post-wait reacquirer stays queued with the interrupt
            # pending, so popping it here would lose its arrival).
            for mon, queued in self._entry_sets.items():
                if mon in self._prim_kind:
                    queued.pop(thread, None)
        elif event.kind in (EventKind.THREAD_END, EventKind.THREAD_CRASH):
            for queued in self._entry_sets.values():
                queued.pop(thread, None)
            for waiters in self._wait_sets.values():
                waiters.pop(thread, None)

    def _queue_kind(self, thread: str, monitor: str) -> str:
        """Report kind for a bypassed acquirer of ``monitor``."""
        prim = self._prim_kind.get(monitor)
        if prim == "semaphore":
            return "permit"
        if prim == "rwlock":
            mode = self._rw_mode.get((thread, monitor), "read")
            return "writer" if mode == "write" else "reader"
        return "lock"

    def finish(self) -> List[StarvationReport]:
        reports: List[StarvationReport] = []
        for (thread, monitor), count in sorted(self._lock_bypasses.items()):
            stuck = thread in self._entry_sets.get(monitor, {})
            if (count > self.bypass_threshold and (self.include_resolved or stuck)) or (
                stuck and count >= 1
            ):
                reports.append(
                    StarvationReport(
                        thread,
                        monitor,
                        self._queue_kind(thread, monitor),
                        count,
                        resolved=not stuck,
                    )
                )
        for (thread, monitor), count in sorted(self._notify_bypasses.items()):
            stuck = thread in self._wait_sets.get(monitor, {})
            if (count > self.bypass_threshold and (self.include_resolved or stuck)) or (
                stuck and count >= 1
            ):
                reports.append(
                    StarvationReport(
                        thread, monitor, "notify", count, resolved=not stuck
                    )
                )
        return reports


def analyze_starvation(
    trace: Trace,
    bypass_threshold: int = 3,
    include_resolved: bool = False,
) -> List[StarvationReport]:
    """Count bypasses per (thread, monitor) and flag starvation.

    A report is produced when a thread was bypassed more than
    ``bypass_threshold`` times, unless it eventually proceeded and
    ``include_resolved`` is False; a thread bypassed at least once and
    still stuck at the end of the trace is always reported.  Replays the
    stored events through :class:`OnlineStarvationDetector`.
    """
    return replay(
        trace,
        OnlineStarvationDetector(
            bypass_threshold=bypass_threshold, include_resolved=include_resolved
        ),
    ).finish()

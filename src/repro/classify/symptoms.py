"""From observed symptoms to failure classes.

Table 1's *Consequences* column is, read backwards, a diagnosis table:
an observed consequence (a thread permanently suspended, a call that
completed too early, interference on shared state...) points back at the
failure classes that can produce it.  This module makes that backward
reading executable:

* :class:`Symptom` — the observable consequences;
* :data:`CANDIDATES` — symptom → candidate failure classes (derived from
  the Consequences column);
* :func:`symptoms_from_run` — extract VM-level symptoms from a
  :class:`~repro.vm.kernel.RunResult`;
* :func:`classify_symptoms` — produce ranked :class:`ObservedFailure`
  records.

Dynamic detectors (:mod:`repro.detect`) feed additional symptoms in —
e.g. the lockset race detector produces :attr:`Symptom.DATA_RACE`, the
completion-time oracle produces the COMPLETED_* symptoms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.kernel import RunResult, RunStatus
from repro.vm.thread import ThreadState

from .taxonomy import FailureClass

__all__ = [
    "Symptom",
    "ObservedFailure",
    "ClassificationReport",
    "CANDIDATES",
    "SymptomTracker",
    "symptoms_from_run",
    "classify_symptoms",
]


class Symptom(enum.Enum):
    """Observable consequences, in the vocabulary of Table 1."""

    DATA_RACE = "interference on shared state (race condition)"
    UNNECESSARY_SYNC = "synchronization with no shared access"
    PERMANENTLY_BLOCKED = "thread permanently blocked acquiring a lock"
    DEADLOCK_CYCLE = "cyclic lock wait among threads"
    PERMANENTLY_WAITING = "thread permanently suspended in wait state"
    NEVER_COMPLETES = "thread never completes (step budget exhausted)"
    COMPLETED_EARLY = "call completed earlier than expected"
    COMPLETED_LATE = "call completed later than expected"
    LOST_NOTIFICATION = "notify delivered to an empty wait set"
    PREMATURE_REENTRY = "thread re-entered critical section prematurely"
    PREMATURE_RELEASE = "lock released before the critical section ended"
    SWALLOWED_INTERRUPT = "interrupt delivered but silently discarded"
    UNGUARDED_WAKEUP = "spurious wake-up trusted without re-checking the guard"
    TIMEOUT_AS_SUCCESS = "wait timeout treated as successful completion"
    # First-class-primitive symptoms (codes lost-permit /
    # writer-starvation / barrier-starve).
    LOST_PERMIT = "semaphore acquirer stuck on a pool no release refills"
    WRITER_STARVATION = "writer permanently queued behind admitted readers"
    BARRIER_STARVE = "barrier party waits for arrivals that never come"

    @property
    def code(self) -> str:
        """Kebab-case symptom code, e.g. ``"lost-permit"``."""
        return self.name.lower().replace("_", "-")


#: Symptom -> candidate failure classes, most likely first.  Derived from
#: the Consequences column of Table 1 (see taxonomy module).
CANDIDATES: Dict[Symptom, Tuple[FailureClass, ...]] = {
    Symptom.DATA_RACE: (FailureClass.FF_T1,),
    Symptom.UNNECESSARY_SYNC: (FailureClass.EF_T1,),
    Symptom.PERMANENTLY_BLOCKED: (FailureClass.FF_T2, FailureClass.FF_T4),
    Symptom.DEADLOCK_CYCLE: (FailureClass.FF_T4, FailureClass.FF_T2),
    # FF-T2 "way 2": a waiter whose guard never clears because other
    # threads repeatedly (re)acquire the lock it needs — the paper's
    # starvation case also ends "permanently suspended" (§5.2.1)
    Symptom.PERMANENTLY_WAITING: (
        FailureClass.FF_T5,
        FailureClass.EF_T3,
        FailureClass.FF_T2,
    ),
    Symptom.NEVER_COMPLETES: (FailureClass.FF_T4,),
    Symptom.COMPLETED_EARLY: (
        FailureClass.FF_T3,
        FailureClass.EF_T5,
        FailureClass.EF_T4,
    ),
    Symptom.COMPLETED_LATE: (FailureClass.EF_T3, FailureClass.EF_T1),
    Symptom.LOST_NOTIFICATION: (FailureClass.FF_T5,),
    Symptom.PREMATURE_REENTRY: (FailureClass.EF_T5,),
    Symptom.PREMATURE_RELEASE: (FailureClass.EF_T4,),
    # Environment-deviation symptoms (the EV extension rows): a wake the
    # environment caused, mishandled by the component.
    Symptom.SWALLOWED_INTERRUPT: (FailureClass.EV_INT,),
    Symptom.UNGUARDED_WAKEUP: (FailureClass.EV_SPU, FailureClass.EF_T5),
    Symptom.TIMEOUT_AS_SUCCESS: (FailureClass.EV_TMO,),
    # First-class-primitive symptoms: a dropped release (FF-S3) is the
    # likeliest way a pool stays empty, an empty pool that was never
    # filled is FF-S2; starvation and barrier abandonment map onto the
    # grant/arrival transitions of their nets.
    Symptom.LOST_PERMIT: (FailureClass.FF_S3, FailureClass.FF_S2),
    Symptom.WRITER_STARVATION: (FailureClass.FF_R2,),
    Symptom.BARRIER_STARVE: (FailureClass.FF_B1, FailureClass.FF_B2),
}


@dataclass(frozen=True)
class ObservedFailure:
    """One diagnosed anomaly: a symptom plus its candidate classes."""

    symptom: Symptom
    thread: Optional[str] = None
    component: Optional[str] = None
    method: Optional[str] = None
    detail: str = ""
    candidates: Tuple[FailureClass, ...] = ()

    @property
    def primary(self) -> Optional[FailureClass]:
        """The most likely failure class."""
        return self.candidates[0] if self.candidates else None

    def __str__(self) -> str:
        where = self.thread or "?"
        codes = "/".join(c.code for c in self.candidates) or "?"
        extra = f" — {self.detail}" if self.detail else ""
        return f"[{codes}] {where}: {self.symptom.value}{extra}"


@dataclass
class ClassificationReport:
    """All anomalies diagnosed for one execution."""

    failures: List[ObservedFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def classes_seen(self) -> List[FailureClass]:
        """Primary failure classes, deduplicated, in diagnosis order."""
        seen: Dict[FailureClass, None] = {}
        for failure in self.failures:
            if failure.primary is not None:
                seen.setdefault(failure.primary)
        return list(seen)

    def by_class(self, failure_class: FailureClass) -> List[ObservedFailure]:
        return [f for f in self.failures if failure_class in f.candidates]

    def describe(self) -> str:
        if self.clean:
            return "no concurrency failures observed"
        return "\n".join(str(f) for f in self.failures)


def classify_symptoms(
    observations: Sequence[Tuple[Symptom, Dict[str, Any]]]
) -> ClassificationReport:
    """Turn raw (symptom, context) observations into a report.

    ``context`` may carry ``thread``, ``component``, ``method``, and
    ``detail`` keys; everything else is ignored.
    """
    report = ClassificationReport()
    for symptom, context in observations:
        report.failures.append(
            ObservedFailure(
                symptom=symptom,
                thread=context.get("thread"),
                component=context.get("component"),
                method=context.get("method"),
                detail=str(context.get("detail", "")),
                candidates=CANDIDATES.get(symptom, ()),
            )
        )
    return report


class SymptomTracker:
    """Streaming VM-level symptom extraction.

    Consumes the event stream as it is emitted and keeps only O(threads +
    monitors) state — the open-call stack per thread, which threads ever
    waited on which monitor, and the notifies that woke nobody.  Combined
    with the :class:`~repro.vm.kernel.RunResult` (which carries final
    thread states but, under ``trace_mode="none"``, no trace), the tracker
    reproduces exactly what :func:`symptoms_from_run` reads off a full
    trace; that function is now a replay wrapper around this class.
    """

    #: the event kinds :meth:`on_event` acts on; a pipeline delivers only
    #: these (see :attr:`repro.detect.online.OnlineDetector.kinds`)
    kinds = frozenset(
        {
            EventKind.CALL_BEGIN,
            EventKind.CALL_END,
            EventKind.MONITOR_WAIT,
            EventKind.MONITOR_NOTIFIED,
            EventKind.INTERRUPT,
            EventKind.MONITOR_RELEASE,
            EventKind.MONITOR_ACQUIRE,
            EventKind.READ,
            EventKind.WRITE,
            EventKind.NOTIFY,
            EventKind.NOTIFY_ALL,
            EventKind.SEM_REQUEST,
            EventKind.RW_REQUEST,
            EventKind.SEM_ACQUIRE,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
            EventKind.WAIT_TIMEOUT,
            EventKind.BARRIER_AWAIT,
            EventKind.BARRIER_RESUME,
            EventKind.BARRIER_BROKEN,
        }
    )

    def __init__(self) -> None:
        # thread -> stack of open (component, method) calls; top = innermost
        self._open_calls: Dict[str, List[Tuple[str, str]]] = {}
        # monitor -> threads that ever entered its wait set
        self._waits: Dict[Optional[str], Set[str]] = {}
        # notifies with an empty "woken" list, in emission order
        self._lost: List[Tuple[str, str, Optional[str], Optional[str], Optional[str]]] = []
        # thread -> component monitors released while a call on that
        # component is still open (cleared on reacquire / call end)
        self._released: Dict[str, Set[str]] = {}
        # (thread, component, method) triples that accessed component
        # state after such a release — the EF-T4 premature-release signal
        self._premature: Dict[Tuple[str, str, str], None] = {}
        # -- environment-deviation state (EV rows) --
        # monitor -> notifies emitted on it so far (running count)
        self._notify_counts: Dict[Optional[str], int] = {}
        # (monitor, thread) -> notifies *that thread* emitted on the monitor
        self._notifies_by: Dict[Tuple[Optional[str], str], int] = {}
        # thread -> (monitor, others' notify count at wait entry)
        self._wait_marks: Dict[str, Tuple[Optional[str], int]] = {}
        # thread -> an InterruptedError was (or will be, on reacquisition)
        # delivered during its current open call
        self._interrupt_pending: Dict[str, None] = {}
        # thread -> ("spurious" | "timeout", monitor, others' notify count
        # at wait entry): woke without a notify and has not re-waited since
        self._suspect_wakes: Dict[str, Tuple[str, Optional[str], int]] = {}
        # recorded environment-deviation findings, in emission order
        self._env_findings: List[Tuple[Symptom, Dict[str, Any]]] = []
        # -- first-class-primitive state --
        # thread -> ("semaphore" | "read" | "write", primitive name): an
        # outstanding sem/rw acquire (cleared when granted or abandoned)
        self._prim_blocked: Dict[str, Tuple[str, str]] = {}
        # thread -> barrier it is parked at
        self._barrier_wait: Dict[str, str] = {}

    def reset(self) -> None:
        self.__init__()

    def _in_open_call(self, thread: str, component: Optional[str]) -> bool:
        return any(
            comp == component for comp, _ in self._open_calls.get(thread, ())
        )

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.CALL_BEGIN:
            self._open_calls.setdefault(event.thread, []).append(
                (event.component or "?", event.method or "?")
            )
        elif kind is EventKind.CALL_END:
            stack = self._open_calls.get(event.thread)
            if stack:
                component, _ = stack.pop()
                self._released.get(event.thread, set()).discard(component)
            self._close_env_markers(event)
        elif kind is EventKind.MONITOR_WAIT:
            self._waits.setdefault(event.monitor, set()).add(event.thread)
            # Entering a wait means the guard was (re-)checked and found
            # false — a prior suspect wake was handled correctly.
            self._suspect_wakes.pop(event.thread, None)
            self._wait_marks[event.thread] = (
                event.monitor,
                self._others_notifies(event.monitor, event.thread),
            )
        elif kind is EventKind.MONITOR_NOTIFIED:
            self._on_wake(event)
        elif kind is EventKind.INTERRUPT:
            # Delivery is certain only for a waiting/blocked target (the
            # kernel injects InterruptedError at the resumption point); a
            # runnable target merely gets its flag set, which a component
            # that never waits again is allowed to ignore.
            if event.detail.get("thread_state") in ("waiting", "blocked"):
                self._interrupt_pending.setdefault(event.thread)
            # An interrupted primitive acquirer or barrier party resumes
            # immediately with InterruptedError — no longer stuck.
            self._prim_blocked.pop(event.thread, None)
            self._barrier_wait.pop(event.thread, None)
        elif kind is EventKind.MONITOR_RELEASE:
            # The full (non-reentrant) release of a monitor whose component
            # still has an open call on this thread: the critical section
            # is no longer protected.  Normal method exits look the same
            # (the wrapper releases just before CALL_END) but perform no
            # further component access, so they never flag.
            if not event.detail.get("reentrant") and not event.detail.get(
                "abandoned"
            ):
                if event.monitor and self._in_open_call(
                    event.thread, event.monitor
                ):
                    self._released.setdefault(event.thread, set()).add(
                        event.monitor
                    )
        elif kind is EventKind.MONITOR_ACQUIRE:
            if event.monitor:
                self._released.get(event.thread, set()).discard(event.monitor)
        elif kind in (EventKind.READ, EventKind.WRITE):
            if event.component and event.component in self._released.get(
                event.thread, ()
            ):
                self._premature.setdefault(
                    (
                        event.thread,
                        event.component,
                        event.method or "?",
                    )
                )
        elif kind in (EventKind.NOTIFY, EventKind.NOTIFY_ALL):
            self._notify_counts[event.monitor] = (
                self._notify_counts.get(event.monitor, 0) + 1
            )
            by_key = (event.monitor, event.thread)
            self._notifies_by[by_key] = self._notifies_by.get(by_key, 0) + 1
            if not event.detail.get("woken"):
                self._lost.append(
                    (
                        event.thread,
                        kind.value,
                        event.monitor,
                        event.component,
                        event.method,
                    )
                )
        elif kind is EventKind.SEM_REQUEST:
            self._prim_blocked[event.thread] = ("semaphore", event.monitor or "?")
        elif kind is EventKind.RW_REQUEST:
            self._prim_blocked[event.thread] = (
                event.detail.get("mode", "read"),
                event.monitor or "?",
            )
        elif kind in (
            EventKind.SEM_ACQUIRE,
            EventKind.RW_ACQUIRE,
            EventKind.RW_DOWNGRADE,
        ):
            self._prim_blocked.pop(event.thread, None)
        elif kind is EventKind.WAIT_TIMEOUT:
            if event.detail.get("primitive") == "semaphore":
                # A failed timed tryAcquire resumed with False.
                self._prim_blocked.pop(event.thread, None)
        elif kind is EventKind.BARRIER_AWAIT:
            if not event.detail.get("broken"):
                self._barrier_wait[event.thread] = event.monitor or "?"
        elif kind is EventKind.BARRIER_RESUME:
            self._barrier_wait.pop(event.thread, None)
        elif kind is EventKind.BARRIER_BROKEN:
            for waiter in event.detail.get("waiters", ()):
                self._barrier_wait.pop(waiter, None)

    def _others_notifies(self, monitor: Optional[str], thread: str) -> int:
        """Notifies emitted on ``monitor`` by threads other than ``thread``."""
        return self._notify_counts.get(monitor, 0) - self._notifies_by.get(
            (monitor, thread), 0
        )

    def _on_wake(self, event: Event) -> None:
        """MONITOR_NOTIFIED: arm environment-deviation markers by reason."""
        reason = event.detail.get("reason")
        if reason == "interrupt":
            self._interrupt_pending.setdefault(event.thread)
            self._wait_marks.pop(event.thread, None)
            return
        if reason in ("spurious", "timeout"):
            mark = self._wait_marks.pop(event.thread, None)
            if mark is not None:
                monitor, others_then = mark
                self._suspect_wakes[event.thread] = (reason, monitor, others_then)
            return
        self._wait_marks.pop(event.thread, None)

    def _close_env_markers(self, event: Event) -> None:
        """CALL_END: judge any armed environment markers for this thread.

        A call end carrying ``interrupted=True`` is the *correct* response
        to interruption (the error propagated), so it discharges both
        markers without a finding.
        """
        thread = event.thread
        interrupted_exit = bool(event.detail.get("interrupted"))
        if self._interrupt_pending.pop(thread, -1) != -1 and not interrupted_exit:
            self._env_findings.append(
                (
                    Symptom.SWALLOWED_INTERRUPT,
                    {
                        "thread": thread,
                        "component": event.component,
                        "method": event.method,
                        "detail": f"{event.component}.{event.method} completed "
                        f"normally although an interrupt was delivered",
                    },
                )
            )
        suspect = self._suspect_wakes.pop(thread, None)
        if suspect is not None and not interrupted_exit:
            reason, monitor, others_then = suspect
            if self._others_notifies(monitor, thread) != others_then:
                # Some other thread notified this monitor between the wait
                # entry and the call end — the guard may legitimately have
                # become true, so the completion is not evidence of a bug.
                return
            symptom = (
                Symptom.TIMEOUT_AS_SUCCESS
                if reason == "timeout"
                else Symptom.UNGUARDED_WAKEUP
            )
            how = (
                "its timed wait expired"
                if reason == "timeout"
                else "it was woken spuriously"
            )
            self._env_findings.append(
                (
                    symptom,
                    {
                        "thread": thread,
                        "component": event.component,
                        "method": event.method,
                        "detail": f"{event.component}.{event.method} completed "
                        f"after {how} on {monitor} with no notify in between",
                    },
                )
            )

    def observations(self, result: RunResult) -> List[Tuple[Symptom, Dict[str, Any]]]:
        """The VM-level symptoms, given the run outcome for final states."""
        observations: List[Tuple[Symptom, Dict[str, Any]]] = list(
            self._env_findings
        )
        if result.status is RunStatus.STEP_LIMIT:
            observations.append(
                (
                    Symptom.NEVER_COMPLETES,
                    {"detail": f"step budget exhausted after {result.steps} steps"},
                )
            )
        if result.status is RunStatus.DEADLOCK:
            observations.append(
                (
                    Symptom.DEADLOCK_CYCLE,
                    {
                        "thread": ", ".join(result.deadlock_cycle),
                        "detail": f"cycle: {' -> '.join(result.deadlock_cycle)}",
                    },
                )
            )
        for thread, state in result.thread_states.items():
            stack = self._open_calls.get(thread)
            context: Dict[str, Any] = {"thread": thread}
            if stack:
                component, method = stack[-1]
                context["component"] = component
                context["method"] = method
                context["detail"] = f"inside {component}.{method}"
            if state == ThreadState.BLOCKED.value and thread not in result.deadlock_cycle:
                prim = self._prim_blocked.get(thread)
                if prim is not None and prim[0] == "semaphore":
                    context["detail"] = (
                        f"stuck acquiring semaphore {prim[1]}; no release "
                        f"ever refilled the pool"
                    )
                    observations.append((Symptom.LOST_PERMIT, context))
                elif prim is not None and prim[0] == "write":
                    context["detail"] = (
                        f"write acquire on {prim[1]} never granted"
                    )
                    observations.append((Symptom.WRITER_STARVATION, context))
                else:
                    if prim is not None:  # read-mode rw acquire
                        context["detail"] = (
                            f"read acquire on {prim[1]} never granted"
                        )
                    observations.append((Symptom.PERMANENTLY_BLOCKED, context))
            elif state == ThreadState.WAITING.value:
                barrier = self._barrier_wait.get(thread)
                if barrier is not None:
                    context["detail"] = (
                        f"parked at barrier {barrier}; the remaining "
                        f"parties never arrived"
                    )
                    observations.append((Symptom.BARRIER_STARVE, context))
                else:
                    observations.append((Symptom.PERMANENTLY_WAITING, context))
        # A notify that woke nobody is only evidence of failure when some
        # thread on the same monitor ended up waiting forever — otherwise it
        # is the normal "notify with nobody waiting" of a correct monitor.
        waiting_monitors = {
            monitor
            for monitor, threads in self._waits.items()
            if any(
                result.thread_states.get(t) == ThreadState.WAITING.value
                for t in threads
            )
        }
        for thread, component, method in self._premature:
            observations.append(
                (
                    Symptom.PREMATURE_RELEASE,
                    {
                        "thread": thread,
                        "component": component,
                        "method": method,
                        "detail": f"{component}.{method} accessed shared state "
                        f"after releasing the monitor mid-call",
                    },
                )
            )
        for thread, kind_value, monitor, component, method in self._lost:
            if monitor in waiting_monitors:
                observations.append(
                    (
                        Symptom.LOST_NOTIFICATION,
                        {
                            "thread": thread,
                            "component": component,
                            "method": method,
                            "detail": f"{kind_value} on {monitor} woke nobody",
                        },
                    )
                )
        return observations


def symptoms_from_run(result: RunResult) -> List[Tuple[Symptom, Dict[str, Any]]]:
    """Extract the VM-level symptoms visible in a run outcome alone
    (no oracle or detector input): permanently blocked/waiting threads,
    deadlock cycles, step-budget exhaustion, and lost notifications.

    Batch form of :class:`SymptomTracker`: replays the stored trace
    through a tracker and reads its observations.
    """
    tracker = SymptomTracker()
    for event in result.trace:
        tracker.on_event(event)
    return tracker.observations(result)

"""Completion-time checking — the paper's central dynamic oracle.

Six of the ten Table-1 rows say, in the Testing Notes column, *"Check
completion time of call"*: under deterministic execution the tester knows
at which abstract-clock time each component call must complete, so a call
that completes early (FF-T3, EF-T5, EF-T4), late (EF-T3), or never
(FF-T4, FF-T5, FF-T2) pins down the failure class.

An expectation targets one call occurrence — ``(thread, component,
method, occurrence)`` — and states either an exact clock time, an
inclusive window, or that the call must never complete.  Return-value
expectations ride along, since the same test drivers check outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.vm.events import Event, EventKind
from repro.vm.trace import CallRecord, Trace

from repro.classify.symptoms import Symptom

from repro.run.registry import register_detector

from .online import OnlineDetector, replay

__all__ = [
    "UNSET",
    "Expectation",
    "Violation",
    "CompletionChecker",
    "OnlineCompletionChecker",
    "check_completion_times",
]

_UNSET = object()

#: Public sentinel for "no return-value expectation".
UNSET = _UNSET


@dataclass(frozen=True)
class Expectation:
    """Expected completion behaviour of one call occurrence.

    Attributes:
        thread: name of the calling thread (``None`` matches any).
        component / method: the call to match.
        occurrence: 0-based index among the thread's matching calls.
        at: exact abstract-clock completion time.
        between: inclusive (lo, hi) clock window; overrides ``at``.
        never: the call must NOT complete (e.g. the single-consumer
            receive on an empty buffer must wait forever).
        returns: expected return value (checked only if set).
    """

    component: str
    method: str
    thread: Optional[str] = None
    occurrence: int = 0
    at: Optional[int] = None
    between: Optional[Tuple[int, int]] = None
    never: bool = False
    returns: Any = _UNSET

    def window(self) -> Optional[Tuple[int, int]]:
        if self.between is not None:
            return self.between
        if self.at is not None:
            return (self.at, self.at)
        return None

    def describe(self) -> str:
        who = self.thread or "<any>"
        target = f"{who}:{self.component}.{self.method}[{self.occurrence}]"
        if self.never:
            return f"{target} must never complete"
        window = self.window()
        if window is None:
            return f"{target} must complete (any time)"
        lo, hi = window
        when = f"at clock {lo}" if lo == hi else f"within clock [{lo}, {hi}]"
        return f"{target} must complete {when}"


@dataclass(frozen=True)
class Violation:
    """One completion-time (or return-value) violation."""

    expectation: Expectation
    symptom: Symptom
    actual_clock: Optional[int]
    call: Optional[CallRecord]
    detail: str

    def __str__(self) -> str:
        return f"{self.symptom.value}: {self.expectation.describe()} — {self.detail}"


@register_detector("completion")
class OnlineCompletionChecker(OnlineDetector):
    """Streaming completion-time checking.

    Maintains the call records incrementally — a per-thread stack of open
    calls paired innermost-first, exactly like
    :meth:`repro.vm.trace.Trace.call_records` — plus the clock-tick
    history ``(kernel time, clock value)``, which is all
    :meth:`_clock_at` needs.  Expectations are evaluated in
    :meth:`finish`, since "never completed" is a whole-run property.
    """

    name = "completion"
    kinds = frozenset(
        {
            EventKind.CALL_BEGIN,
            EventKind.CALL_END,
            EventKind.CLOCK_TICK,
        }
    )

    def __init__(self, expectations: Sequence[Expectation] = ()) -> None:
        self.expectations = list(expectations)
        self._order: List[CallRecord] = []
        self._open_stacks: Dict[str, List[int]] = {}
        self._ticks: List[Tuple[int, Optional[int]]] = []

    def reset(self) -> None:
        self.__init__(self.expectations)

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.CALL_BEGIN:
            record = CallRecord(
                thread=event.thread,
                component=event.component or "?",
                method=event.method or "?",
                begin_seq=event.seq,
                begin_time=event.time,
            )
            self._open_stacks.setdefault(event.thread, []).append(len(self._order))
            self._order.append(record)
        elif kind is EventKind.CALL_END:
            stack = self._open_stacks.get(event.thread, [])
            if not stack:
                return  # unmatched end: tolerated, dropped
            index = stack.pop()
            begun = self._order[index]
            self._order[index] = CallRecord(
                thread=begun.thread,
                component=begun.component,
                method=begun.method,
                begin_seq=begun.begin_seq,
                begin_time=begun.begin_time,
                end_seq=event.seq,
                end_time=event.time,
                result=event.detail.get("result"),
            )
        elif kind is EventKind.CLOCK_TICK:
            self._ticks.append((event.time, event.detail.get("now")))

    def _clock_at(self, kernel_time: int) -> int:
        # Ticks *at* kernel_time count (ties included), matching the batch
        # scan that breaks only on event.time > kernel_time.
        clock = 0
        for tick_time, now in self._ticks:
            if tick_time > kernel_time:
                break
            clock = now if now is not None else clock + 1
        return clock

    def _match(self, exp: Expectation) -> Optional[CallRecord]:
        matching = [
            r
            for r in self._order
            if r.component == exp.component
            and r.method == exp.method
            and (exp.thread is None or r.thread == exp.thread)
        ]
        if exp.occurrence < len(matching):
            return matching[exp.occurrence]
        return None

    def finish(self) -> List[Violation]:
        violations: List[Violation] = []
        for exp in self.expectations:
            call = self._match(exp)
            if call is None or not call.completed:
                if not exp.never:
                    symptom = (
                        Symptom.PERMANENTLY_WAITING
                        if call is not None
                        else Symptom.NEVER_COMPLETES
                    )
                    detail = (
                        "call never completed"
                        if call is not None
                        else "call never began"
                    )
                    violations.append(Violation(exp, symptom, None, call, detail))
                continue
            # The call completed.
            if exp.never:
                clock = self._clock_at(call.end_time or 0)
                violations.append(
                    Violation(
                        exp,
                        Symptom.COMPLETED_EARLY,
                        clock,
                        call,
                        f"expected never to complete, completed at clock {clock}",
                    )
                )
                continue
            window = exp.window()
            clock = self._clock_at(call.end_time or 0)
            if window is not None:
                lo, hi = window
                if clock < lo:
                    violations.append(
                        Violation(
                            exp,
                            Symptom.COMPLETED_EARLY,
                            clock,
                            call,
                            f"completed at clock {clock}, expected >= {lo}",
                        )
                    )
                elif clock > hi:
                    violations.append(
                        Violation(
                            exp,
                            Symptom.COMPLETED_LATE,
                            clock,
                            call,
                            f"completed at clock {clock}, expected <= {hi}",
                        )
                    )
            if exp.returns is not _UNSET and call.result != exp.returns:
                violations.append(
                    Violation(
                        exp,
                        Symptom.DATA_RACE,
                        clock,
                        call,
                        f"returned {call.result!r}, expected {exp.returns!r}",
                    )
                )
        return violations


class CompletionChecker:
    """Check a set of expectations against a trace (batch form of
    :class:`OnlineCompletionChecker`)."""

    def __init__(self, expectations: Sequence[Expectation]) -> None:
        self.expectations = list(expectations)

    def _clock_at(self, trace: Trace, kernel_time: int) -> int:
        clock = 0
        for event in trace:
            if event.time > kernel_time:
                break
            if event.kind is EventKind.CLOCK_TICK:
                clock = event.detail.get("now", clock + 1)
        return clock

    def _match(self, trace: Trace, exp: Expectation) -> Optional[CallRecord]:
        matching = [
            r
            for r in trace.call_records()
            if r.component == exp.component
            and r.method == exp.method
            and (exp.thread is None or r.thread == exp.thread)
        ]
        if exp.occurrence < len(matching):
            return matching[exp.occurrence]
        return None

    def check(self, trace: Trace) -> List[Violation]:
        online = OnlineCompletionChecker(self.expectations)
        replay(trace, online)
        return online.finish()

    def _check_batch(self, trace: Trace) -> List[Violation]:
        """The original trace-scanning implementation, kept as the
        reference the equivalence tests compare :meth:`check` against."""
        violations: List[Violation] = []
        for exp in self.expectations:
            call = self._match(trace, exp)
            if call is None or not call.completed:
                if not exp.never:
                    symptom = (
                        Symptom.PERMANENTLY_WAITING
                        if call is not None
                        else Symptom.NEVER_COMPLETES
                    )
                    detail = (
                        "call never completed"
                        if call is not None
                        else "call never began"
                    )
                    violations.append(Violation(exp, symptom, None, call, detail))
                continue
            # The call completed.
            if exp.never:
                clock = self._clock_at(trace, call.end_time or 0)
                violations.append(
                    Violation(
                        exp,
                        Symptom.COMPLETED_EARLY,
                        clock,
                        call,
                        f"expected never to complete, completed at clock {clock}",
                    )
                )
                continue
            window = exp.window()
            clock = self._clock_at(trace, call.end_time or 0)
            if window is not None:
                lo, hi = window
                if clock < lo:
                    violations.append(
                        Violation(
                            exp,
                            Symptom.COMPLETED_EARLY,
                            clock,
                            call,
                            f"completed at clock {clock}, expected >= {lo}",
                        )
                    )
                elif clock > hi:
                    violations.append(
                        Violation(
                            exp,
                            Symptom.COMPLETED_LATE,
                            clock,
                            call,
                            f"completed at clock {clock}, expected <= {hi}",
                        )
                    )
            if exp.returns is not _UNSET and call.result != exp.returns:
                violations.append(
                    Violation(
                        exp,
                        Symptom.DATA_RACE,
                        clock,
                        call,
                        f"returned {call.result!r}, expected {exp.returns!r}",
                    )
                )
        return violations


def check_completion_times(
    trace: Trace, expectations: Sequence[Expectation]
) -> List[Violation]:
    """Convenience wrapper around :class:`CompletionChecker`."""
    return CompletionChecker(expectations).check(trace)

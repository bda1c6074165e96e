"""The online-detector protocol and streaming pipeline.

Every batch detector in :mod:`repro.detect` is a fold over the event
stream; this module makes the fold explicit.  An :class:`OnlineDetector`
consumes events one at a time (``on_event``) and produces its findings on
demand (``finish``); the batch entry points (``detect_races``,
``detect_lock_cycles``, ...) are now thin wrappers that :func:`replay` a
stored trace through the online form, so there is exactly one
implementation of each analysis.

:class:`DetectorPipeline` plugs the seven detectors plus the VM-level
:class:`~repro.classify.symptoms.SymptomTracker` into
:meth:`repro.vm.kernel.Kernel.subscribe`.  Each consumer declares the
event kinds it acts on (:attr:`OnlineDetector.kinds`) and is subscribed
kind-filtered, so an event reaches only the consumers that use it — a
READ reaches the lockset and HB detectors and the symptom tracker, not
all eight.  With the kernel's ``trace_mode="none"``, a run's memory
footprint drops from O(events) to O(detector state) while every consumer
still sees every event of its kinds — this is what lets
:mod:`repro.engine` campaigns afford full detection on every run.  A
finding that is already *permanent* (a wait-for cycle among blocked
threads) may abort the run early via
:meth:`~repro.vm.kernel.Kernel.request_abort` instead of burning steps;
only detectors that declare :attr:`OnlineDetector.can_abort` are polled,
and only after events routed to them.

Import discipline: the concrete detector modules import this one (for
:class:`OnlineDetector` / :func:`replay`), so this module must only
import them lazily (inside :func:`default_detectors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.classify.symptoms import SymptomTracker
from repro.vm.events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.kernel import Kernel, RunResult
    from repro.vm.scheduler import Scheduler

    from .completion import Expectation
    from .report import DetectionReport

__all__ = [
    "OnlineDetector",
    "replay",
    "default_detectors",
    "DetectorPipeline",
    "DetectionSummary",
    "PipelineFactory",
]


class OnlineDetector:
    """Protocol for a streaming detector.

    Subclasses set :attr:`name` (the key their findings appear under in a
    pipeline), consume events via :meth:`on_event`, and return their
    findings from :meth:`finish`.  ``finish`` must be a pure read of the
    accumulated state (idempotent): pipelines may call it more than once.
    :meth:`abort_reason` lets a detector ask for an early end of the run;
    it must only return a reason for findings that are already permanent
    — aborting cannot un-happen an event, but a transient condition would
    make the early-stopped run diverge from the natural one.

    :attr:`kinds` and :attr:`can_abort` let a pipeline skip calls that
    cannot matter: events of other kinds are never delivered, and
    :meth:`abort_reason` is polled only when ``can_abort`` is set.  A
    detector that declares ``kinds`` must give the same :meth:`finish`
    whether it is fed only those kinds or every event — side effects
    count, so a kind whose only effect is creating per-monitor state
    belongs in the set.
    """

    #: Stable key identifying the detector's findings in pipeline output.
    name: str = "detector"
    #: Event kinds :meth:`on_event` acts on; None means every kind.
    kinds: Optional[FrozenSet[EventKind]] = None
    #: Whether :meth:`abort_reason` can ever return a reason.
    can_abort: bool = False

    def on_event(self, event: Event) -> None:
        raise NotImplementedError

    def finish(self) -> Any:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the just-constructed state so the instance can be
        reused for another run (the executor resets instead of
        reallocating)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support reset()"
        )

    def abort_reason(self) -> Optional[str]:
        """A reason to end the run early, or None to keep going."""
        return None


def replay(events: Iterable[Event], detector: OnlineDetector) -> OnlineDetector:
    """Feed every event to the detector; returns the detector for
    chaining (``replay(trace, D()).finish()`` is the batch idiom)."""
    for event in events:
        detector.on_event(event)
    return detector


def default_detectors(
    expectations: Sequence["Expectation"] = (),
    bypass_threshold: int = 3,
) -> List[OnlineDetector]:
    """One instance of each of the seven detectors, in report order."""
    from .completion import OnlineCompletionChecker
    from .contention import OnlineContentionProfiler
    from .eraser import OnlineLocksetDetector
    from .lockgraph import OnlineLockGraphDetector
    from .starvation import OnlineStarvationDetector
    from .vectorclock import OnlineHbDetector
    from .waitgraph import OnlineWaitGraphDetector

    return [
        OnlineLocksetDetector(),
        OnlineHbDetector(),
        OnlineLockGraphDetector(),
        OnlineWaitGraphDetector(),
        OnlineStarvationDetector(bypass_threshold=bypass_threshold),
        OnlineContentionProfiler(),
        OnlineCompletionChecker(expectations),
    ]


@dataclass(frozen=True)
class DetectionSummary:
    """Compact, picklable projection of a :class:`DetectionReport`.

    This is what engine workers stream back to the campaign aggregator:
    finding *counts* per detector plus the implicated Table-1 failure
    class codes, not the full report objects (which hold event records
    that do not exist under ``trace_mode="none"`` anyway).
    """

    races: int = 0
    hb_races: int = 0
    potential_deadlocks: int = 0
    deadlock_cycle: Tuple[str, ...] = ()
    starvation: int = 0
    completion_violations: int = 0
    reentry: int = 0
    #: primary failure-class codes (e.g. ``"FF-T4"``), diagnosis order
    classes: Tuple[str, ...] = ()
    #: the early-abort reason when the pipeline stopped the run
    aborted: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not (
            self.races
            or self.hb_races
            or self.potential_deadlocks
            or self.deadlock_cycle
            or self.starvation
            or self.completion_violations
            or self.reentry
            or self.classes
        )

    @classmethod
    def from_report(
        cls, report: "DetectionReport", aborted: Optional[str] = None
    ) -> "DetectionSummary":
        return cls(
            races=len(report.races),
            hb_races=len(report.hb_races),
            potential_deadlocks=len(report.potential_deadlocks),
            deadlock_cycle=tuple(report.deadlock_cycle),
            starvation=len(report.starvation),
            completion_violations=len(report.completion_violations),
            reentry=len(report.reentry),
            classes=tuple(c.code for c in report.classes_detected()),
            aborted=aborted,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "races": self.races,
            "hb_races": self.hb_races,
            "potential_deadlocks": self.potential_deadlocks,
            "deadlock_cycle": list(self.deadlock_cycle),
            "starvation": self.starvation,
            "completion_violations": self.completion_violations,
            "reentry": self.reentry,
            "classes": list(self.classes),
            "aborted": self.aborted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DetectionSummary":
        return cls(
            races=int(data.get("races", 0)),
            hb_races=int(data.get("hb_races", 0)),
            potential_deadlocks=int(data.get("potential_deadlocks", 0)),
            deadlock_cycle=tuple(data.get("deadlock_cycle", ())),
            starvation=int(data.get("starvation", 0)),
            completion_violations=int(data.get("completion_violations", 0)),
            reentry=int(data.get("reentry", 0)),
            classes=tuple(data.get("classes", ())),
            aborted=data.get("aborted"),
        )


class DetectorPipeline:
    """A set of online detectors plus the symptom tracker, each
    subscribed to a kernel for the event kinds it declares.

    Args:
        detectors: the detectors to run; defaults to
            :func:`default_detectors` (all seven).
        expectations: completion-time expectations for the default set.
        bypass_threshold: starvation threshold for the default set.
        early_stop: honour detector :meth:`~OnlineDetector.abort_reason`
            by asking the attached kernel to end the run early.
    """

    def __init__(
        self,
        detectors: Optional[Sequence[OnlineDetector]] = None,
        *,
        expectations: Sequence["Expectation"] = (),
        bypass_threshold: int = 3,
        early_stop: bool = True,
    ) -> None:
        self.detectors: List[OnlineDetector] = (
            list(detectors)
            if detectors is not None
            else default_detectors(expectations, bypass_threshold)
        )
        self.symptoms = SymptomTracker()
        self.early_stop = early_stop
        #: the abort reason this pipeline raised, if any
        self.aborted: Optional[str] = None
        self._kernel: Optional["Kernel"] = None
        self._seq_start = 0

    @property
    def events_seen(self) -> int:
        """Events the attached kernel has emitted since :meth:`attach`."""
        if self._kernel is None:
            return 0
        return self._kernel.events_emitted - self._seq_start

    def attach(self, kernel: "Kernel") -> "DetectorPipeline":
        """Subscribe each consumer to the kinds it declares; returns self
        for chaining.

        Routes are built from :attr:`detectors` here, not at
        construction, so a caller may swap detectors (e.g. for timing
        wrappers) in between.
        """
        self._kernel = kernel
        self._seq_start = kernel.events_emitted
        kernel.subscribe(self.symptoms.on_event, self.symptoms.kinds)
        for detector in self.detectors:
            sink = detector.on_event
            if self.early_stop and detector.can_abort:
                sink = self._polling(detector, kernel)
            kernel.subscribe(sink, detector.kinds)
        return self

    def _polling(
        self, detector: OnlineDetector, kernel: "Kernel"
    ) -> Callable[[Event], None]:
        """``detector.on_event`` followed by an :meth:`abort_reason` poll,
        until some detector has aborted the run."""
        on_event = detector.on_event

        def sink(event: Event) -> None:
            on_event(event)
            if self.aborted is None:
                reason = detector.abort_reason()
                if reason is not None:
                    self.aborted = reason
                    kernel.request_abort(reason)

        return sink

    def reset(self) -> "DetectorPipeline":
        """Reset every detector and the symptom tracker for the next run
        (same observable behaviour as constructing a fresh pipeline, minus
        the per-run allocation); returns self for chaining."""
        for detector in self.detectors:
            detector.reset()
        self.symptoms.reset()
        self.aborted = None
        self._kernel = None
        self._seq_start = 0
        return self

    def findings(self) -> Dict[str, Any]:
        """Raw findings keyed by detector name."""
        return {detector.name: detector.finish() for detector in self.detectors}

    def report(self, result: "RunResult") -> "DetectionReport":
        """Assemble the full :class:`DetectionReport` for a finished run.

        Works under ``trace_mode="none"``: everything the report needs
        was accumulated online; ``result`` only contributes final thread
        states and the run status.
        """
        from .report import assemble_report

        found = self.findings()
        return assemble_report(
            result,
            races=found.get("lockset", []),
            hb_races=found.get("hb", []),
            potential_deadlocks=found.get("lockgraph", []),
            deadlock_cycle=found.get("waitgraph", []),
            starvation=found.get("starvation", []),
            completion_violations=found.get("completion", []),
            observations=self.symptoms.observations(result),
            contention=found.get("contention"),
            reentry=found.get("reentry", []),
        )

    def summary(self, result: "RunResult") -> DetectionSummary:
        """The compact summary engine workers ship across processes."""
        return DetectionSummary.from_report(self.report(result), aborted=self.aborted)


class PipelineFactory:
    """Wrap a program factory so every kernel it builds streams into a
    fresh :class:`DetectorPipeline`.

    The engine's ``ProgramFactory`` contract is ``factory(scheduler) ->
    Kernel``; this class satisfies it while setting the kernel's
    ``trace_mode`` and attaching the pipeline, so exploration and
    campaign code can detect on every run without touching traces.  The
    pipeline of the most recently built kernel is at :attr:`pipeline`
    (runs are sequential within a worker, so one slot suffices).
    """

    def __init__(
        self,
        factory: Callable[["Scheduler"], "Kernel"],
        *,
        trace_mode: str = "full",
        early_stop: bool = True,
        expectations: Sequence["Expectation"] = (),
        bypass_threshold: int = 3,
        detectors: Optional[Callable[[], Sequence[OnlineDetector]]] = None,
    ) -> None:
        self.factory = factory
        self.trace_mode = trace_mode
        self.early_stop = early_stop
        self.expectations = tuple(expectations)
        self.bypass_threshold = bypass_threshold
        self._detectors_factory = detectors
        self.pipeline: Optional[DetectorPipeline] = None

    def __call__(self, scheduler: "Scheduler") -> "Kernel":
        kernel = self.factory(scheduler)
        if kernel.trace_mode != self.trace_mode:
            if self.trace_mode not in kernel.TRACE_MODES:
                raise ValueError(
                    f"trace_mode must be one of {kernel.TRACE_MODES}, "
                    f"got {self.trace_mode!r}"
                )
            kernel.trace_mode = self.trace_mode
        fresh = (
            list(self._detectors_factory())
            if self._detectors_factory is not None
            else None
        )
        self.pipeline = DetectorPipeline(
            fresh,
            expectations=self.expectations,
            bypass_threshold=self.bypass_threshold,
            early_stop=self.early_stop,
        )
        self.pipeline.attach(kernel)
        return kernel

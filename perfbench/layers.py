"""Per-layer tracing: spans around each layer's entry points, from outside.

Nothing under ``src/`` changes.  A traced pass replaces a handful of
methods on the program's classes with wrappers that open and close a
span of a :class:`~harness.SpanRecorder` around the original call, runs
the workload's campaign, and turns the per-name span totals into the
per-layer metrics.  The wrapped entry points:

====================  =================================================
span                  wrapped call
====================  =================================================
``vm.run``            ``Kernel.run`` (self time = kernel alone)
``detect.pipeline``   ``DetectorPipeline.on_event`` (kernel subscriber)
``obs.sink``          ``InstrumentationSink`` handlers (kernel subscribers)
``faults.on_step``    ``FaultInjector.on_step``
``classify.symptoms`` ``SymptomTracker.on_event``
``classify.observe``  ``SymptomTracker.observations``
``detect.summary``    ``DetectorPipeline.summary``
``obs.snapshot``      ``InstrumentationSink.snapshot``
``run.assemble``      ``RunExecutor.__call__``
``run.summarize``     ``RunExecutor.summarize``
``engine.encode``     ``TelemetryFrame.for_run(...).to_dict()`` per run
``engine.decode``     ``TelemetryFrame.from_dict``
``engine.merge``      the orchestrator's per-run merge (``_Aggregator.merge``)
``engine.journal``    ``CampaignJournal.append_shard``
``obs.live``          ``LiveAggregator.note_run``
====================  =================================================

Each of the seven detectors is wrapped in ``obs.profile.TimedDetector``,
which meters its ``on_event``.  Worker-side layers are traced inline
(the same shards through ``execute_shard``, with the frame a worker
would encode for each run); the ``traced-pool`` pass wraps only the
orchestrator's layers, so its workers run untraced.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional

from harness import SpanRecorder, count_calls

REC = SpanRecorder()

#: exact counts gathered by the wrappers
COUNTS: Dict[str, int] = {
    "runs": 0,
    "steps": 0,
    "events": 0,
    "abort_polls": 0,
    "faults_fired": 0,
    "frame_bytes": 0,
    "frames": 0,
}


def _spanned(span: str, func: Callable) -> Callable:
    """``func`` with a span of its own around every call."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        REC.start(span)
        try:
            return func(*args, **kwargs)
        finally:
            REC.end()

    return wrapper


def wrap(owner: type, attr: str, span: str) -> None:
    """Replace the method ``owner.attr`` with a spanned wrapper."""
    setattr(owner, attr, _spanned(span, getattr(owner, attr)))


#: TimedDetector wrappers created in this process
DETECTORS: List[Any] = []


def instrument_worker_side(encode_frames: bool) -> None:
    """Wrap every layer a run goes through (the inline traced pass)."""
    from repro.classify.symptoms import SymptomTracker
    from repro.detect.online import DetectorPipeline
    from repro.engine import campaign
    from repro.faults.injector import FaultInjector
    from repro.obs.live.frames import TelemetryFrame
    from repro.obs.profile import TimedDetector
    from repro.obs.sink import InstrumentationSink
    from repro.run.executor import RunExecutor
    from repro.vm.kernel import Kernel

    class BenchDetector(TimedDetector):
        """TimedDetector that also resets and counts abort polls."""

        def reset(self) -> None:
            self.inner.reset()

        def abort_reason(self) -> Optional[str]:
            COUNTS["abort_polls"] += 1
            return self.inner.abort_reason()

    kernel_run = Kernel.run

    def run(self, *args, **kwargs):
        REC.start("vm.run")
        try:
            return kernel_run(self, *args, **kwargs)
        finally:
            REC.end()
            COUNTS["runs"] += 1
            COUNTS["steps"] += self.steps
            COUNTS["events"] += self.events_emitted
            if self.fault_injector is not None:
                COUNTS["faults_fired"] += sum(self.fault_injector.fired)

    Kernel.run = run

    subscribe = Kernel.subscribe

    def spanned_subscribe(self, sink, kinds=None):
        owner = getattr(sink, "__self__", None)
        if isinstance(owner, DetectorPipeline):
            name = "detect.pipeline"
        elif "InstrumentationSink" in getattr(sink, "__qualname__", ""):
            name = "obs.sink"
        else:
            name = "vm.other_subscriber"
        return subscribe(self, _spanned(name, sink), kinds)

    Kernel.subscribe = spanned_subscribe

    pipeline_init = DetectorPipeline.__init__

    def init(self, *args, **kwargs):
        pipeline_init(self, *args, **kwargs)
        self.detectors = [BenchDetector(d) for d in self.detectors]
        DETECTORS.extend(self.detectors)

    DetectorPipeline.__init__ = init

    wrap(FaultInjector, "on_step", "faults.on_step")
    wrap(SymptomTracker, "on_event", "classify.symptoms")
    wrap(SymptomTracker, "observations", "classify.observe")
    wrap(DetectorPipeline, "summary", "detect.summary")
    wrap(InstrumentationSink, "snapshot", "obs.snapshot")
    wrap(RunExecutor, "__call__", "run.assemble")
    wrap(RunExecutor, "summarize", "run.summarize")
    wrap(campaign._Aggregator, "merge", "engine.merge")
    wrap(campaign.CampaignJournal, "append_shard", "engine.journal")

    if encode_frames:
        # What worker_main does with each run before the queue hop.
        execute_shard = campaign.execute_shard

        def encoding_execute_shard(task, emit=None):
            runs = 0

            def encode_then_emit(summary):
                nonlocal runs
                runs += 1
                REC.start("engine.encode")
                TelemetryFrame.for_run(task.shard.shard_id, summary, runs=runs).to_dict()
                REC.end()
                if emit is not None:
                    emit(summary)

            return execute_shard(task, emit=encode_then_emit)

        campaign.execute_shard = encoding_execute_shard


def instrument_orchestrator() -> None:
    """Wrap the orchestrator's layers only (the pooled traced pass)."""
    from repro.engine import campaign
    from repro.obs.live.aggregate import LiveAggregator
    from repro.obs.live.frames import TelemetryFrame

    from_dict = TelemetryFrame.__dict__["from_dict"].__func__

    def decode(cls, payload):
        COUNTS["frames"] += 1
        COUNTS["frame_bytes"] += len(pickle.dumps(("frame", payload.get("shard"), dict(payload))))
        REC.start("engine.decode")
        try:
            return from_dict(cls, payload)
        finally:
            REC.end()

    TelemetryFrame.from_dict = classmethod(decode)
    wrap(campaign._Aggregator, "merge", "engine.merge")
    wrap(campaign.CampaignJournal, "append_shard", "engine.journal")
    wrap(LiveAggregator, "note_run", "obs.live")


def rss_kb() -> int:
    """Current resident set size of this process (Linux ``statm``)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def traced_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    kind = request["kind"]
    if kind == "profile":
        return profile_pass(request)
    if kind == "alloc":
        return alloc_pass(request)
    from passes import MergeClock, accounting, findings, journal_path
    from repro.engine.campaign import run_campaign
    from repro.obs.live.aggregate import LiveAggregator
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    seed_start = int(request["seed_start"])
    pooled = kind == "traced-pool"
    if pooled:
        instrument_orchestrator()
    else:
        instrument_worker_side(encode_frames=bool(workload.workers))
    journal = journal_path(request) if workload.serve else None
    spec = workload.spec(
        seed_start,
        budget=request["budget"],
        workers=None if pooled else 0,
        journal_path=journal,
    )

    class RssClock(MergeClock):
        """Also samples the orchestrator's RSS at the first merge."""

        first_rss = 0

        def note_run(self, summary, duplicate: bool = False) -> None:
            super().note_run(summary, duplicate)
            if not self.first_rss:
                self.first_rss = rss_kb()

    clock = RssClock(seed_start, spec.shard_size)
    live = LiveAggregator() if workload.serve else None
    started = time.monotonic()
    try:
        result = run_campaign(spec, progress=clock, telemetry=live)
    finally:
        if journal is not None and os.path.exists(journal):
            os.remove(journal)
    wall = time.monotonic() - started
    out = {
        "spans": REC.to_dict(),
        "counts": dict(COUNTS),
        "findings": findings(result),
        "runs_per_s": (result.n_executed - 1) / (clock.last - clock.first),
        "wall_s": wall,
        "rss_growth_kb": rss_kb() - clock.first_rss,
        "runs_after_first": result.n_executed - 1,
        **accounting(spec, clock, result),
        "detectors": {},
    }
    for detector in DETECTORS:
        seconds, events = out["detectors"].get(detector.name, (0.0, 0))
        out["detectors"][detector.name] = (
            seconds + detector.wall_seconds,
            events + detector.events,
        )
    return out


def _run_kernels(request: Dict[str, Any], run_hook: Callable) -> None:
    """Run the workload's kernels one seed at a time through a
    :class:`~repro.run.executor.RunExecutor` with the plain scheduler
    (no explorer recording wrapper), calling ``run_hook(kernel)``.

    One unhooked run of the first seed goes first, so imports and
    caches that the first run fills lazily are not counted.
    """
    from repro.run.executor import RunExecutor
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    start = int(request["seed_start"])
    config = workload.spec(start).run_config()
    executor = RunExecutor(config)
    executor(config.make_scheduler(start)).run()
    for seed in range(start, start + int(request["budget"])):
        run_hook(executor(config.make_scheduler(seed)))


def profile_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    """Python calls made inside ``Kernel.run``, per kernel step."""
    totals = {"calls": 0, "pstats_calls": 0, "steps": 0}

    def run(kernel) -> None:
        exact, merged = count_calls(kernel.run)
        totals["calls"] += exact
        totals["pstats_calls"] += merged
        totals["steps"] += kernel.steps

    _run_kernels(request, run)
    return totals


def alloc_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    """Peak traced allocation inside ``Kernel.run``, per run."""
    import tracemalloc

    peaks: List[int] = []

    def run(kernel) -> None:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kernel.run()
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        _run_kernels(request, run)
    finally:
        tracemalloc.stop()
    return {"peaks": peaks}

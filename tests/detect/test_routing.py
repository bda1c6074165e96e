"""Kind-routed detection: a consumer fed only its declared kinds must
reach the same findings as one fed every event.

:class:`~repro.detect.online.DetectorPipeline` subscribes each detector
and the symptom tracker to the kinds they declare, so these tests replay
full traces of many workloads twice per consumer — once unfiltered, once
through the declared ``kinds`` — and compare ``finish()`` (and, for the
tracker, ``observations()``) exactly, monitor order of the contention
report included.
"""

import pytest

from repro.classify.symptoms import SymptomTracker
from repro.components import ProducerConsumer
from repro.detect import OnlineDetector
from repro.detect.online import DetectorPipeline, default_detectors
from repro.detect.reentry import OnlineReentryDetector
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.profile import TimedDetector
from repro.run import RunConfig, RunExecutor
from repro.vm import (
    Acquire,
    AwaitTime,
    BarrierAwait,
    EventKind,
    Interrupt,
    Kernel,
    Notify,
    RandomScheduler,
    Release,
    RwAcquire,
    RwRelease,
    SemAcquire,
    SemRelease,
    Tick,
    Wait,
    Yield,
)
from repro.vm.errors import BrokenBarrierError

SEEDS = range(10)


def kitchen_sink(scheduler):
    """Every event kind in one kernel: timed monitor waits, timed
    semaphore acquires, an rw-lock downgrade, a barrier broken by an
    interrupt, the abstract clock and a component's calls and fields —
    plus the corners where a missed kind would show: a zero-permit
    semaphore first seen long before its grant, a broken-barrier party
    and an interrupted semaphore acquirer that then wait forever."""
    kernel = Kernel(scheduler=scheduler, max_steps=2000, auto_tick=True)
    kernel.new_monitor("m")
    kernel.new_monitor("n")
    kernel.new_monitor("q")
    kernel.new_semaphore("s", permits=1)
    kernel.new_semaphore("y", permits=1)
    kernel.new_semaphore("z", permits=0)
    kernel.new_rwlock("l")
    kernel.new_barrier("b", parties=3)
    pc = kernel.register(ProducerConsumer())

    def wait_forever():
        yield Acquire("q")
        yield Wait("q")

    def waiter():
        yield Acquire("m")
        yield Wait("m", timeout=3)
        yield Notify("m")
        yield Release("m")
        if (yield SemAcquire("s", timeout=2)):
            yield Yield()
            yield SemRelease("s")
        yield from pc.receive()

    def holder():
        yield SemAcquire("s")
        yield Acquire("m")
        yield Notify("m")
        yield Release("m")
        yield Yield()
        yield Yield()
        yield SemRelease("s")
        yield from pc.send("x")

    def writer():
        yield RwAcquire("l", "write")
        yield RwAcquire("l", "read")
        yield RwRelease("l")
        yield RwRelease("l")
        yield AwaitTime(2)

    def reader():
        yield RwAcquire("l", "read")
        yield Tick()
        yield RwRelease("l")
        yield Tick()

    def party():
        yield BarrierAwait("b")

    def tolerant_party():
        try:
            yield BarrierAwait("b")
        except BrokenBarrierError:
            yield from wait_forever()

    def breaker():
        yield Yield()
        yield Interrupt("p0")
        yield BarrierAwait("b")

    def zero_acquirer():
        yield SemAcquire("z")

    def zero_releaser():
        for _ in range(4):
            yield Yield()
        yield SemRelease("z")

    def interrupted_acquirer():
        yield Acquire("n")
        try:
            yield SemAcquire("y")
        except InterruptedError:
            # keep n without a new request, so a stale blocked-on edge
            # left by a missed INTERRUPT would close a false cycle
            for _ in range(30):
                yield Yield()
            yield from wait_forever()

    def permit_holder():
        yield SemAcquire("y")
        yield Yield()
        yield Acquire("n")

    def interrupter():
        for _ in range(6):
            yield Yield()
        yield Interrupt("ia")

    kernel.spawn(waiter, name="w")
    kernel.spawn(holder, name="h")
    kernel.spawn(writer, name="wr")
    kernel.spawn(reader, name="rd")
    kernel.spawn(party, name="p0")
    kernel.spawn(tolerant_party, name="p1")
    kernel.spawn(breaker, name="bk")
    kernel.spawn(zero_acquirer, name="za")
    kernel.spawn(zero_releaser, name="zr")
    kernel.spawn(interrupted_acquirer, name="ia")
    kernel.spawn(permit_holder, name="ph")
    kernel.spawn(interrupter, name="ii")
    return kernel


INTERRUPT_FIRST = {
    "pc": "c0",
    "sem": "u0",
    "rw": "r0",
    "barrier-meet": "t0",
    "mixed-deadlock": "t1",
}

#: (workload, component) pairs covering monitors, the three primitives
#: (monitor-built and native), a mixed-primitive deadlock, and the
#: environment faults.
PROGRAMS = [
    ("pc", "ProducerConsumer"),
    ("pc", "TimeoutReturnProducerConsumer"),
    ("pc", "SpuriousUnguardedProducerConsumer"),
    ("pc-bug", None),
    ("sem", "Semaphore"),
    ("sem", "NativeSemaphore"),
    ("rw", "ReadersWriters"),
    ("rw", "NativeReadWriteLock"),
    ("barrier-meet", "CyclicBarrier"),
    ("barrier-meet", "NativeBarrier"),
    ("mixed-deadlock", None),
    (f"{__name__}:kitchen_sink", None),
]


def _fault_plans(workload):
    plans = [None]
    thread = INTERRUPT_FIRST.get(workload)
    if thread is not None:
        plans.append(
            FaultPlan(
                name="interrupt-first",
                rules=(FaultRule(action="interrupt", thread=thread, at_step=4),),
            )
        )
    if workload == "pc":
        plans.append(
            FaultPlan(
                name="expire-first",
                rules=(FaultRule(action="timeout", thread="c0", at_wait=1),),
            )
        )
    return plans


def _runs():
    """(label, events, result) for every program x fault plan x spurious
    rate x seed, each a full trace."""
    for workload, component in PROGRAMS:
        for plan in _fault_plans(workload):
            for spurious in (0.0, 0.05):
                config = RunConfig(
                    workload=workload,
                    component=component,
                    faults=plan,
                    spurious_rate=spurious,
                )
                executor = RunExecutor(config)
                for seed in SEEDS:
                    kernel = executor(RandomScheduler(seed=seed))
                    result = kernel.run()
                    label = (
                        f"{workload}/{component}/{plan and plan.name}/"
                        f"{spurious}/seed{seed}"
                    )
                    yield label, list(result.trace), result


@pytest.fixture(scope="module")
def runs():
    return list(_runs())


def _consumers():
    return [*default_detectors(), OnlineReentryDetector()]


def _comparable(detector, findings):
    if detector.name == "contention":
        # dict equality ignores order; the report lists monitors in
        # first-seen order
        return list(findings.monitors.items())
    return findings


def test_every_kind_is_exercised(runs):
    seen = {event.kind for _, events, _ in runs for event in events}
    assert seen == set(EventKind)


@pytest.mark.parametrize(
    "make", [type(d) for d in _consumers()], ids=lambda cls: cls.__name__
)
def test_detector_routed_equals_unrouted(make, runs):
    probe = make()
    assert probe.kinds is not None, "built-in detectors declare their kinds"
    for label, events, _ in runs:
        everything, routed = make(), make()
        for event in events:
            everything.on_event(event)
            if event.kind in routed.kinds:
                routed.on_event(event)
        assert _comparable(routed, routed.finish()) == _comparable(
            everything, everything.finish()
        ), label
        assert routed.abort_reason() == everything.abort_reason(), label


def test_symptom_tracker_routed_equals_unrouted(runs):
    kinds = SymptomTracker.kinds
    for label, events, result in runs:
        everything, routed = SymptomTracker(), SymptomTracker()
        for event in events:
            everything.on_event(event)
            if event.kind in kinds:
                routed.on_event(event)
        assert routed.observations(result) == everything.observations(
            result
        ), label


def test_contention_monitor_order_kept_for_primitive_only_monitors(runs):
    # A semaphore's first event is SEM_REQUEST, which the profiler keeps
    # no counter for — it must still be routed, or the semaphore's
    # profile would appear late (or never) in the report.
    from repro.detect.contention import OnlineContentionProfiler

    for label, events, _ in runs:
        if not label.startswith(("mixed-deadlock", f"{__name__}:kitchen_sink")):
            continue
        routed = OnlineContentionProfiler()
        for event in events:
            if event.kind in routed.kinds:
                routed.on_event(event)
        first_seen = list(
            dict.fromkeys(e.monitor for e in events if e.monitor is not None)
        )
        assert list(routed.finish().monitors) == first_seen, label


class _Counting(OnlineDetector):
    name = "counting"

    def __init__(self, kinds=None):
        if kinds is not None:
            self.kinds = frozenset(kinds)
        self.seen = []
        self.polls = 0

    def reset(self):
        self.seen = []

    def on_event(self, event):
        self.seen.append(event.kind)

    def abort_reason(self):
        self.polls += 1
        return None

    def finish(self):
        return len(self.seen)


def _run_with(detectors, workload="pc-bug", seed=0):
    from repro.engine.workloads import WORKLOADS

    kernel = WORKLOADS[workload](RandomScheduler(seed=seed))
    pipeline = DetectorPipeline(detectors).attach(kernel)
    kernel.run()
    return kernel, pipeline


class TestPipelineRouting:
    def test_detector_without_kinds_receives_every_event(self):
        counting = _Counting()
        assert counting.kinds is None
        kernel, pipeline = _run_with([counting])
        assert len(counting.seen) == kernel.events_emitted == pipeline.events_seen

    def test_declared_kinds_filter_delivery(self):
        reads = _Counting(kinds={EventKind.READ})
        everything = _Counting()
        kernel, _ = _run_with([reads, everything])
        assert reads.seen
        assert reads.seen == [k for k in everything.seen if k is EventKind.READ]

    def test_only_aborting_detectors_are_polled(self):
        quiet = _Counting()
        loud = _Counting(kinds={EventKind.MONITOR_REQUEST})
        loud.can_abort = True
        _run_with([quiet, loud])
        assert quiet.polls == 0
        assert loud.polls == len(loud.seen) > 0

    def test_routes_built_at_attach_from_current_detectors(self):
        # Timing wrappers swapped in after construction must be the ones
        # subscribed, with the inner detector's routing.
        kernel = RunConfig(workload="pc-bug").build_factory()(
            RandomScheduler(seed=0)
        )
        pipeline = DetectorPipeline()
        pipeline.detectors = [TimedDetector(d) for d in pipeline.detectors]
        pipeline.attach(kernel)
        kernel.run()
        for timed in pipeline.detectors:
            assert timed.kinds == timed.inner.kinds
            assert timed.can_abort == timed.inner.can_abort
        assert sum(t.events for t in pipeline.detectors) < 7 * kernel.events_emitted

"""Bench Ext-A: the mutation-detection study behind Table 1's "Testing
Notes" column.

For every failure class the paper classifies (EF-T2 excluded: the VM *is*
the assumed-correct JVM), a seeded-defect component is run under its
nominal workload with every detector armed.  The study asserts the
prediction of Table 1: each class is caught, and it is caught by (at
least) the technique family the table names —

* FF-T1 / EF-T1  -> static analysis (+ lockset for FF-T1),
* FF-T2          -> static and dynamic analysis (lock graphs),
* T3/T4/T5 rows  -> completion-time checking.

The three first-class-primitive exemplars (semaphore, rw-lock, barrier)
are driven on their own kernels, as the seeded-fault oracle
(``tests/integration/test_fault_oracle.py``) drives them: the defect
shows in the final primitive state, which the symptom tracker classifies.

The printed matrix is the reproduction's analogue of reading Table 1's
last column as an experiment.
"""

from conftest import write_result

from repro.analysis import check_component
from repro.classify import FailureClass, FailureMode
from repro.components import Account, ProducerConsumer
from repro.components.faulty import FAULT_REGISTRY
from repro.detect import analyze_run
from repro.engine.workloads import barrier_template, sem_template
from repro.report import render_table
from repro.testing import TestSequence, run_sequence, explore_random
from repro.vm import (
    Kernel,
    RandomScheduler,
    RoundRobinScheduler,
    RunStatus,
    SelectionPolicy,
    Yield,
)

#: random schedules a primitive exemplar gets to show its class (the
#: fault oracle's budget)
PRIMITIVE_SEEDS = 60


def _rw_turnover_kernel(cls, scheduler):
    """Reader turnover under an adversarial lock policy: eight readers
    cycle while one writer queues; a reader-preference lock lets fresh
    readers barge past the writer until the step budget ends."""
    kernel = Kernel(
        scheduler=scheduler,
        max_steps=1500,
        lock_policy=SelectionPolicy.ADVERSARIAL_LAST,
    )
    rw = kernel.register(cls())

    def reader():
        while True:
            yield from rw.start_read()
            yield Yield()
            yield from rw.end_read()

    def writer():
        yield from rw.start_write()
        yield Yield()
        yield from rw.end_write()

    for i in range(8):
        kernel.spawn(reader, name=f"r{i}")
    kernel.spawn(writer, name="w0")
    return kernel


#: first-class-primitive exemplar -> its kernel builder
PRIMITIVE_KERNELS = {
    "LostPermitSemaphore": lambda cls, s: sem_template(cls)(s),
    "WriterStarvingRwLock": _rw_turnover_kernel,
    "LeakyBarrier": lambda cls, s: barrier_template(cls)(s),
}


def _run_nominal_workload(name, info):
    """Run each faulty component's nominal workload; return a dict of
    detector verdicts."""
    verdicts = {
        "static": False,
        "lockset": False,
        "lock_graph": False,
        "wait_graph": False,
        "completion": False,
        "vm_outcome": False,  # stuck/deadlock/step-limit at quiescence
    }

    findings = check_component(info.component)
    verdicts["static"] = any(
        f.failure_class is info.seeded_class for f in findings
    )

    cls = info.component
    if name in ("UnsyncCounter", "EarlyReleaseBuffer"):
        kernel = Kernel(scheduler=RoundRobinScheduler())
        comp = kernel.register(cls())
        method = "increment" if name == "UnsyncCounter" else "put"

        def body():
            yield from getattr(comp, method)()

        kernel.spawn(body, name="t1")
        kernel.spawn(body, name="t2")
        report = analyze_run(kernel.run())
    elif name == "OverSynchronized":
        kernel = Kernel(scheduler=RoundRobinScheduler())
        comp = kernel.register(cls())

        def body():
            yield from comp.scale([1, 2], 2)

        kernel.spawn(body, name="t1")
        report = analyze_run(kernel.run())
    elif name == "DeadlockPair":
        kernel = Kernel(scheduler=RoundRobinScheduler())
        a = kernel.register(Account(10), name="A")
        b = kernel.register(Account(10), name="B")
        pair = kernel.register(cls())

        def t1():
            yield from pair.transfer(a, b, 1)

        def t2():
            yield from pair.transfer(b, a, 1)

        kernel.spawn(t1, name="t1")
        kernel.spawn(t2, name="t2")
        report = analyze_run(kernel.run())
    elif name == "HoldForever":
        kernel = Kernel(scheduler=RoundRobinScheduler(), max_steps=2000)
        comp = kernel.register(cls())

        def a_worker():
            yield from comp.compute()

        def b_reader():
            yield from comp.read_progress()

        kernel.spawn(a_worker, name="a-worker")
        kernel.spawn(b_reader, name="b-reader")
        report = analyze_run(kernel.run())
    elif name == "SingleNotifyProducerConsumer":
        # schedule exploration exposes the lost-signal starvation
        def factory(scheduler):
            kernel = Kernel(scheduler=scheduler)
            pc = kernel.register(cls())

            def consumer():
                yield from pc.receive()

            def producer(payload):
                yield from pc.send(payload)

            for i in range(3):
                kernel.spawn(consumer, name=f"c{i}")
            kernel.spawn(producer, "ab", name="p1")
            kernel.spawn(producer, "c", name="p2")
            return kernel

        exploration = explore_random(
            factory, seeds=range(100), stop_on_failure=True
        )
        failing = [
            run
            for run in exploration.runs
            if run.result.status is not RunStatus.COMPLETED
        ]
        assert failing, "exploration must expose the lost signal"
        report = analyze_run(failing[0].result)
    elif name in PRIMITIVE_KERNELS:
        # Stranded acquirers (lost permit), a bypassed writer (reader
        # barging) or parked parties (an extra barrier party): as in the
        # fault oracle, the first random schedule that implicates the
        # seeded class counts.
        build = PRIMITIVE_KERNELS[name]
        for seed in range(PRIMITIVE_SEEDS):
            report = analyze_run(build(cls, RandomScheduler(seed)).run())
            if info.seeded_class in report.classes_detected():
                break
    elif name == "ReaderPreferenceRW":
        # Writer-starvation liveness: with writer preference (the correct
        # component) the writer is served at clock 6 because arriving
        # readers are held back; the reader-preference defect lets readers
        # overlap indefinitely and the writer is served only when they all
        # happen to drain (clock 9) — a completion-time (lateness) catch.
        seq = (
            TestSequence("rw-starve")
            .add(1, "r1", "start_read", check_completion=False)
            .add(2, "r2", "start_read", check_completion=False)
            .add(3, "w", "start_write", expect_at=6)
            .add(4, "r1", "end_read", check_completion=False)
            .add(5, "r3", "start_read", check_completion=False)
            .add(6, "r2", "end_read", check_completion=False)
            .add(7, "r4", "start_read", check_completion=False)
            .add(8, "r3", "end_read", check_completion=False)
            .add(9, "r4", "end_read", check_completion=False)
        )
        outcome = run_sequence(cls, seq)
        report = outcome.report
        verdicts["completion"] = bool(outcome.violations)
    else:
        # the producer-consumer family: deterministic clocked sequence
        # with completion-time expectations (the ConAn method)
        seq = (
            TestSequence("nominal")
            .add(1, "c1", "receive", expect_at=3, expect_returns="a")
            .add(2, "c2", "receive", expect_at=4, expect_returns="b")
            .add(3, "p1", "send", "a", expect_at=3)
            .add(4, "p2", "send", "b", expect_at=4)
        )
        outcome = run_sequence(cls, seq)
        report = outcome.report
        verdicts["completion"] = bool(outcome.violations)

    verdicts["lockset"] = bool(report.races)
    verdicts["lock_graph"] = bool(report.potential_deadlocks)
    verdicts["wait_graph"] = bool(report.deadlock_cycle)
    verdicts["vm_outcome"] = not report.classification.clean
    if report.completion_violations:
        verdicts["completion"] = True
    verdicts["classes"] = report.classes_detected()
    verdicts["classified"] = info.seeded_class in verdicts["classes"]
    return verdicts


#: Table-1 prediction -> which verdict column must fire
EXPECTED_DETECTION = {
    "UnsyncCounter": ["static", "lockset"],
    "OverSynchronized": ["static"],
    "DeadlockPair": ["lock_graph", "wait_graph"],
    "ReaderPreferenceRW": ["completion"],
    "NoWaitProducerConsumer": ["completion"],
    "SpuriousWaitProducerConsumer": ["completion"],
    "HoldForever": ["vm_outcome"],
    "EarlyReleaseBuffer": ["lockset"],
    "NoNotifyProducerConsumer": ["completion"],
    "SingleNotifyProducerConsumer": ["vm_outcome"],
    "IfGuardProducerConsumer": ["completion"],
    # first-class primitives: a stuck final state, classified as the
    # seeded class by the symptom tracker
    "LostPermitSemaphore": ["vm_outcome", "classified"],
    "WriterStarvingRwLock": ["vm_outcome", "classified"],
    "LeakyBarrier": ["vm_outcome", "classified"],
}


def run_study():
    rows = []
    for name, info in FAULT_REGISTRY.items():
        if info.seeded_class.mode is FailureMode.ENVIRONMENTAL_FIRING:
            # environment-deviation exemplars only misbehave under fault
            # injection; they get their own study (Ext-L)
            continue
        verdicts = _run_nominal_workload(name, info)
        expected_columns = EXPECTED_DETECTION[name]
        caught = all(verdicts[c] for c in expected_columns)
        rows.append((name, info, verdicts, caught))
    return rows


def test_mutation_detection_matrix(benchmark, results_dir):
    rows = benchmark(run_study)

    table_rows = []
    for name, info, verdicts, caught in rows:
        table_rows.append(
            (
                info.seeded_class.code,
                name,
                "+" if verdicts["static"] else "-",
                "+" if verdicts["lockset"] else "-",
                "+" if verdicts["lock_graph"] else "-",
                "+" if verdicts["wait_graph"] else "-",
                "+" if verdicts["completion"] else "-",
                "+" if verdicts["vm_outcome"] else "-",
                "CAUGHT" if caught else "MISSED",
            )
        )
    rendered = render_table(
        (
            "Class",
            "Seeded component",
            "Static",
            "Lockset",
            "LockGraph",
            "WaitGraph",
            "Completion",
            "VM",
            "Verdict",
        ),
        table_rows,
        widths=(6, 28, 6, 7, 9, 9, 10, 4, 7),
        title="Ext-A: detection matrix (Table 1's Testing Notes as an experiment)",
    )
    write_result(results_dir, "extA_mutation_detection.txt", rendered)
    print()
    print(rendered)

    for name, info, verdicts, caught in rows:
        assert caught, f"{name} ({info.seeded_class.code}) was not detected"

    # 9 of the 10 Table-1 classes (the monitor's T1-T5) are covered
    # (EF-T2 is unrepresentable; the EV-* extension classes are measured
    # by Ext-L), plus the class each primitive exemplar seeds
    covered = {info.seeded_class for _, info, _, _ in rows}
    paper_classes = {
        c
        for c in FailureClass
        if c.transition.startswith("T")
        and c.mode is not FailureMode.ENVIRONMENTAL_FIRING
    }
    assert len(paper_classes) == 10
    primitive_classes = {FAULT_REGISTRY[n].seeded_class for n in PRIMITIVE_KERNELS}
    assert covered == (paper_classes - {FailureClass.EF_T2}) | primitive_classes

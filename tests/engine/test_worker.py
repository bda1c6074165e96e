"""Tests for the shard worker: timed runs, streaming, coverage hits."""

import pytest

from repro.engine.shards import Shard
from repro.engine.worker import (
    WorkerTask,
    _timed_runner,
    execute_shard,
    worker_main,
)
from repro.run import RunConfig
from repro.vm import Kernel, RandomScheduler, RunStatus, Tick


def run_config(**kwargs):
    defaults = dict(workload="pc-ok")
    defaults.update(kwargs)
    return RunConfig(**defaults)


def spin_factory(scheduler):
    """A program that never finishes (modulo the step limit) — wall-clock
    timeout fodder."""
    kernel = Kernel(scheduler=scheduler, max_steps=50_000_000)

    def spinner():
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel


class FakeQueue:
    def __init__(self):
        self.messages = []

    def put(self, message):
        self.messages.append(message)


def random_shard(seeds=(0, 1, 2)):
    return Shard(
        shard_id="random-test",
        mode="random",
        seeds=tuple(seeds),
        max_runs=len(seeds),
    )


class TestTimedRunner:
    def test_fast_run_unaffected(self):
        runner = _timed_runner(10.0)
        result = runner(_quick_kernel())
        assert result.status is RunStatus.COMPLETED

    def test_wedged_run_times_out(self):
        runner = _timed_runner(0.2)
        result = runner(spin_factory(RandomScheduler(seed=0)))
        assert result.status is RunStatus.TIMEOUT
        assert "spin" in result.stuck_threads

    def test_zero_timeout_disables(self):
        runner = _timed_runner(0.0)
        assert runner(_quick_kernel()).status is RunStatus.COMPLETED

    def test_alarm_cleared_after_timeout(self):
        import signal

        _timed_runner(0.2)(spin_factory(RandomScheduler(seed=0)))
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_previous_handler_restored(self):
        # A timeout in one run must not leave the runner's SIGALRM
        # handler (or a live alarm) behind to fire into the next run.
        import signal

        sentinel = []

        def ours(signum, frame):
            sentinel.append(signum)

        previous = signal.signal(signal.SIGALRM, ours)
        try:
            _timed_runner(0.2)(spin_factory(RandomScheduler(seed=0)))
            assert signal.getsignal(signal.SIGALRM) is ours
            signal.raise_signal(signal.SIGALRM)
            assert sentinel  # our handler is back in place and live
        finally:
            signal.signal(signal.SIGALRM, previous)
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def test_timeout_lands_inside_gc_callback(self):
        # A signal handler runs at the next bytecode boundary, which can
        # be inside a gc.callbacks hook (Hypothesis installs one); an
        # exception raised there is discarded as unraisable, and the
        # one-shot alarm never fires again.  Forced collections with a
        # slow hook make that landing spot near-certain; the handler must
        # only flag the abort.  The hook slows down for one second only,
        # so a lost alarm fails fast at the step limit instead of hanging.
        import gc
        import time

        slow_until = time.monotonic() + 1.0

        def slow_hook(phase, info):
            if phase == "start" and time.monotonic() < slow_until:
                time.sleep(0.0005)

        kernel = Kernel(
            scheduler=RandomScheduler(seed=0), max_steps=5000, trace_mode="none"
        )

        def spinner():
            while True:
                yield Tick()

        kernel.spawn(spinner, name="spin")
        thresholds = gc.get_threshold()
        gc.callbacks.append(slow_hook)
        gc.set_threshold(1)
        try:
            result = _timed_runner(0.2)(kernel)
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(slow_hook)
        assert result.status is RunStatus.TIMEOUT
        assert result.steps < kernel.max_steps
        assert "spin" in result.stuck_threads

    def test_handler_restored_on_completion(self):
        import signal

        previous = signal.getsignal(signal.SIGALRM)
        _timed_runner(10.0)(_quick_kernel())
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


def _quick_kernel():
    kernel = Kernel(scheduler=RandomScheduler(seed=0))

    def solo():
        yield Tick()

    kernel.spawn(solo, name="t")
    return kernel


class TestExecuteShard:
    def test_random_shard_summaries(self):
        task = WorkerTask(shard=random_shard((5, 6, 7)), config=run_config())
        streamed = []
        outcome = execute_shard(task, emit=streamed.append)
        assert [s.seed for s in outcome.summaries] == [5, 6, 7]
        assert outcome.summaries == streamed
        assert not outcome.exhausted

    def test_timeout_shard_reports_timeout_status(self):
        task = WorkerTask(
            shard=random_shard((0,)),
            config=run_config(
                workload=f"{__name__}:spin_factory", timeout=0.2
            ),
        )
        outcome = execute_shard(task)
        assert [s.status for s in outcome.summaries] == ["timeout"]

    def test_systematic_shard_exhausts_subtree(self):
        shard = Shard(
            shard_id="dfs-test",
            mode="systematic",
            prefixes=((),),
            max_runs=10_000,
        )
        task = WorkerTask(
            shard=shard, config=run_config(workload="racing-locks")
        )
        outcome = execute_shard(task)
        assert outcome.exhausted
        assert any(s.status == "deadlock" for s in outcome.summaries)

    def test_coverage_hits_attached(self):
        task = WorkerTask(
            shard=random_shard((0, 1)),
            config=run_config(coverage="repro.components:ProducerConsumer"),
        )
        outcome = execute_shard(task)
        assert all(s.arc_hits for s in outcome.summaries)
        method, src, dst, count = outcome.summaries[0].arc_hits[0]
        assert isinstance(method, str) and count >= 1

    def test_unknown_mode_rejected(self):
        shard = Shard(shard_id="x", mode="bogus", max_runs=1)
        with pytest.raises(ValueError, match="unknown shard mode"):
            execute_shard(WorkerTask(shard=shard, config=run_config()))

    def test_bad_coverage_spec_rejected(self):
        task = WorkerTask(
            shard=random_shard((0,)),
            config=run_config(coverage="nodots"),
        )
        with pytest.raises(ValueError, match="module:Class"):
            execute_shard(task)


class TestWorkerMain:
    def test_message_protocol(self):
        queue = FakeQueue()
        task = WorkerTask(shard=random_shard((0, 1)), config=run_config())
        worker_main(task, queue)
        kinds = [m[0] for m in queue.messages]
        assert kinds == ["frame", "frame", "done"]
        assert all(m[1] == "random-test" for m in queue.messages)
        # frame payloads are plain dicts (picklable / JSON-able) wrapping
        # the run summary plus shard-local counters
        first = queue.messages[0][2]
        assert isinstance(first, dict)
        assert first["kind"] == "run"
        assert first["runs"] == 1
        assert queue.messages[1][2]["runs"] == 2
        assert isinstance(first["summary"], dict)
        assert "status" in first["summary"]

    def test_failure_reported_not_raised(self):
        queue = FakeQueue()
        shard = Shard(shard_id="x", mode="bogus", max_runs=1)
        worker_main(WorkerTask(shard=shard, config=run_config()), queue)
        assert queue.messages[-1][0] == "fail"
        assert "bogus" in queue.messages[-1][2]

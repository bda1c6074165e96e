"""Tests for the campaign heartbeat, a renderer of the campaign state."""

import io
import json

from repro.engine.progress import ProgressTracker
from repro.obs.metrics import MetricsRegistry
from repro.testing.explorer import RunSummary


def ok_run(index):
    return RunSummary(index=index, status="completed", decisions=(index,))


def stuck_run(index, threads=("c0",)):
    return RunSummary(
        index=index, status="stuck", decisions=(index,), stuck_threads=threads
    )


def classified_run(index, *codes):
    return RunSummary(
        index=index,
        status="stuck",
        decisions=(index,),
        stuck_threads=("c0",),
        detection={"classes": list(codes)},
    )


def contended_run(index, monitor, ticks):
    registry = MetricsRegistry()
    registry.counter("vm_monitor_contended_ticks_total").inc(ticks, monitor=monitor)
    return RunSummary(
        index=index,
        status="completed",
        decisions=(index,),
        metrics=registry.snapshot().to_dict(),
    )


def fold(tracker, *runs, duplicate=False):
    """Fold runs into the tracker's state, as the campaign does."""
    for run in runs:
        tracker.state.note_run(run, duplicate)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class FakeCoverage:
    def __init__(self, fraction):
        self.fraction = fraction

    def coverage_fraction(self):
        return self.fraction


class TestCounters:
    def test_runs_failures_signatures(self):
        tracker = ProgressTracker(total_runs=10)
        fold(tracker, ok_run(0), stuck_run(1), stuck_run(2))  # same signature
        fold(tracker, stuck_run(3, threads=("c1",)))
        record = tracker.to_json_dict()
        assert record["runs"] == 4
        assert record["failures"] == 3
        assert record["signatures"] == 2

    def test_duplicates_counted_separately(self):
        tracker = ProgressTracker()
        fold(tracker, ok_run(0), stuck_run(1))
        fold(tracker, ok_run(0), stuck_run(1), duplicate=True)
        record = tracker.to_json_dict()
        assert record["runs"] == 4  # executions, duplicates included
        assert record["duplicates"] == 2
        assert record["failures"] == 2  # failing executions
        assert tracker.state.runs == 2 and tracker.state.failures == 1

    def test_shard_lifecycle(self):
        tracker = ProgressTracker()
        tracker.state.set_shards_total(5)
        tracker.state.note_shards_resumed(["a", "b"])
        tracker.state.note_shard_done("c")
        tracker.state.note_shard_requeued("d")
        tracker.state.note_shard_failed("e")
        assert tracker.to_json_dict()["shards"] == {
            "done": 3,  # 2 resumed + 1 fresh
            "total": 5,
            "failed": 1,
            "requeued": 1,
            "resumed": 2,
        }

    def test_hooks_keep_no_counters(self):
        tracker = ProgressTracker()
        tracker.note_run(stuck_run(0))
        tracker.note_shard_requeued("s1")
        assert tracker.to_json_dict()["runs"] == 0
        assert tracker.state.shards_requeued == 0

    def test_runs_per_sec(self):
        clock = FakeClock()
        tracker = ProgressTracker(clock=clock)
        fold(tracker, *(ok_run(i) for i in range(50)))
        clock.now += 2.0
        assert tracker.runs_per_sec() == 50 / 2.0


class TestEta:
    def test_none_without_budget(self):
        tracker = ProgressTracker()
        fold(tracker, ok_run(0))
        assert tracker.eta_seconds() is None

    def test_none_before_first_run(self):
        assert ProgressTracker(total_runs=10).eta_seconds() is None

    def test_remaining_over_rate(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=100, clock=clock)
        fold(tracker, *(ok_run(i) for i in range(20)))
        clock.now += 4.0  # 5 runs/s observed, 80 remaining
        assert tracker.eta_seconds() == 80 / 5.0

    def test_zero_once_budget_met(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=2, clock=clock)
        fold(tracker, ok_run(0), ok_run(1))
        clock.now += 1.0
        assert tracker.eta_seconds() == 0.0

    def test_format_duration(self):
        fmt = ProgressTracker._format_duration
        assert fmt(9.4) == "9s"
        assert fmt(75) == "1m15s"
        assert fmt(3660) == "1h01m"


class TestRendering:
    def test_render_mentions_everything(self):
        tracker = ProgressTracker(total_runs=20)
        tracker.state.set_shards_total(4)
        tracker.coverage = FakeCoverage(0.5)
        fold(tracker, stuck_run(0))
        line = tracker.render()
        assert "runs 1/20" in line
        assert "failures 1" in line
        assert "signatures 1" in line
        assert "coverage 50%" in line
        assert "shards 0/4" in line

    def test_coverage_shown_once_a_unique_run_merged(self):
        tracker = ProgressTracker()
        tracker.coverage = FakeCoverage(0.25)
        assert "coverage" not in tracker.render()
        fold(tracker, ok_run(0))
        assert "coverage 25%" in tracker.render()

    def test_emit_rate_limited(self):
        clock = FakeClock()
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=1.0, clock=clock)
        tracker.maybe_emit()
        tracker.maybe_emit()  # suppressed: same instant
        assert stream.getvalue().count("\n") == 1
        clock.now += 1.5
        tracker.maybe_emit()
        assert stream.getvalue().count("\n") == 2

    def test_force_bypasses_rate_limit(self):
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=60.0)
        tracker.maybe_emit(force=True)
        tracker.maybe_emit(force=True)
        assert stream.getvalue().count("\n") == 2

    def test_no_stream_is_silent(self):
        tracker = ProgressTracker()
        tracker.maybe_emit(force=True)  # must not raise
        tracker.emit_final()  # must not raise either

    def test_render_includes_eta_and_hot_monitor(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=100, clock=clock)
        fold(tracker, *(classified_run(i, "FF-T5") for i in range(3)))
        fold(tracker, *(ok_run(i) for i in range(3, 19)))
        fold(tracker, contended_run(19, "Buffer", 120))
        clock.now += 4.0
        line = tracker.render()
        assert "eta 16s" in line
        assert "classes FF-T5:3" in line
        assert "hot Buffer:120" in line


class TestFinalSummary:
    def test_render_final(self):
        clock = FakeClock()
        tracker = ProgressTracker(total_runs=4, clock=clock)
        tracker.coverage = FakeCoverage(0.75)
        fold(tracker, contended_run(0, "Queue", 42), classified_run(1, "FF-T2"))
        clock.now += 2.0
        line = tracker.render_final()
        assert line.startswith("done: 2 runs in 2s (1.0/s)")
        assert "failures 1 (1 signature(s))" in line
        assert "classes FF-T2:1" in line
        assert "coverage 75%" in line
        assert "hottest monitor Queue (42 ticks)" in line

    def test_final_omits_absent_sections(self):
        tracker = ProgressTracker()
        line = tracker.render_final()
        assert "classes" not in line
        assert "coverage" not in line
        assert "hottest" not in line

    def test_emit_final_ignores_rate_limit(self):
        stream = io.StringIO()
        tracker = ProgressTracker(stream=stream, interval=60.0)
        tracker.maybe_emit()  # consumes the rate-limit slot
        tracker.emit_final()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("done:")


class TestJsonMode:
    def _tracker(self, stream, **kwargs):
        clock = FakeClock()
        tracker = ProgressTracker(
            total_runs=10,
            stream=stream,
            interval=0.0,
            clock=clock,
            json_mode=True,
            **kwargs,
        )
        return tracker, clock

    def test_heartbeat_is_one_json_object_per_line(self):
        stream = io.StringIO()
        tracker, clock = self._tracker(stream)
        tracker.state.set_shards_total(4)
        clock.now += 2.0
        fold(tracker, ok_run(0), stuck_run(1))
        tracker.maybe_emit(force=True)
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["runs"] == 2
        assert record["total_runs"] == 10
        assert record["failures"] == 1
        assert record["signatures"] == 1
        assert record["runs_per_sec"] == 1.0
        assert record["eta_seconds"] == 8.0
        assert record["elapsed_seconds"] == 2.0
        assert record["shards"] == {
            "done": 0,
            "total": 4,
            "failed": 0,
            "requeued": 0,
            "resumed": 0,
        }
        assert "final" not in record

    def test_final_record_flagged(self):
        stream = io.StringIO()
        tracker, _ = self._tracker(stream)
        tracker.emit_final()
        record = json.loads(stream.getvalue())
        assert record["final"] is True

    def test_optional_fields_appear_when_populated(self):
        stream = io.StringIO()
        tracker, _ = self._tracker(stream)
        tracker.coverage = FakeCoverage(0.5)
        fold(tracker, classified_run(0, "DD.AB"), classified_run(1, "DD.AB"))
        fold(tracker, contended_run(2, "Buffer", 17))
        tracker.state.note_shard_requeued("sh-1")
        tracker.maybe_emit(force=True)
        record = json.loads(stream.getvalue())
        assert record["classes"] == {"DD.AB": 2}
        assert record["coverage"] == 0.5
        assert record["top_contended"] == {"monitor": "Buffer", "ticks": 17.0}
        assert record["attempts"] == {"sh-1": 2}

    def test_text_mode_unchanged_by_default(self):
        stream = io.StringIO()
        tracker = ProgressTracker(total_runs=10, stream=stream, interval=0.0)
        fold(tracker, ok_run(0))
        tracker.maybe_emit(force=True)
        assert stream.getvalue().startswith("runs 1/10")

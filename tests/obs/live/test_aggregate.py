"""LiveAggregator: dedup-aware folding, status document, registry view."""

import json

from repro.obs.live.aggregate import LiveAggregator, attach_campaign_info
from repro.obs.live.frames import TelemetryFrame
from repro.obs.metrics import MetricsRegistry
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0,))
    defaults.update(kwargs)
    return RunSummary(**defaults)


def metrics_dict(**counters):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter(name).inc(value)
    return registry.snapshot().to_dict()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestNoteRun:
    def test_unique_run_counts_everything(self):
        agg = LiveAggregator()
        agg.note_run(summary(status="deadlock", stuck_threads=("a",)), False)
        assert agg.runs == 1
        assert agg.executed == 1
        assert agg.failures == 1
        assert agg.statuses == {"deadlock": 1}
        assert len(agg.signatures) == 1

    def test_duplicate_counts_execution_only(self):
        agg = LiveAggregator()
        agg.note_run(summary(), False)
        agg.note_run(summary(), True)
        assert agg.executed == 2
        assert agg.runs == 1
        assert agg.duplicates == 1
        assert agg.statuses == {"completed": 1}

    def test_failed_executions_include_duplicates(self):
        agg = LiveAggregator()
        stuck = summary(status="stuck", stuck_threads=("t",))
        agg.note_run(stuck, False)
        agg.note_run(stuck, True)
        agg.note_run(summary(index=1, decisions=(1,)), False)
        assert agg.failures == 1  # unique schedules
        assert agg.failed_executions == 2  # executions

    def test_classes_folded_from_unique_runs_only(self):
        agg = LiveAggregator()
        s = summary(detection={"classes": ["DD.AB"]})
        agg.note_run(s, False)
        agg.note_run(s, True)
        assert agg.class_counts == {"DD.AB": 1}

    def test_metrics_merged_from_unique_runs_only(self):
        agg = LiveAggregator()
        s = summary(metrics=metrics_dict(vm_steps_total=5))
        agg.note_run(s, False)
        agg.note_run(s, True)
        metric = agg.metrics.get("vm_steps_total")
        assert metric is not None and metric.get() == 5

    def test_frame_counters_update_shard_row(self):
        agg = LiveAggregator()
        s = summary(status="timeout")
        frame = TelemetryFrame.for_run("sh-0", s, runs=4, timeouts=2)
        agg.note_run(s, False, shard_id="sh-0", frame=frame)
        row = agg.shards["sh-0"]
        assert (row.runs, row.timeouts, row.attempts) == (4, 2, 1)
        assert row.state == "running"

    def test_frameless_run_increments_shard_row(self):
        agg = LiveAggregator()
        agg.note_run(summary(status="timeout"), False, shard_id="sh-0")
        agg.note_run(summary(index=1), False, shard_id="sh-0")
        row = agg.shards["sh-0"]
        assert (row.runs, row.timeouts) == (2, 1)


class TestShardLifecycle:
    def test_done_failed_requeued(self):
        agg = LiveAggregator()
        agg.note_shard_done("a", exhausted=True)
        agg.note_shard_failed("b", error="boom")
        agg.note_shard_requeued("c")
        assert (agg.shards_done, agg.shards_failed, agg.shards_requeued) == (
            1,
            1,
            1,
        )
        assert agg.shards["a"].state == "done" and agg.shards["a"].exhausted
        assert agg.shards["b"].error == "boom"
        assert agg.shards["c"].attempts == 2

    def test_requeue_resets_run_counters(self):
        agg = LiveAggregator()
        s = summary()
        agg.note_run(s, False, "sh", TelemetryFrame.for_run("sh", s, runs=9))
        agg.note_shard_requeued("sh")
        assert agg.shards["sh"].runs == 0

    def test_resumed_shards_count_as_done(self):
        agg = LiveAggregator()
        agg.note_shards_resumed(["a", "b"])
        assert agg.shards_resumed == 2
        assert agg.shards_done == 2
        assert agg.shards["a"].state == "resumed"


class TestStatusDocument:
    def test_core_fields_and_info(self):
        clock = FakeClock()
        agg = LiveAggregator(
            info={"factory": "pc-bug", "mode": "random"},
            total_runs=100,
            clock=clock,
        )
        agg.set_shards_total(4)
        clock.now += 2.0
        for index in range(10):
            agg.note_run(summary(index=index, decisions=(index,)), False, "sh")
        doc = agg.status()
        assert doc["format"] == "repro-live-status"
        assert doc["state"] == "running"
        assert doc["runs"] == doc["executed"] == 10
        assert doc["factory"] == "pc-bug"
        assert doc["runs_per_sec"] == 5.0
        assert doc["eta_seconds"] == 18.0
        assert doc["shards"]["total"] == 4
        assert doc["shard_table"][0]["shard"] == "sh"
        json.loads(agg.status_json())  # always serializable

    def test_close_records_state_and_goal(self):
        agg = LiveAggregator()
        agg.close(goal="first-failure")
        doc = agg.status()
        assert doc["state"] == "done"
        assert doc["goal"] == "first-failure"

    def test_top_contended_surfaced_from_metrics(self):
        agg = LiveAggregator()
        registry = MetricsRegistry()
        registry.counter("vm_monitor_contended_ticks_total").inc(7, monitor="m")
        agg.note_run(
            summary(metrics=registry.snapshot().to_dict()), False
        )
        assert agg.status()["top_contended"] == {"monitor": "m", "ticks": 7}


class TestRegistryView:
    def test_campaign_counters_present(self):
        agg = LiveAggregator(info={"fingerprint": "f" * 12, "factory": "pc"})
        agg.set_shards_total(3)
        agg.note_run(summary(status="deadlock", stuck_threads=("t",)), False)
        agg.note_run(summary(), True)
        agg.note_shard_done("sh")
        registry = agg.registry()
        runs = registry.get("campaign_runs_total")
        assert runs.get(status="deadlock") == 1
        assert registry.get("campaign_duplicate_schedules_total").get() == 1
        shards = registry.get("campaign_shards_total")
        assert shards.get(state="completed") == 1
        info = registry.get("campaign_info")
        assert info is not None

    def test_throughput_over_given_wall_time(self):
        clock = FakeClock()
        agg = LiveAggregator(clock=clock)
        for index in range(6):
            agg.note_run(summary(index=index, decisions=(index,)), False)
        clock.now += 2.0
        rate = "campaign_runs_per_second"
        assert agg.registry().get(rate).get() == 3.0  # over elapsed time
        assert agg.registry(wall_time=3.0).get(rate).get() == 2.0

    def test_per_run_metrics_folded_in(self):
        agg = LiveAggregator()
        agg.note_run(summary(metrics=metrics_dict(vm_steps_total=3)), False)
        assert agg.registry().get("vm_steps_total").get() == 3


class TestSubscribers:
    def test_run_frames_and_end_published(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        agg.note_run(summary(status="stuck", stuck_threads=("t",)), False, "sh")
        agg.close()
        first = subscriber.get_nowait()
        assert first["kind"] == "run"
        assert first["shard"] == "sh"
        assert first["status"] == "stuck"
        assert first["seq"] == 1
        assert subscriber.get_nowait()["kind"] == "end"

    def test_slow_subscriber_drops_oldest(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        for index in range(300):  # depth is 256
            agg.note_run(summary(index=index, decisions=(index,)), False)
        frames = []
        while not subscriber.empty():
            frames.append(subscriber.get_nowait())
        assert len(frames) == 256
        assert frames[-1]["seq"] == 300  # newest survives, oldest dropped

    def test_no_run_frame_built_without_subscribers(self):
        agg = LiveAggregator()
        agg.note_run(summary(), False)
        subscriber = agg.subscribe()
        agg.note_run(summary(index=1, decisions=(1,)), False)
        # seq numbers published frames only
        assert subscriber.get_nowait()["seq"] == 1

    def test_unsubscribe_stops_delivery(self):
        agg = LiveAggregator()
        subscriber = agg.subscribe()
        agg.unsubscribe(subscriber)
        agg.note_run(summary(), False)
        assert subscriber.empty()


class TestCampaignInfo:
    def test_labels_include_version_and_shards(self):
        registry = MetricsRegistry()
        gauge = attach_campaign_info(
            registry, {"fingerprint": "abc", "factory": "pc", "mode": "pct"}, 8
        )
        from repro import __version__

        assert gauge.get(
            fingerprint="abc",
            factory="pc",
            mode="pct",
            version=__version__,
            shards="8",
        ) == 1

    def test_empty_info_attaches_nothing(self):
        registry = MetricsRegistry()
        assert attach_campaign_info(registry, {}, 0) is None
        assert registry.get("campaign_info") is None

"""Tests for detection threaded through the engine: worker, campaign,
journal resume, goals, and progress."""

import pytest

from repro.engine import CampaignError, CampaignSpec, ProgressTracker, run_campaign
from repro.engine.shards import Shard
from repro.engine.worker import WorkerTask, execute_shard
from repro.run import RunConfig, RunConfigError


def run_config(**kwargs):
    defaults = dict(workload="pc-bug")
    defaults.update(kwargs)
    return RunConfig(**defaults)


def random_shard(seeds=(0, 1, 2, 3)):
    return Shard(
        shard_id="detect-test",
        mode="random",
        seeds=tuple(seeds),
        max_runs=len(seeds),
    )


class TestSpecValidation:
    def test_detect_fields_default_off(self):
        spec = CampaignSpec(factory="pc-bug")
        spec.validate()
        assert not spec.detect
        assert spec.trace_mode == "full"

    def test_invalid_trace_mode(self):
        with pytest.raises(CampaignError, match="trace_mode"):
            CampaignSpec(factory="pc-bug", trace_mode="maybe").validate()

    def test_trace_none_requires_detect(self):
        with pytest.raises(CampaignError, match="observes nothing"):
            CampaignSpec(factory="pc-bug", trace_mode="none").validate()

    def test_trace_none_incompatible_with_coverage(self):
        with pytest.raises(CampaignError, match="coverage"):
            CampaignSpec(
                factory="pc-bug",
                detect=True,
                trace_mode="none",
                coverage="repro.components:ProducerConsumer",
            ).validate()

    def test_first_deadlock_goal_accepted(self):
        CampaignSpec(factory="deadlock-pair", goal="first-deadlock").validate()

    def test_fingerprint_covers_detection(self):
        base = CampaignSpec(factory="pc-bug")
        detecting = CampaignSpec(factory="pc-bug", detect=True)
        traceless = CampaignSpec(factory="pc-bug", detect=True, trace_mode="none")
        prints = {s.fingerprint() for s in (base, detecting, traceless)}
        assert len(prints) == 3

    def test_worker_task_carries_detection(self):
        spec = CampaignSpec(factory="pc-bug", detect=True, trace_mode="none")
        task = spec.worker_task(random_shard())
        assert task.config.detect
        assert task.config.trace_mode == "none"


class TestWorkerDetection:
    def test_summaries_carry_detection(self):
        task = WorkerTask(
            shard=random_shard(), config=run_config(detect=True)
        )
        outcome = execute_shard(task)
        assert outcome.summaries
        for summary in outcome.summaries:
            assert summary.detection is not None
            assert "classes" in summary.detection
            if not summary.ok:
                assert summary.detected_classes

    def test_detection_survives_dict_round_trip(self):
        task = WorkerTask(
            shard=random_shard(), config=run_config(detect=True)
        )
        outcome = execute_shard(task)
        from repro.testing.explorer import RunSummary

        for summary in outcome.summaries:
            clone = RunSummary.from_dict(summary.to_dict())
            assert clone.detection == summary.detection
            assert clone.detected_classes == summary.detected_classes

    def test_no_detect_leaves_detection_none(self):
        outcome = execute_shard(
            WorkerTask(shard=random_shard(), config=run_config())
        )
        assert all(s.detection is None for s in outcome.summaries)

    def test_trace_none_without_detect_rejected(self):
        with pytest.raises(RunConfigError, match="observes nothing"):
            execute_shard(
                WorkerTask(
                    shard=random_shard(),
                    config=run_config(trace_mode="none"),
                )
            )

    def test_trace_none_with_coverage_rejected(self):
        with pytest.raises(RunConfigError, match="coverage"):
            execute_shard(
                WorkerTask(
                    shard=random_shard(),
                    config=run_config(
                        detect=True,
                        trace_mode="none",
                        coverage="repro.components:ProducerConsumer",
                    ),
                )
            )


def _inline_spec(**kwargs):
    defaults = dict(
        factory="pc-bug", mode="random", budget=30, workers=0, shard_size=10
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestDetectCampaign:
    def test_trace_none_matches_full_class_counts(self):
        full = run_campaign(_inline_spec(detect=True, trace_mode="full"))
        none = run_campaign(_inline_spec(detect=True, trace_mode="none"))
        assert full.class_counts
        assert none.class_counts == full.class_counts

    def test_first_deadlock_goal_stops_early(self):
        result = run_campaign(
            _inline_spec(
                factory="deadlock-pair",
                budget=200,
                goal="first-deadlock",
                detect=True,
                trace_mode="none",
            )
        )
        assert result.goal_reached == "first-deadlock"
        assert result.shards_completed < result.shards_total
        assert "FF-T4" in result.class_counts

    def test_describe_reports_classes(self):
        result = run_campaign(_inline_spec(detect=True))
        assert "failure classes:" in result.describe()

    def test_journal_resume_preserves_detection(self, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        spec = _inline_spec(detect=True, trace_mode="none", journal_path=journal)
        first = run_campaign(spec)
        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == first.shards_total
        assert resumed.class_counts == first.class_counts

    def test_progress_tracks_classes(self):
        progress = ProgressTracker(total_runs=30)
        result = run_campaign(_inline_spec(detect=True), progress=progress)
        assert progress.state is result.state
        assert progress.to_json_dict()["classes"] == dict(result.class_counts)
        assert "classes" in progress.render()

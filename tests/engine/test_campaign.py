"""Tests for the campaign orchestrator: specs, goals, pools, resume."""

import logging
import multiprocessing
import os

import pytest

from repro.engine import (
    CampaignError,
    CampaignSpec,
    JournalError,
    run_campaign,
)
from repro.engine.journal import CampaignJournal

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")


def crash_factory(scheduler):
    """A factory that kills its process outright — the crash-isolation
    workload.  Only ever invoked inside a sacrificial worker child."""
    os._exit(3)


def spin_factory(scheduler):
    """A run that never ends on its own: it ends by the per-run timeout."""
    from repro.vm import Kernel, Tick

    kernel = Kernel(scheduler=scheduler, max_steps=50_000_000)

    def spinner():
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(CampaignError, match="mode"):
            CampaignSpec(factory="pc-ok", mode="bogus").validate()

    def test_unknown_goal(self):
        with pytest.raises(CampaignError, match="goal"):
            CampaignSpec(factory="pc-ok", goal="bogus").validate()

    def test_coverage_goal_requires_component(self):
        with pytest.raises(CampaignError, match="coverage"):
            CampaignSpec(factory="pc-ok", goal="coverage").validate()

    def test_unknown_factory(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CampaignSpec(factory="no-such-workload").validate()

    def test_nonpositive_budget(self):
        with pytest.raises(CampaignError, match="budget"):
            CampaignSpec(factory="pc-ok", budget=0).validate()


class TestFingerprint:
    def test_stable(self):
        a = CampaignSpec(factory="pc-bug", budget=100)
        b = CampaignSpec(factory="pc-bug", budget=100)
        assert a.fingerprint() == b.fingerprint()

    def test_schedule_space_fields_matter(self):
        base = CampaignSpec(factory="pc-bug", budget=100)
        assert (
            base.fingerprint()
            != CampaignSpec(factory="pc-bug", budget=200).fingerprint()
        )
        assert (
            base.fingerprint()
            != CampaignSpec(factory="pc-ok", budget=100).fingerprint()
        )

    def test_execution_fields_do_not(self):
        """Resuming with a different worker count / timeout is legal."""
        base = CampaignSpec(factory="pc-bug", budget=100)
        tweaked = CampaignSpec(
            factory="pc-bug",
            budget=100,
            workers=8,
            run_timeout=99.0,
            max_retries=7,
            journal_path="/tmp/x.jsonl",
        )
        assert base.fingerprint() == tweaked.fingerprint()


class TestInlineCampaign:
    def test_budget_accounting(self):
        spec = CampaignSpec(factory="pc-bug", budget=40, workers=0, shard_size=10)
        result = run_campaign(spec)
        assert result.n_executed == 40
        assert result.shards_completed == result.shards_total == 4
        assert result.goal_reached == "budget"
        assert result.wall_time > 0

    def test_finds_seeded_bug_with_replay_artifacts(self):
        spec = CampaignSpec(factory="pc-bug", budget=60, workers=0)
        result = run_campaign(spec)
        assert result.failures()
        artifacts = result.replay_artifacts()
        assert artifacts
        for artifact in artifacts:
            assert artifact.seed is not None
            assert f"--seeds {artifact.seed}" in artifact.command()

    def test_replayed_seed_reproduces_failure(self):
        from repro.engine.workloads import pc_bug
        from repro.testing import explore_random

        spec = CampaignSpec(factory="pc-bug", budget=60, workers=0)
        result = run_campaign(spec)
        artifact = result.replay_artifacts()[0]
        rerun = explore_random(pc_bug, seeds=[artifact.seed])
        assert rerun.runs[0].signature == artifact.signature

    def test_first_failure_goal_stops_early(self):
        spec = CampaignSpec(
            factory="racing-locks",
            mode="systematic",
            budget=500,
            workers=0,
            shard_size=5,
            goal="first-failure",
        )
        result = run_campaign(spec)
        assert result.goal_reached == "first-failure"
        assert result.failures()
        assert result.n_executed < 500

    def test_systematic_exhausts_small_tree(self):
        spec = CampaignSpec(
            factory="racing-locks",
            mode="systematic",
            budget=10_000,
            workers=0,
            shard_size=100,
        )
        result = run_campaign(spec)
        assert result.exhausted
        # Sequential exhaustive DFS finds the same distinct schedules.
        from repro.engine.workloads import racing_locks
        from repro.testing import explore_systematic

        sequential = explore_systematic(racing_locks, max_runs=10_000)
        assert {s.decisions for s in result.summaries} == {
            r.decisions for r in sequential.runs
        }

    def test_coverage_tracking(self):
        spec = CampaignSpec(
            factory="pc-ok",
            budget=20,
            workers=0,
            coverage="repro.components:ProducerConsumer",
        )
        result = run_campaign(spec)
        assert result.coverage is not None
        assert 0.0 < result.coverage_fraction() <= 1.0
        assert "coverage" in result.describe()

    def test_describe_is_complete(self):
        spec = CampaignSpec(factory="pc-bug", budget=30, workers=0)
        text = run_campaign(spec).describe()
        assert "unique schedules" in text
        assert "95% CI" in text
        assert "replay:" in text


@needs_fork
class TestPooledCampaign:
    def test_pool_matches_inline_results(self):
        inline = run_campaign(
            CampaignSpec(factory="pc-bug", budget=50, workers=0, shard_size=10)
        )
        pooled = run_campaign(
            CampaignSpec(factory="pc-bug", budget=50, workers=2, shard_size=10)
        )
        assert pooled.n_executed == inline.n_executed == 50
        assert {s.schedule_key for s in pooled.summaries} == {
            s.schedule_key for s in inline.summaries
        }
        assert set(pooled.distinct_failure_signatures()) == set(
            inline.distinct_failure_signatures()
        )

    def test_crashing_worker_requeues_then_fails_shard(self):
        spec = CampaignSpec(
            factory=f"{__name__}:crash_factory",
            budget=5,
            workers=1,
            shard_size=5,
            max_retries=1,
        )
        result = run_campaign(spec)
        assert result.shards_failed == ["random-000000-000005"]
        assert result.shards_requeued == 1  # one retry, then give up
        assert result.n_executed == 0
        assert result.goal_reached is None  # budget goal unmet


class TestEngineLog:
    """What the engine did is logged at INFO on ``repro.engine.campaign``."""

    LOGGER = "repro.engine.campaign"

    @needs_fork
    def test_requeue_and_shard_failure_logged(self, caplog):
        spec = CampaignSpec(
            factory=f"{__name__}:crash_factory",
            budget=5,
            workers=1,
            shard_size=5,
            max_retries=1,
        )
        with caplog.at_level(logging.INFO, logger=self.LOGGER):
            run_campaign(spec)
        messages = [r.getMessage() for r in caplog.records if r.name == self.LOGGER]
        assert all(r.levelno == logging.INFO for r in caplog.records)
        assert messages == [
            "shard random-000000-000005 requeued after attempt 1 "
            "(backoff 0.5s): worker exited with code 3 without reporting",
            "shard random-000000-000005 failed after 2 attempt(s): "
            "worker exited with code 3 without reporting",
        ]

    def test_timed_out_run_and_resume_logged(self, caplog, tmp_path):
        spec = CampaignSpec(
            factory=f"{__name__}:spin_factory",
            budget=1,
            workers=0,
            shard_size=1,
            run_timeout=0.2,
            journal_path=str(tmp_path / "c.jsonl"),
        )
        with caplog.at_level(logging.INFO, logger=self.LOGGER):
            result = run_campaign(spec)
            run_campaign(spec, resume=True)
        assert result.statuses() == {"timeout": 1}
        messages = [r.getMessage() for r in caplog.records if r.name == self.LOGGER]
        timed_out = "run timed out: shard random-000000-000001, seed 0, index 0"
        assert messages == [
            timed_out,
            "resuming 1 shard(s), 1 run(s) from journal "
            f"{tmp_path / 'c.jsonl'}",
            timed_out,
        ]

    def test_silent_without_logging_configured(self, capfd):
        run_campaign(CampaignSpec(factory="pc-bug", budget=10, workers=0))
        assert capfd.readouterr().err == ""


class TestJournalAndResume:
    def test_resume_without_journal_rejected(self):
        with pytest.raises(CampaignError, match="journal"):
            run_campaign(
                CampaignSpec(factory="pc-ok", budget=5, workers=0), resume=True
            )

    def test_resume_wrong_spec_rejected(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        run_campaign(
            CampaignSpec(
                factory="pc-ok", budget=10, workers=0, journal_path=journal
            )
        )
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(
                CampaignSpec(
                    factory="pc-ok", budget=20, workers=0, journal_path=journal
                ),
                resume=True,
            )

    def test_full_resume_executes_nothing(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="pc-bug", budget=40, workers=0, shard_size=10,
            journal_path=journal,
        )
        first = run_campaign(spec)

        def boom(*args, **kwargs):
            raise AssertionError("resume must not re-execute journaled shards")

        monkeypatch.setattr("repro.engine.campaign.execute_shard", boom)
        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == resumed.shards_total == 4
        assert resumed.n_executed == first.n_executed
        assert {s.schedule_key for s in resumed.summaries} == {
            s.schedule_key for s in first.summaries
        }

    def test_partial_resume_completes_remainder(self, tmp_path):
        journal_path = tmp_path / "c.jsonl"
        spec = CampaignSpec(
            factory="pc-bug", budget=40, workers=0, shard_size=10,
            journal_path=str(journal_path),
        )
        first = run_campaign(spec)

        # Simulate a kill after the first journaled shard: drop the rest.
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:2]) + "\n")
        assert len(CampaignJournal(journal_path).load().shards) == 1

        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == 1
        assert resumed.shards_completed == resumed.shards_total == 4
        assert {s.schedule_key for s in resumed.summaries} == {
            s.schedule_key for s in first.summaries
        }
        # The journal is whole again for the *next* resume.
        assert len(CampaignJournal(journal_path).load().shards) == 4

class TestCampaignMetrics:
    def test_metrics_out_implies_metrics(self):
        spec = CampaignSpec(factory="pc-ok", metrics_out="/tmp/m.jsonl")
        spec.validate()
        assert spec.metrics is True

    def test_metrics_prom_implies_metrics(self):
        spec = CampaignSpec(factory="pc-ok", metrics_prom="/tmp/m.prom")
        spec.validate()
        assert spec.metrics is True

    def test_fingerprint_includes_metrics(self):
        base = CampaignSpec(factory="pc-bug", budget=100)
        metered = CampaignSpec(factory="pc-bug", budget=100, metrics=True)
        assert base.fingerprint() != metered.fingerprint()

    def test_inline_campaign_collects_metrics(self):
        spec = CampaignSpec(factory="pc-bug", budget=30, workers=0, metrics=True)
        result = run_campaign(spec)
        assert result.metrics is not None
        assert result.metrics.counter("vm_events_total").total > 0
        built = result.build_metrics()
        statuses = {
            dict(labels)["status"]: value
            for labels, value in built.counter("campaign_runs_total").series().items()
        }
        assert sum(statuses.values()) == result.n_runs

    def test_metrics_off_leaves_result_bare(self):
        result = run_campaign(CampaignSpec(factory="pc-ok", budget=5, workers=0))
        assert result.metrics is None
        # build_metrics still works: campaign counters only
        assert result.build_metrics().counter("campaign_runs_total").total == 5

    @needs_fork
    def test_pooled_merge_matches_inline(self):
        """Per-run snapshots merged across >=2 worker processes agree with
        the single-process merge on every deterministic series."""
        inline = run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=40, workers=0, shard_size=10,
                metrics=True,
            )
        )
        pooled = run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=40, workers=2, shard_size=10,
                metrics=True,
            )
        )
        for name in (
            "vm_events_total",
            "vm_steps_total",
            "vm_monitor_acquisitions_total",
            "vm_monitor_hold_ticks_total",
            "vm_monitor_contended_ticks_total",
        ):
            assert (
                pooled.metrics.counter(name).series()
                == inline.metrics.counter(name).series()
            ), name

    def test_metrics_out_round_trips(self, tmp_path):
        from repro.obs.export import load_metrics_jsonl

        out = tmp_path / "metrics.jsonl"
        spec = CampaignSpec(
            factory="pc-bug", budget=20, workers=0, metrics=True,
            metrics_out=str(out),
        )
        result = run_campaign(spec)
        loaded, header = load_metrics_jsonl(out)
        assert loaded.to_dict() == result.build_metrics().to_dict()
        assert header["factory"] == "pc-bug"
        assert header["runs"] == result.n_runs
        assert header["campaign"] == spec.fingerprint()[:12]

    def test_metrics_prom_written(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=10, workers=0, metrics=True,
                metrics_prom=str(prom),
            )
        )
        text = prom.read_text()
        assert "# TYPE vm_events_total counter" in text
        assert "# TYPE campaign_runs_total counter" in text

    def test_journal_resume_reproduces_merged_metrics(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="pc-bug", budget=30, workers=0, shard_size=10,
            metrics=True, journal_path=journal,
        )
        first = run_campaign(spec)
        resumed = run_campaign(spec, resume=True)
        assert resumed.shards_resumed == resumed.shards_total
        assert resumed.metrics.to_dict() == first.metrics.to_dict()

    def test_resume_with_flipped_metrics_rejected(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        run_campaign(
            CampaignSpec(
                factory="pc-ok", budget=10, workers=0, journal_path=journal
            )
        )
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(
                CampaignSpec(
                    factory="pc-ok", budget=10, workers=0, metrics=True,
                    journal_path=journal,
                ),
                resume=True,
            )


class TestJournalAndResumeSystematic:
    def test_systematic_resume_skips_planner_merge(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        spec = CampaignSpec(
            factory="racing-locks", mode="systematic", budget=200,
            workers=0, shard_size=20, journal_path=journal,
        )
        first = run_campaign(spec)
        resumed = run_campaign(spec, resume=True)
        assert resumed.duplicates == 0  # planner runs not double-merged
        assert resumed.n_runs == first.n_runs


class TestGoalTracking:
    """``goal_reached()`` runs after every merged run in pool mode; it
    must read what merge() folded in, not rescan every kept summary."""

    N = 2000

    def _aggregator(self, goal):
        from repro.engine.campaign import _Aggregator
        from repro.engine.progress import ProgressTracker
        from repro.obs.live import LiveAggregator

        spec = CampaignSpec(factory="pc-ok", budget=self.N, workers=0, goal=goal)
        return _Aggregator(
            spec, ProgressTracker(total_runs=spec.budget), LiveAggregator()
        )

    @staticmethod
    def _summary(index, status="completed", detection=None):
        from repro.testing.explorer import RunSummary

        return RunSummary(
            index=index,
            status=status,
            decisions=(index,),
            seed=index,
            detection=detection,
        )

    def test_goal_check_does_not_rescan(self, monkeypatch):
        from repro.testing.explorer import RunSummary

        reads = []
        ok = RunSummary.ok
        monkeypatch.setattr(
            RunSummary, "ok", property(lambda s: reads.append(s) or ok.fget(s))
        )
        aggregator = self._aggregator("first-failure")
        for i in range(self.N):
            aggregator.merge(self._summary(i))
            assert aggregator.goal_reached() is None
        # a rescan per merge would read ok ~N²/2 times; merge-time
        # folding reads each summary a constant number of times
        assert len(reads) <= 3 * self.N
        aggregator.merge(self._summary(self.N, status="stuck"))
        assert aggregator.goal_reached() == "first-failure"

    def test_deadlock_goal_from_status_or_detection(self):
        aggregator = self._aggregator("first-deadlock")
        aggregator.merge(self._summary(0, status="stuck"))
        assert aggregator.goal_reached() is None
        aggregator.merge(self._summary(1, detection={"deadlock_cycle": ["a", "b"]}))
        assert aggregator.goal_reached() == "first-deadlock"
        aggregator = self._aggregator("first-deadlock")
        aggregator.merge(self._summary(0, status="deadlock"))
        assert aggregator.goal_reached() == "first-deadlock"

    def test_duplicates_do_not_set_goals(self):
        aggregator = self._aggregator("first-failure")
        aggregator.merge(self._summary(0))
        # same decisions as run 0 (a duplicate schedule) but failing:
        # dropped by dedupe, so it cannot reach the goal either
        dup = self._summary(0, status="stuck")
        aggregator.merge(dup)
        assert aggregator.result.duplicates == 1
        assert aggregator.goal_reached() is None

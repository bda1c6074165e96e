"""Live telemetry parity: the LiveAggregator's final state must equal the
campaign's own merged result byte-for-byte — same runs, same class
counts, same metrics — including across worker pools and --resume."""

import json
import multiprocessing

import pytest

from repro.engine import CampaignSpec, run_campaign
from repro.obs.live import LiveAggregator

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")


def spec(**kwargs):
    defaults = dict(
        factory="pc-bug",
        mode="random",
        budget=40,
        shard_size=10,
        workers=0,
        detect=True,
        metrics=True,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def metrics_json(registry):
    return json.dumps(registry.snapshot().to_dict(), sort_keys=True)


def assert_parity(live, result):
    assert live.runs == result.n_runs
    assert live.executed == result.n_runs + result.duplicates
    assert live.duplicates == result.duplicates
    assert dict(live.class_counts) == dict(result.class_counts)
    assert live.failures == len(result.failures())
    # The acceptance bar: merged metrics byte-for-byte equal.
    assert metrics_json(live.metrics) == metrics_json(result.metrics)


class TestInlineParity:
    def test_final_state_matches_result(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert result.n_runs > 0
        assert result.class_counts  # pc-bug under detect finds classes
        assert_parity(telemetry, result)

    def test_info_seeded_and_closed(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert telemetry.info["factory"] == "pc-bug"
        assert telemetry.info["fingerprint"] == spec().fingerprint()
        assert telemetry.total_runs == 40
        assert telemetry.state == "done"
        assert telemetry.goal == result.goal_reached == "budget"

    def test_shard_accounting_matches(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert telemetry.shards_total == result.shards_total
        assert telemetry.shards_done == result.shards_completed
        states = {row.state for row in telemetry.shards.values()}
        assert states == {"done"}

    def test_systematic_plan_row_reads_done(self):
        # The planner's pseudo-shard "plan" merges runs but is not one of
        # the planned shards: its row must leave "running" without moving
        # the shard counts.
        telemetry = LiveAggregator()
        result = run_campaign(
            CampaignSpec(
                factory="pc-bug",
                mode="systematic",
                budget=40,
                shard_size=10,
                workers=0,
            ),
            telemetry=telemetry,
        )
        status = telemetry.status()
        rows = {row["shard"]: row["state"] for row in status["shard_table"]}
        assert rows["plan"] == "done"
        assert set(rows.values()) == {"done"}
        assert status["shards"]["done"] == status["shards"]["total"]
        assert result.shards_completed == result.shards_total == len(rows) - 1

    def test_registry_matches_build_metrics(self):
        """/metrics after close == the post-campaign --metrics-prom file."""
        from repro.obs.export import to_prometheus

        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        live_text = to_prometheus(telemetry.registry())
        final_text = to_prometheus(result.build_metrics())
        # The live registry adds throughput (wall-clock dependent); strip
        # that one family, then demand identical text.
        def strip_rate(text):
            return "\n".join(
                line
                for line in text.splitlines()
                if "campaign_runs_per_second" not in line
            )

        assert strip_rate(live_text) == strip_rate(final_text)


@needs_fork
class TestPoolParity:
    def test_two_worker_campaign(self):
        telemetry = LiveAggregator()
        result = run_campaign(spec(workers=2), telemetry=telemetry)
        assert result.shards_completed == result.shards_total
        assert_parity(telemetry, result)
        # Frames carried shard-local counters: every shard row saw runs.
        assert all(row.runs > 0 for row in telemetry.shards.values())


class TestResumeParity:
    def test_resumed_campaign_matches_fresh_merge(self, tmp_path):
        journal = tmp_path / "camp.jsonl"
        first = run_campaign(spec(journal_path=str(journal)))

        telemetry = LiveAggregator()
        resumed = run_campaign(
            spec(journal_path=str(journal)), resume=True, telemetry=telemetry
        )
        assert resumed.shards_resumed == first.shards_total
        assert telemetry.shards_resumed == first.shards_total
        assert_parity(telemetry, resumed)
        # And the resumed merge equals the original run's merge.
        assert telemetry.runs == first.n_runs
        assert dict(telemetry.class_counts) == dict(first.class_counts)
        assert metrics_json(telemetry.metrics) == metrics_json(first.metrics)


#: per-run series measured in wall-clock time: equal runs differ there
WALL_CLOCK_SERIES = ("run_wall_seconds", "vm_events_per_second")


def fold(state):
    """Everything the campaign state folds from its runs, in a form
    independent of merge order (a pool merges in arrival order, a
    resume in shard order)."""
    metrics = [
        dict(metric, series=sorted(metric["series"], key=json.dumps))
        for metric in state.metrics.snapshot().to_dict()["metrics"]
        if metric["name"] not in WALL_CLOCK_SERIES
    ]
    return {
        "runs": state.runs,
        "executed": state.executed,
        "duplicates": state.duplicates,
        "failures": state.failures,
        "statuses": dict(state.statuses),
        "class_counts": dict(state.class_counts),
        "signatures": sorted(state.signatures),
        "shards_total": state.shards_total,
        "shards_done": state.shards_done,
        "metrics": json.dumps(sorted(metrics, key=lambda m: m["name"])),
    }


@needs_fork
class TestIndependentParity:
    """The live state of a pooled campaign against a state rebuilt from
    nothing but its journal: the two share no fold."""

    def test_pool_state_equals_resume_over_complete_journal(self, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        fresh = LiveAggregator()
        run_campaign(spec(workers=2, journal_path=journal), telemetry=fresh)
        rebuilt = LiveAggregator()
        resumed = run_campaign(
            spec(workers=2, journal_path=journal), resume=True, telemetry=rebuilt
        )
        assert resumed.shards_resumed == resumed.shards_total
        assert fresh.runs > 0 and fresh.class_counts
        assert fold(rebuilt) == fold(fresh)


class TestOneFold:
    def test_each_unique_run_merges_its_metrics_once(self, monkeypatch):
        """A served campaign decodes and merges every run's metrics
        snapshot once, however many views read the result."""
        from repro.obs.metrics import MetricsRegistry

        calls = []
        merge_snapshot = MetricsRegistry.merge_snapshot

        def counting(self, snapshot):
            calls.append(1)
            return merge_snapshot(self, snapshot)

        monkeypatch.setattr(MetricsRegistry, "merge_snapshot", counting)
        telemetry = LiveAggregator()
        result = run_campaign(spec(), telemetry=telemetry)
        assert result.n_runs > 0
        assert len(calls) == result.n_runs

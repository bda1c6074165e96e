"""Fault plans and spurious rates threaded through the run-assembly and
campaign layers: RunConfig coercion, scenario ``[faults]`` tables,
executor determinism, fingerprints, journal resume, and the requeue
backoff bookkeeping."""

import io

import pytest

from repro.engine import CampaignSpec, ProgressTracker, run_campaign
from repro.engine.campaign import CampaignError
from repro.faults import FaultPlan, FaultRule
from repro.run import RunConfig, RunConfigError, load_scenario
from repro.run.executor import RunExecutor
from repro.vm import dumps_trace

PLAN = FaultPlan(
    name="test-plan",
    rules=(FaultRule(action="spurious", thread="c0", at_wait=1),),
)


class TestRunConfigCoercion:
    def test_plan_object_passes_through(self):
        config = RunConfig(workload="pc-ok", faults=PLAN)
        assert config.faults is PLAN

    def test_registered_name_resolves(self):
        config = RunConfig(workload="pc-ok", faults="interrupt-consumer")
        assert isinstance(config.faults, FaultPlan)
        assert config.faults.name == "interrupt-consumer"

    def test_unknown_name_lists_known_plans(self):
        with pytest.raises(RunConfigError, match="interrupt-consumer"):
            RunConfig(workload="pc-ok", faults="interrupt-consumr")

    def test_table_coerces(self):
        config = RunConfig(
            workload="pc-ok",
            faults={
                "name": "inline",
                "rules": [{"action": "interrupt", "thread": "c0", "at_wait": 1}],
            },
        )
        assert config.faults == FaultPlan(
            name="inline",
            rules=(FaultRule(action="interrupt", thread="c0", at_wait=1),),
        )

    def test_malformed_table_rejected(self):
        with pytest.raises(RunConfigError, match="bad \\[faults\\] table"):
            RunConfig(workload="pc-ok", faults={"rules": [{"action": "meteor"}]})

    def test_wrong_type_rejected(self):
        with pytest.raises(RunConfigError, match="FaultPlan, plan name, or table"):
            RunConfig(workload="pc-ok", faults=42)

    def test_spurious_rate_range_validated(self):
        RunConfig(workload="pc-ok", spurious_rate=0.5).validate()
        with pytest.raises(RunConfigError, match="spurious_rate"):
            RunConfig(workload="pc-ok", spurious_rate=1.5).validate()
        with pytest.raises(RunConfigError, match="spurious_rate"):
            RunConfig(workload="pc-ok", spurious_rate=-0.1).validate()

    def test_dict_round_trip_preserves_plan(self):
        config = RunConfig(workload="pc-ok", spurious_rate=0.2, faults=PLAN)
        again = RunConfig.from_dict(config.to_dict())
        assert again.faults == PLAN
        assert again.spurious_rate == 0.2

    def test_toml_round_trip_preserves_plan(self, tmp_path):
        config = RunConfig(workload="pc-ok", faults=PLAN)
        path = tmp_path / "scenario.toml"
        path.write_text(config.to_toml())
        assert RunConfig.load(path).faults == PLAN


class TestScenarioFaultsTable:
    SCENARIO = """
[run]
workload = "pc"
component = "ProducerConsumer"
scheduler = "random"

[faults]
name = "from-table"

[[faults.rules]]
action = "spurious"
thread = "c0"
at_wait = 1

[[faults.rules]]
action = "interrupt"
thread = "c1"
at_step = 20
"""

    def test_faults_table_parsed(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(self.SCENARIO)
        scenario = load_scenario(path)
        plan = scenario.run.faults
        assert plan is not None and plan.name == "from-table"
        assert [r.action for r in plan.rules] == ["spurious", "interrupt"]

    def test_faults_in_both_places_rejected(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            '[run]\nworkload = "pc-ok"\nfaults = "interrupt-consumer"\n'
            '\n[faults]\nname = "also"\n'
        )
        with pytest.raises(RunConfigError, match="pick one"):
            load_scenario(path)

    def test_malformed_faults_table_rejected(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            '[run]\nworkload = "pc-ok"\n\n[faults]\nname = "bad"\nwhen = 3\n'
        )
        with pytest.raises(RunConfigError, match="malformed"):
            load_scenario(path)


def _trace_of(config, seed):
    executor = RunExecutor(config)
    from repro.vm.scheduler import RandomScheduler

    result = executor.execute(RandomScheduler(seed))
    return dumps_trace(result.trace, result.schedule_log)


class TestExecutorDeterminism:
    def test_same_seed_same_plan_byte_identical(self):
        config = RunConfig(
            workload="pc", component="ProducerConsumer", faults=PLAN
        )
        assert _trace_of(config, 5) == _trace_of(config, 5)

    def test_spurious_rate_deterministic_per_seed(self):
        config = RunConfig(
            workload="pc", component="ProducerConsumer", spurious_rate=0.3
        )
        assert _trace_of(config, 5) == _trace_of(config, 5)

    def test_plan_changes_the_trace(self):
        base = RunConfig(workload="pc", component="ProducerConsumer")
        # monitor-targeted rule: fires at the first wait by anyone, so it
        # perturbs the run regardless of which consumer waits first
        faulted = RunConfig(
            workload="pc",
            component="ProducerConsumer",
            faults=FaultPlan(
                name="poke-any",
                rules=(
                    FaultRule(
                        action="spurious", monitor="ProducerConsumer", at_step=0
                    ),
                ),
            ),
        )
        assert _trace_of(base, 5) != _trace_of(faulted, 5)


class TestCampaignFingerprint:
    def _spec(self, **kwargs):
        return CampaignSpec(factory="pc-ok", budget=10, workers=0, **kwargs)

    def test_fault_axes_change_the_fingerprint(self):
        base = self._spec()
        assert self._spec(faults=PLAN).fingerprint() != base.fingerprint()
        assert self._spec(spurious_rate=0.1).fingerprint() != base.fingerprint()
        assert (
            self._spec(spurious_rate=0.1).fingerprint()
            != self._spec(spurious_rate=0.2).fingerprint()
        )

    def test_unset_axes_leave_fingerprint_stable(self):
        # backcompat: a spec without fault axes fingerprints identically
        # to one that sets them to their defaults (pre-fault journals
        # stay resumable)
        assert (
            self._spec(spurious_rate=0.0, faults=None).fingerprint()
            == self._spec().fingerprint()
        )

    def test_spec_coerces_plan_names(self):
        spec = self._spec(faults="interrupt-consumer")
        assert isinstance(spec.faults, FaultPlan)
        with pytest.raises(CampaignError, match="unknown fault plan"):
            self._spec(faults="no-such-plan")

    def test_run_config_round_trip(self):
        spec = self._spec(spurious_rate=0.25, faults=PLAN)
        config = spec.run_config()
        assert config.spurious_rate == 0.25
        assert config.faults == PLAN
        again = CampaignSpec.from_run_config(
            config, budget=10, workers=0
        )
        assert again.spurious_rate == 0.25
        assert again.faults == PLAN


class TestFaultedCampaignResume:
    def _spec(self, journal):
        return CampaignSpec(
            factory="pc",
            component="SpuriousUnguardedProducerConsumer",
            budget=20,
            workers=0,
            shard_size=10,
            detect=True,
            faults=FaultPlan(
                name="poke",
                rules=(FaultRule(action="spurious", thread="c0", at_wait=1),),
            ),
            journal_path=str(journal),
        )

    def test_fresh_and_resumed_journals_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first = run_campaign(self._spec(a))
        run_campaign(self._spec(b))
        assert a.read_bytes() == b.read_bytes()

        # a resume over a complete journal replays from disk: no new
        # shards, identical merged results, journal untouched
        resumed = run_campaign(self._spec(a), resume=True)
        assert a.read_bytes() == b.read_bytes()
        assert resumed.shards_resumed == first.shards_total
        assert {s.schedule_key for s in resumed.summaries} == {
            s.schedule_key for s in first.summaries
        }
        assert resumed.class_counts == first.class_counts

    def test_faulted_campaign_detects_environment_class(self, tmp_path):
        result = run_campaign(self._spec(tmp_path / "c.jsonl"))
        assert result.class_counts.get("EV-SPU", 0) > 0


class TestRequeueBookkeeping:
    def test_progress_tracks_per_shard_attempts(self):
        progress = ProgressTracker(stream=io.StringIO(), interval=0.0)
        progress.state.set_shards_total(3)
        progress.state.note_shard_requeued("s1")
        progress.state.note_shard_requeued("s1")
        progress.state.note_shard_requeued("s2")
        line = progress.render()
        assert "shards 0/3 (3 requeued)" in line
        assert "attempts s1x3,s2x2" in line

    def test_requeue_hook_records_nothing(self):
        # The state records requeues; the tracker's hook only observes.
        progress = ProgressTracker()
        progress.note_shard_requeued()
        progress.note_shard_requeued("s1")
        assert progress.state.shards_requeued == 0
        assert progress.attempts() == {}

    def test_backoff_grows_and_caps(self):
        from repro.engine.campaign import (
            _REQUEUE_BACKOFF_BASE,
            _REQUEUE_BACKOFF_CAP,
        )

        delays = [
            min(_REQUEUE_BACKOFF_CAP, _REQUEUE_BACKOFF_BASE * 2 ** (a - 1))
            for a in range(1, 10)
        ]
        assert delays == sorted(delays)
        assert delays[0] == _REQUEUE_BACKOFF_BASE
        assert delays[-1] == _REQUEUE_BACKOFF_CAP


class TestSystematicFaultedCampaign:
    def test_planner_runs_the_faulted_program(self):
        # The systematic planner must expand DFS prefixes over the same
        # program the shards run.  Planned over the bare workload (no
        # fault plan), its prefixes did not fit the faulted program's
        # choices: ChoiceExhaustedError at step 27.
        plan = FaultPlan(
            name="interrupt-u0",
            rules=(FaultRule(action="interrupt", thread="u0", at_wait=1),),
        )
        spec = CampaignSpec(
            factory="sem",
            component="Semaphore",
            mode="systematic",
            budget=2000,
            shard_size=100,
            workers=0,
            faults=plan,
        )
        result = run_campaign(spec)
        assert result.n_executed == 2000
        assert not result.shards_failed

"""The worker pool's contract: persistent workers, fed over their pipes.

Every assertion is a count or a state, never a timing: how many worker
processes a campaign forks, how many executors they build, which shard
is requeued when a worker dies, raises or hangs, and that no worker
outlives ``run_campaign``.
"""

import logging
import multiprocessing
import os
import time

import pytest

from repro.engine import CampaignSpec, run_campaign
from repro.engine import campaign
from repro.engine.journal import CampaignJournal
from repro.engine.workloads import pc_ok
from repro.run.executor import RunExecutor, _scheduler_seed

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires fork start method",
)

#: the seed whose first run misbehaves as ``$REPRO_TEST_FLAKY`` says
FLAKY_SEED = 13


def flaky_factory(scheduler):
    """``pc-ok``, except that the first run of :data:`FLAKY_SEED` exits,
    raises or hangs (``$REPRO_TEST_FLAKY`` is ``mode:marker-path``; the
    marker file makes the misbehaviour happen once per test)."""
    mode, marker = os.environ["REPRO_TEST_FLAKY"].split(":", 1)
    if _scheduler_seed(scheduler) == FLAKY_SEED and not os.path.exists(marker):
        open(marker, "w").close()
        if mode == "exit":
            os._exit(3)
        if mode == "raise":
            raise RuntimeError("flaky factory")
        if mode == "hang":
            time.sleep(60)
    return pc_ok(scheduler)


class CountingContext:
    """The pool's multiprocessing context, recording every process it
    starts and the most that were alive at once."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.started = []
        self.peak = 0

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def Process(self, *args, **kwargs):
        process = self.ctx.Process(*args, **kwargs)
        start = process.start

        def counted_start():
            start()
            self.started.append(process)
            self.peak = max(self.peak, sum(p.is_alive() for p in self.started))

        process.start = counted_start
        return process

    def alive(self):
        return [p for p in self.started if p.is_alive()]


@pytest.fixture
def pool(monkeypatch):
    ctx = CountingContext(campaign._mp_context())
    monkeypatch.setattr(campaign, "_mp_context", lambda: ctx)
    return ctx


@pytest.fixture
def flaky(monkeypatch, tmp_path):
    """Arm :func:`flaky_factory`; returns a spec builder over it."""

    def arm(mode, **kwargs):
        monkeypatch.setenv("REPRO_TEST_FLAKY", f"{mode}:{tmp_path / 'marker'}")
        fields = dict(
            factory=f"{__name__}:flaky_factory",
            budget=200,
            shard_size=10,
            workers=2,
            max_retries=2,
        )
        fields.update(kwargs)
        return CampaignSpec(**fields)

    return arm


def attempts(result):
    return {
        shard: row.attempts
        for shard, row in result.state.shards.items()
        if row.attempts > 1
    }


class TestPersistentWorkers:
    def test_one_fork_and_one_executor_per_worker(self, pool, monkeypatch, tmp_path):
        # The benchmark's campaign-pool shape: 24 shards of 25 runs over
        # two workers.
        built = tmp_path / "executors"

        class RecordingExecutor(RunExecutor):
            def __init__(self, config):
                with open(built, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                super().__init__(config)

        monkeypatch.setattr("repro.engine.worker.RunExecutor", RecordingExecutor)
        result = run_campaign(
            CampaignSpec(factory="pc-bug", budget=600, shard_size=25, workers=2)
        )
        assert result.shards_total == 24
        assert result.shards_completed == 24
        assert result.n_executed == 600
        assert len(pool.started) == 2
        pids = built.read_text().split()
        assert sorted(pids) == sorted(str(p.pid) for p in pool.started)
        # and neither outlives the campaign
        assert pool.alive() == []
        assert multiprocessing.active_children() == []

    def test_never_more_workers_than_shards(self, pool):
        result = run_campaign(
            CampaignSpec(factory="pc-ok", budget=10, shard_size=10, workers=4)
        )
        assert result.n_executed == 10
        assert len(pool.started) == 1


class TestCrashIsolation:
    def test_dead_worker_requeues_only_its_shard(self, pool, flaky):
        result = run_campaign(flaky("exit"))
        assert attempts(result) == {"random-000010-000020": 2}
        assert result.shards_requeued == 1
        assert not result.shards_failed
        assert result.n_runs == 200
        # the pool refilled to its width with one replacement, and never
        # ran more than two workers at once
        assert len(pool.started) == 3
        assert pool.peak == 2

    def test_raising_worker_is_replaced(self, pool, flaky, caplog):
        with caplog.at_level(logging.INFO, logger="repro.engine.campaign"):
            result = run_campaign(flaky("raise"))
        assert attempts(result) == {"random-000010-000020": 2}
        assert result.n_runs == 200
        assert len(pool.started) == 3
        assert pool.peak == 2
        assert [r.getMessage() for r in caplog.records] == [
            "shard random-000010-000020 requeued after attempt 1 "
            "(backoff 0.5s): RuntimeError: flaky factory"
        ]

    def test_shard_past_deadline_is_terminated_and_requeued(
        self, pool, flaky, monkeypatch, caplog
    ):
        monkeypatch.setattr(campaign, "_SHARD_DEADLINE_SLACK", 0.5)
        with caplog.at_level(logging.INFO, logger="repro.engine.campaign"):
            result = run_campaign(flaky("hang", budget=20, run_timeout=0.1))
        assert attempts(result) == {"random-000010-000020": 2}
        assert result.n_runs == 20
        # the hung worker was terminated (its sleep outlasts the test);
        # the other worker finished the first shard long before and takes
        # the requeued one, as no other shard is left to fork for
        assert len(pool.started) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "shard random-000010-000020 requeued after attempt 1 "
            "(backoff 0.5s): shard deadline exceeded"
        ]


class TestNoWorkerOutlivesTheCampaign:
    """A normal end is checked in TestPersistentWorkers."""

    def test_goal_stop(self, pool):
        result = run_campaign(
            CampaignSpec(
                factory="pc-bug", budget=2000, workers=2, goal="first-failure"
            )
        )
        assert result.goal_reached == "first-failure"
        assert pool.alive() == []
        assert multiprocessing.active_children() == []

    def test_raised_error(self, pool, monkeypatch, tmp_path):
        # A journal that cannot be written stops the campaign with that
        # error; it is not taken for a worker crash and requeued.
        def full_disk(self, shard_id, summaries, exhausted=False):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(CampaignJournal, "append_shard", full_disk)
        spec = CampaignSpec(
            factory="pc-bug",
            budget=2000,
            workers=2,
            journal_path=str(tmp_path / "c.jsonl"),
        )
        with pytest.raises(OSError, match="No space left"):
            run_campaign(spec)
        assert len(pool.started) == 2
        assert pool.alive() == []
        assert multiprocessing.active_children() == []

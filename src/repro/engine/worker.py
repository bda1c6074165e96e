"""Campaign worker: a long-lived process that executes shard after shard.

A pooled campaign forks each worker **once**.  The worker receives the
campaign's picklable :class:`~repro.run.config.RunConfig` at fork time,
builds **one** :class:`~repro.run.executor.RunExecutor` from it when its
first shard arrives, and reuses that executor for every later shard (the
detector pipeline, instrumentation sink and fault injector are reset
between runs, never rebuilt).  Shards arrive over the worker's own
duplex pipe; for each run the worker sends back one
:class:`~repro.obs.live.frames.TelemetryFrame` (wrapping the run's
:class:`~repro.testing.explorer.RunSummary` plus shard-local counters)
and, when the shard ends, a ``done`` or ``fail`` message.  The
orchestrator treats a worker that exits without either as crashed and
requeues its shard.

``workers=0`` campaigns call :func:`execute_shard` inline instead.
Per-run wall-clock timeouts use ``SIGALRM`` where available (a worker
runs shards in its main thread, so the signal contract holds); see
:func:`repro.run.executor.timed_runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.live.frames import TelemetryFrame
from repro.run.config import RunConfig
from repro.run.executor import (  # noqa: F401 - re-exported for backcompat
    RunExecutor,
    timed_runner as _timed_runner,
)
from repro.testing.explorer import ExplorationRun, RunSummary
from repro.vm.kernel import RunStatus

from .shards import Shard

__all__ = ["WorkerTask", "ShardOutcome", "execute_shard", "worker_main"]


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker needs to execute one shard, all picklable:
    the shard itself plus the :class:`RunConfig` describing how every
    run in it is assembled."""

    shard: Shard
    config: RunConfig
    stop_on_failure: bool = False


@dataclass
class ShardOutcome:
    """An inline-executed shard's aggregated result."""

    shard_id: str
    summaries: List[RunSummary] = field(default_factory=list)
    exhausted: bool = False


def execute_shard(
    task: WorkerTask,
    emit: Optional[Callable[[RunSummary], None]] = None,
    executor: Optional[RunExecutor] = None,
) -> ShardOutcome:
    """Run one shard to completion in this process.

    ``emit`` is called with each run's summary as it completes (the
    streaming hook: the pooled worker sends a frame down its pipe,
    inline mode feeds the orchestrator's aggregator directly).
    ``executor`` is reused when given (a pooled worker's one executor);
    otherwise one is built from ``task.config`` for this shard.
    """
    if executor is None:
        executor = RunExecutor(task.config)
    outcome = ShardOutcome(shard_id=task.shard.shard_id)

    def on_run(run: ExplorationRun) -> None:
        summary = executor.summarize(run)
        outcome.summaries.append(summary)
        if emit is not None:
            emit(summary)

    shard = task.shard
    if shard.mode == "systematic":
        result = executor.explore(
            "systematic",
            roots=[list(p) for p in shard.prefixes],
            max_runs=shard.max_runs,
            stop_on_failure=task.stop_on_failure,
            on_run=on_run,
            keep_runs=False,
        )
        outcome.exhausted = result.exhausted
    elif shard.mode in ("random", "pct"):
        executor.explore(
            shard.mode,
            seeds=shard.seeds,
            stop_on_failure=task.stop_on_failure,
            on_run=on_run,
            keep_runs=False,
        )
    else:
        raise ValueError(f"unknown shard mode {shard.mode!r}")
    return outcome


def worker_main(
    conn,
    config: RunConfig,
    stop_on_failure: bool = False,
    inherited: Sequence[Any] = (),
) -> None:
    """Child-process entry point: execute every shard received on ``conn``.

    The worker loops on ``conn.recv()`` for :class:`Shard` objects and
    returns when the pipe reaches end-of-file.  Message protocol back
    (all tuples, all picklable):

    * ``("frame", shard_id, frame_dict)`` — one
      :class:`~repro.obs.live.frames.TelemetryFrame` per completed run,
      carrying the run's summary plus shard-local counters (runs so far,
      timeouts) for live telemetry;
    * ``("done", shard_id, exhausted)`` — the shard finished; the worker
      waits for its next shard;
    * ``("fail", shard_id, error_text)`` — the shard raised; the worker
      returns, and the orchestrator replaces it and decides whether to
      requeue the shard.

    A worker that dies without posting ``done``/``fail`` (hard crash,
    ``kill -9``, segfault in an extension) is detected by the orchestrator
    through its process sentinel: that is the crash-isolation contract.

    ``inherited`` are orchestrator-side pipe ends this process got by
    fork; they are closed first, so the pipe reads end-of-file, and the
    worker exits, once the orchestrator is gone.
    """
    for end in inherited:
        end.close()
    executor: Optional[RunExecutor] = None
    while True:
        try:
            shard = conn.recv()
        except (EOFError, OSError):
            return
        shard_id = shard.shard_id
        runs = 0
        timeouts = 0

        def emit(summary: RunSummary) -> None:
            nonlocal runs, timeouts
            runs += 1
            if summary.status == RunStatus.TIMEOUT.value:
                timeouts += 1
            frame = TelemetryFrame.for_run(
                shard_id, summary, runs=runs, timeouts=timeouts
            )
            conn.send(("frame", shard_id, frame.to_dict()))

        try:
            if executor is None:
                executor = RunExecutor(config)
            task = WorkerTask(shard, config, stop_on_failure)
            outcome = execute_shard(task, emit=emit, executor=executor)
            conn.send(("done", shard_id, outcome.exhausted))
        except BaseException as exc:  # noqa: BLE001 - report, then exit
            try:
                conn.send(("fail", shard_id, f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
            return

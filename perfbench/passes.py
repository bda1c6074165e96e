"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass so that every pass pays the
whole set-up a user pays (interpreter start, imports, ``load_builtins``,
validation, planning, fork) and so that peak memory is the pass's own.
The request arrives as one JSON argument; the pass prints one JSON
object as the last line of its standard output.

Pass kinds:

* ``timed``: the workload's campaign, untraced (end-to-end metrics);
* ``check``: the same seeds inline, untraced, with the workload's
  journal and live aggregator (the pooled-vs-inline correctness check,
  and the base of the tracing overhead);
* ``traced``: the same seeds inline with every layer wrapped in spans;
* ``traced-pool``: the pooled campaign with the orchestrator's layers
  wrapped (IPC, merge, journal and live fold);
* ``profile``: ``Kernel.run`` under cProfile (Python calls per step);
* ``alloc``: ``Kernel.run`` under tracemalloc (peak bytes per run).

Run by hand from the repository root, for example::

    PYTHONPATH=src python3 perfbench/passes.py \\
        '{"kind": "timed", "workload": "campaign-pool", "seed_start": 0, "t0": 0}'
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from repro.engine.campaign import run_campaign
from repro.engine.progress import ProgressTracker
from repro.engine.shards import plan_seed_shards
from repro.obs.live.aggregate import LiveAggregator

from harness import run_accounting
from workloads import WORKLOADS


class MergeClock(ProgressTracker):
    """Progress tracker that timestamps every merge, per shard.

    The orchestrator calls ``note_run`` once per merged run, in pooled
    and inline mode alike, so the gaps between consecutive merges of one
    shard are the run times the orchestrator sees.
    """

    def __init__(self, seed_start: int, shard_size: int) -> None:
        super().__init__(total_runs=None, stream=None)
        self.seed_start = seed_start
        self.shard_size = shard_size
        self.first: Optional[float] = None
        self.last: Optional[float] = None
        self.gaps_ms: List[float] = []
        self.timeouts = 0
        self.requeued: List[str] = []
        self._last_by_shard: Dict[int, float] = {}

    def note_run(self, summary, duplicate: bool = False) -> None:
        now = time.monotonic()
        super().note_run(summary, duplicate)
        if self.first is None:
            self.first = now
        self.last = now
        if summary.status == "timeout":
            self.timeouts += 1
        shard = (summary.seed - self.seed_start) // self.shard_size
        previous = self._last_by_shard.get(shard)
        if previous is not None:
            self.gaps_ms.append((now - previous) * 1000.0)
        self._last_by_shard[shard] = now

    def note_shard_requeued(self, shard_id: Optional[str] = None) -> None:
        super().note_shard_requeued(shard_id)
        if shard_id is not None:
            self.requeued.append(shard_id)


def failures(result) -> List[Any]:
    """Failing runs merged, less the timed-out ones: a run that hit the
    per-run timeout is a lost run, not a finding."""
    return [s for s in result.failures() if s.status != "timeout"]


def findings(result) -> Dict[str, Any]:
    """What a pass found, in a form equal across passes of the same
    seeds whatever the merge order."""
    failing = sorted(
        (s.schedule_key, s.status, tuple(s.detected_classes))
        for s in failures(result)
    )
    digest = hashlib.sha256(json.dumps(failing).encode()).hexdigest()
    return {
        "executed": result.n_executed,
        "unique": result.n_runs,
        "failing": len(failing),
        "failing_digest": digest,
        "class_counts": dict(sorted(result.class_counts.items())),
        "statuses": dict(sorted(result.statuses().items())),
        "crashed": sum(1 for s in result.summaries if s.crashed),
    }


def accounting(spec, clock: MergeClock, result) -> Dict[str, int]:
    """Runs of one campaign pass attempted, and runs the harness failed
    to complete."""
    shards = plan_seed_shards(spec.mode, spec.budget, spec.shard_size, spec.seed_start)
    attempted, lost = run_accounting(
        {s.shard_id: s.max_runs for s in shards},
        clock.requeued,
        result.shards_failed,
        clock.timeouts,
    )
    return {"attempted": attempted, "lost": lost}


def peak_rss_kb() -> int:
    """This process's peak resident memory (``VmHWM``), in KB.

    Not ``ru_maxrss``: Linux carries the peak of the process that
    started this interpreter across the exec into it, so ``ru_maxrss``
    would read at least the peak of ``run.py``, which holds the
    reference ring of ``calibrate.py``.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def journal_path(request: Dict[str, Any]) -> str:
    directory = request["scratch_dir"]
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"journal-{os.getpid()}.jsonl")


def campaign_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    """A ``timed`` or ``check`` pass: one campaign over the pass's seeds."""
    workload = WORKLOADS[request["workload"]]
    seed_start = int(request["seed_start"])
    journal = journal_path(request) if workload.serve else None
    spec = workload.spec(
        seed_start,
        budget=request.get("budget"),
        workers=0 if request["kind"] == "check" else None,
        journal_path=journal,
    )
    clock = MergeClock(seed_start, spec.shard_size)
    live = LiveAggregator() if workload.serve else None
    try:
        result = run_campaign(spec, progress=clock, telemetry=live)
    finally:
        if journal is not None and os.path.exists(journal):
            os.remove(journal)
    end = time.monotonic()
    own = peak_rss_kb()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    span = end - clock.first
    return {
        "setup_s": clock.first - float(request["t0"]),
        "runs_per_s": (result.n_executed - 1) / span,
        "failures_per_s": len(failures(result)) / span,
        "gaps_ms": clock.gaps_ms,
        "rss_kb": own,
        "worker_rss_kb": children if spec.workers else own,
        "findings": findings(result),
        **accounting(spec, clock, result),
    }


def main(argv: List[str]) -> int:
    request = json.loads(argv[1])
    kind = request["kind"]
    if kind in ("timed", "check"):
        out = campaign_pass(request)
    else:
        from layers import traced_pass

        out = traced_pass(request)
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

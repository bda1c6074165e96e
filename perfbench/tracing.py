"""The traced run (``--trace 1``): per-layer metrics from span totals.

Five passes over the workload's traced seeds, each in a fresh
interpreter (see ``passes.py`` and ``layers.py``):

1. ``check``: untraced and inline, with the same journal and live fold
   as the traced pass: the base for the tracing overhead;
2. ``traced``: inline with every layer wrapped;
3. ``traced-pool``: pooled workloads only, orchestrator layers wrapped;
4. ``profile``: cProfile inside ``Kernel.run``;
5. ``alloc``: tracemalloc inside ``Kernel.run``.

A metric whose layer does no work on the workload (no faults, no
detection, no worker processes) is printed as n/a; the JSON line, which
carries every per-layer metric, gives it 0.  A metric that applies but
whose wrapped entry point was never called fails the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from procs import (
    RUN_DEADLINE_S,
    Checks,
    PassLost,
    check_findings,
    check_pool_matches_inline,
    run_pass,
)
from workloads import Workload, seed_start

DETECTOR_NAMES = (
    "lockset", "hb", "lockgraph", "waitgraph", "starvation", "contention", "completion",
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("vm.steps_per_run", "count", "lower"),
    ("vm.events_per_run", "count", "lower"),
    ("vm.py_calls_per_step", "count", "lower"),
    ("vm.self_us_per_step", "us", "lower"),
    ("vm.alloc_peak_kb_per_run", "KB", "lower"),
    *[(f"detect.{name}.us_per_event", "us", "lower") for name in DETECTOR_NAMES],
    ("detect.calls_per_event", "count", "lower"),
    ("detect.abort_polls_per_event", "count", "lower"),
    ("detect.summary_us_per_run", "us", "lower"),
    ("classify.symptoms_us_per_event", "us", "lower"),
    ("classify.observations_us_per_run", "us", "lower"),
    ("obs.sink_us_per_event", "us", "lower"),
    ("obs.snapshot_us_per_run", "us", "lower"),
    ("obs.live.note_run_us", "us", "lower"),
    ("run.assemble_us_per_run", "us", "lower"),
    ("run.summarize_us_per_run", "us", "lower"),
    ("testing.unique_schedule_share", "share", "higher"),
    ("faults.on_step_us_per_step", "us", "lower"),
    ("faults.fired_per_run", "count", "higher"),
    ("engine.frame_encode_us_per_run", "us", "lower"),
    ("engine.frame_bytes_per_run", "bytes", "lower"),
    ("engine.frame_decode_us_per_run", "us", "lower"),
    ("engine.merge_us_per_run", "us", "lower"),
    ("engine.journal_append_us_per_run", "us", "lower"),
    ("engine.orchestrator_busy_share", "share", "lower"),
    ("engine.rss_kb_per_1k_runs", "KB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


#: runs a pass needs before its RSS growth is extrapolated to 1k runs
MIN_RSS_RUNS = 100


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Spans:
    """Read access to one pass's span totals (ns) and counts."""

    def __init__(self, out: Dict[str, Any]) -> None:
        self.spans: Dict[str, Dict[str, int]] = out["spans"]

    def total_us(self, name: str) -> float:
        return self.spans.get(name, {}).get("total_ns", 0) / 1000.0

    def self_us(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_ns", 0) / 1000.0

    def count(self, name: str) -> int:
        return self.spans.get(name, {}).get("count", 0)


#: note of a metric whose layer does no work on the workload
NOT_RUN = "n/a: layer does no work on this workload"


def layer_metrics(
    workload: Workload,
    base: Dict[str, Any],
    traced: Dict[str, Any],
    pool: Optional[Dict[str, Any]],
    profile: Dict[str, Any],
    alloc: Dict[str, Any],
) -> Tuple[Dict[str, Tuple[Optional[float], str]], List[str]]:
    """Per-layer metric name -> (value, note), value None where the
    metric does not apply; and the metrics that apply but whose wrapped
    calls were never made (a wrapper that missed its layer)."""
    t = Spans(traced)
    p = Spans(pool) if pool is not None else None
    counts = traced["counts"]
    runs, steps, events = counts["runs"], counts["steps"], counts["events"]
    m: Dict[str, Tuple[Optional[float], str]] = {}
    unmeasured: List[str] = []

    def put(
        name: str,
        value: float,
        applies: bool = True,
        note: str = "",
        calls: Optional[int] = None,
        na: str = NOT_RUN,
    ) -> None:
        """``calls``: how often the wrapped entry point ran; 0 where the
        metric applies fails the run."""
        if not applies:
            m[name] = (None, na)
            return
        m[name] = (value, note)
        if calls == 0:
            unmeasured.append(name)

    put("vm.steps_per_run", _ratio(steps, runs), note=f"{runs} runs", calls=runs)
    put("vm.events_per_run", _ratio(events, runs), calls=runs)
    put("vm.py_calls_per_step", _ratio(profile["calls"], profile["steps"]),
        note=f"cProfile: {profile['calls']} calls / {profile['steps']} steps "
        f"(pstats total_calls: {_ratio(profile['pstats_calls'], profile['steps']):.2f})",
        calls=profile["calls"])
    put("vm.self_us_per_step", _ratio(t.self_us("vm.run"), steps),
        note="Kernel.run minus subscribers and injector", calls=t.count("vm.run"))
    peaks = alloc["peaks"]
    put("vm.alloc_peak_kb_per_run", statistics.mean(peaks) / 1024.0,
        note=f"tracemalloc, mean of {len(peaks)} runs", calls=len(peaks))
    detectors = traced["detectors"]
    for name in DETECTOR_NAMES:
        seconds, seen = detectors.get(name, (0.0, 0))
        put(f"detect.{name}.us_per_event", _ratio(seconds * 1e6, seen),
            applies=workload.detect, calls=seen)
    calls = sum(seen for _, seen in detectors.values())
    put("detect.calls_per_event", _ratio(calls, events), applies=workload.detect,
        calls=calls)
    put("detect.abort_polls_per_event", _ratio(counts["abort_polls"], events),
        applies=workload.detect, calls=counts["abort_polls"])
    put("detect.summary_us_per_run", _ratio(t.self_us("detect.summary"), runs),
        applies=workload.detect, note="self time", calls=t.count("detect.summary"))
    put("classify.symptoms_us_per_event", _ratio(t.total_us("classify.symptoms"), events),
        applies=workload.detect, calls=t.count("classify.symptoms"))
    put("classify.observations_us_per_run", _ratio(t.total_us("classify.observe"), runs),
        applies=workload.detect, calls=t.count("classify.observe"))
    put("obs.sink_us_per_event", _ratio(t.total_us("obs.sink"), events),
        applies=workload.metrics, calls=t.count("obs.sink"))
    put("obs.snapshot_us_per_run", _ratio(t.total_us("obs.snapshot"), runs),
        applies=workload.metrics, calls=t.count("obs.snapshot"))
    put("obs.live.note_run_us",
        _ratio(p.total_us("obs.live"), p.count("obs.live")) if p else 0.0,
        applies=p is not None and workload.serve, note="pooled pass",
        calls=p.count("obs.live") if p else None)
    put("run.assemble_us_per_run", _ratio(t.total_us("run.assemble"), runs),
        calls=t.count("run.assemble"))
    put("run.summarize_us_per_run", _ratio(t.self_us("run.summarize"), runs),
        note="self time", calls=t.count("run.summarize"))
    found = traced["findings"]
    put("testing.unique_schedule_share", _ratio(found["unique"], found["executed"]),
        note=f"{found['unique']} unique of {found['executed']} runs")
    put("faults.on_step_us_per_step", _ratio(t.total_us("faults.on_step"), steps),
        applies=bool(workload.faults), calls=t.count("faults.on_step"))
    put("faults.fired_per_run", _ratio(counts["faults_fired"], runs),
        applies=bool(workload.faults))
    put("engine.frame_encode_us_per_run",
        _ratio(t.total_us("engine.encode"), t.count("engine.encode")),
        applies=p is not None, note="worker side, traced inline",
        calls=t.count("engine.encode"))
    if p is not None:
        pc = pool["counts"]
        put("engine.frame_bytes_per_run", _ratio(pc["frame_bytes"], pc["frames"]),
            note="pickled queue message, pooled pass", calls=pc["frames"])
        put("engine.frame_decode_us_per_run",
            _ratio(p.total_us("engine.decode"), p.count("engine.decode")),
            note="pooled pass", calls=p.count("engine.decode"))
        merge, rss, executed = p, pool, pool["findings"]["executed"]
        busy = sum(p.total_us(n) for n in ("engine.decode", "engine.merge", "engine.journal"))
        put("engine.orchestrator_busy_share", _ratio(busy / 1e6, pool["wall_s"]),
            note="decode + merge + journal over campaign wall time",
            calls=p.count("engine.decode"))
    else:
        for name in ("engine.frame_bytes_per_run", "engine.frame_decode_us_per_run",
                     "engine.orchestrator_busy_share"):
            put(name, 0.0, applies=False)
        merge, rss, executed = t, traced, found["executed"]
    put("engine.merge_us_per_run",
        _ratio(merge.total_us("engine.merge"), merge.count("engine.merge")),
        note="pooled pass" if p else "inline", calls=merge.count("engine.merge"))
    put("engine.journal_append_us_per_run",
        _ratio(merge.total_us("engine.journal"), executed),
        applies=workload.serve, note="pooled pass", calls=merge.count("engine.journal"))
    put("engine.rss_kb_per_1k_runs",
        _ratio(rss["rss_growth_kb"] * 1000.0, rss["runs_after_first"]),
        applies=rss["runs_after_first"] >= MIN_RSS_RUNS,
        note="orchestrator RSS growth after the first merge",
        na=f"n/a: fewer than {MIN_RSS_RUNS} runs in the pass")
    put("trace.overhead_ratio", _ratio(base["runs_per_s"], traced["runs_per_s"]),
        note=f"untraced {base['runs_per_s']:.4g} vs traced "
        f"{traced['runs_per_s']:.4g} runs/s, inline, same seeds, journal "
        f"and live fold {'on in both' if workload.serve else 'off'}")
    return m, unmeasured


def traced(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    del seconds  # the traced passes run fixed budgets
    deadline = time.monotonic() + RUN_DEADLINE_S
    start = seed_start(seed)
    small = max(1, workload.trace_budget // 4)
    plan = [
        ("base", "check", workload.trace_budget),
        ("traced", "traced", workload.trace_budget),
        ("pool", "traced-pool", workload.trace_budget if workload.workers else 0),
        ("profile", "profile", small),
        ("alloc", "alloc", small),
    ]
    checks = Checks()
    outs: Dict[str, Dict[str, Any]] = {}
    attempted = lost = 0
    errors: List[str] = []
    for label, kind, budget in plan:
        if not budget:
            continue
        try:
            outs[label] = run_pass(
                {"kind": kind, "workload": workload.name, "seed_start": start,
                 "budget": budget},
                deadline,
                rotate=kind != "traced-pool",
            )
        except PassLost as exc:
            attempted += budget
            lost += budget
            errors.append(str(exc))
            break
        attempted += outs[label].get("attempted", budget)
        lost += outs[label].get("lost", 0)
    checks.check("every pass completed", not errors, "; ".join(errors))
    metrics: Dict[str, Tuple[Optional[float], str, str]] = {}
    if not errors:
        base, trace = outs["base"]["findings"], outs["traced"]["findings"]
        check_findings(checks, workload, trace, "traced pass")
        checks.check("tracing changes no findings", base == trace)
        checks.check("every run traced", outs["traced"]["counts"]["runs"]
                     == trace["executed"])
        if "pool" in outs:
            check_pool_matches_inline(checks, outs["pool"]["findings"], trace)
        values, unmeasured = layer_metrics(
            workload, outs["base"], outs["traced"], outs.get("pool"),
            outs["profile"], outs["alloc"])
        checks.check("every layer that applies was called", not unmeasured,
                     f"no calls recorded for {unmeasured}" if unmeasured else "")
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {
            name: (value, units[name], note) for name, (value, note) in values.items()
        }
    return {"checks": checks, "metrics": metrics, "attempted": attempted, "failed": lost}

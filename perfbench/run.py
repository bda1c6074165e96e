"""Campaign benchmark: schedules/s, failures/s, set-up time and memory on
three workloads, with a traced run for per-layer cost.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-pool --seed 1 --seconds 30 --trace 0

``--trace 0`` runs timed passes of the workload's campaign (each in a
fresh interpreter) until ``--seconds`` have passed, checks the findings
and prints the end-to-end metrics.  ``--trace 1`` runs the traced passes
and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every
correctness check passed.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from calibrate import REFERENCE_SPEED, Reference, host_speed
from harness import lost_run_share, percentile
from procs import (
    MAX_PASSES,
    MIN_PASSES,
    RUN_DEADLINE_S,
    SCRATCH,
    SRC,
    Checks,
    PassLost,
    check_findings,
    check_pool_matches_inline,
    run_pass,
)
from workloads import WORKLOADS, Workload, seed_start

#: seconds the host speed is sampled before the first pass
FIRST_CALIBRATION_S = 1.0
#: seconds the host speed is sampled after a pass, per second of the pass
CALIBRATION_SHARE = 0.3


def end_to_end(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    request = {"kind": "timed", "workload": workload.name, "seed_start": seed_start(seed)}
    checks = Checks()
    passes: List[Dict[str, Any]] = []
    attempted = lost = 0
    lost_passes: List[str] = []
    # the host's speed, sampled before the first pass and after each one
    reference = Reference()
    before = reference.sample(FIRST_CALIBRATION_S)
    samples = [before]

    def attempt(req: Dict[str, Any], runs: int, inline: bool) -> Optional[Dict[str, Any]]:
        nonlocal attempted, lost
        try:
            out = run_pass(req, deadline, rotate=inline)
        except PassLost as exc:
            # a harness failure loses the whole pass; it is not retried
            attempted += runs
            lost += runs
            lost_passes.append(str(exc))
            return None
        attempted += out["attempted"]
        lost += out["lost"]
        return out

    while len(passes) < MAX_PASSES and (
        len(passes) < MIN_PASSES or time.monotonic() - started < seconds
    ):
        began = time.monotonic()
        out = attempt(request, workload.budget, inline=not workload.workers)
        if out is None:
            break
        after = reference.sample(CALIBRATION_SHARE * (time.monotonic() - began))
        # host speed over reference speed around this pass: above 1 on a
        # host faster than the reference
        out["pace"] = host_speed(before, after) / REFERENCE_SPEED
        samples.append(after)
        before = after
        passes.append(out)
    check = None
    if workload.workers and not lost_passes:
        check = attempt(dict(request, kind="check"), workload.budget, inline=True)

    checks.check("every pass completed", not lost_passes, "; ".join(lost_passes))
    metrics: Dict[str, Tuple[Optional[float], str, str]] = {}
    if passes:
        first = passes[0]["findings"]
        check_findings(checks, workload, first, "pass 1")
        differing = [
            i + 1 for i, p in enumerate(passes) if p["findings"] != first
        ]
        checks.check(f"{len(passes)} passes over the same seeds agree", not differing,
                     f"passes {differing} differ from pass 1" if differing else "")
        if check is not None:
            check_pool_matches_inline(checks, first, check["findings"])
        gaps = [g for p in passes for g in p["gaps_ms"]]
        n = f"n={len(gaps)}"
        p99 = percentile(gaps, 99)
        metrics = {
            "runs_per_s": (median([p["runs_per_s"] for p in passes]), "1/s",
                           f"median of {len(passes)} passes"),
            "runs_per_ref_s": (median([p["runs_per_s"] / p["pace"] for p in passes]), "1/s",
                               f"each pass at the reference host speed, median of {len(passes)}"),
            "failures_per_s": (
                median([p["failures_per_s"] for p in passes])
                if workload.seeded_bug else None, "1/s",
                f"median of {len(passes)} passes" if workload.seeded_bug
                else "n/a: no seeded bug"),
            "run_ms_p50": (median(gaps), "ms", n),
            "run_ms_p99": (p99, "ms", n if p99 is not None else
                           f"n/a: {n}, fewer than 10 samples beyond p99"),
            "setup_wall_s": (median([p["setup_s"] for p in passes]), "s",
                             f"median of {len(passes)} fresh interpreters"),
            "setup_s": (median([p["setup_s"] * p["pace"] for p in passes]), "s",
                        "each set-up at the reference host speed"),
            "host_speed": (host_speed(*samples), "units/s",
                           "reference work: each CPU's median, averaged over the CPUs"),
            "peak_rss_mb": (median([p["rss_kb"] for p in passes]) / 1024.0, "MB",
                            "orchestrator"),
            "worker_peak_rss_mb": (
                median([p["worker_rss_kb"] for p in passes]) / 1024.0, "MB",
                "largest worker" if workload.workers else
                "inline: runs execute in the orchestrator"),
        }
    metrics["lost_run_share"] = (
        lost_run_share(attempted, lost), "share", f"{lost} of {attempted} runs lost")
    return {"checks": checks, "metrics": metrics, "attempted": attempted, "failed": lost}


#: end-to-end metrics of the final JSON line (BENCHMARK.json gates these)
END_TO_END = ("runs_per_ref_s", "setup_s", "peak_rss_mb", "worker_peak_rss_mb")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            from tracing import PER_LAYER, traced

            outcome = traced(workload, args.seed, args.seconds)
            wanted = tuple(name for name, _, _ in PER_LAYER)
        else:
            outcome = end_to_end(workload, args.seed, args.seconds)
            wanted = END_TO_END
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    checks: Checks = outcome["checks"]
    # A per-layer metric that does not apply to the workload (None) is
    # printed as n/a; the JSON line carries every metric, so it reads 0.
    metrics = {
        name: {"value": 0.0 if value is None else value, "unit": unit}
        for name, (value, unit, _) in outcome["metrics"].items()
        if name in wanted
    }
    missing = sorted(set(wanted) - set(metrics))
    checks.check("every metric measured", not missing, f"missing {missing}" if missing else "")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit, note) in outcome["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<36} {shown:<20} {note}")
    for line in checks.lines():
        print("  " + line)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())

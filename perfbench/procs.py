"""Running passes in fresh interpreters, and the correctness checks.

Shared by the end-to-end run (``run.py``) and the traced run
(``tracing.py``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: journals and other pass by-products, removed when the run ends
SCRATCH = ROOT / ".perfbench"

#: passes per run, whatever --seconds says
MIN_PASSES = 3
MAX_PASSES = 40
#: a run ends within 180 s whatever its passes do
RUN_DEADLINE_S = 165.0
#: how long a rotated pass stays on one CPU
ROTATE_S = 0.25


class PassLost(Exception):
    """A pass crashed, timed out or printed no result."""


def _pass_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    # a fixed string-hash seed keeps set and dict orders, and so the
    # exact call counts of the traced run, the same in every interpreter
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(
    request: Dict[str, Any], deadline: float, rotate: bool = False
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON result.

    The pass runs in its own process group, so a pass that overruns the
    deadline is killed together with any worker processes it forked.

    With ``rotate``, the pass is moved to the next CPU every
    :data:`ROTATE_S` seconds.  The host's CPUs slow down independently
    of each other (other tenants share their cores), so a single-process
    pass left on one CPU measures that CPU's luck; rotating spreads every
    pass evenly over all of them, as a pooled campaign's processes are.
    A pass that forks workers is not rotated: they would inherit the
    affinity of the moment.
    """
    request = dict(request, scratch_dir=str(SCRATCH))
    started = time.monotonic()
    request["t0"] = started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), json.dumps(request)],
        cwd=str(ROOT),
        env=_pass_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise PassLost(f"{request['kind']} pass overran the run deadline")
            try:
                out, err = proc.communicate(timeout=min(left, ROTATE_S) if rotate else left)
                break
            except subprocess.TimeoutExpired:
                if rotate:
                    turn += 1
                    try:
                        os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                    except ProcessLookupError:
                        pass  # exited since; the next communicate() collects it
    finally:
        try:  # reap stragglers: workers of a pass that died early
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        raise PassLost(
            f"{request['kind']} pass exited {proc.returncode}: " + " | ".join(tail)
        )
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassLost(f"{request['kind']} pass printed no result") from None


class Checks:
    """Named correctness checks; the run is correct when all pass."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> List[str]:
        return [
            f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
            for name, ok, detail in self.results
        ]


def check_findings(
    checks: Checks, workload: Workload, found: Dict[str, Any], label: str
) -> None:
    classes = set(found["class_counts"])
    if workload.expected:
        missing = sorted(workload.expected - classes)
        checks.check(f"{label} finds {sorted(workload.expected)}", not missing,
                     f"missing {missing}" if missing else "")
    extra = sorted(classes - workload.allowed)
    checks.check(f"{label} finds nothing outside {sorted(workload.allowed)}",
                 not extra, f"found {extra}" if extra else "")
    if workload.all_complete:
        done = found["statuses"].get("completed", 0)
        checks.check(f"{label} completes every run", done == found["executed"]
                     and not found["crashed"],
                     f"{done} of {found['executed']} completed")
    if workload.seeded_bug:
        checks.check(f"{label} has failing runs", found["failing"] > 0)


def check_pool_matches_inline(
    checks: Checks, pooled: Dict[str, Any], inline: Dict[str, Any]
) -> None:
    """The pooled merge must equal an inline merge of the same seeds.

    Merge order differs between the two, so which of two runs with the
    same schedule counts as the duplicate differs; the unique schedules,
    the failing ones and the class counts do not.
    """
    keys = ("unique", "failing", "failing_digest", "class_counts")
    differ = [k for k in keys if pooled[k] != inline[k]]
    checks.check(
        "pooled merge equals inline merge (runs, failing runs, class_counts)",
        not differ,
        "; ".join(f"{k}: pooled {pooled[k]} vs inline {inline[k]}" for k in differ),
    )

"""The benchmark's arithmetic: the percentile rule, span self time,
lost-run accounting and call counting.

Pure functions and one small in-memory span recorder, with no import of
``repro``, so the self-tests in ``test_harness.py`` exercise them alone.
"""

from __future__ import annotations

import cProfile
import gc
import math
import pstats
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: a percentile is reported only when at least this many samples lie
#: beyond it, so one slow outlier cannot be the whole tail
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100) of ``samples``, or None when
    fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond it.

    Nearest-rank on the sorted samples: the value at 1-based rank
    ``ceil(q/100 * n)``, so exactly ``n - rank`` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return float(sorted(samples)[rank - 1])


def run_accounting(
    shard_sizes: Mapping[str, int],
    requeued: Iterable[str],
    failed: Iterable[str],
    timeouts: int = 0,
) -> Tuple[int, int]:
    """Runs attempted and runs lost in one campaign pass.

    Every shard is attempted once.  Every requeue event loses the
    requeued attempt's whole shard (its partial runs are executed again
    by the next attempt), and that next attempt is attempted on top; a
    shard that exhausted its retries loses its last attempt too; each
    run that hit the per-run timeout is lost.  Component failures are
    findings, never counted here.
    """
    rerun = sum(shard_sizes[shard_id] for shard_id in requeued)
    attempted = sum(shard_sizes.values()) + rerun
    lost = rerun + sum(shard_sizes[shard_id] for shard_id in failed) + timeouts
    return attempted, lost


def lost_run_share(attempted: int, lost: int) -> float:
    if attempted <= 0:
        raise ValueError("no runs attempted")
    return lost / attempted


def count_calls(fn: Callable[[], object]) -> Tuple[int, int]:
    """Python calls made while ``fn()`` runs: the exact count, and the
    count ``pstats`` reports.

    The exact count sums cProfile's raw entries.  ``pstats`` keys
    functions by (file, line, name), so of several functions with one
    label (every dataclass ``__init__`` is ``<string>:2:__init__``) it
    keeps whichever comes last.  The cyclic GC is off while ``fn`` runs:
    it runs finalizers at allocation thresholds that shift with memory
    layout, and with it off the count repeats exactly.
    """
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
        gc.enable()
    exact = sum(entry.callcount for entry in profiler.getstats())
    return exact, pstats.Stats(profiler).total_calls


class SpanStats:
    """Running totals of one span name."""

    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0

    def to_dict(self) -> Dict[str, int]:
        return {"count": self.count, "total_ns": self.total_ns, "self_ns": self.self_ns}


class SpanRecorder:
    """Nested spans of one thread, folded into per-name totals in memory.

    ``start``/``end`` keep a stack of open spans; when a span ends, its
    duration is charged to its name as total time and, minus the time
    its child spans covered, as self time.  Per-event spans run a
    hundred thousand times a pass, so only the per-name fold is kept and
    written out when the pass ends.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: open spans: [name, start_ns, child_ns]
        self._stack: List[list] = []

    def start(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        ended = self.clock()
        name, started, child_ns = self._stack.pop()
        duration = ended - started
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total_ns += duration
        stats.self_ns += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        return {name: stats.to_dict() for name, stats in sorted(self.stats.items())}

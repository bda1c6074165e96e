"""The campaign heartbeat: a text or JSONL renderer of the campaign state.

A campaign's counters live in its one
:class:`~repro.obs.live.aggregate.LiveAggregator`, the state
``/status``, ``/metrics`` and ``repro dash`` also read; the tracker keeps
none.  ``run_campaign`` binds the tracker to that state, then calls
``maybe_emit`` once per loop tick and ``emit_final`` at the end; the
tracker rate-limits its own output so a hot campaign does not drown the
terminal.

The heartbeat's ``runs`` and ``failures`` count executions, duplicate
schedules included; ``/status`` counts unique schedules in its ``runs``
and ``failures`` and executions in ``executed``.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Dict, Optional

from repro.obs.live.aggregate import LiveAggregator, eta_seconds
from repro.testing.explorer import RunSummary

__all__ = ["ProgressTracker"]


class ProgressTracker:
    """Periodic rendering of a campaign state on a stream.

    ``json_mode`` switches the emitted heartbeats from the human one-liner
    to machine-readable JSONL (one object per heartbeat, ``"final": true``
    on the last) — what ``repro campaign --progress-json`` gives CI
    pipelines to parse instead of scraping the text line.
    """

    def __init__(
        self,
        total_runs: Optional[int] = None,
        stream: Optional[IO[str]] = None,
        interval: float = 1.0,
        clock=time.monotonic,
        json_mode: bool = False,
    ) -> None:
        self.total_runs = total_runs
        self.stream = stream
        self.interval = interval
        self.json_mode = json_mode
        self._clock = clock
        self.started_at = clock()
        self._last_emit = float("-inf")
        #: the campaign state rendered; ``run_campaign`` binds its own
        self.state = LiveAggregator()
        #: the campaign's CoverageMatrix, when it tracks one
        self.coverage: Optional[Any] = None

    # -- hooks -------------------------------------------------------------

    def note_run(self, summary: RunSummary, duplicate: bool = False) -> None:
        """Called once per merged run, after the state folded it.  The
        heartbeat reads the state; subclasses may observe the stream."""

    def note_shard_requeued(self, shard_id: Optional[str] = None) -> None:
        """Called once per crash-requeued shard, after the state recorded
        it; a hook for subclasses like :meth:`note_run`."""

    # -- derived numbers ---------------------------------------------------

    def elapsed(self) -> float:
        return max(self._clock() - self.started_at, 1e-9)

    def runs_per_sec(self) -> float:
        return self.state.executed / self.elapsed()

    def eta_seconds(self) -> Optional[float]:
        """Seconds until ``total_runs`` at the observed rate, or None
        when no budget is known or no run has finished yet."""
        return eta_seconds(self.total_runs, self.state.executed, self.elapsed())

    def coverage_fraction(self) -> Optional[float]:
        """Arc coverage once a unique run has been merged, else None."""
        if self.coverage is None or not self.state.runs:
            return None
        return self.coverage.coverage_fraction()

    def attempts(self) -> Dict[str, int]:
        """Shard id -> launch attempts, for crash-requeued shards only;
        rendered so a flapping shard is visible mid-campaign."""
        return {
            shard_id: row.attempts
            for shard_id, row in sorted(self.state.shards.items())
            if row.attempts > 1
        }

    @staticmethod
    def _format_duration(seconds: float) -> str:
        if seconds < 60:
            return f"{seconds:.0f}s"
        minutes, secs = divmod(int(round(seconds)), 60)
        if minutes < 60:
            return f"{minutes}m{secs:02d}s"
        hours, minutes = divmod(minutes, 60)
        return f"{hours}h{minutes:02d}m"

    def _classes_bit(self) -> str:
        return ",".join(
            f"{code}:{count}"
            for code, count in sorted(self.state.class_counts.items())
        )

    # -- rendering ---------------------------------------------------------

    def to_json_dict(self, final: bool = False) -> Dict[str, Any]:
        """One heartbeat as a JSON-safe dict (the ``--progress-json``
        record; see docs/formats.md)."""
        state = self.state
        eta = self.eta_seconds()
        record: Dict[str, Any] = {
            "runs": state.executed,
            "total_runs": self.total_runs,
            "duplicates": state.duplicates,
            "failures": state.failed_executions,
            "signatures": len(state.signatures),
            "runs_per_sec": round(self.runs_per_sec(), 3),
            "eta_seconds": None if eta is None else round(eta, 3),
            "elapsed_seconds": round(self.elapsed(), 3),
            "shards": {
                "done": state.shards_done,
                "total": state.shards_total,
                "failed": state.shards_failed,
                "requeued": state.shards_requeued,
                "resumed": state.shards_resumed,
            },
        }
        if state.class_counts:
            record["classes"] = dict(sorted(state.class_counts.items()))
        coverage = self.coverage_fraction()
        if coverage is not None:
            record["coverage"] = round(coverage, 4)
        attempts = self.attempts()
        if attempts:
            record["attempts"] = attempts
        top = state.top_contended()
        if top is not None:
            record["top_contended"] = {"monitor": top[0], "ticks": top[1]}
        if final:
            record["final"] = True
        return record

    def render(self) -> str:
        state = self.state
        parts = []
        if self.total_runs:
            parts.append(f"runs {state.executed}/{self.total_runs}")
        else:
            parts.append(f"runs {state.executed}")
        parts.append(f"{self.runs_per_sec():.1f}/s")
        eta = self.eta_seconds()
        if eta is not None and eta > 0:
            parts.append(f"eta {self._format_duration(eta)}")
        parts.append(f"failures {state.failed_executions}")
        parts.append(f"signatures {len(state.signatures)}")
        if state.class_counts:
            parts.append(f"classes {self._classes_bit()}")
        coverage = self.coverage_fraction()
        if coverage is not None:
            parts.append(f"coverage {coverage:.0%}")
        shard_bit = f"shards {state.shards_done}/{state.shards_total}"
        if state.shards_requeued:
            shard_bit += f" ({state.shards_requeued} requeued)"
        if state.shards_resumed:
            shard_bit += f" ({state.shards_resumed} resumed)"
        parts.append(shard_bit)
        attempts = self.attempts()
        if attempts:
            retry_bit = ",".join(
                f"{shard_id}x{count}" for shard_id, count in attempts.items()
            )
            parts.append(f"attempts {retry_bit}")
        top = state.top_contended()
        if top is not None:
            parts.append(f"hot {top[0]}:{int(top[1])}")
        return " | ".join(parts)

    def render_final(self) -> str:
        """The one-line post-campaign summary."""
        state = self.state
        parts = [
            f"done: {state.executed} runs in "
            f"{self._format_duration(self.elapsed())} "
            f"({self.runs_per_sec():.1f}/s)",
            f"failures {state.failed_executions} "
            f"({len(state.signatures)} signature(s))",
        ]
        if state.class_counts:
            parts.append(f"classes {self._classes_bit()}")
        coverage = self.coverage_fraction()
        if coverage is not None:
            parts.append(f"coverage {coverage:.0%}")
        top = state.top_contended()
        if top is not None:
            parts.append(f"hottest monitor {top[0]} ({int(top[1])} ticks)")
        return " | ".join(parts)

    def maybe_emit(self, force: bool = False) -> None:
        """Write a progress line at most once per ``interval`` seconds."""
        if self.stream is None:
            return
        now = self._clock()
        if not force and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        if self.json_mode:
            self.stream.write(json.dumps(self.to_json_dict(), sort_keys=True) + "\n")
        else:
            self.stream.write(self.render() + "\n")
        self.stream.flush()

    def emit_final(self) -> None:
        """Write the final summary line (unconditionally)."""
        if self.stream is None:
            return
        if self.json_mode:
            line = json.dumps(self.to_json_dict(final=True), sort_keys=True)
        else:
            line = self.render_final()
        self.stream.write(line + "\n")
        self.stream.flush()

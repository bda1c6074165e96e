"""Golden output of every renderer of one campaign's state.

One inline ``racing-locks`` campaign — detection and metrics on, with
duplicate schedules, failing runs and one shard resumed from its
journal — is run under a stepped clock, and the text heartbeat, every
``--progress-json`` record, the final ``/status`` document and the
Prometheus text of the campaign registry are pinned byte for byte
against ``golden_campaign_renderers.json``.  Only the two per-run
series measured in wall-clock time are dropped, and the package version
is masked in ``campaign_info``.

Regenerate the golden file (after a deliberate change of a renderer)
from the repository root with::

    PYTHONPATH=src python tests/engine/test_campaign_renderers.py
"""

import io
import json
import shutil
from pathlib import Path

from repro import __version__
from repro.engine import CampaignSpec, ProgressTracker, run_campaign
from repro.obs.export import to_prometheus
from repro.obs.live import LiveAggregator

GOLDEN = Path(__file__).with_name("golden_campaign_renderers.json")

#: per-run series whose values come from the wall clock
WALL_CLOCK_SERIES = ("run_wall_seconds", "vm_events_per_second")


class SteppedClock:
    """Reads 100.0 on its first call (an object's start time) and 102.0
    on every later one, so every elapsed time is 2 s however often a
    renderer reads the clock."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return 100.0 if self.calls == 1 else 102.0


def spec(journal):
    return CampaignSpec(
        factory="racing-locks",
        mode="random",
        budget=40,
        shard_size=10,
        workers=0,
        detect=True,
        trace_mode="none",
        metrics=True,
        journal_path=str(journal),
    )


def prometheus(registry):
    """Prometheus text less the wall-clock series, version masked."""
    lines = [
        line.replace(f'version="{__version__}"', 'version="<version>"')
        for line in to_prometheus(registry).splitlines()
        if not any(name in line for name in WALL_CLOCK_SERIES)
    ]
    return "\n".join(lines) + "\n"


def without_rate(text):
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if "campaign_runs_per_second" not in line
    )


def render(workdir):
    """Run the campaign once to journal it, keep only its first shard,
    then resume it twice (text and JSON heartbeat) with renderers on."""
    workdir = Path(workdir)
    full = workdir / "full.jsonl"
    run_campaign(spec(full), progress=ProgressTracker(stream=None))
    header, first_shard = full.read_text().splitlines(keepends=True)[:2]

    out = {}
    for json_mode in (False, True):
        journal = workdir / f"resume-{int(json_mode)}.jsonl"
        journal.write_text(header + first_shard)
        stream = io.StringIO()
        progress = ProgressTracker(
            total_runs=40,
            stream=stream,
            interval=0.0,
            clock=SteppedClock(),
            json_mode=json_mode,
        )
        telemetry = LiveAggregator(clock=SteppedClock())
        result = run_campaign(
            spec(journal), resume=True, progress=progress, telemetry=telemetry
        )
        key = "heartbeat_json" if json_mode else "heartbeat_text"
        out[key] = stream.getvalue().splitlines()
        if not json_mode:
            out["status"] = telemetry.status_json()
            out["prometheus"] = prometheus(telemetry.registry())
            out["build_metrics"] = without_rate(prometheus(result.build_metrics()))
            out["describe_head"] = result.describe().splitlines()[:5]
    return out


def test_renderers_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    out = render(tmp_path)
    assert out["heartbeat_text"] == golden["heartbeat_text"]
    assert out["heartbeat_json"] == golden["heartbeat_json"]
    assert out["status"] == golden["status"]
    assert out["prometheus"] == golden["prometheus"]
    # The post-campaign registry is the live one but for throughput,
    # which it measures over the campaign's own wall time.
    assert out["build_metrics"] == without_rate(golden["prometheus"])
    assert out["describe_head"] == golden["describe_head"]


def test_golden_campaign_covers_every_case():
    """The pinned campaign exercises duplicates, duplicate failures,
    failures, classes, a resumed shard and metrics."""
    golden = json.loads(GOLDEN.read_text())
    final = json.loads(golden["heartbeat_json"][-1])
    status = json.loads(golden["status"])
    assert final["final"] is True
    assert final["duplicates"] > 0
    assert status["failures"] > 0 and final["failures"] > status["failures"]
    assert final["classes"] and final["shards"]["resumed"] == 1
    assert "top_contended" in final
    assert "vm_monitor_contended_ticks_total" in golden["prometheus"]


if __name__ == "__main__":
    import tempfile

    workdir = tempfile.mkdtemp()
    try:
        GOLDEN.write_text(json.dumps(render(workdir), indent=1) + "\n")
    finally:
        shutil.rmtree(workdir)
    print(f"wrote {GOLDEN}")

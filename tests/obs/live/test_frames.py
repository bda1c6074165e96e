"""Telemetry frames: constructors, wire round trip, default elision."""

import pytest

from repro.obs.live.frames import FRAME_RUN, TelemetryFrame
from repro.testing.explorer import RunSummary


def summary(**kwargs):
    defaults = dict(index=0, status="completed", decisions=(0, 1, 2))
    defaults.update(kwargs)
    return RunSummary(**defaults)


class TestConstructors:
    def test_run_frame_carries_summary_and_counters(self):
        s = summary(status="deadlock", stuck_threads=("a", "b"))
        frame = TelemetryFrame.for_run("sh-0", s, runs=7, timeouts=2)
        assert frame.kind == FRAME_RUN
        assert frame.shard == "sh-0"
        assert frame.runs == 7
        assert frame.timeouts == 2
        assert frame.summary is s

    def test_detected_classes_ride_in_the_summary_only(self):
        s = summary(detection={"classes": ["DD.AB", "LD"]})
        frame = TelemetryFrame.for_run("sh-0", s, runs=1)
        assert frame.summary.detected_classes == ("DD.AB", "LD")
        payload = frame.to_dict()
        assert "classes" not in payload
        back = TelemetryFrame.from_dict(payload)
        assert back.summary.detected_classes == ("DD.AB", "LD")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown frame kind"):
            TelemetryFrame(kind="bogus", shard="sh")


class TestWireFormat:
    def test_round_trip_run_frame(self):
        s = summary(
            status="stuck",
            seed=42,
            stuck_threads=("cons",),
            detection={"classes": ["NoN"]},
            metrics={"metrics": []},
        )
        frame = TelemetryFrame.for_run("sh-0", s, runs=3, timeouts=1)
        back = TelemetryFrame.from_dict(frame.to_dict())
        assert back == frame
        assert back.summary == s

    def test_to_dict_elides_defaults(self):
        frame = TelemetryFrame(kind=FRAME_RUN, shard="sh")
        assert frame.to_dict() == {"kind": "run", "shard": "sh"}

    def test_embedded_summary_dict_is_the_summary_dict(self):
        # The frame carries the summary dict the journal records.
        s = summary(seed=7)
        frame = TelemetryFrame.for_run("sh", s, runs=1)
        assert frame.to_dict()["summary"] == s.to_dict()

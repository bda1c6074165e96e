"""Self-tests of the benchmark's arithmetic and of BENCHMARK.json.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from harness import (
    SpanRecorder,
    lost_run_share,
    percentile,
    run_accounting,
)

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- the percentile rule ------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == 989.0  # ranks 991..1000 lie beyond
    assert percentile(list(range(999)), 99) is None  # only 9 beyond


def test_p50_needs_ten_samples_beyond_it():
    assert percentile(list(range(20)), 50) == 9.0
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_percentile_is_nearest_rank_on_unsorted_samples():
    samples = [5.0] * 30 + [1.0] * 30 + [100.0] * 40
    assert percentile(samples, 50) == 5.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], 100)


# -- self time of nested spans -----------------------------------------------


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.start("run")  # t=0
    clock.now = 10
    rec.start("sink")  # 10..15
    clock.now = 15
    rec.end()
    clock.now = 20
    rec.start("detect")  # 20..50, with a nested child 25..45
    clock.now = 25
    rec.start("symptoms")
    clock.now = 45
    rec.end()
    clock.now = 50
    rec.end()
    clock.now = 60
    assert rec.end() == 60
    run, sink, detect, symptoms = (rec.get(n) for n in ("run", "sink", "detect", "symptoms"))
    assert (run.total_ns, run.self_ns) == (60, 60 - 5 - 30)
    assert (sink.total_ns, sink.self_ns) == (5, 5)
    # only direct children are subtracted: the grandchild is inside detect
    assert (detect.total_ns, detect.self_ns) == (30, 10)
    assert (symptoms.total_ns, symptoms.self_ns) == (20, 20)


def test_repeated_spans_accumulate_per_name():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    for length in (3, 4):
        rec.start("merge")
        clock.now += length
        rec.end()
    merge = rec.get("merge")
    assert (merge.count, merge.total_ns, merge.self_ns) == (2, 7, 7)
    assert rec.get("absent").count == 0


# -- lost-run accounting -------------------------------------------------------


SHARDS = {"s0": 25, "s1": 25, "s2": 10}


def test_clean_pass_loses_nothing():
    assert run_accounting(SHARDS, requeued=[], failed=[]) == (60, 0)
    assert lost_run_share(60, 0) == 0.0


def test_requeued_shard_loses_its_runs_and_is_attempted_again():
    attempted, lost = run_accounting(SHARDS, requeued=["s1"], failed=[])
    assert (attempted, lost) == (85, 25)
    assert lost_run_share(attempted, lost) == pytest.approx(25 / 85)


def test_shard_that_exhausts_retries_counts_every_attempt():
    # two requeues, then the third attempt fails for good
    assert run_accounting(SHARDS, requeued=["s2", "s2"], failed=["s2"]) == (80, 30)


def test_timeouts_are_lost_runs():
    assert run_accounting(SHARDS, requeued=[], failed=[], timeouts=3) == (60, 3)


def test_share_needs_attempted_runs():
    with pytest.raises(ValueError):
        lost_run_share(0, 0)


def test_pass_accounting_of_a_synthetic_requeued_shard():
    pytest.importorskip("repro")
    from passes import MergeClock, accounting
    from workloads import WORKLOADS

    spec = WORKLOADS["campaign-pool"].spec(0, budget=60)  # shards of 25, 25, 10
    clock = MergeClock(seed_start=0, shard_size=spec.shard_size)
    clock.note_shard_requeued("random-000025-000050")
    result = SimpleNamespace(shards_failed=[])
    out = accounting(spec, clock, result)
    assert out == {"attempted": 85, "lost": 25}
    assert lost_run_share(out["attempted"], out["lost"]) == pytest.approx(25 / 85)
    result.shards_failed = ["random-000050-000060"]
    assert accounting(spec, clock, result) == {"attempted": 85, "lost": 35}


def test_timed_out_runs_are_not_findings():
    pytest.importorskip("repro")
    from passes import failures

    runs = [SimpleNamespace(status=status) for status in ("stuck", "timeout", "deadlock")]
    result = SimpleNamespace(failures=lambda: runs)
    assert [s.status for s in failures(result)] == ["stuck", "deadlock"]


def test_harness_failure_loses_the_whole_pass_without_retry(monkeypatch):
    import run
    from procs import PassLost
    from workloads import WORKLOADS

    kinds = []

    def crash(request, deadline, rotate=False):
        kinds.append(request["kind"])
        raise PassLost("timed pass exited 1: boom")

    monkeypatch.setattr(run, "run_pass", crash)
    workload = WORKLOADS["campaign-pool"]
    out = run.end_to_end(workload, seed=1, seconds=0)
    assert kinds == ["timed"]
    assert out["attempted"] == out["failed"] == workload.budget
    assert not out["checks"].ok
    assert out["metrics"]["lost_run_share"][0] == 1.0


# -- per-layer metrics that do not apply, or were never called --------------------


def _traced(spans):
    return {
        "spans": {name: {"count": 2, "total_ns": 4000, "self_ns": 2000} for name in spans},
        "counts": {"runs": 2, "steps": 100, "events": 200, "abort_polls": 0,
                   "faults_fired": 0},
        "detectors": {},
        "findings": {"unique": 2, "executed": 2},
        "runs_per_s": 1.0,
        "rss_growth_kb": 0,
        "runs_after_first": 1,
    }


def _layer_metrics(workload_name, spans):
    from tracing import layer_metrics
    from workloads import WORKLOADS

    return layer_metrics(
        WORKLOADS[workload_name], {"runs_per_s": 1.2}, _traced(spans), None,
        {"calls": 7000, "steps": 100, "pstats_calls": 6900}, {"peaks": [1024, 2048]},
    )


INLINE_SPANS = ("vm.run", "run.assemble", "run.summarize", "engine.merge")


def test_metrics_of_layers_that_do_no_work_are_none():
    values, unmeasured = _layer_metrics("kernel-long", INLINE_SPANS)
    assert unmeasured == []
    for name in ("detect.hb.us_per_event", "obs.sink_us_per_event",
                 "faults.on_step_us_per_step", "engine.frame_decode_us_per_run",
                 "engine.journal_append_us_per_run", "engine.rss_kb_per_1k_runs"):
        assert values[name][0] is None, name
    assert values["vm.self_us_per_step"][0] == pytest.approx(0.02)  # self time
    assert values["trace.overhead_ratio"][0] == pytest.approx(1.2)


def test_layer_that_applies_but_records_no_calls_is_reported():
    spans = INLINE_SPANS + ("detect.summary", "classify.symptoms", "classify.observe",
                            "obs.sink", "obs.snapshot")
    values, unmeasured = _layer_metrics("prims-faults", spans)
    # no detector events, no abort polls, no injector calls were recorded
    assert "faults.on_step_us_per_step" in unmeasured
    assert "detect.hb.us_per_event" in unmeasured
    assert "detect.abort_polls_per_event" in unmeasured
    assert "obs.sink_us_per_event" not in unmeasured
    assert values["faults.on_step_us_per_step"][0] == 0.0


# -- host speed ---------------------------------------------------------------


def test_reference_unit_is_fixed_work():
    from calibrate import Reference

    reference = Reference(size=1000)
    assert reference.unit(7, []) == reference.unit(7, [])
    # a ring: every node is reached once from any start
    seen, node = set(), reference.nodes[0]
    for _ in range(1000):
        seen.add(node.value)
        node = node.next
    assert seen == set(range(1000)) and node is reference.nodes[0]


def test_sample_covers_every_cpu_and_restores_affinity():
    import os

    from calibrate import Reference

    cpus = os.sched_getaffinity(0)
    speeds = Reference(size=1000).sample(0.0)
    assert set(speeds) == cpus
    assert all(len(v) == 1 and v[0] > 0 for v in speeds.values())
    assert os.sched_getaffinity(0) == cpus


def test_host_speed_averages_each_cpus_median():
    from calibrate import host_speed

    # one CPU at about 20, the other at about 40 with one outlier: the
    # median of all slices reads 20.5, the mean of the per-CPU medians 30
    before = {0: [20.0, 21.0], 1: [40.0, 41.0]}
    after = {0: [19.0, 20.0], 1: [40.0, 5.0]}
    assert host_speed(before, after) == (20.0 + 40.0) / 2


# -- BENCHMARK.json agrees with the code -----------------------------------------


def test_benchmark_json_lists_what_the_benchmark_prints():
    from run import END_TO_END
    from tracing import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]

"""Metrics registry: families, label series, merge, snapshot round trip."""

import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestCounter:
    def test_inc_and_get(self):
        c = Counter("runs_total")
        c.inc()
        c.inc(4, status="stuck")
        assert c.get() == 1
        assert c.get(status="stuck") == 4
        assert c.total == 5

    def test_labels_normalized_order_insensitive(self):
        c = Counter("x")
        c.inc(1, a="1", b="2")
        c.inc(2, b="2", a="1")
        assert c.get(a="1", b="2") == 3

    def test_label_values_coerced_to_str(self):
        c = Counter("x")
        c.inc(1, seed=7)
        assert c.get(seed="7") == 1

    def test_top(self):
        c = Counter("x")
        c.inc(5, monitor="a")
        c.inc(9, monitor="b")
        c.inc(1, monitor="c")
        assert c.top(2, label="monitor") == [("b", 9), ("a", 5)]

    def test_merge_adds(self):
        a, b = Counter("x"), Counter("x")
        a.inc(2, k="v")
        b.inc(3, k="v")
        b.inc(7, k="w")
        a.merge(b)
        assert a.get(k="v") == 5
        assert a.get(k="w") == 7


class TestGauge:
    def test_set_and_set_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set_max(1)
        assert g.get() == 3
        g.set_max(9)
        assert g.get() == 9

    def test_missing_series_is_none(self):
        assert Gauge("depth").get(monitor="m") is None

    @pytest.mark.parametrize(
        "agg,expected", [("max", 9), ("min", 3), ("sum", 12), ("last", 9)]
    )
    def test_merge_agg_modes(self, agg, expected):
        a, b = Gauge("g", agg=agg), Gauge("g", agg=agg)
        a.set(3)
        b.set(9)
        a.merge(b)
        assert a.get() == expected

    def test_bad_agg_rejected(self):
        with pytest.raises(ValueError, match="agg"):
            Gauge("g", agg="median")


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram("d", buckets=(1, 10, 100))
        h.observe(0.5)
        h.observe(5)
        h.observe(500)
        assert h.count() == 3
        assert h.total() == 505.5
        assert h.mean() == pytest.approx(505.5 / 3)

    def test_bucket_assignment(self):
        h = Histogram("d", buckets=(1, 10))
        h.observe(1)   # le=1 bucket (bisect_left: boundary goes low)
        h.observe(2)   # le=10
        h.observe(11)  # +Inf
        (series,) = h.series().values()
        assert series.counts == [1, 1, 1]

    def test_merge(self):
        a, b = Histogram("d", buckets=(1, 10)), Histogram("d", buckets=(1, 10))
        a.observe(0.5)
        b.observe(5)
        a.merge(b)
        assert a.count() == 2

    def test_merge_bucket_mismatch_rejected(self):
        a = Histogram("d", buckets=(1, 10))
        b = Histogram("d", buckets=(1, 100))
        with pytest.raises(ValueError, match="bucket"):
            a.merge(b)

    def test_needs_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            Histogram("d", buckets=())


class TestRegistry:
    def test_get_or_create_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert len(r) == 1

    def test_kind_mismatch_rejected(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("a")

    def test_merge_combines_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5)
        b.histogram("h").observe(3)
        a.merge(b)
        assert a.counter("c").total == 3
        assert a.gauge("g").get() == 5
        assert a.histogram("h").count() == 1

    def test_merge_deep_copies_missing_metrics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(1)
        a.merge(b)
        b.counter("c").inc(10)
        assert a.counter("c").total == 1  # not aliased to b's counter

    def test_merge_is_order_independent_for_counters(self):
        parts = []
        for amount in (1, 2, 3):
            r = MetricsRegistry()
            r.counter("c").inc(amount, w=str(amount))
            parts.append(r)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for p in parts:
            forward.merge(p)
        for p in reversed(parts):
            backward.merge(p)
        assert forward.to_dict() == backward.to_dict()


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        r = MetricsRegistry()
        r.counter("c", "help c").inc(2, k="v")
        r.gauge("g", "help g", agg="sum").set(1.5)
        r.histogram("h", "help h", buckets=(1, 10)).observe(4)
        return r

    def test_round_trip_via_dict(self):
        r = self._populated()
        restored = MetricsRegistry.from_dict(r.to_dict())
        assert restored.to_dict() == r.to_dict()
        assert restored.gauge("g").agg == "sum"
        assert restored.histogram("h").buckets == (1, 10)

    def test_snapshot_is_picklable_and_plain(self):
        snap = self._populated().snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert MetricsSnapshot.from_dict(snap.to_dict()) == snap

    def test_empty_flag(self):
        assert MetricsSnapshot().empty
        assert not self._populated().snapshot().empty

    def test_merge_snapshot(self):
        r = MetricsRegistry()
        r.merge_snapshot(self._populated().snapshot())
        r.merge_snapshot(self._populated().snapshot())
        assert r.counter("c").get(k="v") == 4
        assert r.gauge("g").get() == 3.0  # agg=sum survives the snapshot


def _exact(registry):
    """Everything a registry holds, series insertion order included."""
    rows = []
    for name in registry.names():
        metric = registry.get(name)
        series = [
            (key, (list(v.counts), v.sum, v.count) if hasattr(v, "counts") else v)
            for key, v in metric._series.items()
        ]
        rows.append(
            (
                name,
                metric.kind,
                metric.help,
                getattr(metric, "agg", None),
                getattr(metric, "buckets", None),
                [(key, repr(value)) for key, value in series],
            )
        )
    return rows


class TestMergeSnapshotFolding:
    """merge_snapshot folds rows in place; the result must be exactly
    what merging the snapshot's throwaway registry gave."""

    def _both(self, snapshots, start=None):
        folded, merged = MetricsRegistry(), MetricsRegistry()
        if start is not None:
            folded.merge_snapshot(start)
            merged.merge(start.to_registry())
        for snapshot in snapshots:
            folded.merge_snapshot(snapshot)
            merged.merge(snapshot.to_registry())
        return _exact(folded), _exact(merged)

    def test_campaign_snapshots(self):
        from repro.run import RunConfig, RunExecutor
        from repro.vm import RandomScheduler

        executor = RunExecutor(RunConfig(workload="pc-bug", metrics=True))
        snapshots = []
        for seed in range(30):
            executor.runner(executor(RandomScheduler(seed=seed)))
            snapshots.append(executor.sink.snapshot())
        folded, merged = self._both(snapshots)
        assert folded == merged
        assert len(folded) > 5

    def test_unsorted_and_duplicate_rows(self):
        messy = MetricsSnapshot(
            metrics=(
                {
                    "name": "c",
                    "type": "counter",
                    "help": "h",
                    "series": [
                        {"labels": {"k": "z"}, "value": 1.5},
                        {"labels": {"k": "a"}, "value": 2},
                        {"labels": {"k": "z"}, "value": 0.25},
                    ],
                },
                {
                    "name": "g",
                    "type": "gauge",
                    "agg": "min",
                    "series": [
                        {"labels": {"t": "b"}, "value": 4},
                        {"labels": {"t": "a"}, "value": 9},
                        {"labels": {"t": "b"}, "value": 7},
                    ],
                },
                {
                    "name": "h",
                    "type": "histogram",
                    "buckets": [10, 1],
                    "series": [
                        {"labels": {"x": "2"}, "counts": [1, 0, 0], "sum": 0.5, "count": 1},
                        {"labels": {"x": "1"}, "counts": [0, 2, 0], "sum": 9, "count": 2},
                    ],
                },
                # a later payload of the same name replaces the earlier one
                {"name": "c", "type": "counter", "series": [{"labels": {}, "value": 3}]},
            )
        )
        # into an empty registry (new metrics) and into populated ones
        assert self._both([messy])[0] == self._both([messy])[1]
        folded, merged = self._both([messy, messy], start=messy)
        assert folded == merged

    def test_kind_clash_and_bucket_clash_rejected(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        with pytest.raises(ValueError, match="cannot merge"):
            r.merge_snapshot(
                MetricsSnapshot(metrics=({"name": "x", "type": "gauge", "series": []},))
            )
        r.histogram("h", buckets=(1, 2)).observe(1)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            r.merge_snapshot(
                MetricsSnapshot(
                    metrics=(
                        {"name": "h", "type": "histogram", "buckets": [1, 3], "series": []},
                    )
                )
            )

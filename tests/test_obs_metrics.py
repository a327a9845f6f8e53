"""Unit tests for the metrics registry (repro.obs.metrics)."""

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_tracks_max(self):
        g = Gauge("x")
        g.set(5)
        g.set(2)
        assert g.value == 2 and g.max == 5

    def test_set_max_only_raises(self):
        g = Gauge("x")
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3 and g.max == 3


class TestHistogram:
    def test_moments(self):
        h = Histogram("x")
        for v in (0, 1, 5, 16):
            h.record(v)
        assert h.count == 4
        assert h.total == 22
        assert h.min == 0 and h.max == 16
        assert h.mean == pytest.approx(5.5)

    def test_power_of_two_buckets(self):
        h = Histogram("x")
        h.record(0)  # bucket 0
        h.record(1)  # bucket 1
        h.record(3)  # bucket 2
        h.record(4)  # bucket 3
        assert h.buckets == [1, 1, 1, 1]

    def test_record_many_matches_scalar_path(self):
        values = np.random.default_rng(0).integers(0, 1000, size=500)
        a, b = Histogram("a"), Histogram("b")
        for v in values.tolist():
            a.record(v)
        b.record_many(values)
        assert a.buckets == b.buckets
        assert a.count == b.count and a.total == b.total
        assert a.min == b.min and a.max == b.max

    def test_record_many_empty_is_noop(self):
        h = Histogram("x")
        h.record_many(np.empty(0))
        assert h.count == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").record(-1)
        with pytest.raises(ValueError):
            Histogram("x").record_many(np.array([1, -2]))


class TestRegistry:
    def test_created_on_first_use_and_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_export_schema(self):
        reg = MetricsRegistry()
        reg.counter("events").inc(3)
        reg.gauge("peak").set(7)
        h = reg.histogram("sizes")
        h.record(2)
        h.record(9)
        d = reg.to_dict()
        assert sorted(d) == ["events", "peak", "sizes"]
        assert d["events"] == {"type": "counter", "value": 3.0}
        assert d["peak"] == {"type": "gauge", "value": 7.0, "max": 7.0}
        hist = d["sizes"]
        assert hist["type"] == "histogram"
        assert set(hist) == {
            "type", "count", "sum", "min", "max", "mean", "buckets",
        }
        assert hist["count"] == 2 and hist["sum"] == 11

    def test_merge_folds_an_export_in(self):
        child = MetricsRegistry()
        child.counter("events").inc(3)
        child.gauge("peak").set(7)
        child.histogram("sizes").record_many([2, 9])
        parent = MetricsRegistry()
        parent.counter("events").inc(1)
        parent.gauge("peak").set(4)
        parent.histogram("sizes").record(1)
        parent.merge(child.to_dict())
        assert parent.counter("events").value == 4
        assert parent.gauge("peak").max == 7
        whole = MetricsRegistry()
        whole.histogram("sizes").record_many([1, 2, 9])
        assert parent.to_dict()["sizes"] == whole.to_dict()["sizes"]

    def test_export_is_json_serializable_and_sorted(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        assert reg.names() == ["a", "b"]
        json.dumps(reg.to_dict())


class TestEngineIntegration:
    def test_count_cliques_populates_metrics(self):
        from repro import count_cliques
        from repro.graphs import gnm_random_graph
        from repro.pram.tracker import Tracker

        g = gnm_random_graph(40, 200, seed=1)

        # Auto dispatch lands on the frontier engine for k >= 4 counting.
        tracker = Tracker()
        reg = tracker.attach_metrics(MetricsRegistry())
        count_cliques(g, 4, tracker=tracker)
        names = set(reg.names())
        assert "frontier.rounds" in names
        assert "frontier.width" in names

        # The reference engine keeps the search instrumentation.
        tracker = Tracker()
        reg = tracker.attach_metrics(MetricsRegistry())
        count_cliques(g, 4, tracker=tracker, engine="reference")
        names = set(reg.names())
        assert "search.candidate_size" in names
        assert "search.probes" in names
        assert "pram.region_tasks" in names
        assert reg.gauge("search.peak_candidate").max >= 2

    def test_executor_chunk_metrics(self):
        from repro.pram.executor import parallel_map_reduce
        from repro.pram.tracker import Tracker

        tracker = Tracker()
        reg = tracker.attach_metrics(MetricsRegistry())
        total = parallel_map_reduce(
            lambda block: int(block.sum()),
            100,
            n_workers=1,
            initial=0,
            tracker=tracker,
        )
        assert total == sum(range(100))
        assert reg.gauge("executor.dispatched_chunks").value >= 1
        assert reg.histogram("executor.chunk_size").count >= 1
        assert reg.gauge("executor.chunk_spread").max >= 1.0

"""Tests for the observability substrate: registry, null backend, report."""

import pytest

from repro.core.metrics import SyncMetrics
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    Observability,
    current_observability,
    null_registry,
    observed,
    set_current_observability,
)
from repro.obs.report import render_report
from repro.sim.trace import SpanKind, TraceRecorder

# These tests assert the ambient-observability machinery itself (NULL_OBS
# defaults, swap/restore); the sanitizer fixture would shadow it.
pytestmark = pytest.mark.no_sanitize


class TestCounter:
    def test_labelled_children_independent(self):
        reg = MetricsRegistry("t")
        c = reg.counter("pulls")
        c.inc(shard=0)
        c.inc(3.0, shard=1)
        c.labels(shard=1).inc()
        assert c.value(shard=0) == 1.0
        assert c.value(shard=1) == 4.0
        assert c.total() == 5.0

    def test_negative_increment_rejected(self):
        c = MetricsRegistry("t").counter("n")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_unseen_label_set_reads_zero(self):
        c = MetricsRegistry("t").counter("n")
        assert c.value(shard=99) == 0.0


class TestGauge:
    def test_series_uses_registry_clock(self):
        reg = MetricsRegistry("t")
        now = [0.0]
        reg.set_clock(lambda: now[0])
        g = reg.gauge("depth")
        g.set(2.0, shard=0)
        now[0] = 1.5
        g.set(5.0, shard=0)
        ts, vs = g.series(shard=0)
        assert ts == [0.0, 1.5]
        assert vs == [2.0, 5.0]
        assert g.value(shard=0) == 5.0

    def test_keep_series_off(self):
        reg = MetricsRegistry("t", keep_series=False)
        g = reg.gauge("depth")
        g.set(2.0)
        assert g.series() == ([], [])
        assert g.value() == 2.0

    def test_series_ring_buffer_keeps_newest_points(self):
        reg = MetricsRegistry("t", series_max_points=3)
        now = [0.0]
        reg.set_clock(lambda: now[0])
        g = reg.gauge("depth")
        for i in range(6):
            now[0] = float(i)
            g.set(float(i * 10), shard=0)
        ts, vs = g.series(shard=0)
        assert ts == [3.0, 4.0, 5.0]
        assert vs == [30.0, 40.0, 50.0]
        assert g.value(shard=0) == 50.0  # last value unaffected by the cap

    def test_series_cap_is_per_label_set(self):
        reg = MetricsRegistry("t", series_max_points=2)
        g = reg.gauge("depth")
        for i in range(4):
            g.set(float(i), shard=0)
        g.set(99.0, shard=1)
        assert g.series(shard=0)[1] == [2.0, 3.0]
        assert g.series(shard=1)[1] == [99.0]

    def test_series_unbounded_when_cap_none(self):
        reg = MetricsRegistry("t", series_max_points=None)
        g = reg.gauge("depth")
        for i in range(100):
            g.set(float(i))
        assert len(g.series()[1]) == 100

    def test_invalid_series_cap_rejected(self):
        reg = MetricsRegistry("t", series_max_points=0)
        with pytest.raises(ValueError):
            reg.gauge("depth")

    def test_default_cap_bounds_memory(self):
        reg = MetricsRegistry("t")
        assert reg.series_max_points == MetricsRegistry.DEFAULT_SERIES_MAX_POINTS


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry("t")
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry("t")
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_get_unknown_names_available(self):
        reg = MetricsRegistry("t")
        reg.counter("a")
        with pytest.raises(KeyError, match="'a'"):
            reg.get("missing")

    def test_to_dict_round_trips_names(self):
        reg = MetricsRegistry("t")
        reg.counter("a").inc(shard=1)
        reg.gauge("b").set(2.0)
        d = reg.to_dict()
        assert sorted(d["metrics"]) == ["a", "b"]
        assert d["metrics"]["a"]["values"] == {"shard=1": 1.0}


class TestNullBackend:
    def test_records_nothing_and_stores_no_keys(self):
        reg = null_registry()
        c = reg.counter("pulls")
        c.inc(shard=0)
        c.labels(shard=1).inc(5)
        g = reg.gauge("depth")
        g.set(3.0, shard=0)
        q = reg.sketch("lat")
        q.observe(2.0)
        q.labels(worker=1).observe(3.0, 4)
        assert reg.names() == []
        assert reg.to_dict() == {"name": "null", "metrics": {}}
        assert c.total() == 0.0
        assert g.series(shard=0) == ([], [])
        assert q.count() == 0 and q.merged() is None

    def test_shared_singleton(self):
        assert null_registry() is null_registry()
        assert isinstance(null_registry(), NullRegistry)

    def test_disabled_bundle_retains_no_runs(self):
        obs = current_observability()
        assert not obs.enabled
        cap = obs.begin_run("x", TraceRecorder())
        cap.instants.record("e", 0.0)
        assert obs.runs == []
        assert obs.last_run is None


class TestContext:
    def test_set_and_restore(self):
        obs = Observability(MetricsRegistry("mine"))
        prev = set_current_observability(obs)
        try:
            assert current_observability() is obs
        finally:
            set_current_observability(prev)
        assert current_observability() is prev

    def test_observed_scopes(self):
        before = current_observability()
        obs = Observability()
        with observed(obs):
            assert current_observability() is obs
        assert current_observability() is before

    def test_none_resets_to_disabled(self):
        prev = set_current_observability(None)
        try:
            assert not current_observability().enabled
        finally:
            set_current_observability(prev)


class TestSyncMetricsPublish:
    def test_summary_lands_as_gauges(self):
        reg = MetricsRegistry("t")
        m = SyncMetrics()
        m.record_pull(immediate=True, iteration=0)
        m.record_pull(immediate=False, iteration=1)
        m.record_probabilistic(passed=True)
        m.record_probabilistic(passed=False)
        m.publish(reg)
        assert reg.get("sync_pulls").value() == 2.0
        assert reg.get("sync_dprs").value() == 1.0
        assert reg.get("sync_probabilistic_passes").value() == 1.0
        assert reg.get("sync_probabilistic_pauses").value() == 1.0


class TestReport:
    def test_render_covers_all_kinds(self):
        reg = MetricsRegistry("t")
        reg.counter("c").inc(shard=0)
        reg.gauge("g").set(1.5, shard=0)
        reg.sketch("q").observe(0.5, worker=2)
        tr = TraceRecorder()
        tr.record_span("worker0", SpanKind.COMPUTE, 0.0, 2.0)
        out = render_report(reg, trace=tr)
        assert "-- counters --" in out
        assert "g{shard=0}: 1.5" in out
        assert "q{worker=2}: n=1" in out
        assert "worker0: compute=2" in out

    def test_empty_registry_notes_disabled(self):
        out = render_report(MetricsRegistry("t"))
        assert "no metrics recorded" in out

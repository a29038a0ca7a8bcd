"""Mergeable quantile sketches: accuracy, exact merge, registry wiring."""

import itertools
import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry, QuantileSketch
from repro.obs.quantiles import (
    merge_all,
    merge_metric_docs,
    percentile_rows,
    sketches_from_metrics_doc,
)
from repro.obs.registry import NullRegistry
from repro.obs.snapshot import ServerSnapshotter


def _values(seed: int, n: int = 4000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Lognormal latencies spanning several orders of magnitude.
    return rng.lognormal(mean=-4.0, sigma=1.5, size=n)


class TestSketchAccuracy:
    def test_quantiles_within_relative_accuracy(self):
        vals = _values(0)
        sk = QuantileSketch(relative_accuracy=0.01)
        for v in vals:
            sk.add(v)
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            # The true quantile lies between the two nearest order
            # statistics; the sketch must land within the relative
            # accuracy of that interval (2% leaves slack for the
            # rank convention at interval edges).
            lo = float(np.quantile(vals, q, method="lower")) * 0.98
            hi = float(np.quantile(vals, q, method="higher")) * 1.02
            assert lo <= sk.quantile(q) <= hi, f"q={q}"

    def test_extremes_and_zero_bucket(self):
        sk = QuantileSketch()
        for v in [0.0, 0.0, 1.0, 2.0]:
            sk.add(v)
        assert sk.quantile(0.0) == 0.0
        assert sk.quantile(1.0) == pytest.approx(2.0, rel=0.01)
        assert sk.count == 4
        assert sk.zero_count == 2

    def test_rejects_negative_and_nan(self):
        sk = QuantileSketch()
        with pytest.raises(ValueError):
            sk.add(-1.0)
        with pytest.raises(ValueError):
            sk.add(float("nan"))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_rejected_value_leaves_sketch_unchanged(self, bad):
        sk = QuantileSketch()
        sk.add(0.5, 3)
        before = sk.to_dict()
        with pytest.raises(ValueError):
            sk.add(bad)
        assert sk.to_dict() == before

    def test_empty_sketch(self):
        sk = QuantileSketch()
        assert sk.quantile(0.5) == 0.0
        assert sk.sum() == 0.0
        assert sk.mean() == 0.0
        assert sk.to_dict()["min"] is None

    def test_mean_tracks_true_mean(self):
        vals = _values(3)
        sk = QuantileSketch()
        for v in vals:
            sk.add(v)
        assert sk.mean() == pytest.approx(float(vals.mean()), rel=0.02)


class TestSketchMerge:
    def test_merge_matches_single_sketch_exactly(self):
        vals = _values(1, n=1000)
        whole = QuantileSketch()
        for v in vals:
            whole.add(v)
        parts = [QuantileSketch() for _ in range(4)]
        for i, v in enumerate(vals):
            parts[i % 4].add(v)
        merged = merge_all(parts)
        assert merged.to_dict() == whole.to_dict()

    def test_merge_order_independent_and_byte_deterministic(self):
        vals = _values(2, n=800)
        chunks = np.array_split(vals, 4)
        blobs = set()
        for order in itertools.permutations(range(4)):
            parts = []
            for i in order:
                sk = QuantileSketch()
                for v in chunks[i]:
                    sk.add(v)
                parts.append(sk)
            merged = merge_all(parts)
            blobs.add(json.dumps(merged.to_dict(), sort_keys=True))
        assert len(blobs) == 1

    def test_merge_accuracy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_from_dict_round_trip(self):
        sk = QuantileSketch()
        for v in _values(4, n=200):
            sk.add(v)
        clone = QuantileSketch.from_dict(json.loads(json.dumps(sk.to_dict())))
        assert clone.to_dict() == sk.to_dict()
        assert clone.quantile(0.95) == sk.quantile(0.95)


class TestRegistrySketch:
    def test_sketch_metric_observe_and_merge(self):
        reg = MetricsRegistry("t")
        s = reg.sketch("lat", "help")
        s.labels(worker=0).observe(1.0)
        s.labels(worker=1).observe(3.0)
        assert s.count(worker=0) == 1
        merged = s.merged()
        assert merged.count == 2
        assert 1.0 <= merged.quantile(0.0) <= merged.quantile(1.0) <= 3.0

    @pytest.mark.parametrize("value", [0.0, 1e-6, 0.37, 12.5])
    def test_count_weighted_observe_equals_scalar_calls(self, value):
        one_by_one = MetricsRegistry("a").sketch("lat")
        weighted = MetricsRegistry("b").sketch("lat")
        for s in (one_by_one, weighted):
            s.labels(shard=1).observe(0.2)
        for _ in range(500):
            one_by_one.labels(shard=1).observe(value)
        weighted.labels(shard=1).observe(value, 500)
        assert weighted.to_dict() == one_by_one.to_dict()
        with pytest.raises(ValueError):
            weighted.observe(value, 0)

    def test_sketch_survives_metrics_doc_round_trip(self):
        reg = MetricsRegistry("t")
        s = reg.sketch("lat")
        for v in (0.1, 0.2, 0.3):
            s.observe(v)
        doc = json.loads(json.dumps(reg.to_dict()))
        rebuilt = sketches_from_metrics_doc(doc)
        assert rebuilt["lat"][""].count == 3

    def test_merge_metric_docs_across_arms(self):
        docs = []
        for arm in range(3):
            reg = MetricsRegistry(f"arm{arm}")
            s = reg.sketch("lat")
            s.labels(worker=0).observe(float(arm + 1))
            docs.append(reg.to_dict())
        merged = merge_metric_docs(docs)
        assert merged["lat"]["worker=0"].count == 3
        rows = percentile_rows(merged)
        assert rows[0][:3] == ["lat", "worker=0", 3]

    def test_null_registry_sketch_is_noop(self):
        reg = NullRegistry()
        s = reg.sketch("lat")
        s.observe(1.0)
        s.labels(worker=0).observe(2.0)
        assert s.merged() is None
        assert s.sketch() is None

    def test_invalid_accuracy_rejected_eagerly(self):
        reg = MetricsRegistry("t")
        with pytest.raises(ValueError):
            reg.sketch("bad", relative_accuracy=1.5)


class TestGaugeEvictions:
    def test_ring_buffer_evictions_counted(self):
        reg = MetricsRegistry("t", series_max_points=4)
        g = reg.gauge("depth")
        for i in range(7):
            g.set(float(i))
        assert g.evicted() == 3
        ts, vs = g.series()
        assert len(vs) == 4 and vs[-1] == 6.0
        assert reg.to_dict()["metrics"]["depth"]["evicted"] == {"": 3}

    def test_no_evictions_no_key(self):
        reg = MetricsRegistry("t", series_max_points=4)
        g = reg.gauge("depth")
        g.set(1.0)
        assert g.evicted() == 0
        assert "evicted" not in reg.to_dict()["metrics"]["depth"]


class _Shard:
    """Minimal stand-in with the attributes the snapshotter scrapes."""

    def __init__(self):
        self.shard_id = 0
        self.buffered_pulls = 0
        self.v_train = 0
        self.version = 0
        self.callbacks = {}
        self.metrics = type("M", (), {"dprs": 0})()


class TestSnapshotterFinalize:
    def test_finalize_emits_final_sample_once(self):
        reg = MetricsRegistry("t")
        snap = ServerSnapshotter(reg, [_Shard()])
        snap.scrape(1.0)
        snap.finalize(2.5)
        assert snap.scrapes == 2
        _, vs = reg.get("ps_frontier").series(shard=0)
        assert len(vs) == 2

    def test_finalize_skips_when_already_sampled_at_end(self):
        reg = MetricsRegistry("t")
        snap = ServerSnapshotter(reg, [_Shard()])
        snap.scrape(2.5)
        snap.finalize(2.5)
        assert snap.scrapes == 1

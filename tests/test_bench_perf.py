"""Tests for the tracked perf-benchmark suite (repro.bench.perf)."""

import json

import pytest

from repro.bench.perf import (
    SCHEMA,
    PerfScale,
    _rolled_history,
    check_regression,
    render,
    run_suite,
)

#: Tiny scale: exercises every benchmark end to end in well under a second.
TINY = PerfScale(
    name="tiny",
    engine_procs=4,
    engine_iters=25,
    net_senders=2,
    net_msgs=4,
    sanitizer_iters=6,
    ml_steps=3,
    telemetry_ops=2_000,
    macro_workers=4,
    macro_iters=1,
    macro10k_workers=8,
    macro10k_iters=1,
    macro10k_repeats=1,
    macro100k_workers=12,
    macro100k_iters=1,
    macro100k_repeats=1,
    repeats=1,
)

EXPECTED_BENCHMARKS = {
    "engine_events_per_sec",
    "network_messages_per_sec",
    "sanitizer_events_per_sec",
    "ml_steps_per_sec",
    "null_telemetry_overhead_pct",
    "macro_fig7_wall_s",
    "macro_10k_wall_s",
    "macro_100k_wall_s",
    "macro_100k_sanitized_wall_s",
    "sweep_wall_s",
}


def _doc(engine_rate: float, scale: str = "tiny", **benchmarks) -> dict:
    all_benchmarks = {
        "engine_events_per_sec": {
            "value": engine_rate,
            "unit": "events/s",
            "detail": {},
        }
    }
    all_benchmarks.update(benchmarks)
    return {
        "schema": SCHEMA,
        "scale": scale,
        "python": "3.11",
        "benchmarks": all_benchmarks,
    }


def _net(rate: float) -> dict:
    return {"value": rate, "unit": "messages/s", "detail": {}}


def _macro(wall: float, events_per_sec: float = 0.0) -> dict:
    return {"value": wall, "unit": "s", "detail": {"events_per_sec": events_per_sec}}


class TestSuite:
    def test_run_suite_covers_every_benchmark(self):
        doc = run_suite(TINY)
        assert doc["schema"] == SCHEMA
        assert doc["scale"] == "tiny"
        assert set(doc["benchmarks"]) == EXPECTED_BENCHMARKS
        for name, bench in doc["benchmarks"].items():
            if name == "null_telemetry_overhead_pct":
                assert bench["value"] >= 0.0
            else:
                assert bench["value"] > 0.0

    def test_macro_detail_reports_memory_and_fast_paths(self):
        from repro.bench.perf import bench_macro_100k

        result = bench_macro_100k(TINY)
        for key in (
            "peak_rss_mb",
            "pending_event_hwm",
            "rounds_collapsed",
            "round_events_saved",
            "fused_deliveries",
        ):
            assert key in result.detail, key
        assert result.detail["peak_rss_mb"] > 0  # ru_maxrss works on Linux

    @pytest.mark.no_sanitize  # the ambient causal trace un-fuses the replies
    def test_macro_detail_reports_the_event_census(self):
        """``events_per_worker_iter`` is a count, not a rate: 2M+2 per
        worker-iteration on the unobserved event path (the M replies ride
        the fused gather) plus the one spawn wave, processed or credited."""
        from repro.bench.perf import bench_macro, bench_macro_100k

        for bench in (bench_macro, bench_macro_100k):
            detail = bench(TINY).detail
            census = 2 * detail["servers"] + 2 + 1 / detail["iterations"]
            assert detail["events_per_worker_iter"] == pytest.approx(census, abs=1e-12)
            assert detail["events_per_worker_iter"] * detail["workers"] * detail[
                "iterations"
            ] == pytest.approx(detail["events"] + detail["round_events_saved"])

    def test_sanitized_macro_reports_its_cost_over_the_raw_twin(self):
        from repro.bench.perf import bench_macro_100k_sanitized

        detail = bench_macro_100k_sanitized(TINY).detail
        assert detail["checked_over_raw"] == pytest.approx(
            (detail["run_wall_s"] + detail["sanitize_wall_s"]) / detail["raw_wall_s"]
        )
        assert detail["collapse_fallback"] == 0.0  # one round: always collapses
        assert detail["instants"] == detail["events_checked"] > 0

    def test_render_mentions_every_benchmark(self):
        doc = run_suite(TINY)
        text = render(doc)
        for name in EXPECTED_BENCHMARKS:
            assert name in text


class TestRegressionGate:
    def test_large_engine_drop_fails(self):
        failures = check_regression(_doc(600_000.0), _doc(1_000_000.0), 0.30)
        assert len(failures) == 1
        assert "engine_events_per_sec" in failures[0]

    def test_small_drop_passes(self):
        assert check_regression(_doc(900_000.0), _doc(1_000_000.0), 0.30) == []

    def test_improvement_passes(self):
        assert check_regression(_doc(2_000_000.0), _doc(1_000_000.0), 0.30) == []

    def test_missing_baseline_benchmark_passes(self):
        baseline = {"schema": SCHEMA, "benchmarks": {}}
        assert check_regression(_doc(1.0), baseline, 0.30) == []

    def test_network_drop_fails(self):
        cur = _doc(1e6, network_messages_per_sec=_net(60_000.0))
        base = _doc(1e6, network_messages_per_sec=_net(100_000.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "network_messages_per_sec" in failures[0]

    def test_macro_wall_growth_fails_at_same_scale(self):
        cur = _doc(1e6, macro_fig7_wall_s=_macro(1.5))
        base = _doc(1e6, macro_fig7_wall_s=_macro(1.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "macro_fig7_wall_s" in failures[0]

    def test_macro_wall_improvement_passes(self):
        cur = _doc(1e6, macro_fig7_wall_s=_macro(0.4))
        base = _doc(1e6, macro_fig7_wall_s=_macro(1.0))
        assert check_regression(cur, base, 0.30) == []

    def test_macro_cross_scale_compares_event_rate(self):
        # CI runs --quick against the full-scale record: wall times are not
        # comparable, so the gate falls back to events/sec (and a quick
        # wall far below the full-scale wall must not mask a rate drop).
        cur = _doc(1e6, scale="quick", macro_fig7_wall_s=_macro(0.1, 50_000.0))
        base = _doc(1e6, scale="full", macro_fig7_wall_s=_macro(1.0, 200_000.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "events_per_sec" in failures[0]
        # Healthy cross-scale rate: no failure despite different walls.
        cur_ok = _doc(1e6, scale="quick", macro_fig7_wall_s=_macro(2.0, 190_000.0))
        assert check_regression(cur_ok, base, 0.30) == []

    def test_macro_10k_gated_like_the_128_macro(self):
        cur = _doc(1e6, macro_10k_wall_s=_macro(8.0))
        base = _doc(1e6, macro_10k_wall_s=_macro(5.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "macro_10k_wall_s" in failures[0]
        # Cross-scale: quick (1k workers) vs full (10k) gates on events/sec.
        cur = _doc(1e6, scale="quick", macro_10k_wall_s=_macro(0.5, 40_000.0))
        base = _doc(1e6, scale="full", macro_10k_wall_s=_macro(5.0, 200_000.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "macro_10k_wall_s" in failures[0]
        assert "events_per_sec" in failures[0]

    def test_macro_100k_gated_like_the_10k_macro(self):
        cur = _doc(1e6, macro_100k_wall_s=_macro(80.0))
        base = _doc(1e6, macro_100k_wall_s=_macro(50.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "macro_100k_wall_s" in failures[0]
        # Cross-scale: quick (5k workers) vs full (100k) gates on events/sec.
        cur = _doc(1e6, scale="quick", macro_100k_wall_s=_macro(1.0, 40_000.0))
        base = _doc(1e6, scale="full", macro_100k_wall_s=_macro(50.0, 200_000.0))
        failures = check_regression(cur, base, 0.30)
        assert len(failures) == 1
        assert "macro_100k_wall_s" in failures[0]
        assert "events_per_sec" in failures[0]

    def test_cross_scale_skip_is_reported_by_name(self):
        # A cross-scale comparison without events_per_sec detail must name
        # the skipped benchmark instead of silently passing.
        cur = _doc(1e6, scale="quick", macro_10k_wall_s=_macro(0.5))
        base = _doc(
            1e6, scale="full",
            macro_10k_wall_s={"value": 5.0, "unit": "s", "detail": {}},
        )
        notes = []
        assert check_regression(cur, base, 0.30, notes=notes) == []
        assert any(
            "macro_10k_wall_s" in n and "skipped" in n and "baseline" in n
            for n in notes
        )

    def test_missing_gated_benchmark_is_reported_by_name(self):
        notes = []
        baseline = {"schema": SCHEMA, "scale": "tiny", "benchmarks": {}}
        assert check_regression(_doc(1.0), baseline, 0.30, notes=notes) == []
        skipped = "\n".join(notes)
        assert "network_messages_per_sec" in skipped
        assert "macro_fig7_wall_s" in skipped


    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_checked_over_raw_has_an_absolute_ceiling(self, scale):
        def doc(ratio):
            sanitized = {"value": 1.0, "unit": "s", "detail": {"checked_over_raw": ratio}}
            return _doc(1.0, scale=scale, macro_100k_sanitized_wall_s=sanitized)

        failures = check_regression(doc(5.5), doc(30.0), 0.30)
        assert len(failures) == 1 and "checked_over_raw 5.50" in failures[0]
        assert check_regression(doc(4.9), doc(2.0), 0.30) == []


class TestHistoryRoll:
    def test_no_previous_file_empty_history(self, tmp_path):
        assert _rolled_history(tmp_path / "BENCH_perf.json") == []

    def test_previous_document_becomes_history_entry(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        first = _doc(1_000_000.0)
        out.write_text(json.dumps(first))
        history = _rolled_history(out)
        assert history == [first]

    def test_history_accumulates_and_is_stripped(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        first = _doc(1.0)
        second = dict(_doc(2.0), history=[first])
        out.write_text(json.dumps(second))
        history = _rolled_history(out)
        assert history == [first, _doc(2.0)]

    def test_corrupt_previous_file_ignored(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        out.write_text("{not json")
        assert _rolled_history(out) == []


class TestScales:
    @pytest.mark.parametrize("field", list(PerfScale.__dataclass_fields__))
    def test_tiny_scale_fields_positive(self, field):
        value = getattr(TINY, field)
        if field != "name":
            assert value > 0

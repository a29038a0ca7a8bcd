"""Tests for the span/counter trace recorder."""

import numpy as np
import pytest

from repro.sim.trace import COMM_KINDS, Span, SpanKind, TraceRecorder


class TestSpans:
    def test_record_and_total(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0.0, 2.0)
        tr.record_span("w0", SpanKind.COMPUTE, 3.0, 4.0)
        tr.record_span("w0", SpanKind.PULL, 2.0, 3.0)
        assert tr.total("w0", SpanKind.COMPUTE) == pytest.approx(3.0)
        assert tr.count("w0", SpanKind.COMPUTE) == 2
        assert tr.end_time == 4.0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record_span("w", SpanKind.PUSH, 2.0, 1.0)

    def test_jitter_inversion_clipped_to_empty(self):
        # A sub-epsilon inversion is float clock jitter, not a bug: the
        # span is clipped to zero duration instead of raising.
        tr = TraceRecorder()
        t0 = 100.0
        tr.record_span("w", SpanKind.PUSH, t0, t0 - 1e-12 * t0)
        assert tr.total("w", SpanKind.PUSH) == 0.0
        assert tr.spans[0].t1 == tr.spans[0].t0 == t0
        assert tr.end_time == t0

    def test_real_inversion_still_raises(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError, match="ends before"):
            tr.record_span("w", SpanKind.PUSH, 100.0, 99.9)

    def test_comm_vs_compute_split(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 5)
        tr.record_span("w0", SpanKind.PUSH, 5, 6)
        tr.record_span("w0", SpanKind.PULL, 6, 8)
        tr.record_span("w0", SpanKind.BLOCKED, 8, 9)
        assert tr.compute_time() == pytest.approx(5.0)
        assert tr.comm_time() == pytest.approx(4.0)
        assert set(COMM_KINDS) == {SpanKind.PUSH, SpanKind.PULL, SpanKind.BLOCKED}

    def test_actor_filtering(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        tr.record_span("w1", SpanKind.COMPUTE, 0, 2)
        tr.record_span("server0", SpanKind.SERVER_APPLY, 0, 3)
        assert tr.compute_time(["w0"]) == pytest.approx(1.0)
        assert tr.compute_time(["w0", "w1"]) == pytest.approx(3.0)
        assert tr.actors() == ["server0", "w0", "w1"]

    def test_breakdown(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        b = tr.breakdown("w0")
        assert b["compute"] == pytest.approx(1.0)
        assert b["pull"] == 0.0

    def test_mean_breakdown(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 2)
        tr.record_span("w1", SpanKind.COMPUTE, 0, 4)
        mb = tr.mean_breakdown(["w0", "w1"])
        assert mb["compute"] == pytest.approx(3.0)
        with pytest.raises(ValueError):
            tr.mean_breakdown([])

    def test_counters(self):
        tr = TraceRecorder()
        tr.incr("dprs")
        tr.incr("dprs", 2)
        assert tr.counters["dprs"] == 3

    def test_span_duration(self):
        assert Span("w", SpanKind.PULL, 1.0, 3.5).duration == pytest.approx(2.5)


class TestBatchSpans:
    """``record_spans`` against one ``record_span`` call per element."""

    @staticmethod
    def _state(tr):
        return (dict(tr._totals), dict(tr._span_counts), tr.end_time, list(tr.spans))

    @pytest.mark.parametrize("keep_spans", [True, False])
    def test_equals_per_span_calls(self, keep_spans):
        rng = np.random.default_rng(3)
        t0 = np.cumsum(rng.uniform(0.0, 3.0, size=400)) + 1e5
        t1 = t0 + rng.uniform(0.0, 1e-3, size=400)  # totals that round
        one_by_one = TraceRecorder(keep_spans=keep_spans)
        batched = TraceRecorder(keep_spans=keep_spans)
        for tr in (one_by_one, batched):
            tr.record_span("server0", SpanKind.SERVER_APPLY, 0.25, 0.75)
            tr.record_span("worker0", SpanKind.COMPUTE, 0.0, 9e5, 0)
        for a, b in zip(t0.tolist(), t1.tolist()):
            one_by_one.record_span("server0", SpanKind.SERVER_APPLY, a, b)
        batched.record_spans("server0", SpanKind.SERVER_APPLY, t0, t1)
        assert self._state(batched) == self._state(one_by_one)
        assert len(batched.spans) == (402 if keep_spans else 0)

    def test_negative_jitter_is_clipped_like_record_span(self):
        t0 = np.array([1.0, 2.0, 3.0])
        t1 = np.array([1.5, 2.0 - 1e-12, 3.25])
        one_by_one, batched = TraceRecorder(), TraceRecorder()
        for a, b in zip(t0.tolist(), t1.tolist()):
            one_by_one.record_span("s", SpanKind.SERVER_APPLY, a, b, 4)
        batched.record_spans("s", SpanKind.SERVER_APPLY, t0, t1, 4)
        assert self._state(batched) == self._state(one_by_one)
        assert batched.spans[1].duration == 0.0

    def test_real_inversion_raises_and_records_nothing(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError, match="ends before it starts"):
            tr.record_spans("s", SpanKind.SERVER_APPLY, np.array([1.0, 5.0]), np.array([2.0, 4.0]))
        assert tr.spans == [] and tr.count("s", SpanKind.SERVER_APPLY) == 0

    def test_empty_batch_is_a_no_op(self):
        tr = TraceRecorder()
        tr.record_spans("s", SpanKind.SERVER_APPLY, np.empty(0), np.empty(0))
        assert tr.actors() == [] and tr.end_time == 0.0


class TestLeanMode:
    def test_totals_without_spans(self):
        tr = TraceRecorder(keep_spans=False)
        tr.record_span("w0", SpanKind.COMPUTE, 0, 2)
        assert tr.total("w0", SpanKind.COMPUTE) == pytest.approx(2.0)
        assert tr.spans == []
        with pytest.raises(ValueError):
            tr.render_timeline()


class TestTimeline:
    def test_render_contains_glyphs(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 5)
        tr.record_span("w0", SpanKind.PULL, 5, 10)
        out = tr.render_timeline(width=20)
        assert "#" in out and "<" in out
        assert "w0" in out
        assert "legend" in out

    def test_render_respects_actor_order(self):
        tr = TraceRecorder()
        tr.record_span("b", SpanKind.COMPUTE, 0, 1)
        tr.record_span("a", SpanKind.COMPUTE, 0, 1)
        out = tr.render_timeline(actors=["b", "a"], width=10)
        lines = out.splitlines()
        assert lines[1].startswith("b")
        assert lines[2].startswith("a")


class TestTimelineHeader:
    def test_header_right_aligns_t_max(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 8.0)
        out = tr.render_timeline(width=40)
        header, row = out.splitlines()[0], out.splitlines()[1]
        # rows are label + '|' + width cells + '|'; the t_max label must
        # end at the last cell column, and '0' sits over the first cell
        assert len(header) == len(row) - 1
        assert header.endswith("8s")
        label_w = row.index("|")
        assert header[label_w + 1] == "0"

    def test_narrow_width_rejected(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        with pytest.raises(ValueError, match="width"):
            tr.render_timeline(width=9)

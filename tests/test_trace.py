"""Tests for the span/counter trace recorder."""

import numpy as np
import pytest

from repro.sim.trace import COMM_KINDS, CohortSpans, Span, SpanKind, TraceRecorder


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

    def test_mismatched_shapes_raise_instead_of_broadcasting(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError, match="differ in shape"):
            tr.record_spans("s", SpanKind.SERVER_APPLY, np.array([1.0, 2.0, 3.0]), np.array([4.0]))
        assert tr.spans == [] and tr.count("s", SpanKind.SERVER_APPLY) == 0


def _state(tr):
    """What a recorder holds, key order of both dicts kind by kind
    (``total_by_kind`` sums a kind's totals in that order)."""
    return (
        [[(a, v) for (a, k), v in tr._totals.items() if k is kind] for kind in SpanKind],
        [[(a, c) for (a, k), c in tr._span_counts.items() if k is kind] for kind in SpanKind],
        tr.end_time,
        list(tr.spans),
    )


def _cohort_rounds(seed, n, k):
    """``k`` rounds of a cohort of ``n`` as the collapse driver sees them:
    ``(resume order, clock, ready, gather-close order, done)`` — clocks far
    from zero and short waits, so the per-actor totals round."""
    rng = np.random.default_rng(seed)
    clock = np.zeros(n)
    rounds = []
    for _ in range(k):
        ready = clock + 1e5 * rng.lognormal(0.0, 0.01, size=n)
        done = ready + rng.uniform(0.0, 1e-2, size=n)
        rounds.append((np.argsort(ready), clock, ready, np.argsort(done), done))
        clock = done
    return rounds


def _one_by_one(tr, actors, rounds, first=0):
    for r, (order, clock, ready, closes, done) in enumerate(rounds, start=first):
        for i in order.tolist():
            tr.record_span(actors[i], SpanKind.COMPUTE, float(clock[i]), float(ready[i]), r)
        for i in closes.tolist():
            tr.record_span(actors[i], SpanKind.PULL, float(ready[i]), float(done[i]), r)


def _as_cohort(tr, actors, rounds):
    compute = CohortSpans(tr, actors, SpanKind.COMPUTE)
    pull = CohortSpans(tr, actors, SpanKind.PULL)
    for r, (order, clock, ready, closes, done) in enumerate(rounds):
        compute.add(order, clock, ready, r)
        pull.add(closes, ready, done, r)
    compute.credit()
    pull.credit()


class TestCohortSpans:
    """``CohortSpans`` against one ``record_span`` per actor per round."""

    ACTORS = [f"worker{i}" for i in range(41)]

    @pytest.mark.parametrize("keep_spans", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_span_calls(self, keep_spans, seed):
        rounds = _cohort_rounds(seed, len(self.ACTORS), 7)
        one_by_one, cohort = TraceRecorder(keep_spans), TraceRecorder(keep_spans)
        _one_by_one(one_by_one, self.ACTORS, rounds)
        _as_cohort(cohort, self.ACTORS, rounds)
        assert _state(cohort) == _state(one_by_one)
        assert len(cohort.spans) == (2 * 7 * 41 if keep_spans else 0)
        assert list(cohort._totals)[:41] != [(a, SpanKind.COMPUTE) for a in self.ACTORS]
        for total in (TraceRecorder.compute_time, TraceRecorder.comm_time):
            assert total(cohort) == total(one_by_one)
            assert total(cohort, self.ACTORS) == total(one_by_one, self.ACTORS)

    def test_nothing_reaches_the_totals_before_the_credit(self):
        tr = TraceRecorder()
        spans = CohortSpans(tr, self.ACTORS, SpanKind.COMPUTE)
        order, clock, ready, _closes, _done = _cohort_rounds(0, 41, 1)[0]
        spans.add(order, clock, ready, 0)
        assert tr._totals == {} and tr._span_counts == {} and tr.end_time == 0.0
        assert [s.actor for s in tr.spans] == [self.ACTORS[i] for i in order.tolist()]

    def test_after_earlier_spans_on_the_same_keys(self):
        """The fold starts from what the recorder holds: ``(p + d0) + d1``,
        not ``p + (d0 + d1)``; keys that exist keep their place."""
        rounds = _cohort_rounds(5, 41, 6)
        one_by_one, cohort = TraceRecorder(), TraceRecorder()
        for tr in (one_by_one, cohort):
            for i in (7, 3, 40):
                tr.record_span(self.ACTORS[i], SpanKind.PULL, 0.1, 0.1 + 1e-3 * (i + 1) / 3)
                tr.record_span(self.ACTORS[i], SpanKind.COMPUTE, 0.3, 2e5 / 3)
            tr.record_span("server0", SpanKind.SERVER_APPLY, 0.0, 9e9)
        _one_by_one(one_by_one, self.ACTORS, rounds)
        _as_cohort(cohort, self.ACTORS, rounds)
        assert _state(cohort) == _state(one_by_one)
        assert cohort.count(self.ACTORS[3], SpanKind.PULL) == 7
        assert cohort.end_time == 9e9

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_credit_after_devectorisation_at_round_k(self, k):
        """``k`` rounds as a cohort, the credit, then the rest span by span
        — the event path after a hand-over — is all of them span by span."""
        rounds = _cohort_rounds(11, 41, 6)
        one_by_one, handed_over = TraceRecorder(), TraceRecorder()
        _one_by_one(one_by_one, self.ACTORS, rounds)
        _as_cohort(handed_over, self.ACTORS, rounds[:k])
        if k == 0:
            assert handed_over._totals == {} and handed_over._span_counts == {}
            assert handed_over.end_time == 0.0 and handed_over.spans == []
        _one_by_one(handed_over, self.ACTORS, rounds[k:], first=k)
        assert _state(handed_over) == _state(one_by_one)

    def test_jitter_inversion_is_clipped_like_record_span(self):
        rounds = _cohort_rounds(2, 41, 3)
        order, clock, ready, closes, done = rounds[1]
        done = done.copy()
        done[[4, 17]] = ready[[4, 17]] * (1.0 - 1e-12)
        rounds[1] = (order, clock, ready, closes, done)
        rounds[2] = (rounds[2][0], done) + rounds[2][2:]
        one_by_one, cohort = TraceRecorder(), TraceRecorder()
        _one_by_one(one_by_one, self.ACTORS, rounds)
        _as_cohort(cohort, self.ACTORS, rounds)
        assert _state(cohort) == _state(one_by_one)
        clipped = [s for s in cohort.spans if s.kind is SpanKind.PULL and s.duration == 0.0]
        assert sorted(s.actor for s in clipped) == ["worker17", "worker4"]

    def test_real_inversion_raises_record_spans_message_and_adds_nothing(self):
        order, clock, ready, _closes, _done = _cohort_rounds(3, 41, 1)[0]
        ready = ready.copy()
        ready[9] = clock[9] - 0.5
        tr = TraceRecorder()
        with pytest.raises(ValueError) as scalar:
            tr.record_span("worker9", SpanKind.COMPUTE, float(clock[9]), float(ready[9]))
        spans = CohortSpans(tr, self.ACTORS, SpanKind.COMPUTE)
        with pytest.raises(ValueError) as cohort:
            spans.add(order, clock, ready, 0)
        assert str(cohort.value) == str(scalar.value)
        assert tr.spans == [] and spans.rounds == 0 and not spans.totals.any()
        spans.credit()
        assert tr._totals == {}

    def test_mismatched_shapes_raise(self):
        order, clock, ready, _closes, _done = _cohort_rounds(3, 41, 1)[0]
        spans = CohortSpans(TraceRecorder(), self.ACTORS, SpanKind.COMPUTE)
        with pytest.raises(ValueError, match="differ in shape"):
            spans.add(order, clock, ready[:1], 0)
        with pytest.raises(ValueError, match="41 actors"):
            spans.add(order[:40], clock[:40], ready[:40], 0)
        assert spans.rounds == 0 and spans.trace.spans == []


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

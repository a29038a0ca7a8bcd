"""The sanitizer's vector proof of columnar blocks vs. its row replay.

A collapsed round reaches the sanitizer as one
:class:`~repro.obs.export.InstantBlock`.  ``feed_block`` proves it in
vector passes and, on any failed predicate, materialises the rows and
replays them — so the row replay is the oracle: whatever is done to a
block, proof-plus-fallback must report exactly what materialise-then-
replay reports.  The suite mutates single cells (and rows) of real
blocks from a collapsed run and compares the two verdicts.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize_events, sanitize_run
from repro.analysis.events import EventBlock, iter_event_stream
from repro.analysis.sanitizer import ProtocolSanitizer
from repro.core.models import asp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import Instant, MetricsRegistry, Observability
from repro.obs.export import (
    FRONTIER_ADVANCE,
    PULL_ANSWER,
    PULL_REQUEST,
    PUSH,
    InstantBlock,
)
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, cpu_cluster_compute

from tests.mutants import proof_ignores_staleness_bound

pytestmark = pytest.mark.no_sanitize

N_WORKERS, N_SERVERS, ITERS = 6, 2, 3


def _collapsed_stream(sync=None):
    """The event stream of a fully collapsed 6x2x3 run: config rows and
    one block per shard per round, each shard's config before its first."""
    obs = Observability(MetricsRegistry("blocks"), causal=False)
    cfg = SimConfig(
        cluster=cpu_cluster(N_WORKERS, n_servers=N_SERVERS),
        max_iter=ITERS,
        sync=sync or ssp(1),
        workload=alexnet_cifar_workload(),
        compute_model=DeterministicCompute(),
        base_compute_time=5.0,
        seed=5,
        obs=obs,
    )
    runner = FluentPSSimRunner(cfg)
    runner.run()
    assert runner.engine.rounds_collapsed == ITERS
    return list(iter_event_stream(obs.last_run.instants))


STREAM = _collapsed_stream()
BLOCKS = [i for i, item in enumerate(STREAM) if isinstance(item, EventBlock)]


def _merged_stream():
    """The event stream of a 24x2x4 straggler run whose rounds commit
    merged with the next round's intruders: a shard's stream is cut at
    its first intruder, and the block after the cut holds two rounds."""
    obs = Observability(MetricsRegistry("blocks"), causal=False)
    runner = FluentPSSimRunner(
        SimConfig(
            cluster=cpu_cluster(24, n_servers=2), max_iter=4, sync=ssp(3),
            workload=alexnet_cifar_workload(), compute_model=cpu_cluster_compute(24), seed=0,
            obs=obs,
        )
    )
    runner.run()
    assert runner.engine.rounds_collapsed == 4
    stream = list(iter_event_stream(obs.last_run.instants))
    assert any(
        len(set(item.block.rows["progress"].tolist())) > 1
        for item in stream if isinstance(item, EventBlock)
    )
    return stream


MERGED = _merged_stream()
MERGED_BLOCKS = [i for i, item in enumerate(MERGED) if isinstance(item, EventBlock)]


def _with_block(rows_of, at, stream=STREAM):
    """``stream`` with the block at stream position ``at`` rebuilt from
    ``rows_of(copy of its rows)``, later indices shifted to match."""
    out, index = [], 0
    for i, item in enumerate(stream):
        if isinstance(item, EventBlock):
            rows = rows_of(item.block.rows.copy()) if i == at else item.block.rows
            item = EventBlock(index, InstantBlock(rows, item.block.shards))
            index += len(item)
        else:
            item = type(item)(index, item.name, item.t, item.actor, item.args)
            index += 1
        out.append(item)
    return out


def _flatten(stream):
    for item in stream:
        if isinstance(item, EventBlock):
            yield from item.events()
        else:
            yield item


def _capture(stream):
    """A capture-shaped object whose instant log holds ``stream``'s
    segments (blocks columnar, rows as instants), for ``sanitize_run``."""
    segments = [
        item.block if isinstance(item, EventBlock)
        else Instant(item.name, item.t, item.actor, item.args)
        for item in stream
    ]
    return SimpleNamespace(instants=segments, complete=True)


def _verdict(report):
    return (
        report.n_events,
        report.n_shards,
        [
            (v.code, v.message, v.uid, v.event.index, [e.index for e in v.window])
            for v in report.violations
        ],
    )


def _assert_same_verdict(stream):
    proven = sanitize_events(stream)
    replayed = sanitize_events(_flatten(stream))
    assert _verdict(proven) == _verdict(replayed)
    return proven


def _rows_where(stream_pos, code, shard=None):
    rows = STREAM[stream_pos].block.rows
    mask = rows["code"] == code
    if shard is not None:
        mask &= rows["shard"] == shard
    return np.nonzero(mask)[0]


class TestCleanBlocks:
    def test_blocks_are_proven_without_touching_a_row(self, monkeypatch):
        fed = []
        feed = ProtocolSanitizer.feed
        monkeypatch.setattr(
            ProtocolSanitizer, "feed", lambda self, ev: (fed.append(ev.name), feed(self, ev))
        )
        report = sanitize_events(STREAM)
        assert report.ok
        assert set(fed) == {"run_config", "server_config"}
        assert report.n_events == len(fed) + sum(len(STREAM[i]) for i in BLOCKS)
        assert report.n_events == 1 + N_SERVERS + ITERS * (3 * N_WORKERS + 1) * N_SERVERS

    def test_same_state_as_row_replay(self):
        def final_state(stream):
            san = ProtocolSanitizer()
            for item in stream:
                (san.feed_block if isinstance(item, EventBlock) else san.feed)(item)
            return {
                uid: (
                    c.push_clock.view(N_WORKERS).tolist(),
                    c.pull_clock.view(N_WORKERS).tolist(),
                    c.v_train,
                    dict(c.count),
                    c.outstanding,
                    [e.index for e in san._window],
                )
                for uid, c in san.checkers.items()
            }

        assert final_state(STREAM) == final_state(_flatten(STREAM))

    def test_unbounded_staleness_round_trips_as_none(self):
        stream = _collapsed_stream(asp())
        answers = [e for e in _flatten(stream) if e.name == "pull_answer"]
        assert answers and all(e.args["s"] is None for e in answers)
        assert sanitize_events(stream).ok


class TestTargetedMutations:
    """One named corruption each: the code the row replay gives it."""

    LAST = BLOCKS[-1]  # shard 1's block of the last round

    def _codes(self, mutate):
        stream = _with_block(mutate, self.LAST)
        report = _assert_same_verdict(stream)
        assert _verdict(sanitize_run(_capture(stream))) == _verdict(report)
        return {v.code for v in report.violations}

    def test_skipped_progress_is_s001(self):
        at = _rows_where(self.LAST, PUSH)[0]

        def mutate(rows):
            rows["progress"][at] += 1
            return rows

        assert "S001" in self._codes(mutate)

    def test_pull_swapped_before_its_push_is_s006(self):
        rows = STREAM[self.LAST].block.rows
        req = _rows_where(self.LAST, PULL_REQUEST, shard=1)[0]
        push = next(
            i for i in _rows_where(self.LAST, PUSH, shard=1)
            if rows["worker"][i] == rows["worker"][req]
        )

        def mutate(rows):
            rows[[push, req]] = rows[[req, push]]
            return rows

        assert "S006" in self._codes(mutate)

    def test_bumped_answer_frontier_is_s008(self):
        at = _rows_where(self.LAST, PULL_ANSWER)[0]

        def mutate(rows):
            rows["v_train"][at] += 1
            return rows

        assert "S008" in self._codes(mutate)

    def test_missing_over_the_bound_is_s004(self):
        at = _rows_where(self.LAST, PULL_ANSWER)[-1]

        def mutate(rows):
            rows["missing"][at] = 2  # ssp(1): at most one
            return rows

        assert {"S004", "S009"} <= self._codes(mutate)

    def test_regressed_pull_is_s014(self):
        req = _rows_where(self.LAST, PULL_REQUEST)[0]

        def mutate(rows):
            rows["progress"][[req, req + 1]] -= 2
            return rows

        assert "S014" in self._codes(mutate)

    def test_dropped_frontier_advance_is_s008_downstream(self):
        adv = _rows_where(self.LAST, FRONTIER_ADVANCE, shard=1)[0]
        assert "S008" in self._codes(lambda rows: np.delete(rows, adv))

    def test_early_frontier_advance_is_s003(self):
        adv = _rows_where(self.LAST, FRONTIER_ADVANCE, shard=1)[0]
        first = _rows_where(self.LAST, PUSH, shard=1)[0]

        def mutate(rows):
            moved = rows[adv]
            rows = np.delete(rows, adv)
            return np.insert(rows, first, moved)

        assert "S003" in self._codes(mutate)


def _bound_lowered_stream():
    """STREAM with the staleness bound of one shard lowered from 1 to 0
    in the first block where that shard answers with ``missing == 1``."""
    at, row = next(
        (i, row) for i in BLOCKS for row in _rows_where(i, PULL_ANSWER)
        if STREAM[i].block.rows["missing"][row] == 1
    )
    block = STREAM[at].block
    j = int(block.rows["shard"][row])
    shards = list(block.shards)
    assert shards[j].s == 1
    shards[j] = dataclasses.replace(shards[j], s=0)
    stream = list(STREAM)
    stream[at] = EventBlock(STREAM[at].index, InstantBlock(block.rows, shards))
    return stream


def check_bound_lowered_is_s004():
    """The answers now miss more than ``s`` allows: ``sanitize_run``
    reports S004, and only S004, exactly as the row replay does."""
    stream = _bound_lowered_stream()
    replayed = sanitize_events(_flatten(stream))
    assert {v.code for v in replayed.violations} == {"S004"}
    assert _verdict(sanitize_run(_capture(stream))) == _verdict(replayed)


class TestStalenessBoundProof:
    def test_a_lowered_bound_is_s004(self):
        check_bound_lowered_is_s004()

    def test_proof_ignores_staleness_bound_dies_here(self, monkeypatch):
        proof_ignores_staleness_bound(monkeypatch)
        with pytest.raises(AssertionError):
            check_bound_lowered_is_s004()


FIELDS = ("code", "shard", "worker", "progress", "v_train", "missing", "version")


#: ``(position, stream)`` of every block, isolated and merged.
ANY_BLOCK = [(i, STREAM) for i in BLOCKS] + [(i, MERGED) for i in MERGED_BLOCKS]


class TestAnyMutationMatchesRowReplay:
    @given(
        which=st.sampled_from(ANY_BLOCK),
        field=st.sampled_from(FIELDS),
        row=st.integers(min_value=0),
        delta=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_cell(self, which, field, row, delta):
        def mutate(rows):
            at = row % rows.shape[0]
            value = int(rows[field][at]) + delta
            if field == "code":
                value %= 4
            elif field == "shard":
                value %= N_SERVERS
            rows[field][at] = value
            return rows

        _assert_same_verdict(_with_block(mutate, *which))

    @given(
        which=st.sampled_from(ANY_BLOCK),
        a=st.integers(min_value=0),
        b=st.integers(min_value=0),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_rows_swapped(self, which, a, b):
        def mutate(rows):
            i, j = a % rows.shape[0], b % rows.shape[0]
            rows[[i, j]] = rows[[j, i]]
            return rows

        _assert_same_verdict(_with_block(mutate, *which))

    @given(
        which=st.sampled_from(ANY_BLOCK),
        row=st.integers(min_value=0),
        duplicate=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_row_dropped_or_duplicated(self, which, row, duplicate):
        def mutate(rows):
            at = row % rows.shape[0]
            if duplicate:
                return np.insert(rows, at, rows[at])
            return np.delete(rows, at)

        _assert_same_verdict(_with_block(mutate, *which))


class TestMergedBlocks:
    """Blocks of rounds merged with the next round's intruders are proven
    whole (``TestAnyMutationMatchesRowReplay`` mutates them too)."""

    def test_merged_blocks_are_proven_without_touching_a_row(self, monkeypatch):
        fed = []
        feed = ProtocolSanitizer.feed
        monkeypatch.setattr(
            ProtocolSanitizer, "feed", lambda self, ev: (fed.append(ev.name), feed(self, ev))
        )
        report = sanitize_events(MERGED)
        assert report.ok
        assert set(fed) == {"run_config", "server_config"}

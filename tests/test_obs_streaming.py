"""Tests for the disk-spilling instant log and streamed sanitization.

At 100k workers a sanitized run emits millions of protocol instants; the
``InstantLog`` keeps at most ``spill_cap`` of them in memory and spills
the rest to a temp file — columnar blocks as raw ``.npy`` arrays, runs
of rows as pickled lists — and the sanitizer replays the spilled prefix
from disk chunk by chunk.  These tests pin the invariant that spilling
is invisible: same events, same order, same sanitizer verdict.
"""

import gc
import json

import numpy as np
import pytest

from repro.analysis import (
    iter_events_from_instants,
    sanitize_events,
    sanitize_observability,
)
from repro.core.models import asp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import MetricsRegistry, Observability
from repro.obs.export import (
    BLOCK_DTYPE,
    DEFAULT_INSTANT_SPILL_CAP,
    DPR_BUFFERED,
    DPR_RELEASED,
    FRONTIER_ADVANCE,
    PULL_ANSWER,
    PULL_REQUEST,
    PUSH,
    InstantBlock,
    InstantLog,
    ShardConstants,
)
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute


def _fill(log, n):
    for i in range(n):
        log.record(f"ev{i % 7}", float(i), f"actor-{i % 3}", idx=i, half=i / 2)
    return log


def _as_list(log):
    return [(e.name, e.t, e.actor, e.args) for e in log]


class TestInstantLogSpill:
    def test_spilled_equals_in_memory(self):
        spilled = _fill(InstantLog(spill_cap=16), 500)
        resident = _fill(InstantLog(spill_cap=10_000), 500)
        assert spilled.spilled_events == 500 - (500 % 16 or 16) or spilled.spilled_events > 0
        assert resident.spilled_events == 0
        assert len(spilled) == len(resident) == 500
        assert _as_list(spilled) == _as_list(resident)

    def test_by_name_filters_across_spill_boundary(self):
        log = _fill(InstantLog(spill_cap=8), 100)
        want = [e for e in _as_list(log) if e[0] == "ev3"]
        got = [(e.name, e.t, e.actor, e.args) for e in log.by_name("ev3")]
        assert got == want
        assert len(want) > 0

    def test_nested_iteration_is_reentrant(self):
        log = _fill(InstantLog(spill_cap=8), 60)
        pairs = [(a.args["idx"], b.args["idx"]) for a in log for b in log]
        assert len(pairs) == 60 * 60

    def test_record_after_iterate(self):
        log = _fill(InstantLog(spill_cap=8), 20)
        first = _as_list(log)
        log.record("late", 99.0, "actor-x")
        again = _as_list(log)
        assert again[:-1] == first
        assert again[-1] == ("late", 99.0, "actor-x", {})
        assert len(log) == 21

    def test_args_roundtrip_through_spill(self):
        log = InstantLog(spill_cap=1)
        log.record("a", 1.0, "w", nested={"k": [1, 2.5, "s", None]}, inf=float("inf"))
        log.record("b", 2.0, "w")  # push "a" over the spill boundary
        events = _as_list(log)
        assert events[0] == ("a", 1.0, "w", {"nested": {"k": [1, 2.5, "s", None]}, "inf": float("inf")})

    def test_env_var_sets_default_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTANT_SPILL_CAP", "3")
        log = _fill(InstantLog(), 10)
        assert log.spilled_events > 0
        assert _as_list(log) == _as_list(_fill(InstantLog(spill_cap=100), 10))
        monkeypatch.delenv("REPRO_INSTANT_SPILL_CAP")
        assert InstantLog().spill_cap == DEFAULT_INSTANT_SPILL_CAP

    @pytest.mark.parametrize("bad", ["many", "1.5", "", "0", "-4"])
    def test_invalid_env_cap_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_INSTANT_SPILL_CAP", bad)
        with pytest.raises(ValueError, match="REPRO_INSTANT_SPILL_CAP"):
            InstantLog()
        assert InstantLog(spill_cap=5).spill_cap == 5  # explicit cap wins

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "three"])
    def test_invalid_spill_cap_argument_is_rejected(self, bad):
        with pytest.raises(ValueError, match="spill_cap"):
            InstantLog(spill_cap=bad)

    def test_spill_file_is_closed_with_the_log(self):
        log = _fill(InstantLog(spill_cap=4), 20)
        dropped = _fill(InstantLog(spill_cap=4), 20)
        files = log._spill_file, dropped._spill_file
        log.close()
        del dropped
        gc.collect()
        assert all(f.closed for f in files)

    def test_iter_events_streams_lazily(self):
        log = InstantLog(spill_cap=8)
        for i in range(40):
            log.record("push", float(i), f"w{i % 3}", shard=0, worker=i % 3)
        it = iter_events_from_instants(log)
        first = next(it)
        assert first.index == 0 and first.name == "push"
        rest = list(it)
        assert len(rest) == 39
        assert [e.index for e in rest] == list(range(1, 40))


def _block(rows, shards):
    """Rows given without ``(waited, released_by)`` are no DPR's: (0.0, -1)."""
    rows = [row if len(row) == len(BLOCK_DTYPE) else row + (0.0, -1) for row in rows]
    return np.array(rows, dtype=BLOCK_DTYPE), shards


#: (code, shard, worker, progress, v_train, missing, version, t)
_ROUND = [
    (PUSH, 0, 0, 0, 0, 0, 0, 1.0),
    (PULL_REQUEST, 0, 0, 0, 0, 0, 0, 1.5),
    (PULL_ANSWER, 0, 0, 0, 0, 1, 1, 1.5),
    (PUSH, 1, 1, 0, 0, 0, 0, 2.0),
    (PUSH, 0, 1, 0, 0, 0, 0, 2.25),
    (FRONTIER_ADVANCE, 0, -1, 0, 1, 0, 0, 2.25),
    (PULL_REQUEST, 0, 1, 0, 1, 0, 0, 2.5),
    (PULL_ANSWER, 0, 1, 0, 1, 0, 2, 2.5),
]
_SHARDS = [
    ShardConstants("server0", uid=40, shard=0, kind="ssp", s=3.0),
    ShardConstants("server1", uid=41, shard=1, kind="ssp", s=None),
]


class TestBlockSpill:
    """Columnar blocks: appended whole, spilled as ``.npy``, materialised
    through the servers' own argument table."""

    def _mixed(self, cap):
        log = InstantLog(spill_cap=cap)
        log.record("run_config", 0.0, actor="runner", n_workers=2)
        log.append_block(*_block(_ROUND[:3], _SHARDS))
        log.record("dpr_buffered", 1.75, actor="server1", s=None, inf=float("inf"))
        log.append_block(*_block(_ROUND[3:], _SHARDS))
        return log

    def test_rows_materialise_with_the_record_sites_arg_order(self):
        log = InstantLog(spill_cap=100)
        log.append_block(*_block(_ROUND, _SHARDS))
        rows = list(log)
        assert [r.name for r in rows] == [
            "push", "pull_request", "pull_answer", "push", "push",
            "frontier_advance", "pull_request", "pull_answer",
        ]
        assert rows[0] == (
            type(rows[0])("push", 1.0, "server0",
                          dict(uid=40, shard=0, worker=0, progress=0, v_train=0))
        )
        assert list(rows[5].args.items()) == [("uid", 40), ("v_train", 1), ("shard", 0)]
        assert list(rows[2].args.items()) == [
            ("uid", 40), ("shard", 0), ("worker", 0), ("progress", 0), ("v_train", 0),
            ("missing", 1), ("released", False), ("coin", False), ("kind", "ssp"),
            ("s", 3.0), ("waited", 0.0), ("version", 1), ("snap", None),
        ]
        assert rows[3].actor == "server1" and rows[3].args["uid"] == 41
        assert all(type(v) in (int, float, bool, str, type(None))
                   for r in rows for v in r.args.values())

    def test_dpr_rows_materialise_with_the_record_sites_arg_order(self):
        """A barrier shard's block: a pull buffered at the frontier, then
        released (waited 0.5 s) by worker 1's push, which advances it."""
        log = InstantLog(spill_cap=100)
        log.append_block(*_block([
            (PULL_REQUEST, 0, 0, 0, 0, 0, 0, 1.5),
            (DPR_BUFFERED, 0, 0, 0, 0, 0, 0, 1.5),
            (PUSH, 0, 1, 0, 0, 0, 0, 2.0),
            (FRONTIER_ADVANCE, 0, -1, 0, 1, 0, 0, 2.0),
            (DPR_RELEASED, 0, 0, 0, 1, 0, 0, 2.0, 0.5, 1),
            (PULL_ANSWER, 0, 0, 0, 1, 0, 2, 2.0, 0.5, 1),
        ], _SHARDS))
        rows = list(log)
        assert list(rows[1].args.items()) == [
            ("uid", 40), ("worker", 0), ("progress", 0), ("key", 0), ("shard", 0),
            ("v_train", 0), ("s", 3.0),
        ]
        assert list(rows[4].args.items()) == [
            ("uid", 40), ("worker", 0), ("progress", 0), ("waited", 0.5), ("missing", 0),
            ("shard", 0), ("released_by", 1),
        ]
        assert list(rows[5].args.items()) == [
            ("uid", 40), ("shard", 0), ("worker", 0), ("progress", 0), ("v_train", 1),
            ("missing", 0), ("released", True), ("coin", False), ("kind", "ssp"),
            ("s", 3.0), ("waited", 0.5), ("version", 2), ("snap", None),
        ]

    @pytest.mark.parametrize("cap", [1, 2, 4, 6, 9])
    def test_spilled_equals_in_memory(self, cap):
        spilled, resident = self._mixed(cap), self._mixed(1000)
        assert resident.spilled_events == 0
        assert spilled.spilled_events >= min(cap, 4)
        assert len(spilled) == len(resident) == 10 == sum(1 for _ in spilled)
        assert _as_list(spilled) == _as_list(resident)
        kinds = [type(seg) for seg in spilled.segments()]
        assert kinds.count(InstantBlock) == 2  # blocks stay whole on disk
        assert _as_list(spilled)[4][3] == {"s": None, "inf": float("inf")}

    def test_counts_are_events_not_blocks(self):
        log = InstantLog(spill_cap=5)
        log.append_block(*_block(_ROUND, _SHARDS))  # 8 rows >= cap: spills at once
        assert (len(log), log.spilled_events) == (8, 8)
        log.append_block(*_block(_ROUND[:3], _SHARDS))
        assert (len(log), log.spilled_events) == (11, 8)
        log.append_block(*_block([], _SHARDS))  # nothing to append
        assert len(list(log.segments())) == 2

    def test_nested_iteration_and_record_after_iterate(self):
        log = self._mixed(3)
        assert len([(a, b) for a in log for b in log]) == 100
        first = _as_list(log)
        log.record("late", 99.0, "actor-x")
        log.append_block(*_block(_ROUND[:1], _SHARDS))
        again = _as_list(log)
        assert again[:10] == first
        assert [e[0] for e in again[10:]] == ["late", "push"]


def _sim_instant_stream(obs):
    return json.dumps(
        [
            [i.name, i.t, i.actor, {k: v for k, v in sorted(i.args.items()) if k != "uid"}]
            for i in obs.last_run.instants
        ]
    )


class TestSanitizeSpilledRun:
    @pytest.mark.no_sanitize
    @pytest.mark.parametrize("sync", [ssp(3), asp()], ids=["ssp3", "asp"])
    def test_sanitizer_replays_from_disk(self, monkeypatch, sync):
        def run(cap):
            if cap is not None:
                monkeypatch.setenv("REPRO_INSTANT_SPILL_CAP", str(cap))
            else:
                monkeypatch.delenv("REPRO_INSTANT_SPILL_CAP", raising=False)
            obs = Observability(MetricsRegistry("spill-test"), causal=False)
            cfg = SimConfig(
                cluster=cpu_cluster(12, n_servers=3),
                max_iter=4,
                sync=sync,
                workload=alexnet_cifar_workload(),
                compute_model=DeterministicCompute(),
                seed=11,
                obs=obs,
            )
            runner = FluentPSSimRunner(cfg)
            runner.run()
            assert runner.engine.rounds_collapsed == 4  # blocks, not rows
            report = sanitize_observability(obs)
            return obs, report

        obs_spill, rep_spill = run(50)
        obs_mem, rep_mem = run(None)
        assert obs_spill.last_run.instants.spilled_events > 0
        assert obs_mem.last_run.instants.spilled_events == 0
        assert rep_spill.ok, rep_spill.violations
        assert rep_mem.ok
        assert rep_spill.n_events == rep_mem.n_events > 0
        # The row oracle replays the same spilled blocks, read back from
        # disk, one row at a time.
        cap = obs_spill.last_run
        replayed = sanitize_events(
            iter_events_from_instants(cap.instants), complete=cap.complete
        )
        assert replayed.ok and replayed.n_events == rep_spill.n_events
        assert _sim_instant_stream(obs_spill) == _sim_instant_stream(obs_mem)
        if sync.name == "asp":
            # Unbounded staleness is ``s=None`` on every answer, spilled or not.
            answers = obs_spill.last_run.instants.by_name("pull_answer")
            assert answers and all(a.args["s"] is None for a in answers)

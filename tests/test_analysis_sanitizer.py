"""Adversarial tests for the protocol sanitizer: corrupted event streams.

Each test hand-builds an event stream with one seeded protocol violation
and asserts the sanitizer pinpoints it with the right code; the clean
variants assert zero false positives, and the round-trip tests feed real
runs (live captures and dumped Perfetto traces) through the checker.
"""

import json

import pytest

from repro.analysis import (
    ProtocolEvent,
    ProtocolViolation,
    events_from_trace_doc,
    events_from_trace_file,
    sanitize_events,
    sanitize_observability,
    sanitize_run,
)

pytestmark = pytest.mark.no_sanitize  # these streams are corrupt on purpose


class StreamBuilder:
    """Builds synthetic protocol event streams for one server (uid 0)."""

    def __init__(self, n_workers=3, execution="lazy", pull_kind="ssp",
                 s=2.0, quorum=None):
        self.events = []
        self.n_workers = n_workers
        self.s = s
        self.add(
            "server_config", n_workers=n_workers, execution=execution,
            pull_kind=pull_kind, s=s, quorum=quorum or n_workers,
            model="ssp", v_train=0, worker_progress=[-1] * n_workers,
            count={},
        )

    def add(self, name, **args):
        args.setdefault("uid", 0)
        args.setdefault("shard", 0)
        self.events.append(
            ProtocolEvent(
                index=len(self.events), name=name, t=float(len(self.events)),
                actor="server0", args=args,
            )
        )
        return self

    def push(self, worker, progress, v_train=0):
        return self.add("push", worker=worker, progress=progress, v_train=v_train)

    def pull_request(self, worker, progress):
        return self.add("pull_request", worker=worker, progress=progress)

    def answer(self, worker, progress, v_train, missing=None, released=False,
               coin=False, kind="ssp", s=None, version=None):
        if missing is None:
            missing = max(0, progress + 1 - v_train)
        return self.add(
            "pull_answer", worker=worker, progress=progress, v_train=v_train,
            missing=missing, released=released, coin=coin, kind=kind,
            s=self.s if s is None else s, version=version,
        )

    def pssp_pass(self, worker, progress, v_train=0):
        return self.add("pssp_pass", worker=worker, progress=progress, v_train=v_train)

    def advance(self, v_train):
        return self.add("frontier_advance", v_train=v_train)

    def round(self, iteration, v_after):
        """One full BSP-style round: all workers push + pull + answer."""
        for w in range(self.n_workers):
            self.push(w, iteration, v_train=v_after - 1)
        self.advance(v_after)
        for w in range(self.n_workers):
            self.pull_request(w, iteration)
            self.answer(w, iteration, v_train=v_after)
        return self

    def codes(self, complete=True):
        return [v.code for v in sanitize_events(self.events, complete=complete).violations]


class TestCleanStreams:
    def test_full_round_is_clean(self):
        b = StreamBuilder().round(0, 1).round(1, 2)
        assert b.codes() == []

    def test_incomplete_stream_skips_liveness(self):
        b = StreamBuilder()
        b.push(0, 0).pull_request(0, 0)  # legitimately still unanswered
        assert b.codes(complete=False) == []

    def test_buffered_then_released_is_clean(self):
        b = StreamBuilder(s=0.0)
        b.push(0, 0).pull_request(0, 0)
        b.add("dpr_buffered", worker=0, progress=0, v_train=0, s=0.0)
        for w in (1, 2):
            b.push(w, 0)
        b.advance(1)
        b.add("dpr_released", worker=0, progress=0, v_train=1)
        b.answer(0, 0, v_train=1, released=True, s=0.0)
        assert b.codes() == []


class TestSeededViolations:
    def test_reordered_push_flagged(self):
        b = StreamBuilder()
        b.push(0, 0).push(0, 2)  # skipped iteration 1
        assert "S001" in b.codes(complete=False)

    def test_duplicate_push_flagged(self):
        b = StreamBuilder()
        b.push(0, 0).push(0, 0)
        assert "S001" in b.codes(complete=False)

    def test_nonmonotone_frontier_flagged(self):
        b = StreamBuilder().round(0, 1)
        b.advance(3)  # jumps 1 -> 3
        codes = b.codes(complete=False)
        assert "S002" in codes

    def test_frontier_overrun_flagged(self):
        b = StreamBuilder()  # quorum 3
        b.push(0, 0).push(1, 0)
        b.advance(1)  # only 2/3 pushes for iteration 0
        assert "S003" in b.codes(complete=False)

    def test_stale_answer_beyond_s_flagged(self):
        b = StreamBuilder(s=2.0).round(0, 1)
        b.push(0, 1, v_train=1).push(0, 2, v_train=1).push(0, 3, v_train=1)
        b.pull_request(0, 3)
        # missing = 3+1-1 = 3 >= s+1: the server should have buffered this.
        b.answer(0, 3, v_train=1)
        assert "S004" in b.codes(complete=False)

    def test_pssp_coin_pass_exempt_from_bound(self):
        b = StreamBuilder(pull_kind="pssp", s=2.0).round(0, 1)
        b.push(0, 1, v_train=1).push(0, 2, v_train=1).push(0, 3, v_train=1)
        b.pull_request(0, 3)
        b.pssp_pass(0, 3, v_train=1)
        b.answer(0, 3, v_train=1, coin=True)  # probabilistic pass: legal
        codes = b.codes(complete=False)
        assert "S004" not in codes and "S015" not in codes

    def test_forged_coin_answer_flagged(self):
        # coin=True without a recorded pssp_pass: the exemption is forged.
        b = StreamBuilder(pull_kind="pssp", s=2.0).round(0, 1)
        b.push(0, 1, v_train=1).push(0, 2, v_train=1).push(0, 3, v_train=1)
        b.pull_request(0, 3)
        b.answer(0, 3, v_train=1, coin=True)
        assert "S015" in b.codes(complete=False)

    def test_coin_pass_consumed_once(self):
        # One pssp_pass cannot justify two coin answers at the same key.
        b = StreamBuilder(pull_kind="pssp", s=2.0).round(0, 1)
        b.push(0, 1, v_train=1).push(0, 2, v_train=1).push(0, 3, v_train=1)
        b.pull_request(0, 3).pull_request(0, 3)
        b.pssp_pass(0, 3, v_train=1)
        b.answer(0, 3, v_train=1, coin=True)
        b.answer(0, 3, v_train=1, coin=True)
        assert b.codes(complete=False).count("S015") == 1

    def test_lazy_release_with_missing_flagged(self):
        b = StreamBuilder(s=0.0)
        b.push(0, 0).pull_request(0, 0)
        b.add("dpr_buffered", worker=0, progress=0, v_train=0, s=0.0)
        b.push(1, 0).push(2, 0)
        b.advance(1)
        b.push(1, 1, v_train=1).pull_request(1, 1)
        b.add("dpr_released", worker=0, progress=0, v_train=1)
        # Lazy guarantees missing == 0 on release; report 1 (and a matching
        # v_train lie so only the lazy rule can fire).
        b.answer(0, 0, v_train=1, missing=1, released=True, s=0.0)
        codes = b.codes(complete=False)
        assert "S005" in codes and "S004" in codes

    def test_answer_before_push_flagged(self):
        b = StreamBuilder()
        b.pull_request(0, 0)
        b.answer(0, 0, v_train=0)  # worker 0 never pushed iteration 0
        assert "S006" in b.codes(complete=False)

    def test_unmatched_answer_flagged(self):
        b = StreamBuilder()
        b.push(0, 0)
        b.answer(0, 0, v_train=0)  # no pull_request outstanding
        assert "S007" in b.codes(complete=False)

    def test_double_answer_flagged(self):
        b = StreamBuilder().round(0, 1)
        b.answer(0, 0, v_train=1)  # second answer for the same pull
        assert "S007" in b.codes(complete=False)

    def test_vtrain_mismatch_flagged(self):
        b = StreamBuilder()
        b.push(0, 0).pull_request(0, 0)
        b.answer(0, 0, v_train=1)  # frontier never advanced
        assert "S008" in b.codes(complete=False)

    def test_missing_mismatch_flagged(self):
        b = StreamBuilder().round(0, 1)
        b.push(0, 1, v_train=1).pull_request(0, 1)
        b.answer(0, 1, v_train=1, missing=0)  # really 1+1-1 = 1
        assert "S009" in b.codes(complete=False)

    def test_spurious_block_flagged(self):
        b = StreamBuilder(s=2.0)
        b.push(0, 0).pull_request(0, 0)
        # progress 0 < v_train 0 + s 2: the condition held, no DPR allowed.
        b.add("dpr_buffered", worker=0, progress=0, v_train=0, s=2.0)
        assert "S010" in b.codes(complete=False)

    def test_starved_dpr_flagged_only_when_complete(self):
        b = StreamBuilder(s=0.0)
        b.push(0, 0).pull_request(0, 0)
        b.add("dpr_buffered", worker=0, progress=0, v_train=0, s=0.0)
        assert "S011" in b.codes(complete=True)
        assert b.codes(complete=False) == []

    def test_lost_wakeup_flagged(self):
        b = StreamBuilder().round(0, 1)
        b.push(0, 1, v_train=1).pull_request(0, 1)
        # Never buffered, never answered: the wakeup was dropped.
        assert "S012" in b.codes(complete=True)

    def test_restore_while_outstanding_flagged(self):
        b = StreamBuilder()
        b.push(0, 0).pull_request(0, 0)
        b.add(
            "server_restore", v_train=0, worker_progress=[-1, -1, -1], count={}
        )
        assert "S013" in b.codes(complete=False)

    def test_pull_regression_flagged(self):
        b = StreamBuilder().round(0, 1).round(1, 2)
        b.pull_request(0, 0)
        b.answer(0, 0, v_train=2)
        assert "S014" in b.codes(complete=False)


class TestReporting:
    def test_violation_carries_event_window(self):
        b = StreamBuilder().round(0, 1)
        b.push(0, 2)  # skipped 1
        report = sanitize_events(b.events, complete=False)
        assert not report.ok
        with pytest.raises(ProtocolViolation) as exc:
            report.raise_if_violations()
        assert exc.value.violations[0].code == "S001"
        assert len(exc.value.window) > 0
        assert "S001" in str(exc.value)

    def test_report_describe_mentions_counts(self):
        b = StreamBuilder().round(0, 1)
        report = sanitize_events(b.events)
        assert "clean" in report.describe()
        assert report.n_shards == 1


class TestRealRunRoundTrip:
    def _run(self, obs, sync=None, execution=None, iters=8):
        from repro.bench.workloads import blobs_task
        from repro.core.models import ssp
        from repro.core.server import ExecutionMode
        from repro.sim.cluster import cpu_cluster
        from repro.sim.runner import SimConfig, run_fluentps

        task = blobs_task(3, n_train=200, n_test=60, seed=5)
        return run_fluentps(
            SimConfig(
                cluster=cpu_cluster(3, 2), max_iter=iters,
                sync=sync or ssp(2),
                execution=execution or ExecutionMode.LAZY,
                task=task, seed=1, base_compute_time=0.4, obs=obs,
            )
        )

    def test_live_capture_is_clean(self):
        from repro.obs import MetricsRegistry, Observability

        obs = Observability(MetricsRegistry("t"))
        self._run(obs)
        assert obs.last_run.complete
        report = sanitize_run(obs.last_run)
        assert report.ok, report.describe()
        assert report.n_events > 0
        assert sanitize_observability(obs).ok

    def test_dumped_trace_round_trip_is_clean(self, tmp_path):
        from repro.obs import MetricsRegistry, Observability, dump_trace

        obs = Observability(MetricsRegistry("t"))
        self._run(obs)
        cap = obs.last_run
        path = tmp_path / "trace.json"
        dump_trace(path, cap.trace, cap.instants)
        events = events_from_trace_file(path)
        assert events, "dumped trace lost the protocol instants"
        report = sanitize_events(events, complete=True)
        assert report.ok, report.describe()

    def test_corrupting_dumped_trace_is_detected(self, tmp_path):
        from repro.obs import MetricsRegistry, Observability, dump_trace

        obs = Observability(MetricsRegistry("t"))
        self._run(obs)
        cap = obs.last_run
        path = tmp_path / "trace.json"
        dump_trace(path, cap.trace, cap.instants)
        doc = json.loads(path.read_text())
        pushes = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "i" and e.get("name") == "push"
        ]
        assert len(pushes) >= 2
        # Swap two consecutive pushes of one worker on one shard: breaks
        # the per-worker sequential push order.
        w, uid = pushes[0]["args"]["worker"], pushes[0]["args"]["uid"]
        mine = [
            e for e in pushes
            if e["args"]["worker"] == w and e["args"]["uid"] == uid
        ]
        assert len(mine) >= 2 and mine[0]["args"]["progress"] != mine[1]["args"]["progress"]
        mine[0]["args"]["progress"], mine[1]["args"]["progress"] = (
            mine[1]["args"]["progress"], mine[0]["args"]["progress"],
        )
        report = sanitize_events(events_from_trace_doc(doc), complete=False)
        assert any(v.code == "S001" for v in report.violations)

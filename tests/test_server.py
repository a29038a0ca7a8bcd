"""Tests for the FluentPS shard server (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.models import asp, bsp, drop_stragglers, dynamic_pssp, pssp, ssp
from repro.core.server import (
    ApplyInfo,
    ExecutionMode,
    ProtocolError,
    PullReply,
    ShardServer,
)
from repro.core.pssp import gradient_significance

from tests.mutants import lazy_released_with_missing, significance_before_apply


def make_server(model=None, execution=ExecutionMode.LAZY, n=3, params=None, **kw):
    return ShardServer(
        shard_id=0,
        n_workers=n,
        model=model or ssp(2),
        execution=execution,
        params=params,
        **kw,
    )


class TestPushSemantics:
    def test_frontier_advances_when_all_pushed(self):
        srv = make_server(n=3)
        for w in range(3):
            srv.handle_push(w, 0)
        assert srv.v_train == 1

    def test_frontier_waits_for_last_worker(self):
        srv = make_server(n=3)
        srv.handle_push(0, 0)
        srv.handle_push(1, 0)
        assert srv.v_train == 0

    def test_frontier_cascades(self):
        srv = make_server(model=ssp(5), n=2)
        # Worker 0 pushes ahead while worker 1 lags; worker 1's pushes then
        # cascade the frontier.
        for i in range(3):
            srv.handle_push(0, i)
        assert srv.v_train == 0
        for i in range(3):
            srv.handle_push(1, i)
        assert srv.v_train == 3

    def test_out_of_order_push_rejected(self):
        srv = make_server()
        srv.handle_push(0, 0)
        with pytest.raises(ProtocolError, match="sequential"):
            srv.handle_push(0, 2)

    def test_duplicate_push_rejected(self):
        srv = make_server()
        srv.handle_push(0, 0)
        with pytest.raises(ProtocolError):
            srv.handle_push(0, 0)

    def test_bad_worker_id(self):
        srv = make_server(n=3)
        with pytest.raises(ProtocolError):
            srv.handle_push(3, 0)

    def test_gradient_applied_mean(self):
        params = np.zeros(4)
        srv = make_server(n=2, params=params)
        srv.handle_push(0, 0, grad=np.ones(4))
        srv.handle_push(1, 0, grad=np.ones(4))
        np.testing.assert_allclose(srv.params, np.ones(4))  # 1/2 + 1/2

    def test_gradient_shape_checked(self):
        srv = make_server(params=np.zeros(4))
        with pytest.raises(ProtocolError, match="shape"):
            srv.handle_push(0, 0, grad=np.ones(5))

    def test_custom_apply_fn(self):
        calls = []

        def apply(params, grad, info: ApplyInfo):
            calls.append((info.worker, info.progress))
            params += grad

        srv = make_server(params=np.zeros(2), apply_fn=apply, n=1)
        srv.handle_push(0, 0, grad=np.ones(2))
        assert calls == [(0, 0)]
        np.testing.assert_array_equal(srv.params, np.ones(2))

    def test_significance_tracked(self):
        srv = make_server(params=np.full(4, 2.0), n=1)
        srv.handle_push(0, 0, grad=np.full(4, 0.2))
        assert srv.last_significance == pytest.approx(
            np.linalg.norm(np.full(4, 0.2)) / np.linalg.norm(np.full(4, 2.2)), rel=1e-3
        )

    def test_each_push_is_applied_when_handled(self):
        """Every push leaves ``w + g/N`` behind at once, and the
        significance it records is read against the parameters *after*
        its own apply — exact floats, push by push."""
        check_push_applied_when_handled()

    def test_significance_before_apply_dies_here(self, monkeypatch):
        significance_before_apply(monkeypatch)
        with pytest.raises(AssertionError):
            check_push_applied_when_handled()

    def test_explicit_significance_wins(self):
        srv = make_server(model=ssp(2), n=2, params=np.zeros(4))
        srv.handle_push(0, 0, grad=np.ones(4))
        srv.handle_push(1, 0, grad=np.ones(4), significance=0.75)
        assert srv.last_significance == 0.75
        np.testing.assert_array_equal(srv.params, np.ones(4))
        srv.handle_push(0, 1, significance=0.5)  # a gradient-less push may carry one
        assert srv.last_significance == 0.5

    def test_removed_batch_apply_option_raises(self):
        with pytest.raises(TypeError, match="batch_apply"):
            make_server(params=np.zeros(2), batch_apply=False)


def check_push_applied_when_handled():
    rng = np.random.default_rng(0)
    srv = make_server(model=pssp(2, 0.5), n=3, params=rng.normal(size=8))
    expected = srv.params.copy()
    for it in range(4):
        for w in range(3):
            g = rng.normal(size=8)
            srv.handle_push(w, it, grad=g.copy())
            expected += g / 3
            assert srv.params.tobytes() == expected.tobytes()
            assert srv.last_significance == gradient_significance(
                float(np.linalg.norm(g)), float(np.linalg.norm(expected))
            )


class TestPullSemantics:
    def test_immediate_pull_when_condition_holds(self):
        srv = make_server(model=ssp(2), n=2)
        replies = []
        srv.handle_push(0, 0)
        assert srv.handle_pull(0, 0, replies.append) is True
        assert replies[0].progress == 0

    def test_pull_before_push_rejected(self):
        srv = make_server()
        with pytest.raises(ProtocolError, match="before its"):
            srv.handle_pull(0, 0, lambda r: None)

    def test_delayed_pull_buffered(self):
        srv = make_server(model=ssp(1), n=2)
        replies = []
        srv.handle_push(0, 0)
        srv.handle_push(0, 1)
        # worker 0 at progress 1, v_train 0, s=1: 1 < 0+1 false -> DPR
        assert srv.handle_pull(0, 1, replies.append) is False
        assert srv.buffered_pulls == 1
        assert replies == []

    def test_asp_never_delays(self):
        srv = make_server(model=asp(), n=2)
        replies = []
        for i in range(20):
            srv.handle_push(0, i)
            assert srv.handle_pull(0, i, replies.append)
        assert len(replies) == 20

    def test_reply_fields(self):
        srv = make_server(model=ssp(5), n=1, params=np.arange(3.0))
        srv.handle_push(0, 0, grad=np.zeros(3))
        replies = []
        srv.handle_pull(0, 0, replies.append)
        r: PullReply = replies[0]
        assert r.worker == 0 and r.progress == 0
        assert r.v_train == 1  # single worker: frontier advanced
        assert r.missing == 0
        assert r.version == 1 and r.shard == 0
        assert not hasattr(r, "params")  # a reader reads the live shard

    def test_removed_snapshot_params_option_raises(self):
        """Replies carry no parameters, so there is no copy mode to choose."""
        with pytest.raises(TypeError, match="snapshot_params"):
            make_server(model=asp(), n=1, params=np.zeros(2), snapshot_params=False)

    def test_pull_regression_rejected(self):
        srv = make_server(model=ssp(5), n=2)
        srv.handle_push(0, 0)
        srv.handle_push(0, 1)
        srv.handle_pull(0, 1, lambda r: None)
        with pytest.raises(ProtocolError, match="must not regress"):
            srv.handle_pull(0, 0, lambda r: None)

    def test_pull_ahead_of_own_push_rejected(self):
        srv = make_server(model=ssp(5), n=2)
        srv.handle_push(0, 0)
        with pytest.raises(ProtocolError, match="before its"):
            srv.handle_pull(0, 1, lambda r: None)

    def test_repeated_pull_at_same_progress_allowed(self):
        # A worker may re-issue the same pull (retry after a dropped
        # reply); only going backwards is a protocol violation.
        srv = make_server(model=ssp(5), n=2)
        replies = []
        srv.handle_push(0, 0)
        srv.handle_pull(0, 0, replies.append)
        srv.handle_pull(0, 0, replies.append)
        assert len(replies) == 2


class TestLazyExecution:
    """The Figure 3 scenario: s=3, three workers, W2 straggles."""

    def _race_ahead(self, srv):
        replies = []
        for w in (0, 1):
            for i in range(3):
                srv.handle_push(w, i)
                srv.handle_pull(w, i, replies.append)
            srv.handle_push(w, 3)
        return replies

    def _lazy_catchup(self):
        srv = make_server(model=ssp(3), execution=ExecutionMode.LAZY, n=3)
        self._race_ahead(srv)
        replies = []
        srv.handle_pull(0, 3, replies.append)
        assert replies == []
        srv.handle_push(2, 0)
        srv.handle_push(2, 1)
        srv.handle_push(2, 2)
        assert replies == []  # still not caught up to progress 3
        srv.handle_push(2, 3)
        assert len(replies) == 1
        assert replies[0].missing == 0  # fully updated parameters

    def test_lazy_waits_for_full_catchup(self):
        self._lazy_catchup()

    def test_lazy_released_with_missing_dies_here(self, monkeypatch):
        lazy_released_with_missing(monkeypatch)
        with pytest.raises(AssertionError):
            self._lazy_catchup()

    def test_soft_releases_at_first_advance(self):
        srv = make_server(model=ssp(3), execution=ExecutionMode.SOFT_BARRIER, n=3)
        self._race_ahead(srv)
        replies = []
        srv.handle_pull(0, 3, replies.append)
        assert replies == []
        srv.handle_push(2, 0)
        assert len(replies) == 1  # released at the very next advance
        assert replies[0].missing == 3  # stale: missing W2's g1, g2, g3

    def test_soft_rebuffers_count_as_new_dprs(self):
        # BSP with a worker 3 ahead: the soft barrier re-forms repeatedly.
        srv = make_server(model=bsp(), execution=ExecutionMode.SOFT_BARRIER, n=2)
        for i in range(3):
            srv.handle_push(0, i)
        replies = []
        srv.handle_pull(0, 2, replies.append)
        assert srv.metrics.dprs == 1
        srv.handle_push(1, 0)  # advance 0->1: re-check fails, re-buffer
        assert srv.metrics.dprs == 2
        srv.handle_push(1, 1)
        assert srv.metrics.dprs == 3
        assert replies == []
        srv.handle_push(1, 2)
        assert len(replies) == 1
        assert srv.metrics.dprs == 3

    def test_lazy_single_dpr_per_block(self):
        srv = make_server(model=bsp(), execution=ExecutionMode.LAZY, n=2)
        for i in range(3):
            srv.handle_push(0, i)
        replies = []
        srv.handle_pull(0, 2, replies.append)
        for i in range(3):
            srv.handle_push(1, i)
        assert len(replies) == 1
        assert srv.metrics.dprs == 1


class TestDropStragglers:
    def test_quorum_advances_without_straggler(self):
        srv = make_server(model=drop_stragglers(3, n_t=2), n=3)
        srv.handle_push(0, 0)
        srv.handle_push(1, 0)
        assert srv.v_train == 1  # straggler dropped from the barrier

    def test_straggler_still_contributes(self):
        params = np.zeros(2)
        srv = make_server(model=drop_stragglers(2, n_t=1), n=2, params=params)
        srv.handle_push(0, 0, grad=np.ones(2))
        assert srv.v_train == 1
        srv.handle_push(1, 0, grad=np.ones(2))  # late gradient still applied
        np.testing.assert_allclose(srv.params, np.ones(2))

    def test_straggler_pull_immediate_when_behind(self):
        srv = make_server(model=drop_stragglers(2, n_t=1), n=2)
        for i in range(3):
            srv.handle_push(0, i)
        assert srv.v_train == 3
        replies = []
        srv.handle_push(1, 0)
        assert srv.handle_pull(1, 0, replies.append)


class TestPSSPServer:
    def test_deterministic_under_seed(self):
        def run(seed):
            srv = make_server(
                model=pssp(1, 0.5), n=2, rng=np.random.default_rng(seed)
            )
            outcomes = []
            for i in range(30):
                srv.handle_push(0, i)
                outcomes.append(srv.handle_pull(0, i, lambda r: None))
                if srv.buffered_pulls:
                    # unblock by letting worker 1 catch up
                    srv.handle_push(1, srv.worker_progress[1] + 1)
            while srv.worker_progress[1] < 29:
                srv.handle_push(1, srv.worker_progress[1] + 1)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_dynamic_pssp_uses_significance(self):
        srv = make_server(
            model=dynamic_pssp(1, 1.0), n=2, params=np.full(4, 1.0),
            rng=np.random.default_rng(0),
        )
        srv.handle_push(0, 0, grad=np.full(4, 10.0))
        assert srv.last_significance > 0.5


class TestMetricsAccounting:
    def test_counts(self):
        srv = make_server(model=ssp(1), n=2)
        srv.handle_push(0, 0)
        srv.handle_pull(0, 0, lambda r: None)
        srv.handle_push(0, 1)
        srv.handle_pull(0, 1, lambda r: None)  # delayed
        m = srv.metrics
        assert m.pushes == 2
        assert m.pulls == 2
        assert m.immediate_pulls == 1
        assert m.dprs == 1

    def test_wait_time_uses_clock(self):
        clock = {"t": 0.0}
        srv = make_server(model=ssp(1), n=2, clock=lambda: clock["t"])
        srv.handle_push(0, 0)
        srv.handle_push(0, 1)
        srv.handle_pull(0, 1, lambda r: None)
        clock["t"] = 5.0
        srv.handle_push(1, 0)
        srv.handle_push(1, 1)
        assert srv.metrics.dpr_wait_total == pytest.approx(5.0)

    def test_describe(self):
        srv = make_server()
        assert "shard 0" in srv.describe()


class TestProgressTrackers:
    """The incremental fastest/slowest trackers behind every view."""

    def test_incremental_trackers_match_full_scan(self):
        rng = np.random.default_rng(1)
        srv = make_server(model=ssp(100), n=5)
        for _ in range(200):
            w = int(rng.integers(5))
            srv.handle_push(w, srv.worker_progress[w] + 1)
            assert srv._fastest == max(srv.worker_progress)
            assert srv._slowest == min(srv.worker_progress)

    def test_restore_recomputes_trackers(self):
        srv = make_server(model=ssp(10), n=3, params=np.zeros(4))
        for w in range(3):
            srv.handle_push(w, 0, grad=np.ones(4))
        state = dict(
            worker_progress=[4, 2, 7], v_train=2, version=5,
            count={}, last_significance=0.25,
        )
        srv.handle_restore(state, params=np.full(4, 9.0))
        np.testing.assert_array_equal(srv.params, np.full(4, 9.0))
        assert srv.last_significance == 0.25
        assert srv._fastest == 7
        assert srv._slowest == 2
        assert srv._n_at_slowest == 1
        # Pushes resume from the restored per-worker progress.
        srv.handle_push(1, 3)
        assert srv._slowest == 3


class TestQuietRoundPrecondition:
    """``handle_quiet_round(k)`` needs every worker at ``k - 1`` and says
    so from the incremental trackers; it walks ``worker_progress`` only to
    name the offender."""

    def test_commits_when_every_worker_is_one_behind(self):
        srv = make_server(model=ssp(3), n=4)
        srv.handle_quiet_round(0, early_pulls=1)
        srv.handle_quiet_round(1, early_pulls=0)
        assert srv.worker_progress == srv.last_pull_progress == [1] * 4
        assert (srv.v_train, srv.version, srv._fastest, srv._slowest) == (2, 8, 1, 1)
        assert srv._n_at_slowest == 4

    def test_one_worker_ahead(self):
        srv = make_server(model=ssp(3), n=4)
        srv.handle_quiet_round(0, early_pulls=0)
        srv.handle_push(2, 1)
        with pytest.raises(ProtocolError, match=r"worker 2 at 1 cannot batch-push 1 .*sequential"):
            srv.handle_quiet_round(1, early_pulls=0)

    def test_one_worker_behind(self):
        srv = make_server(model=ssp(3), n=4)
        srv.handle_quiet_round(0, early_pulls=0)
        for w in (0, 1, 3):
            srv.handle_push(w, 1)
        with pytest.raises(ProtocolError, match=r"worker 2 at 0 cannot batch-push 2 .*sequential"):
            srv.handle_quiet_round(2, early_pulls=0)
        with pytest.raises(ProtocolError, match="worker 0 at 1 cannot batch-push 1"):
            srv.handle_quiet_round(1, early_pulls=0)

    def test_a_round_cannot_be_committed_twice_or_skipped(self):
        srv = make_server(model=ssp(3), n=3)
        srv.handle_quiet_round(0, early_pulls=0)
        for progress in (0, 2):
            with pytest.raises(ProtocolError, match="sequential"):
                srv.handle_quiet_round(progress, early_pulls=0)

    def test_after_a_restore(self):
        srv = make_server(model=ssp(10), n=3)
        state = dict(v_train=3, version=11, count={}, last_significance=0.0)
        srv.handle_restore({**state, "worker_progress": [4, 2, 4]})
        with pytest.raises(ProtocolError, match="worker 0 at 4 cannot batch-push 3"):
            srv.handle_quiet_round(3, early_pulls=0)
        with pytest.raises(ProtocolError, match="worker 1 at 2 cannot batch-push 5"):
            srv.handle_quiet_round(5, early_pulls=0)
        srv.handle_restore({**state, "worker_progress": [4, 4, 4]})
        with pytest.raises(ProtocolError, match="sequential"):
            srv.handle_quiet_round(0, early_pulls=0)
        srv.handle_quiet_round(5, early_pulls=0)
        assert srv.worker_progress == [5, 5, 5] and srv.v_train == 6


class TestOverlappingQuietRounds:
    """Two quiet rounds that overlap at the shard — worker 0's round-1
    push and pull arrive before round 0's n-th push — against the handlers
    they stand for: committed one at a time, the overtaking pull recorded
    two iterations behind."""

    @pytest.mark.no_sanitize  # explicit Observability below
    def test_matches_the_handlers(self):
        from repro.obs import MetricsRegistry, Observability

        n = 4
        obs = [Observability(MetricsRegistry(f"side{k}"), causal=False) for k in range(2)]
        handled = make_server(ssp(3), n=n, obs=obs[0])
        quiet = make_server(ssp(3), n=n, obs=obs[1])
        replies = []

        def pull(w, r):
            handled.handle_pull(w, r, respond=replies.append)

        for w in range(n - 1):
            handled.handle_push(w, 0)
            pull(w, 0)  # before the n-th push: one missing
        handled.handle_push(0, 1)
        pull(0, 1)  # round 1, before round 0's frontier advance: two missing
        handled.handle_push(n - 1, 0)
        pull(n - 1, 0)
        for w in range(1, n):
            handled.handle_push(w, 1)
            pull(w, 1)
        assert [reply.missing for reply in replies] == [1, 1, 1, 2, 0, 1, 1, 0]
        quiet.handle_quiet_round(0, n - 1)
        quiet.handle_quiet_round(1, n - 1, two_behind=1)
        a, b = handled.metrics, quiet.metrics
        assert (a.summary(), dict(a.staleness_hist)) == (b.summary(), dict(b.staleness_hist))
        assert dict(b.staleness_hist) == {0: 2, 1: 5, 2: 1}
        ours, theirs = (o.registry.to_dict()["metrics"] for o in obs)
        assert {k: v for k, v in ours.items() if k.startswith("ps_")} == {
            k: v for k, v in theirs.items() if k.startswith("ps_")
        }
        assert (quiet.v_train, quiet.version, quiet.worker_progress) == (2, 2 * n, [1] * n)


class TestBarrierQuietRound:
    """A barrier shard's (BSP's) quiet round against the handlers it
    stands for: the pulls claimed before the n-th push are DPRs that push
    releases, in claim order, with nothing missing."""

    @pytest.mark.no_sanitize  # explicit Observability below
    @pytest.mark.parametrize("execution", list(ExecutionMode), ids=lambda e: e.value)
    def test_matches_the_handlers(self, execution):
        from repro.obs import MetricsRegistry, Observability

        n, now = 4, [0.0]
        obs = [Observability(MetricsRegistry(f"side{k}"), causal=False) for k in range(2)]
        handled = make_server(bsp(), execution, n=n, clock=lambda: now[0], obs=obs[0])
        quiet = make_server(bsp(), execution, n=n, obs=obs[1])
        replies = []
        for r in range(3):
            waits = []
            for w in range(n - 1):  # each push is followed by its own pull: a DPR
                now[0] += 0.1
                handled.handle_push(w, r)
                now[0] += 0.3
                handled.handle_pull(w, r, respond=replies.append)
                waits.append(-now[0])
            now[0] += 0.7
            handled.handle_push(n - 1, r)  # the n-th push releases them
            waits = np.array(waits) + now[0]
            handled.handle_pull(n - 1, r, respond=replies.append)
            quiet.handle_quiet_round(r, n - 1, waits)
            assert [reply.waited for reply in replies[-n:]] == waits.tolist() + [0.0]
        a, b = handled.metrics, quiet.metrics
        assert (a.summary(), dict(a.staleness_hist)) == (b.summary(), dict(b.staleness_hist))
        assert (a.dpr_wait_total, a.dpr_iterations) == (b.dpr_wait_total, b.dpr_iterations)
        assert a.dprs == 3 * (n - 1) and dict(a.staleness_hist) == {0: 3 * n}
        ours, theirs = (o.registry.to_dict()["metrics"] for o in obs)
        assert {k: v for k, v in ours.items() if k.startswith("ps_")} == {
            k: v for k, v in theirs.items() if k.startswith("ps_")
        }
        assert (quiet.v_train, quiet.version, quiet.worker_progress) == (3, 3 * n, [2] * n)

"""Tests for the ParameterServerSystem public API."""

import numpy as np
import pytest

from repro.core.api import ParameterServerSystem
from repro.core.models import asp, bsp, ssp
from repro.core.server import ExecutionMode, ProtocolError

from tests.mutants import pull_assembles_at_completion


def make_system(tiny_spec, n_workers=2, n_servers=2, sync=None, init=None, **kw):
    init = init if init is not None else np.zeros(tiny_spec.total_elements)
    return ParameterServerSystem(
        tiny_spec, init, n_workers, n_servers, sync or ssp(2),
        ExecutionMode.LAZY, **kw,
    )


class TestConstruction:
    def test_init_params_scattered_and_gathered(self, tiny_spec, rng):
        init = rng.normal(size=tiny_spec.total_elements)
        system = make_system(tiny_spec, init=init)
        np.testing.assert_allclose(system.current_params(), init)

    def test_wrong_init_shape_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            make_system(tiny_spec, init=np.zeros(3))

    def test_per_server_models(self, tiny_spec):
        system = make_system(tiny_spec, n_servers=2, sync=[ssp(2), asp()])
        assert system.servers[0].model.name.startswith("ssp")
        assert system.servers[1].model.name == "asp"

    def test_model_count_mismatch_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            make_system(tiny_spec, n_servers=2, sync=[ssp(2)])

    def test_describe(self, tiny_spec):
        assert "2 workers x 2 servers" in make_system(tiny_spec).describe()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_workers", True),  # built a 1-worker system
            ("n_workers", 2.5),  # failed with a list-multiplication TypeError
            ("n_workers", 0),
            ("n_servers", True),
            ("n_servers", 1.5),
            ("n_servers", 0),
            ("seed", 2.5),  # truncated to seed 2
            ("seed", 2**32),  # ran seed 0
        ],
    )
    def test_invalid_counts_fail_at_construction(self, tiny_spec, field, value):
        with pytest.raises(ValueError, match=field):
            make_system(tiny_spec, **{field: value})

    def test_timing_only_system_has_no_parameters(self, tiny_spec):
        system = ParameterServerSystem(tiny_spec, None, 2, 2, ssp(2))
        assert system.current_params() is None
        replies = []
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        system.s_pull(0, 0, replies.append)
        assert all(s.params is None for s in system.servers)
        # No shard holds values, so the pull has none to give (not an
        # unwritten buffer).
        assert len(replies) == 1 and replies[0].params is None

    def test_removed_snapshot_params_option_raises(self, tiny_spec):
        """Replies carry no parameters, so there is no copy mode to choose."""
        with pytest.raises(TypeError, match="snapshot_params"):
            make_system(tiny_spec, snapshot_params=False)


class TestPushPull:
    def test_mean_update_applied(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=2)
        d = tiny_spec.total_elements
        system.s_push(0, 0, np.full(d, 2.0))
        system.s_push(1, 0, np.full(d, 4.0))
        np.testing.assert_allclose(system.current_params(), np.full(d, 3.0))

    def test_pull_assembles_full_vector(self, tiny_spec, rng):
        init = rng.normal(size=tiny_spec.total_elements)
        system = make_system(tiny_spec, n_workers=1, init=init)
        system.s_push(0, 0, np.zeros_like(init))
        results = []
        system.s_pull(0, 0, results.append)
        assert len(results) == 1
        np.testing.assert_allclose(results[0].params, init)
        assert results[0].max_missing == 0

    def test_pull_callback_deferred_until_all_servers(self, tiny_spec):
        # One server runs SSP(1) (will delay), the other ASP (immediate):
        # the callback must wait for the slow shard.
        system = make_system(tiny_spec, n_workers=2, sync=[ssp(1), asp()])
        results = []
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        system.s_pull(0, 0, results.append)
        assert results  # 0 < 0+1 on shard 0: immediate after all
        system.s_push(0, 1, np.zeros(tiny_spec.total_elements))
        system.s_pull(0, 1, results.append)
        assert len(results) == 1  # shard 0 delayed the second pull
        system.s_push(1, 0, np.zeros(tiny_spec.total_elements))
        assert len(results) == 1  # lazy: released only at full catch-up
        system.s_push(1, 1, np.zeros(tiny_spec.total_elements))
        assert len(results) == 2
        assert results[1].replies[0].missing == 0

    @staticmethod
    def _answered_apart(tiny_spec):
        """Worker 0 pulls: shard 0 (ASP) answers at once, shard 1 (BSP)
        buffers until worker 1's push, which changes shard 0 too."""
        d = tiny_spec.total_elements
        system = make_system(tiny_spec, n_workers=2, sync=[asp(), bsp()])
        results = []
        system.s_push(0, 0, np.full(d, 2.0))  # w += 2/2 on both shards
        system.s_pull(0, 0, results.append)
        assert not results and system.total_buffered() == 1
        system.s_push(1, 0, np.full(d, 4.0))  # w += 4/2, releases shard 1
        assert len(results) == 1
        return system, results[0]

    def test_each_shard_is_read_when_it_answers(self, tiny_spec):
        """A pull's vector holds each shard at the ``version`` its reply
        reports: shard 0 as it was before worker 1's push, shard 1 after."""
        system, result = self._answered_apart(tiny_spec)
        assert [r.version for r in result.replies] == [1, 2]
        shards = system.layout.scatter(result.params)
        np.testing.assert_array_equal(shards[0], np.full_like(shards[0], 1.0))
        np.testing.assert_array_equal(shards[1], np.full_like(shards[1], 3.0))

    def test_pull_assembles_at_completion_dies_here(self, tiny_spec, monkeypatch):
        pull_assembles_at_completion(monkeypatch)
        with pytest.raises(AssertionError):
            self.test_each_shard_is_read_when_it_answers(tiny_spec)

    def test_refused_pull_leaves_nothing_in_flight(self, tiny_spec):
        """A pull the shards refuse (no push for its iteration yet) leaves
        the system quiescent: it can still checkpoint and resize."""
        system = make_system(tiny_spec)
        with pytest.raises(ProtocolError, match="before its push"):
            system.s_pull(0, 0, lambda r: None)
        system.checkpoint()
        system.resize(3)

    def test_buffered_count(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=2, sync=ssp(1))
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        system.s_push(0, 1, np.zeros(tiny_spec.total_elements))
        system.s_pull(0, 1, lambda r: None)
        assert system.total_buffered() == system.n_servers

    def test_merged_metrics(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=1)
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        system.s_pull(0, 0, lambda r: None)
        m = system.merged_metrics()
        assert m.pushes == system.n_servers
        assert m.pulls == system.n_servers


class TestSetcond:
    def test_set_cond_pull_predicate(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=1, sync=asp())
        # Install a never-respond condition on server 0.
        system.set_cond_pull(0, lambda view: False)
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        results = []
        system.s_pull(0, 0, results.append)
        assert results == []  # shard 0 blocks the aggregate forever

    def test_set_cond_push_predicate(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=2, sync=bsp())
        # Quorum of 1 on both servers: frontier advances on first push.
        for m in range(system.n_servers):
            system.set_cond_push(m, lambda view: view.pushed(view.v_train) >= 1)
        system.s_push(0, 0, np.zeros(tiny_spec.total_elements))
        assert all(s.v_train == 1 for s in system.servers)

    def test_set_cond_accepts_condition_objects(self, tiny_spec):
        from repro.core.conditions import AllPushedPush, SSPPull

        system = make_system(tiny_spec)
        system.set_cond_pull(0, SSPPull(7))
        system.set_cond_push(0, AllPushedPush())
        assert system.servers[0].pull_con.staleness() == 7

    def test_runtime_model_switch(self, tiny_spec):
        """The paper's runtime flexibility: swap SSP -> PSSP mid-training."""
        system = make_system(tiny_spec, n_workers=2, sync=ssp(1))
        z = np.zeros(tiny_spec.total_elements)
        system.s_push(0, 0, z)
        system.s_push(1, 0, z)
        from repro.core.conditions import PSSPPull
        from repro.core.pssp import ConstantProbability

        for m in range(system.n_servers):
            system.set_cond_pull(m, PSSPPull(1, ConstantProbability(0.0)))
        # With c=0 (ASP-like), a far-ahead pull responds immediately.
        system.s_push(0, 1, z)
        system.s_push(0, 2, z)
        results = []
        system.s_pull(0, 2, results.append)
        assert results


class TestClock:
    def test_clock_propagates_to_servers(self, tiny_spec):
        system = make_system(tiny_spec, n_workers=2, sync=ssp(1))
        t = {"now": 0.0}
        system.set_clock(lambda: t["now"])
        z = np.zeros(tiny_spec.total_elements)
        system.s_push(0, 0, z)
        system.s_push(0, 1, z)
        system.s_pull(0, 1, lambda r: None)
        t["now"] = 3.0
        system.s_push(1, 0, z)
        system.s_push(1, 1, z)
        waited = system.merged_metrics().dpr_wait_total
        assert waited == pytest.approx(3.0 * system.n_servers)

    def test_set_clock_reclaims_shards_from_a_simulated_run(self, tiny_spec):
        """A simulated run puts each shard on its own lane clock; a later
        substrate's ``set_clock`` drives every shard again."""
        from repro.bench.workloads import no_network_config
        from repro.sim.runner import run_fluentps

        system = ParameterServerSystem(tiny_spec, None, 2, 2, ssp(1))
        run_fluentps(no_network_config(2, ssp(1), 3, n_servers=2), system)
        system.set_clock(lambda: 42.0)
        assert [s.clock() for s in system.servers] == [42.0, 42.0]

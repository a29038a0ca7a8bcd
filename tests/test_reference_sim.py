"""Production vs the reference simulator (tests/reference_sim.py).

Every fast path — round collapse, analytic wire, drain lanes, fused
deliveries and gathers — is compared here with the one
textbook description, by the rule in
:func:`tests.sim_helpers.assert_matches_reference`.  Each cell runs
production twice: as shipped (``obs=NULL_OBS``, nothing observing, every
fused path engaged) and under a delivery hook (one event per message, a
full wire trace, no collapse).  Which cells reach the collapse as
shipped: ``cpu-ssp3``/``cpu-pssp`` of the presets, the mid-run
de-vectorisation, and every cell of the isolated grid (the tie-heavy
grid de-vectorises at round 0); the collapse's wire is checked message
by message in ``tests/test_round_schedule.py``.  ``obs`` is always
explicit: the ambient pytest sanitizer is causal and would route
production off every fused path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import QuorumPush, SSPPull
from repro.core.models import SyncModel, asp, bsp, dsps, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster
from repro.sim.engine import Engine, SimulationError, Timeout
from repro.sim.network import NicSpec
from repro.sim.runner import SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute, cpu_cluster_compute

from tests.reference_sim import ReferenceSim, Resource, Store, reference_wire
from tests.sim_helpers import (
    OneStraggler,
    assert_matches_reference,
    busy_lane_cell,
    preset_configs,
    real_gradient_cell,
)

HOOKED = pytest.mark.parametrize("hooked", [False, True], ids=["shipped", "hooked"])


def _tie_heavy_cells(isolated=False):
    """Identical workers and repeated sizes: same-instant sends, queued
    lanes and float ties everywhere, at two cluster shapes.  ``isolated``:
    the cells the collapse is eligible for, with a compute time far wider
    than a round's communication — every round commits in closed form."""
    workload = alexnet_cifar_workload()
    cells = []
    for n, m in [(24, 3), (64, 8)]:
        for sname, sync in [
            ("ssp1", ssp(1)), ("ssp3", ssp(3)), ("pssp", pssp(2, 0.5)),
            ("bsp", bsp()), ("asp", asp()), ("dsps", dsps()),
        ]:
            for cname, compute in [
                ("det", DeterministicCompute()),
                ("ln0", LogNormalCompute(0.0)),
                ("stragglers", cpu_cluster_compute(n)),
            ]:
                if isolated and (sname in ("bsp", "dsps") or cname == "stragglers"):
                    continue
                for execution in (ExecutionMode.LAZY, ExecutionMode.SOFT_BARRIER):
                    cells.append(
                        pytest.param(
                            dict(
                                cluster=cpu_cluster(n, n_servers=m),
                                max_iter=3,
                                sync=sync,
                                execution=execution,
                                workload=workload,
                                compute_model=compute,
                                seed=3,
                                **({"base_compute_time": 30.0} if isolated else {}),
                            ),
                            id=f"{n}x{m}-{sname}-{cname}-{execution.value}",
                        )
                    )
    return cells


@HOOKED
class TestAgainstReference:
    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_presets(self, cfg_kwargs, hooked):
        assert_matches_reference(cfg_kwargs, hooked)

    @pytest.mark.parametrize("cfg_kwargs", _tie_heavy_cells())
    def test_tie_heavy_grid(self, cfg_kwargs, hooked):
        assert_matches_reference(cfg_kwargs, hooked)

    def test_busy_lane(self, hooked):
        """Requests park behind the shard's busy window and retire at its end."""
        runner, _result, _ref = assert_matches_reference(busy_lane_cell(), hooked)
        assert runner.server_msgs_drained > 0

    @pytest.mark.parametrize("op_overhead_s", [20e-6, 0.02])
    def test_real_gradients_with_eval(self, op_overhead_s, hooked):
        """Soft barrier: DPR costs stretch the busy lanes (the wide
        overhead parks requests behind them too); params and the eval
        series must still be bit-equal."""
        _runner, result, _ref = assert_matches_reference(
            real_gradient_cell(eval_every=2, server_op_overhead_s=op_overhead_s), hooked
        )
        assert len(result.eval_by_time) == 4

    def test_midrun_devectorisation(self, hooked):
        runner, _result, _ref = assert_matches_reference(
            dict(
                cluster=cpu_cluster(10, n_servers=3),
                max_iter=6,
                sync=ssp(3),
                workload=alexnet_cifar_workload(),
                compute_model=OneStraggler(),
                base_compute_time=5.0,
                seed=7,
            ),
            hooked,
        )
        if hooked:
            assert runner.collapse_fallback == {"reason": "delivery_hook"}
            assert runner.engine.rounds_collapsed == 0
        else:
            assert runner.collapse_fallback == {"reason": "overlap", "round": 2}
            assert runner.engine.rounds_collapsed == 2
        assert runner.engine.events_processed > 0

    @pytest.mark.no_sanitize  # explicit Observability below
    def test_observed_shard_instant_streams(self, hooked):
        runner, _result, _ref = assert_matches_reference(
            dict(
                cluster=cpu_cluster(8, n_servers=3),
                max_iter=5,
                sync=pssp(1, 0.3),
                execution=ExecutionMode.SOFT_BARRIER,
                workload=alexnet_cifar_workload(),
                compute_model=cpu_cluster_compute(8),
                seed=9,
            ),
            hooked,
            make_obs=lambda: Observability(MetricsRegistry("reference"), causal=False),
        )
        assert runner.causal is None


class TestCollapsedAgainstReference:
    @pytest.mark.no_sanitize  # explicit Observability below
    @pytest.mark.parametrize(
        "make_obs",
        [lambda: NULL_OBS, lambda: Observability(MetricsRegistry("reference"), causal=False)],
        ids=["shipped", "observed"],
    )
    @pytest.mark.parametrize("cfg_kwargs", _tie_heavy_cells(isolated=True))
    def test_isolated_grid(self, cfg_kwargs, make_obs):
        """Every round commits in closed form, with and without a
        (non-causal) observer taking the rounds as columnar blocks."""
        runner, _result, _ref = assert_matches_reference(cfg_kwargs, make_obs=make_obs)
        assert runner.collapse_fallback == {}
        assert runner.engine.rounds_collapsed == 3
        assert runner.engine.events_processed == 0


class TestReferenceItself:
    def test_lone_transfer_is_tx_plus_latency_plus_rx(self):
        nics = {
            "a": NicSpec(bandwidth_Bps=1e8, overhead_s=15e-6),
            "b": NicSpec(bandwidth_Bps=2e8, overhead_s=25e-6),
        }
        trace, counters = reference_wire([(0.5, "a", "b", 4096)], 75e-6, nics)
        tx, rx = nics["a"].serialize_time(4096), nics["b"].serialize_time(4096)
        assert trace == [("a", "b", "", 4096, 0.5, 0.5 + tx + 75e-6 + rx)]
        assert counters == {"a": (tx, 0.0, 4096, 0, 1, 0), "b": (0.0, rx, 0, 4096, 0, 1)}

    def test_deadlock_is_reported(self):
        never = SyncModel("never", lambda: SSPPull(0), lambda: QuorumPush(99), staleness=0)
        cfg = SimConfig(
            cluster=cpu_cluster(2, n_servers=1), max_iter=2, sync=never,
            workload=alexnet_cifar_workload(), obs=NULL_OBS,
        )
        with pytest.raises(RuntimeError, match="unanswered"):
            ReferenceSim(cfg).run()


# -- the reference's lanes and inboxes ------------------------------------------


class TestResource:
    def test_fifo_serialization(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def user(i, hold):
            yield res.acquire()
            yield Timeout(hold)
            order.append((i, eng.now))
            res.release()

        for i in range(3):
            eng.spawn(user(i, 2.0))
        eng.run()
        assert order == [(0, 2.0), (1, 4.0), (2, 6.0)]

    def test_capacity_two_overlaps(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        order = []

        def user(i):
            yield res.acquire()
            yield Timeout(2.0)
            order.append((i, eng.now))
            res.release()

        for i in range(4):
            eng.spawn(user(i))
        eng.run()
        assert [t for _i, t in order] == [2.0, 2.0, 4.0, 4.0]

    def test_release_idle_rejected(self):
        eng = Engine()
        res = Resource(eng)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)

    def test_queue_length_tracking(self):
        eng = Engine()
        res = Resource(eng)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.in_use == 1
        assert res.queue_length == 2

    @given(
        holds=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False), min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_resource_conserves_total_hold(self, holds):
        eng = Engine()
        res = Resource(eng, capacity=1)
        done = []

        def user(hold):
            yield res.acquire()
            yield Timeout(hold)
            res.release()
            done.append(eng.now)

        for h in holds:
            eng.spawn(user(h))
        eng.run()
        assert len(done) == len(holds)
        assert done[-1] == pytest.approx(sum(holds))


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        store.put("a")
        store.put("b")
        got = []
        store.get().subscribe(got.append)
        store.get().subscribe(got.append)
        eng.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield store.get()
            got.append((eng.now, item))

        eng.spawn(consumer())
        eng.call_in(3.0, lambda: store.put("late"))
        eng.run()
        assert got == [(3.0, "late")]

    def test_len(self):
        eng = Engine()
        store = Store(eng)
        store.put(1)
        store.put(2)
        assert len(store) == 2

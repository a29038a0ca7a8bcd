"""Differential tests: direct server dispatch vs the reference's inbox loop.

The runner hands each delivered request to its server inside the
delivery event via the endpoint sink, on a per-shard analytic drain lane
— no inbox round-trip and no per-request resume + timeout events.  The
contract is exact semantic equivalence with the textbook
one-generator-per-server inbox loop (``tests/reference_sim.py``): a
request's handle time is ``max(deliver_time, previous handle end)`` and
per-server order is the delivery FIFO.  These tests run entire
co-simulated training runs as shipped (nothing observing: fused
deliveries, drain lanes) on every cluster preset × sync model × compute
model cell against the reference, and force a congested server through
the busy-lane cascade.
"""

import gc
import types

import pytest

from repro.bench.workloads import blobs_task, cifar_proxy_task
from repro.core.models import pssp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster
from repro.sim.network import Message
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import (
    DeterministicCompute,
    HeterogeneousCompute,
    cpu_cluster_compute,
)

from tests.sim_helpers import (
    assert_matches_reference,
    busy_lane_cell,
    make_runner,
    preset_configs,
    real_gradient_cell,
)


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    modules, classes and code aside."""
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                ref, (type, types.ModuleType, types.FunctionType, types.CodeType)
            ):
                seen.add(id(ref))
                stack.append(ref)


def cosim_task_cell():
    """32 workers x 4 servers x 20 iterations of the CIFAR-proxy MLP under
    PSSP(3, 0.5) with straggling CPU nodes — the benchmark's
    ``cosim_task_32w`` — plus an evaluation every 5 iterations."""
    return dict(
        cluster=cpu_cluster(32, n_servers=4),
        max_iter=20,
        sync=pssp(3, 0.5),
        task=cifar_proxy_task(32),
        workload=alexnet_cifar_workload(),
        compute_model=cpu_cluster_compute(32),
        eval_every=5,
        seed=0,
    )


class TestPresetDifferential:
    """Entire co-simulated runs on each preset, as shipped."""

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_run_traces_identical(self, cfg_kwargs):
        runner, result, ref = assert_matches_reference(cfg_kwargs)
        # Every server-bound request went through the sink dispatcher,
        # and dropping the per-message processes and the per-request
        # resume + timeout events is visible in the event count.
        requests = sum(1 for row in ref.trace if row[2] in ("push", "pull"))
        assert runner.server_msgs_inline + runner.server_msgs_drained == requests
        assert result.messages_on_wire == len(ref.trace)
        assert runner.net.fused_deliveries == len(ref.trace)

    @pytest.mark.parametrize(
        "cell",
        [
            *(pytest.param(real_gradient_cell(server_op_overhead_s=op), id=str(op))
              for op in (20e-6, 0.02)),
            pytest.param(cosim_task_cell, id="cosim_task_32w"),
        ],
    )
    def test_training_run_params_identical(self, cell):
        """Real (non-timing-only) runs: a small one under the soft barrier,
        where DPR costs stretch the busy lanes (the wide overhead parks
        requests behind them too), and one shaped as the benchmark's
        ``cosim_task_32w``.  Final parameters and every evaluation must be
        bit-equal to the reference's, whose shards apply each push as they
        handle it."""
        _runner, result, _ref = assert_matches_reference(cell)
        assert result.final_params is not None


class TestBusyLane:
    def test_cascaded_requests_retire_at_inbox_loop_times(self):
        for hooked in (False, True):
            runner, _result, _ref = assert_matches_reference(busy_lane_cell(), hooked)
            assert runner.server_msgs_drained > 0  # the cascade actually ran


class TestConfigAndHousekeeping:
    def test_unknown_dispatch_rejected(self):
        """There is one dispatcher; the field that selected it is gone."""
        with pytest.raises(TypeError, match="server_dispatch"):
            SimConfig(
                cluster=cpu_cluster(2, n_servers=1),
                max_iter=1,
                sync=ssp(1),
                workload=alexnet_cifar_workload(),
                server_dispatch="inline",
            )

    @pytest.mark.parametrize("dispatch", ["direct", "pslite", "specsync", "ssptable"])
    def test_no_messages_pinned_in_inboxes(self, dispatch):
        """After a run no delivered ``Message`` is reachable from any
        endpoint — which, through its sink, is from anywhere in the
        runner: there is no inbox for a grant, an abort or a read reply
        to rot in (the test id predates the inbox's deletion; ``direct``
        is the stock runner).  At 10k workers a pinned reply kept its
        parameter snapshot alive too."""
        sim = SimConfig(
            cluster=cpu_cluster(8, n_servers=2),
            max_iter=20,
            sync=ssp(2),
            task=blobs_task(8, n_train=160, n_test=40, seed=3),
            base_compute_time=0.4,
            compute_model=HeterogeneousCompute(8, spread=0.4),
            seed=2,
        )
        kind = "stock" if dispatch == "direct" else dispatch
        runner = make_runner(kind, sim, abort_threshold=2)
        runner.run()
        for ep in runner.net.endpoints.values():
            pinned = [obj for obj in _reachable(ep) if isinstance(obj, Message)]
            assert not pinned, f"{ep.node_id} pins {len(pinned)} messages, e.g. {pinned[0]}"

    @pytest.mark.no_sanitize  # explicit Observability below
    def test_snapshot_gauges_record_dispatch_and_engine_health(self):
        obs = Observability(MetricsRegistry("gauges"))
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cpu_cluster(4, n_servers=2),
                max_iter=4,
                sync=ssp(3),
                workload=alexnet_cifar_workload(),
                compute_model=DeterministicCompute(),
                seed=3,
                obs=obs,
            )
        )
        runner.run()
        reg = obs.registry
        # finalize() lands the post-drain totals in the last sample.
        assert (
            reg.gauge("engine_pending_event_hwm").value()
            == runner.engine.pending_high_water
            > 0
        )
        assert reg.gauge("ps_dispatch_inline").value() == runner.server_msgs_inline > 0
        assert reg.gauge("ps_dispatch_drained").value() == runner.server_msgs_drained
        assert reg.gauge("net_fused_deliveries").value() == runner.net.fused_deliveries

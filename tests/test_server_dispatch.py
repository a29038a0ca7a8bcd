"""Differential tests: direct server dispatch vs the inbox loop.

``server_dispatch="direct"`` hands each delivered request to the server
inside the delivery event via the endpoint sink, on a per-shard analytic
drain lane — no inbox round-trip and no per-request resume + timeout
events.  The contract is exact semantic equivalence with the classic
one-generator-per-server inbox loop (``server_dispatch="proc"``): a
request's handle time is ``max(deliver_time, previous handle end)`` and
per-server order is the delivery FIFO, bit-identical across the two
dispatchers — only the event structure differs.  These tests run entire
co-simulated training runs on every cluster preset × sync model ×
compute model cell and compare full delivery traces and trained
parameters, force a congested server through the busy-lane cascade, and
pin the one-path-per-wire rule: a process-wire cluster runs the inbox
loop whatever the config says.

Also covers :func:`repro.core.server.flush_applies_across` — the
cross-shard vectorized apply flush the runner uses — against each
shard's own ``_flush_applies``, bit for bit.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.models import ssp
from repro.core.server import ExecutionMode, ShardServer, flush_applies_across
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute

from tests.sim_helpers import instant_stream, preset_configs


def _run_dispatch(cfg_kwargs, dispatch=None, **extra):
    """One full run with a delivery trace, on the chosen dispatcher
    (``None`` leaves ``server_dispatch`` at its default)."""
    if dispatch is not None:
        extra["server_dispatch"] = dispatch
    cfg = SimConfig(**extra, **cfg_kwargs)
    runner = FluentPSSimRunner(cfg)
    trace = []
    runner.net.on_delivery(
        lambda m: trace.append(
            (m.msg_id, m.src, m.dst, m.tag, m.size_bytes, m.send_time, m.deliver_time)
        )
    )
    result = runner.run()
    return trace, result, runner


def _wire_sorted(trace):
    """Msg-id-free multiset view of a delivery trace, as JSON bytes.

    Once requests land inside a busy window the lane issues replies
    immediately at cascaded handle times and the inbox loop after a
    wakeup, so msg-id allocation order may legally differ while every
    wire timestamp stays bit-identical."""
    return json.dumps(sorted(t[1:] for t in trace))


class TestPresetDifferential:
    """Entire co-simulated runs on each preset: byte-identical traces."""

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_run_traces_identical(self, cfg_kwargs):
        d_trace, d_result, d_runner = _run_dispatch(cfg_kwargs, "direct")
        p_trace, p_result, p_runner = _run_dispatch(cfg_kwargs, "proc")
        # Serialize through JSON so the comparison is on bytes, not on
        # float objects that might compare equal after rounding.
        assert json.dumps(d_trace) == json.dumps(p_trace)
        assert d_trace  # the run actually produced traffic
        assert d_result.duration == p_result.duration
        assert d_result.messages_on_wire == p_result.messages_on_wire
        assert d_result.bytes_on_wire == p_result.bytes_on_wire
        assert d_result.total_comm_time == p_result.total_comm_time
        # Every server-bound request went through the sink dispatcher,
        # and dropping the per-request resume + timeout events is
        # visible in the engine's event count.
        requests = sum(1 for t in d_trace if t[3] in ("push", "pull"))
        assert d_runner.server_msgs_inline + d_runner.server_msgs_drained == requests
        assert p_runner.server_msgs_inline == p_runner.server_msgs_drained == 0
        assert d_runner.engine.events_processed < p_runner.engine.events_processed

    @pytest.mark.parametrize("op_overhead_s", [20e-6, 0.02])
    def test_training_run_params_identical(self, op_overhead_s):
        """A real (non-timing-only) run under the soft barrier: DPR
        costs stretch the busy lanes (the wide overhead parks requests
        behind them too) and the final parameters must still be
        bit-equal.  The task is built fresh per run — training mutates
        it in place."""

        def kwargs():
            return dict(
                cluster=cpu_cluster(3, n_servers=2),
                max_iter=8,
                sync=ssp(2),
                task=blobs_task(3, n_train=120, n_test=60),
                execution=ExecutionMode.SOFT_BARRIER,
                compute_model=LogNormalCompute(0.2),
                seed=11,
                server_op_overhead_s=op_overhead_s,
            )

        _, d_result, _ = _run_dispatch(kwargs(), "direct")
        _, p_result, _ = _run_dispatch(kwargs(), "proc")
        assert d_result.final_params is not None
        assert np.array_equal(d_result.final_params, p_result.final_params)
        assert d_result.duration == p_result.duration


class TestBusyLane:
    """A server op cost far wider than the incast spacing: every burst
    after the first request lands inside the shard's busy window."""

    def _kwargs(self):
        return dict(
            cluster=cpu_cluster(6, n_servers=2),
            max_iter=4,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            batch_per_worker=64,
            compute_model=DeterministicCompute(),
            seed=5,
            server_op_overhead_s=0.05,
        )

    def test_cascaded_requests_retire_at_inbox_loop_times(self):
        l_trace, l_result, l_runner = _run_dispatch(self._kwargs(), "direct")
        p_trace, p_result, _ = _run_dispatch(self._kwargs(), "proc")
        assert l_runner.server_msgs_drained > 0  # the cascade actually ran
        assert _wire_sorted(l_trace) == _wire_sorted(p_trace)
        assert l_result.duration == p_result.duration
        assert l_result.total_comm_time == p_result.total_comm_time


class TestProcessWire:
    """One busy-server path per wire: drain lanes need analytic wire
    timing, so a ``fabric_concurrency`` cluster runs the inbox loop."""

    # Explicit Observability below; the ambient conftest bundle would
    # double-report the same stream.
    pytestmark = pytest.mark.no_sanitize

    def _run(self, **extra):
        cluster = cpu_cluster(4, n_servers=2)
        cluster.fabric_concurrency = 1
        obs = Observability(MetricsRegistry("process-wire"))
        trace, result, runner = _run_dispatch(
            dict(
                cluster=cluster,
                max_iter=4,
                sync=ssp(2),
                workload=alexnet_cifar_workload(),
                compute_model=LogNormalCompute(0.3),
                seed=13,
                obs=obs,
            ),
            **extra,
        )
        return trace, result, runner, obs

    def test_default_config_runs_the_inbox_loop(self):
        d_trace, d_result, d_runner, d_obs = self._run()
        p_trace, p_result, p_runner, p_obs = self._run(server_dispatch="proc")
        assert d_runner.net.analytic is False
        assert d_runner.server_msgs_inline == d_runner.server_msgs_drained == 0
        assert d_runner.engine.events_processed == p_runner.engine.events_processed
        assert json.dumps(d_trace) == json.dumps(p_trace)
        assert d_trace
        assert instant_stream(d_obs.instants) == instant_stream(p_obs.instants)
        assert d_result.worker_finish_times == p_result.worker_finish_times


class TestCrossShardFlush:
    """flush_applies_across == per-shard _flush_applies, bit for bit."""

    def _fleet(self, shapes, seed=0):
        """Shard servers with synthetic deferred gradients; ``shapes`` is
        a list of (n_pending_rows, param_length) per shard."""
        rng = np.random.default_rng(seed)
        servers = []
        for shard, (k, length) in enumerate(shapes):
            s = ShardServer(
                shard_id=shard,
                n_workers=4,
                model=ssp(3),
                params=rng.standard_normal(length),
            )
            s._pending_grads = [rng.standard_normal(length) for _ in range(k)]
            servers.append(s)
        return servers

    @pytest.mark.parametrize(
        "shapes",
        [
            [(3, 64)] * 4,  # homogeneous: the vectorized group path
            [(3, 64), (3, 64), (2, 64), (3, 32)],  # mixed groups + fallbacks
            [(1, 16), (0, 16), (5, 16)],  # single-row and empty shards
            [(4, 128)],  # lone member falls back
        ],
    )
    def test_bit_identical_to_per_shard_flush(self, shapes):
        grouped = self._fleet(shapes, seed=7)
        solo = self._fleet(shapes, seed=7)
        flush_applies_across(grouped)
        for s in solo:
            s._flush_applies()
        for g, s in zip(grouped, solo):
            assert np.array_equal(g.params, s.params)
            assert g._pending_grads == [] == s._pending_grads
            assert g._last_significance == s._last_significance
            assert g.apply_flushes == s.apply_flushes


class TestConfigAndHousekeeping:
    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="server_dispatch"):
            SimConfig(
                cluster=cpu_cluster(2, n_servers=1),
                max_iter=1,
                sync=ssp(1),
                workload=alexnet_cifar_workload(),
                server_dispatch="inline",
            )

    @pytest.mark.parametrize("dispatch", ["direct", "proc"])
    def test_no_messages_pinned_in_inboxes(self, dispatch):
        """Neither dispatcher leaves delivered messages rotting in an
        unread inbox (replies skip the append; direct mode consumes
        server requests in the sink) — at 10k workers a pinned reply
        keeps its COW parameter snapshot alive too."""
        cfg_kwargs = dict(
            cluster=cpu_cluster(4, n_servers=2),
            max_iter=3,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            compute_model=DeterministicCompute(),
            seed=2,
        )
        _, _, runner = _run_dispatch(cfg_kwargs, dispatch)
        for ep in runner.net.endpoints.values():
            assert len(ep.inbox) == 0, f"{ep.node_id} pinned {len(ep.inbox)} messages"

    @pytest.mark.no_sanitize  # explicit Observability below
    def test_snapshot_gauges_record_dispatch_and_engine_health(self):
        obs = Observability(MetricsRegistry("gauges"))
        cfg_kwargs = dict(
            cluster=cpu_cluster(4, n_servers=2),
            max_iter=4,
            sync=ssp(3),
            workload=alexnet_cifar_workload(),
            compute_model=DeterministicCompute(),
            seed=3,
            obs=obs,
        )
        _, _, runner = _run_dispatch(cfg_kwargs)
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

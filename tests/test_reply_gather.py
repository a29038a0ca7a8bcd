"""Differential tests for the private-lane gather.

A fused gather (docs/PERFORMANCE.md, "Private-lane gather") posts no
per-reply event, so it must be *bit-identical* to the per-message path
it replaces.  The ambient pytest sanitizer installs a causal
``Observability``, which routes a run onto the per-message path — so
every run here is ``obs=NULL_OBS`` (or a plain ``Network``), and the
oracle is the same configuration with a no-op ``net.on_delivery`` hook,
which forces one event per message.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize_run
from repro.baselines.pslite import PSLiteSimRunner
from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
from repro.baselines.sspable import SSPTableConfig, SSPTableRunner
from repro.bench.workloads import blobs_task
from repro.core.models import asp, bsp, dsps, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.engine import Engine, SimulationError
from repro.sim.network import Network, NicSpec
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import (
    DeterministicCompute,
    HeterogeneousCompute,
    LogNormalCompute,
)

from tests.sim_helpers import (
    EventPathRunner,
    OneStraggler,
    assert_matches_reference,
    instant_stream,
    preset_configs,
    server_metrics,
)


def _endpoint_stats(net):
    return {
        name: [
            ep.tx_free_at, ep.rx_free_at, ep.tx_busy_s, ep.rx_busy_s,
            ep.bytes_sent, ep.bytes_received, ep.messages_sent, ep.messages_received,
        ]
        for name, ep in net.endpoints.items()
    }


# -- (i) Network level ---------------------------------------------------------

_SERVERS = ("s0", "s1", "s2")
_WORKERS = ("w0", "w1")


def _wire(latency):
    eng = Engine()
    net = Network(eng, latency_s=latency)
    for i, name in enumerate(_SERVERS):
        net.add_node(name, NicSpec(bandwidth_Bps=1e6 * (i + 1), overhead_s=3e-6 * i))
    for i, name in enumerate(_WORKERS):
        net.add_node(name, NicSpec(bandwidth_Bps=2e6 * (i + 1), overhead_s=5e-6))
    return eng, net


def _replay(latency, rx_preload, legs, mode):
    """Run one schedule of transfers into the two workers.

    ``legs`` is ``[(worker, server, size, send instant, virtual lead)]``;
    ``mode`` is ``"fused"`` (exclusive gathers, nothing observing),
    ``"hooked"`` (the same gathers with a no-op delivery hook) or
    ``"plain"`` (no gather at all: ordinary sends, completion = last
    delivery).  Returns completion instants and every wire statistic."""
    eng, net = _wire(latency)
    if mode == "hooked":
        net.on_delivery(lambda m: None)
    done_at = {}
    by_worker = {w: [leg for leg in legs if leg[0] == w] for w in _WORKERS}
    for w, preload in zip(_WORKERS, rx_preload):
        mine = by_worker[w]
        if not mine:
            continue
        net.endpoint(w).rx_free_at = preload
        landed = None
        if mode == "plain":
            left = [len(mine)]

            def landed(msg, w=w, left=left):
                left[0] -= 1
                if not left[0]:
                    done_at[w] = eng.now

            dst = w
        else:
            dst = net.gather(w, len(mine), exclusive=True)
            assert (dst._legs is not None) == (mode == "fused")

            def waiter(dst=dst, w=w):
                yield dst
                done_at[w] = eng.now

            eng.spawn(waiter())
        for _w, server, size, t, lead in mine:
            def fire(server=server, dst=dst, size=size, at=t + lead, landed=landed):
                sig = net.send(server, dst, size, tag="reply", at=at)
                if landed is not None:
                    sig.subscribe(landed)

            eng.call_at(t, fire)
    eng.run()
    return {
        "done": done_at,
        "eps": _endpoint_stats(net),
        "net": [net.total_bytes, net.total_messages, net.fast_path_transfers, net._next_msg_id],
        "in_flight": [net.bytes_in_flight, net.messages_in_flight],
    }


_leg = st.tuples(
    st.sampled_from(_WORKERS),
    st.sampled_from(_SERVERS),
    st.sampled_from([0, 1, 128, 4096, 65_536, 1_000_003]),
    # Few distinct instants: same-instant sends and queued TX lanes.
    st.sampled_from([0.0, 1e-4, 1e-4 + 3e-6, 0.02, 0.5]),
    st.sampled_from([0.0, 0.0, 2e-5, 0.3]),
)


class TestNetworkLevel:
    @given(
        latency=st.sampled_from([0.0, 50e-6, 0.01]),
        rx_preload=st.tuples(
            st.sampled_from([0.0, 1e-4, 0.7]), st.sampled_from([0.0, 0.02, 2.0])
        ),
        legs=st.lists(_leg, min_size=1, max_size=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_fused_gather_equals_plain_sends(self, latency, rx_preload, legs):
        fused = _replay(latency, rx_preload, legs, "fused")
        assert fused == _replay(latency, rx_preload, legs, "hooked")
        assert fused == _replay(latency, rx_preload, legs, "plain")
        assert fused["in_flight"] == [0, 0]

    def test_fused_gather_posts_one_event(self):
        eng, net = _wire(50e-6)
        g = net.gather("w0", 3, exclusive=True)
        resumed = []

        def waiter():
            got = yield g
            resumed.append((got, eng.now))

        eng.spawn(waiter())
        for s in _SERVERS:
            net.send(s, g, 4096)
        assert net.fused_deliveries == 3 and net.messages_in_flight == 0
        eng.run()
        assert eng.events_processed == 2  # the spawn step and the one resume
        assert resumed == [(g, net.endpoint("w0").rx_free_at)]
        assert g.remaining == 0 and g.done_at == eng.now

    def test_late_subscriber_resumes_at_completion(self):
        for exclusive in (True, False):
            eng, net = _wire(50e-6)
            g = net.gather("w0", 1, exclusive=exclusive)
            net.send("s0", g, 4096)
            if not exclusive:
                eng.run()
            seen = []
            g._subscribe(eng, lambda got: seen.append(eng.now))
            eng.run()
            assert seen == [g.done_at]


class TestGuards:
    def test_plain_send_into_open_exclusive_gather_raises(self):
        eng, net = _wire(50e-6)
        g = net.gather("w0", 2, exclusive=True)
        net.send("s0", g, 1024)
        with pytest.raises(SimulationError, match="private"):
            net.send("s1", "w0", 64)
        with pytest.raises(SimulationError, match="private"):
            net.gather("w0", 1)  # a second gather into the held lane
        net.send("s1", g, 1024)
        # Closed, but its lane is scheduled until the completion instant.
        assert g.remaining == 0 and g.done_at > eng.now
        with pytest.raises(SimulationError, match="private"):
            net.send("s1", "w0", 64)
        eng.run(until=g.done_at)
        net.send("s1", "w0", 64)  # the lane is public again
        net.gather("w0", 1, exclusive=True)

    def test_guard_holds_on_the_per_message_path(self):
        eng, net = _wire(50e-6)
        net.on_delivery(lambda m: None)
        g = net.gather("w0", 1, exclusive=True)
        assert g._legs is None
        with pytest.raises(SimulationError, match="private"):
            net.send("s1", "w0", 64)
        net.send("s0", g, 1024)
        eng.run()
        net.send("s1", "w0", 64)

    def test_other_endpoints_and_open_gathers_are_unaffected(self):
        eng, net = _wire(50e-6)
        net.gather("w0", 1, exclusive=True)
        net.send("s0", "w1", 64)
        shared = net.gather("w1", 1)  # non-exclusive: the lane stays public
        net.send("s0", "w1", 64)
        net.send("s0", shared, 64)
        eng.run()
        assert shared.remaining == 0

    def test_bad_joins_raise(self):
        eng, net = _wire(50e-6)
        with pytest.raises(ValueError, match="at least one"):
            net.gather("w0", 0)
        g = net.gather("w0", 1, exclusive=True)
        with pytest.raises(ValueError, match="negative"):
            net.send("s0", g, -1)
        eng.run(until=1.0)
        with pytest.raises(ValueError, match="past"):
            net.send("s0", g, 64, at=0.5)
        assert g.remaining == 1  # the rejected joins counted for nothing
        net.send("s0", g, 64)
        with pytest.raises(ValueError, match="already complete"):
            net.send("s0", g, 64)


# -- (ii) runner level -----------------------------------------------------------


def _fingerprint(runner, result):
    net = runner.net
    return json.dumps(
        {
            "finish": runner._finish_times,
            "duration": result.duration,
            "endpoints": _endpoint_stats(net),
            "net": [net.total_messages, net.total_bytes, net.fast_path_transfers,
                    net._next_msg_id],
            "spans": sorted((a, k.value, v) for (a, k), v in runner.trace._totals.items()),
            "metrics": server_metrics(getattr(runner, "servers", [])),
            "params": None
            if result.final_params is None
            else result.final_params.tobytes().hex(),
            "evals": [list(result.eval_by_time.x), list(result.eval_by_time.y)],
        },
        sort_keys=True,
    )


def _pair(make_runner):
    """Run ``make_runner()`` twice — unobserved (fused gathers) and with
    a no-op delivery hook (per-message events) — and return both."""
    fused = make_runner()
    res_fused = fused.run()
    hooked = make_runner()
    hooked.net.on_delivery(lambda m: None)
    res_hooked = hooked.run()
    return (fused, res_fused), (hooked, res_hooked)


def _assert_fused_equals_hooked(cfg_kwargs, runner_cls=EventPathRunner):
    """Both twins on the event path by default (a collapsed round sends
    nothing, so it would not reach the gather at all).  ``cfg_kwargs``
    may be a factory: a training task is stateful, one per run."""
    make_kwargs = cfg_kwargs if callable(cfg_kwargs) else lambda: cfg_kwargs
    (fused, rf), (hooked, rh) = _pair(
        lambda: runner_cls(SimConfig(**make_kwargs(), obs=NULL_OBS))
    )
    assert _fingerprint(fused, rf) == _fingerprint(hooked, rh)
    assert fused.engine.events_processed < hooked.engine.events_processed
    return fused, hooked


def _tie_cells():
    workload = alexnet_cifar_workload()
    cells = []
    for cname, compute in [("det", DeterministicCompute()), ("ln0", LogNormalCompute(0.0))]:
        for sname, sync in [
            ("ssp1", ssp(1)), ("pssp", pssp(2, 0.5)), ("bsp", bsp()), ("asp", asp()),
            ("dsps", dsps()),
        ]:
            for execution in (ExecutionMode.LAZY, ExecutionMode.SOFT_BARRIER):
                cells.append(
                    pytest.param(
                        dict(
                            cluster=cpu_cluster(9, n_servers=3),
                            max_iter=5,
                            sync=sync,
                            execution=execution,
                            workload=workload,
                            compute_model=compute,
                            seed=3,
                        ),
                        id=f"{cname}-{sname}-{execution.value}",
                    )
                )
    return cells


class TestRunnerLevel:
    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_presets(self, cfg_kwargs):
        fused, hooked = _assert_fused_equals_hooked(cfg_kwargs)
        n, m = cfg_kwargs["cluster"].n_workers, cfg_kwargs["cluster"].n_servers
        iters = cfg_kwargs["max_iter"]
        # The census: 2M+2 events per worker-iteration (+ the spawn wave)
        # against 6M+2 when every delivery is its own event.
        assert fused.engine.events_processed == n * iters * (2 * m + 2) + n
        assert hooked.engine.events_processed == n * iters * (6 * m + 2) + n

    @pytest.mark.parametrize("cfg_kwargs", _tie_cells())
    def test_tie_heavy_cells(self, cfg_kwargs):
        _assert_fused_equals_hooked(cfg_kwargs)

    def test_real_gradient_task_with_eval(self):
        n = 6
        fused, _hooked = _assert_fused_equals_hooked(
            lambda: dict(
                cluster=cpu_cluster(n, n_servers=3),
                max_iter=8,
                sync=pssp(2, 0.5),
                task=blobs_task(n, n_train=240, n_test=60, seed=5),
                eval_every=2,
                seed=11,
                base_compute_time=0.4,
                compute_model=HeterogeneousCompute(n, spread=0.4),
            )
        )
        assert len(fused.eval_by_time) == 4

    def test_midrun_devectorisation(self):
        fused, _hooked = _assert_fused_equals_hooked(
            dict(
                cluster=cpu_cluster(10, n_servers=3),
                max_iter=6,
                sync=ssp(3),
                workload=alexnet_cifar_workload(),
                compute_model=OneStraggler(),
                base_compute_time=5.0,
                seed=7,
            ),
            runner_cls=FluentPSSimRunner,
        )
        assert 0 < fused.engine.rounds_collapsed < 6
        assert fused.engine.events_processed > 0

    @pytest.mark.parametrize("sync", [ssp(2), bsp()], ids=["ssp2", "bsp"])
    def test_proc_dispatch(self, sync):
        """Fused gathers over drain lanes vs the reference, whose servers
        are inbox-loop processes and whose replies are counted one by one."""
        fused, _result, ref = assert_matches_reference(
            dict(
                cluster=gpu_cluster_p2(6, n_servers=2),
                max_iter=5,
                sync=sync,
                workload=alexnet_cifar_workload(),
                compute_model=LogNormalCompute(0.3),
                seed=2,
            ),
            runner_cls=EventPathRunner,
        )
        assert fused.net.fused_deliveries == len(ref.trace)  # requests and replies


# -- (iii) the baseline runners --------------------------------------------------


def _baseline_sim(n, **kw):
    """A fresh config per call (the training task is stateful)."""
    base = dict(
        cluster=cpu_cluster(n, n_servers=2),
        max_iter=12,
        sync=ssp(2),
        task=blobs_task(n, n_train=200, n_test=60, seed=1),
        seed=4,
        base_compute_time=0.4,
        compute_model=HeterogeneousCompute(n, spread=0.4),
        obs=NULL_OBS,
    )
    base.update(kw)
    return SimConfig(**base)


class TestBaselineRunners:
    def test_pslite_exclusive_gather_is_bit_identical(self):
        (fused, rf), (hooked, rh) = _pair(lambda: PSLiteSimRunner(_baseline_sim(5)))
        assert _fingerprint(fused, rf) == _fingerprint(hooked, rh)
        assert fused.net.fused_deliveries > 0

    @pytest.mark.parametrize("timing_only", [False, True])
    def test_pslite_timing_cells(self, timing_only):
        kw = dict(sync=bsp(), compute_model=DeterministicCompute())
        if timing_only:
            kw.update(task=None, workload=alexnet_cifar_workload(), base_compute_time=None)
        (fused, rf), (hooked, rh) = _pair(lambda: PSLiteSimRunner(_baseline_sim(6, **kw)))
        assert _fingerprint(fused, rf) == _fingerprint(hooked, rh)

    def _specsync(self, n=6):
        # Paper-sized transfers (the workload's wire footprint) keep pulls
        # long enough that the scheduler's aborts are sent mid-pull.
        sim = _baseline_sim(n, sync=asp(), max_iter=20, workload=alexnet_cifar_workload())
        return SpecSyncRunner(SpecSyncConfig(sim=sim, abort_threshold=2))

    def test_specsync_with_aborts_landing_mid_pull(self, monkeypatch):
        fused_replies = []
        join = Network.join

        def spy(net, src, into, *leg):
            if into._legs is not None:
                fused_replies.append(leg)
            join(net, src, into, *leg)

        monkeypatch.setattr(Network, "join", spy)
        (fused, rf), (hooked, rh) = _pair(self._specsync)
        assert fused.aborts > 0  # the scheduler did reach workers' RX lanes
        assert (fused.aborts, fused.wasted_compute) == (hooked.aborts, hooked.wasted_compute)
        assert _fingerprint(fused, rf) == _fingerprint(hooked, rh)
        # Declared non-exclusive: no *reply* was fused.  What did fuse are
        # signal-free pull requests that found no signalled push still in
        # flight to their server (``Endpoint.unfused``).
        assert not fused_replies
        assert 0 < fused.net.fused_deliveries < fused.net.total_messages // 3

    def test_specsync_declared_exclusive_trips_the_guard(self):
        runner = self._specsync()
        open_pull = runner._open_pull
        runner._open_pull = lambda w, exclusive=False: open_pull(w, exclusive=True)
        with pytest.raises(SimulationError, match="private"):
            runner.run()

    def test_ssptable(self):
        def make():
            return SSPTableRunner(SSPTableConfig(sim=_baseline_sim(5), staleness=2))

        (fused, rf), (hooked, rh) = _pair(make)
        assert _fingerprint(fused, rf) == _fingerprint(hooked, rh)


# -- observed, non-causal runs ---------------------------------------------------


class _SharedLaneRunner(EventPathRunner):
    """The stock protocol with its reply gathers declared non-exclusive:
    every reply is an ordinary delivery, nothing else changes (a delivery
    hook would also un-fuse the *requests*, which moves handles from TX
    to delivery order and reorders the global instant stream)."""

    def _open_pull(self, w, exclusive=True):
        return super()._open_pull(w, exclusive=False)


@pytest.mark.no_sanitize
class TestObservedNonCausal:
    @pytest.mark.parametrize("sync", [bsp(), pssp(1, 0.3)], ids=["bsp", "pssp"])
    def test_instants_verdict_and_ps_metrics_identical(self, sync):
        docs = []
        for runner_cls in (EventPathRunner, _SharedLaneRunner):
            obs = Observability(MetricsRegistry("gather"), causal=False)
            runner = runner_cls(
                SimConfig(
                    cluster=cpu_cluster(8, n_servers=3),
                    max_iter=6,
                    sync=sync,
                    execution=ExecutionMode.SOFT_BARRIER,
                    workload=alexnet_cifar_workload(),
                    compute_model=HeterogeneousCompute(8, spread=0.5),
                    seed=9,
                    obs=obs,
                )
            )
            result = runner.run()
            report = sanitize_run(obs.last_run)
            metrics = obs.registry.to_dict()["metrics"]
            docs.append(
                {
                    "fused": runner.net.fused_deliveries,
                    "events": runner.engine.events_processed,
                    "fingerprint": _fingerprint(runner, result),
                    "instants": instant_stream(obs.last_run.instants),
                    "verdict": (report.ok, report.n_events, len(report.violations)),
                    "ps": {k: v for k, v in metrics.items() if k.startswith("ps_")},
                    "pull_latency": metrics["pull_latency_seconds"],
                }
            )
        fused, shared = docs
        assert fused["fused"] - shared["fused"] == 8 * 6 * 3  # the replies
        assert shared["events"] - fused["events"] == 8 * 6 * 3 * 2
        assert fused["ps"], "no ps_* metrics captured"
        for key in ("fingerprint", "instants", "verdict", "ps", "pull_latency"):
            assert fused[key] == shared[key], key
        assert fused["verdict"][0]


def test_fused_path_is_what_null_obs_runs(rng):
    """The trap this suite exists for: under the ambient (causal)
    sanitizer no reply ever fuses, with ``NULL_OBS`` every one does."""
    kwargs = dict(
        cluster=cpu_cluster(4, n_servers=2), max_iter=3, sync=ssp(2),
        workload=alexnet_cifar_workload(), seed=int(rng.integers(100)),
    )
    ambient = FluentPSSimRunner(SimConfig(**kwargs))
    ambient.run()
    raw = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
    raw.run()
    requests = 3 * 4 * 2 * 2  # iterations x workers x (push + pull) x shards
    assert ambient.net.fused_deliveries == requests
    assert raw.net.fused_deliveries == requests + 3 * 4 * 2  # and the replies
    assert np.array_equal(ambient._finish_times, raw._finish_times)

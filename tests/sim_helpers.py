"""Shared helpers for the co-simulation differential suites."""

import collections
import contextlib
import hashlib
import json
import sys
from unittest import mock

import pytest

from repro.baselines.pslite import PSLiteSimRunner
from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
from repro.baselines.sspable import SSPTableConfig, SSPTableRunner
from repro.bench.workloads import blobs_task
from repro.core.models import bsp, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.engine import Engine
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import ComputeModel, DeterministicCompute, LogNormalCompute

from tests.reference_sim import ReferenceSim


class EventPathRunner(FluentPSSimRunner):
    """The event path whatever the config: every round runs message by
    message.  The closed-form round collapse is differentially tested
    against this runner."""

    def _collapse_eligible(self) -> str:
        return "subclass"


def make_runner(kind, sim, abort_threshold=3, staleness=2):
    """One of the four event-path runners over ``sim``: ``"stock"`` (on
    the event path whatever the config), ``"pslite"``, ``"specsync"`` or
    ``"ssptable"``."""
    if kind == "stock":
        return EventPathRunner(sim)
    if kind == "pslite":
        return PSLiteSimRunner(sim)
    if kind == "specsync":
        return SpecSyncRunner(SpecSyncConfig(sim=sim, abort_threshold=abort_threshold))
    assert kind == "ssptable", kind
    return SSPTableRunner(SSPTableConfig(sim=sim, staleness=staleness))


class OneStraggler(ComputeModel):
    """Deterministic compute with a single slow draw at (worker 3, iter 2):
    with a wide base compute, the round that de-vectorises a collapse."""

    def sample(self, worker, iteration, base_time, rng):
        return base_time * (6.0 if (worker, iteration) == (3, 2) else 1.0)

    def mean_factor(self) -> float:
        return 1.0


def python_calls(fn, skip=()):
    """How many Python-level function calls ``fn()`` makes (C calls are not
    counted), not counting calls of functions named in ``skip``: a count
    that repeats exactly, unlike a timing."""
    count = 0

    def profiler(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name not in skip:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


@contextlib.contextmanager
def daemon_ticks():
    """Count every engine's ``call_every`` ticks while the block runs, as
    ``{engine: ticks}``: an observed run that processes events pays its
    metric snapshotter's scrapes on top of its protocol events."""
    ticks = collections.Counter()
    call_every = Engine.call_every

    def counting(engine, interval, fn):
        def tick():
            ticks[engine] += 1
            fn()

        call_every(engine, interval, tick)

    with mock.patch.object(Engine, "call_every", counting):
        yield ticks


def protocol_events(runner, ticks):
    """``runner``'s processed events less its snapshotter ticks (:func:`daemon_ticks`)."""
    return runner.engine.events_processed - ticks[runner.engine]


def instant_stream(instants):
    """A protocol instant stream as JSON bytes, comparable across runs.

    ``uid`` is a process-global server incarnation counter — it differs
    between any two runner constructions in one process by design — and
    ``snap`` tags a live shard's reply copies, which a simulated run's
    timing-only shards do not make (the reference's shards are live), so
    both are stripped before comparing streams."""
    return json.dumps(
        [
            [i.name, i.t, i.actor,
             {k: v for k, v in sorted(i.args.items()) if k not in ("uid", "snap")}]
            for i in instants
        ],
        default=str,
    )


def preset_configs():
    """One runner config per (preset, sync model, compute) cell."""
    workload = alexnet_cifar_workload()
    cells = []
    for name, cluster in [
        ("gpu_p2", gpu_cluster_p2(4, n_servers=2)),
        ("cpu", cpu_cluster(4, n_servers=2)),
    ]:
        for sync_name, sync in [("ssp3", ssp(3)), ("bsp", bsp()), ("pssp", pssp(2, 0.5))]:
            for comp_name, compute in [
                ("det", DeterministicCompute()),
                ("lognorm", LogNormalCompute(0.3)),
            ]:
                cells.append(
                    pytest.param(
                        dict(
                            cluster=cluster,
                            max_iter=6,
                            sync=sync,
                            workload=workload,
                            batch_per_worker=64,
                            compute_model=compute,
                            seed=7,
                        ),
                        id=f"{name}-{sync_name}-{comp_name}",
                    )
                )
    return cells


def busy_lane_cell():
    """A server op cost far wider than the incast spacing: every burst
    after the first request lands inside the shard's busy window."""
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


def isolated_task_cell(n=6, m=2, iters=5):
    """Compute >> comm with a tiny spread: every round of a real-gradient
    run commits in closed form, so the replay reads the collapse's logs."""
    return dict(
        cluster=cpu_cluster(n, n_servers=m),
        max_iter=iters,
        sync=ssp(3),
        task=blobs_task(n, n_train=40 * n, n_test=60, seed=4),
        workload=alexnet_cifar_workload(),
        compute_model=LogNormalCompute(sigma=0.01),
        base_compute_time=1e5,
        seed=3,
    )


def real_gradient_cell(**extra):
    """A real (non-timing-only) run under the soft barrier, as a config
    factory: training mutates the task in place, so each run builds its
    own — sharing one would compare run 2 against run 1's trained state."""
    return lambda: dict(
        cluster=cpu_cluster(3, n_servers=2),
        max_iter=8,
        sync=ssp(2),
        task=blobs_task(3, n_train=120, n_test=60),
        execution=ExecutionMode.SOFT_BARRIER,
        compute_model=LogNormalCompute(0.2),
        seed=11,
        **extra,
    )


# -- production vs the reference simulator ---------------------------------------


def wire_row(msg):
    """A delivered message as the reference's trace row."""
    return (msg.src, msg.dst, msg.tag, msg.size_bytes, msg.send_time, msg.deliver_time)


def endpoint_counters(net):
    """Per-endpoint busy/byte/message counters, shaped as the reference's."""
    return {
        name: (ep.tx_busy_s, ep.rx_busy_s, ep.bytes_sent, ep.bytes_received,
               ep.messages_sent, ep.messages_received)
        for name, ep in net.endpoints.items()
    }


def assert_same_wire(trace, ref_trace):
    """The wire half of the comparison rule: the same multiset of sends
    ``(src, dst, tag, size, send_time)`` and, per destination, the same
    ``(size, deliver_time)`` sequence.  Exact floats, never a tolerance.
    Full per-message identity is not required: which of two equal-size
    messages from different senders, finishing serialization at the same
    instant, drains first depends on event seq allocation upstream."""
    assert sorted(row[:5] for row in trace) == sorted(row[:5] for row in ref_trace)

    def per_destination(rows):
        landed = {}
        for _src, dst, _tag, size, _sent, delivered in rows:
            landed.setdefault(dst, []).append((size, delivered))
        return landed

    assert per_destination(trace) == per_destination(ref_trace)


def server_metrics(servers):
    """Per-shard metric summaries with staleness histograms, comparable across runs."""
    return [
        {**s.metrics.summary(), "staleness": sorted(s.metrics.staleness_hist.items())}
        for s in servers
    ]


def shard_instants(obs, shard):
    """Shard ``shard``'s protocol instant stream, in order (the instant
    log's order contract is per shard)."""
    return instant_stream(i for i in obs.last_run.instants if i.actor == f"server{shard}")


def assert_matches_reference(
    cfg_kwargs, hooked=False, runner_cls=FluentPSSimRunner, make_obs=lambda: NULL_OBS,
    make_system=None,
):
    """Run production — as shipped, or under a delivery hook (one event
    per message) — and :class:`ReferenceSim` on the same configuration
    (each on its own ``make_system()`` when given) and compare by the
    rule: the wire (:func:`assert_same_wire`, hooked runs only — an
    unhooked run has no trace), finish times, endpoint counters, server
    metrics with staleness histograms, final params, the eval series and
    what each evaluation read (as digests, :func:`fingerprint_evals`),
    and under observability each shard's protocol instant stream.  A
    training run must replay every step, and its task's loss history, each
    shard's end state (:func:`shard_states`) and a checkpoint after the run
    (:func:`checkpoint_bytes`) are the reference's too.

    ``obs`` is always explicit: the ambient pytest sanitizer is causal and
    would silently route production off every fused path.  ``cfg_kwargs``
    may be a factory (a training task is stateful: one per run).  Returns
    ``(runner, result, reference run)`` for cell-specific assertions."""
    make_kwargs = cfg_kwargs if callable(cfg_kwargs) else lambda: cfg_kwargs
    make_system = make_system or (lambda: None)
    obs, ref_obs = make_obs(), make_obs()
    kwargs, ref_kwargs = make_kwargs(), make_kwargs()
    read, ref_read = (fingerprint_evals(k["task"]) if k.get("task") else []
                      for k in (kwargs, ref_kwargs))
    runner = runner_cls(SimConfig(**kwargs, obs=obs), make_system())
    trace = []
    if hooked:
        runner.net.on_delivery(lambda msg: trace.append(wire_row(msg)))
    result = runner.run()
    ref = ReferenceSim(SimConfig(**ref_kwargs, obs=ref_obs), make_system()).run()
    assert ref.trace, "the reference produced no traffic"
    if hooked:
        assert_same_wire(trace, ref.trace)
    assert runner._finish_times == ref.finish_times
    assert endpoint_counters(runner.net) == ref.endpoints
    assert server_metrics(runner.servers) == server_metrics(ref.servers)
    if ref.final_params is None:
        assert result.final_params is None
    else:
        assert result.final_params.tobytes() == ref.final_params.tobytes()
    evals = list(zip(result.eval_by_time.x, result.eval_by_iteration.x, result.eval_by_time.y))
    assert evals == ref.evals
    assert read == ref_read and len(read) == len(evals)
    if kwargs.get("task") is not None:
        assert runner.steps_replayed == runner.cfg.cluster.n_workers * runner.cfg.max_iter
        assert kwargs["task"].loss_history == ref_kwargs["task"].loss_history
        assert shard_states(runner.system) == shard_states(ref.system)
        assert checkpoint_bytes(runner.system) == checkpoint_bytes(ref.system)
    if obs.enabled:
        for shard in range(len(ref.servers)):
            assert shard_instants(obs, shard) == shard_instants(ref_obs, shard), shard
    return runner, result, ref


def shard_states(system):
    """Each shard's end state as a comparable tuple: parameter bytes,
    version, frontier and significance."""
    return [
        (None if s.params is None else s.params.tobytes(), s.version, s.v_train,
         s.last_significance)
        for s in system.servers
    ]


def checkpoint_bytes(system):
    """A :meth:`~repro.core.api.ParameterServerSystem.checkpoint` as
    comparable bytes."""
    return json.dumps({**system.checkpoint(), "params": system.current_params().tobytes()},
                      default=str, sort_keys=True)


def fingerprint_evals(task):
    """Digest every parameter vector ``task`` evaluates, into the returned
    list: an accuracy can hide a one-push difference, a digest cannot."""
    digests = []
    evaluate = task.eval_fn

    def eval_fn(params):
        digests.append(hashlib.sha256(params.tobytes()).hexdigest())
        return evaluate(params)

    task.eval_fn = eval_fn
    return digests

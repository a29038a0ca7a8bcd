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

from repro.analysis import sanitize_observability
from repro.bench.workloads import blobs_task, cifar_proxy_task
from repro.core.api import ParameterServerSystem
from repro.core.filters import TopKFilter
from repro.core.models import bsp, dynamic_pssp, pssp, ssp
from repro.core.pssp import significance_alpha
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster
from repro.sim.network import Message
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import (
    DeterministicCompute,
    HeterogeneousCompute,
    cpu_cluster_compute,
)

from tests.mutants import (
    apply_log_out_of_order,
    catch_up_one_step_short,
    eval_read_one_event_late,
    reply_prefix_off_by_one,
    request_serve_ignores_busy_lane,
    significance_from_the_version_before,
)
from tests.sim_helpers import (
    assert_matches_reference,
    busy_lane_cell,
    isolated_task_cell,
    make_runner,
    preset_configs,
    python_calls,
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


def lockstep_eval_cell():
    """Identical workers in lockstep, evaluating every other iteration:
    every round commits in closed form, each evaluation in between two
    rounds' steps."""
    return dict(
        cluster=cpu_cluster(5, n_servers=3),
        max_iter=6,
        sync=pssp(2, 0.5),
        task=blobs_task(5, n_train=200, n_test=60, seed=6),
        workload=alexnet_cifar_workload(),
        compute_model=DeterministicCompute(),
        base_compute_time=50.0,
        eval_every=2,
        seed=8,
    )


def dpr_heavy_cell():
    """The soft barrier at s = 1 over heterogeneous workers: nearly half
    the pulls are DPRs, re-buffered at each frontier advance, and a
    released reply reads the version at its release."""
    return dict(
        cluster=cpu_cluster(4, n_servers=2),
        max_iter=10,
        sync=ssp(1),
        task=blobs_task(4, n_train=160, n_test=60, seed=9),
        execution=ExecutionMode.SOFT_BARRIER,
        compute_model=HeterogeneousCompute(4, spread=0.8),
        base_compute_time=0.3,
        eval_every=3,
        seed=12,
    )


def bsp_task_cell():
    """BSP over heterogeneous workers: every round commits in closed form
    with its pulls buffered, each reply reading the version its round's
    last push released."""
    return dict(
        cluster=cpu_cluster(4, n_servers=2),
        max_iter=6,
        sync=bsp(),
        task=blobs_task(4, n_train=160, n_test=60, seed=5),
        compute_model=HeterogeneousCompute(4, spread=0.5),
        eval_every=2,
        seed=4,
    )


def significance_pssp_cell():
    """Dynamic PSSP whose α is the gradient significance over heterogeneous
    workers: each of its six coins reads the values, a catch-up of the
    replay."""
    return {**real_gradient_cell()(), "sync": dynamic_pssp(1, significance_alpha()),
            "execution": ExecutionMode.LAZY, "eval_every": 4,
            "compute_model": HeterogeneousCompute(3, spread=0.8)}


def recording_significance_cell(reads):
    """:func:`significance_pssp_cell` whose α appends every significance it
    reads to ``reads``."""
    alpha = significance_alpha()

    def recording(view):
        reads.append(view.significance)
        return alpha(view)

    return {**significance_pssp_cell(), "sync": dynamic_pssp(1, recording)}


def topk_filter_cell():
    """A top-k push filter: each push's wire size is a function of its
    values, which the replay computes as each step is taken."""
    return {**real_gradient_cell()(), "push_filter_factory": lambda: TopKFilter(0.2)}


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
        "cell, fallback",
        [
            *(pytest.param(real_gradient_cell(server_op_overhead_s=op), {}, id=str(op))
              for op in (20e-6, 0.02)),
            pytest.param(cosim_task_cell, {"reason": "overlap", "round": 1},
                         id="cosim_task_32w"),
            pytest.param(isolated_task_cell, {}, id="isolated"),
            pytest.param(lockstep_eval_cell, {}, id="lockstep-eval"),
            pytest.param(dpr_heavy_cell, {"reason": "overlap", "round": 1}, id="soft-dprs"),
            pytest.param(bsp_task_cell, {}, id="bsp-barrier"),
            pytest.param(significance_pssp_cell, {"reason": "overlap", "round": 1},
                         id="significance-pssp"),
            pytest.param(topk_filter_cell, {"reason": "push_filter"}, id="topk-filter"),
        ],
    )
    def test_training_run_params_identical(self, cell, fallback):
        """Real (non-timing-only) runs: small ones under the soft barrier,
        where DPR costs stretch the busy lanes (the wide overhead parks
        requests behind them too) and re-buffered replies read versions at
        release, one shaped as the benchmark's ``cosim_task_32w``, two
        whose rounds all commit in closed form (one evaluating between
        them), and two whose timing reads values.  Final parameters, every
        evaluation, the loss history, the shards' end states and a
        checkpoint after the run must be bit-equal to the reference's,
        whose shards apply each push as they handle it."""
        runner, result, _ref = assert_matches_reference(cell)
        assert result.final_params is not None
        assert runner.collapse_fallback == fallback
        if cell is dpr_heavy_cell:
            assert result.metrics.dprs > result.metrics.pulls // 4

    def test_each_significance_read_is_the_references(self):
        """Every coin's significance — a catch-up of the replay — is the
        float the reference's shard computed at its push, not only the
        coin's outcome."""
        reads, ref_reads = [], []
        cells = iter((reads, ref_reads))
        assert_matches_reference(lambda: recording_significance_cell(next(cells)))
        assert reads == ref_reads and len(reads) == 6

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_preset_cells_replay_as_coupled(self, cfg_kwargs):
        """Every preset cell as a real-gradient run under the soft barrier,
        evaluating after every iteration: the replay is the reference's
        coupled run, whichever rounds commit in closed form and whichever
        hand over."""
        assert_matches_reference(lambda: {
            **cfg_kwargs, "task": blobs_task(4, n_train=160, n_test=40, seed=2),
            "execution": ExecutionMode.SOFT_BARRIER, "eval_every": 1,
        })

    def test_replay_continues_a_restored_system(self):
        """``run_fluentps(cfg, system)`` after ``restore``: the replay starts
        from the checkpoint's versions and progress, as the reference does."""
        first = real_gradient_cell()
        trained = FluentPSSimRunner(SimConfig(**first(), obs=NULL_OBS))
        trained.run()
        state = trained.system.checkpoint()

        def restored():
            kwargs = first()
            task = kwargs["task"]
            system = ParameterServerSystem(
                task.spec, task.init_params, 3, 2, kwargs["sync"], kwargs["execution"],
                seed=kwargs["seed"],
            )
            system.restore(state)
            return system

        runner, _result, _ref = assert_matches_reference(
            lambda: {**first(), "eval_every": 3}, make_system=restored
        )
        assert runner._first == [8, 8, 8]

    @pytest.mark.no_sanitize  # explicit Observability below
    @pytest.mark.parametrize("cell", [real_gradient_cell(), isolated_task_cell],
                             ids=["soft", "isolated"])
    def test_observed_replay_streams_identical(self, cell):
        """An observed, non-causal task run takes its raw twin's path, and
        each shard's instant stream is the reference's.  The reference's
        own stream, whose live shards answer with their values, is clean."""
        make_obs = lambda: Observability(MetricsRegistry("replay"), causal=False)  # noqa: E731
        runner, _result, ref = assert_matches_reference(cell, make_obs=make_obs)
        raw = FluentPSSimRunner(SimConfig(**cell(), obs=NULL_OBS))
        raw.run()
        assert runner.collapse_fallback == raw.collapse_fallback
        assert runner.engine.rounds_collapsed == raw.engine.rounds_collapsed
        assert sanitize_observability(runner.obs).ok
        ref_obs = ref.servers[0].obs
        answers = [i for i in ref_obs.last_run.instants if i.name == "pull_answer"]
        assert answers
        assert sanitize_observability(ref_obs).ok


class TestScheduleLogMutants:
    """The kill-matrix rows of the schedule log and the replay
    (``tests/mutants.py``): each dies by the reference differential on a
    cell that reaches it."""

    def test_apply_log_out_of_order_dies_here(self, monkeypatch):
        apply_log_out_of_order(monkeypatch)
        with pytest.raises(AssertionError):
            assert_matches_reference(isolated_task_cell)

    def test_reply_prefix_off_by_one_dies_here(self, monkeypatch):
        reply_prefix_off_by_one(monkeypatch)
        with pytest.raises(AssertionError):
            assert_matches_reference(dpr_heavy_cell)

    def test_eval_read_one_event_late_dies_here(self, monkeypatch):
        eval_read_one_event_late(monkeypatch)
        # A read ahead of the schedule can reach a push not yet stepped.
        with pytest.raises((AssertionError, RuntimeError)):
            assert_matches_reference(dpr_heavy_cell)

    def test_significance_from_the_version_before_dies_here(self, monkeypatch):
        significance_from_the_version_before(monkeypatch)
        with pytest.raises(AssertionError):
            TestPresetDifferential().test_each_significance_read_is_the_references()

    def test_catch_up_one_step_short_dies_here(self, monkeypatch):
        catch_up_one_step_short(monkeypatch)
        # The shard's pending apply then finds its step not taken.
        with pytest.raises(RuntimeError, match="before its step"):
            assert_matches_reference(significance_pssp_cell)


class TestBusyLane:
    def test_cascaded_requests_retire_at_inbox_loop_times(self):
        for hooked in (False, True):
            runner, _result, _ref = assert_matches_reference(busy_lane_cell(), hooked)
            assert runner.server_msgs_drained > 0  # the cascade actually ran

    def test_request_serve_ignores_busy_lane_dies_by_the_reference(self, monkeypatch):
        """The hooked run is on the event path, where the mutant lives."""
        request_serve_ignores_busy_lane(monkeypatch)
        with pytest.raises(AssertionError):
            assert_matches_reference(busy_lane_cell(), hooked=True)


class TestRequestChainCost:
    def test_soft_barrier_event_path_python_call_budget(self):
        """The quick size of the benchmark's soft-barrier regime (48
        workers x 8 shards x 8 iterations, PSSP(1, 0.3)), all but its first
        round on the event path: its Python-level calls are pinned with 2 %
        headroom, so the request chain — one heap entry and one callback
        chain, wire -> shard handler -> reply, per request — cannot grow
        back (it made 114 704 calls when every request was a Message plus a
        payload object, dispatched through two runner frames)."""
        n = 48
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cpu_cluster(n, n_servers=8), max_iter=8, sync=pssp(1, 0.3),
                execution=ExecutionMode.SOFT_BARRIER, workload=alexnet_cifar_workload(),
                compute_model=cpu_cluster_compute(n), seed=0, obs=NULL_OBS,
            )
        )
        calls = python_calls(runner.run)
        assert runner.collapse_fallback == {"reason": "overlap", "round": 1}
        assert runner.engine.events_processed == 6096
        assert calls <= 74_700, calls  # 73 297 on CPython 3.11


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

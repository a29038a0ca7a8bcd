"""Tests for the PS-Lite and SSPtable baseline systems."""

import ast
import gc
import json
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitize_run
from repro.baselines.pslite import PSLiteSimRunner, run_pslite
from repro.baselines.sspable import (
    SSPTableConfig,
    SSPTableRunner,
    _TableServer,
    run_ssptable,
)
from repro.bench.workloads import blobs_task
from repro.core.filters import TopKFilter
from repro.core.keyspace import ElasticSlicer
from repro.core.models import asp, bsp, ssp
from repro.core.server import ApplyInfo, ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
)

from tests.baseline_pins import CELLS, PINS, run_cell
from tests.sim_helpers import make_runner


def pslite_config(n=4, servers=4, iters=8, sync=None, **kw):
    return SimConfig(
        cluster=gpu_cluster_p2(n, servers),
        max_iter=iters,
        sync=sync or bsp(),
        workload=alexnet_cifar_workload(),
        batch_per_worker=64,
        compute_model=kw.pop("compute_model", DeterministicCompute()),
        seed=kw.pop("seed", 0),
        **kw,
    )


class TestPSLite:
    def test_completes(self):
        r = run_pslite(pslite_config())
        assert r.iterations == 8
        assert r.duration > 0

    def test_default_slicing_is_range_key(self):
        runner = PSLiteSimRunner(pslite_config())
        loads = runner.layout.assignment.bytes_per_server()
        # Sequential keys in a uint32 space all land on server 0.
        assert loads[0] == alexnet_cifar_workload().spec.total_bytes

    def test_slower_than_fluentps_overlap(self):
        common = dict(n=8, servers=4, iters=10,
                      compute_model=ExponentialTailCompute(0.1, 2.0))
        r_ps = run_pslite(pslite_config(**common))
        r_fl = run_fluentps(pslite_config(slicer=ElasticSlicer(), **common))
        assert r_ps.duration > r_fl.duration

    def test_bounded_delay_and_asp_supported(self):
        for sync in (ssp(2), asp()):
            r = run_pslite(pslite_config(sync=sync,
                                         compute_model=ExponentialTailCompute(0.2, 2.0)))
            assert r.iterations == 8

    def test_per_server_models_rejected(self):
        cfg = pslite_config(sync=bsp())
        cfg = SimConfig(**{**cfg.__dict__, "sync": [bsp(), bsp(), bsp(), bsp()]})
        with pytest.raises(ValueError, match="one global model"):
            PSLiteSimRunner(cfg)

    def test_training_through_pslite(self):
        n = 4
        task = blobs_task(n, n_train=300, n_test=100, seed=5)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1), max_iter=80, sync=bsp(), task=task,
            seed=1, base_compute_time=0.5, eval_every=40,
        )
        r = run_pslite(cfg)
        assert r.eval_by_iteration.final() > 0.5

    def test_bsp_pull_waits_for_global_barrier(self):
        """Under BSP the grant cannot be issued before every worker
        reported the iteration: blocked spans must exist when compute
        times vary."""
        cfg = pslite_config(n=4, iters=6, span_capture=True,
                            compute_model=ExponentialTailCompute(0.4, 3.0))
        r = run_pslite(cfg)
        from repro.sim.trace import SpanKind

        assert r.trace.total_by_kind(SpanKind.BLOCKED) > 0


class TestTableServer:
    def test_min_clock_blocking(self):
        srv = _TableServer(0, n_workers=2, params=None, raw_additive=True)
        got = []
        srv.handle_read(0, require=1, respond=got.append)
        assert got == []
        srv.handle_update(0, clock=1, on_clock_advance=lambda c: None)
        assert got == []  # min clock still 0 (worker 1)
        srv.handle_update(1, clock=1, on_clock_advance=lambda c: None)
        assert got == [1]

    def test_immediate_read_when_fresh(self):
        srv = _TableServer(0, n_workers=1, params=None, raw_additive=True)
        got = []
        srv.handle_read(0, require=0, respond=got.append)
        assert got == [0]

    def test_raw_additive_vs_averaged(self):
        """The table's apply rule, which the replay applies its log with."""
        raw = _TableServer(0, 2, np.zeros(2), raw_additive=True)
        avg = _TableServer(0, 2, np.zeros(2), raw_additive=False)
        for srv in (raw, avg):
            srv.apply_fn(srv.params, np.ones(2), ApplyInfo(0, 0, 0, 2))
        np.testing.assert_allclose(raw.params, 1.0)
        np.testing.assert_allclose(avg.params, 0.5)

    def test_clock_advance_callback(self):
        srv = _TableServer(0, 2, None, True)
        advances = []
        srv.handle_update(0, 1, advances.append)
        srv.handle_update(1, 1, advances.append)
        assert advances == [1]


class TestSSPTableRunner:
    def _cfg(self, n, iters=60, seed=1):
        task = blobs_task(n, n_train=300, n_test=100, seed=5)
        return SSPTableConfig(
            sim=SimConfig(
                cluster=cpu_cluster(n, 1), max_iter=iters, sync=ssp(3),
                task=task, seed=seed, base_compute_time=0.5,
            ),
            staleness=3,
        )

    def test_completes_and_trains(self):
        r = run_ssptable(self._cfg(2))
        assert r.final_params is not None
        assert np.isfinite(r.final_params).all()

    def test_invalidations_scale_with_workers(self):
        r2 = SSPTableRunner(self._cfg(2))
        r2.run()
        r6 = SSPTableRunner(self._cfg(6))
        r6.run()
        assert r6.invalidations_sent > r2.invalidations_sent

    def test_accuracy_degrades_with_scale(self):
        """The Figure 1/7 mechanism: raw-additive updates tuned for small
        N diverge as N grows."""
        task_eval = blobs_task(2, n_train=300, n_test=100, seed=5)
        small = run_ssptable(self._cfg(2, iters=100))
        big = run_ssptable(self._cfg(12, iters=100))
        acc_small = task_eval.eval_fn(small.final_params)
        acc_big = task_eval.eval_fn(big.final_params)
        assert acc_small > acc_big

    def test_reads_are_rare_relative_to_iterations(self):
        """SSPtable refreshes roughly every s iterations, not every one."""
        r = run_ssptable(self._cfg(4, iters=80))
        reads = r.metrics.pulls
        assert reads < 80 * 4  # strictly fewer reads than iterations x workers

    def test_invalid_staleness(self):
        cfg = self._cfg(2)
        # Negative, and what ran unrefused: NaN with 0 reads, 2.5 with 8,
        # ``True`` as staleness 1.
        for staleness in (-1, float("nan"), 2.5, True):
            with pytest.raises(ValueError, match="staleness"):
                SSPTableConfig(sim=cfg.sim, staleness=staleness)


# -- one worker program, one dispatch mechanism -------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _training_sim(n=6, **kw):
    base = dict(
        cluster=cpu_cluster(n, n_servers=2), max_iter=12, sync=ssp(2),
        task=blobs_task(n, n_train=120, n_test=40, seed=1), seed=4,
        base_compute_time=0.4, compute_model=HeterogeneousCompute(n, spread=0.4),
    )
    base.update(kw)
    return SimConfig(**base)


BASELINES = ["pslite", "specsync", "ssptable"]


class TestOneWorkerProgram:
    def test_algorithm_1s_worker_is_written_once(self):
        """Under ``repro/sim`` + ``repro/baselines`` + the replay
        (``repro/core/replay.py``): one ``StepContext(`` and one
        ``.eval_fn(``, both the replay's, and one event-path compute draw
        (``_draw``'s scalar ``sample``); the collapse driver's window
        draws (``sample_many``) are the one named exception."""
        calls, draws = Counter(), Counter()
        paths = sorted((SRC / "sim").glob("*.py")) + sorted((SRC / "baselines").glob("*.py"))
        for path in paths + [SRC / "core" / "replay.py"]:
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        callee = node.func
                        if isinstance(callee, ast.Name) and callee.id == "StepContext":
                            calls["StepContext("] += 1
                        if isinstance(callee, ast.Attribute) and callee.attr == "eval_fn":
                            calls[".eval_fn("] += 1
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr in ("sample", "sample_many")
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "compute_model"
                    ):
                        draws[fn.name, node.attr] += 1
        assert calls == {"StepContext(": 1, ".eval_fn(": 1}
        assert draws == {("_draw", "sample"): 1, ("_collapse_rounds", "sample_many"): 1}

    @pytest.mark.parametrize("kind", ["stock"] + BASELINES)
    def test_a_worker_is_one_generator_frame(self, kind):
        """Mid-run, 50 workers are 50 live generators and nothing else of
        ``repro/sim`` + ``repro/baselines`` is one: no phase is a sub-generator, no scheduler or
        server is a process (the stock worker's frame is what the e2e
        benchmark's RSS bound rests on)."""
        def make():
            return make_runner(
                kind,
                SimConfig(
                    cluster=cpu_cluster(50, n_servers=2), max_iter=6, sync=ssp(2),
                    workload=alexnet_cifar_workload(), seed=3, obs=NULL_OBS,
                    compute_model=ExponentialTailCompute(0.3, 3.0),
                ),
            )

        first_done = min(make().run().worker_finish_times)
        runner, live = make(), []

        def probe():
            live.extend(
                obj.gi_code.co_name for obj in gc.get_objects()
                if isinstance(obj, types.GeneratorType) and obj.gi_frame is not None
                and Path(obj.gi_code.co_filename).parent in (SRC / "sim", SRC / "baselines")
            )

        runner.engine.call_at(first_done / 2, probe)
        runner.run()
        assert live == ["_worker_proc"] * 50

    @pytest.mark.parametrize("kind", BASELINES)
    def test_push_filter_is_applied(self, kind):
        dense = make_runner(kind, _training_sim()).run()
        sparse = make_runner(
            kind, _training_sim(push_filter_factory=lambda: TopKFilter(0.05))
        ).run()
        assert sparse.bytes_on_wire < dense.bytes_on_wire

    @pytest.mark.no_sanitize  # explicit Observability below
    @pytest.mark.parametrize("kind", BASELINES)
    def test_worker_side_observability(self, kind):
        """The shared helpers record what the stock worker records: the
        causal ``compute`` / ``sync_wait`` spans and the pull sketch; and
        ``span_capture=None`` follows observability."""
        obs = Observability(MetricsRegistry(kind))
        runner = make_runner(kind, _training_sim(obs=obs))
        runner.run()
        assert runner.trace.keep_spans
        by_category = Counter(
            span.category for span in obs.last_run.causal.spans if span.actor.startswith("worker")
        )
        assert by_category["compute"] == 6 * 12
        assert by_category["sync_wait"] > 0
        sketch = obs.registry.get("pull_latency_seconds").merged()
        assert sketch.count == by_category["sync_wait"]
        assert sanitize_run(obs.last_run).ok
        assert not make_runner(kind, _training_sim(obs=NULL_OBS)).trace.keep_spans

    def test_ssptable_refuses_what_it_cannot_honour(self):
        with pytest.raises(ValueError, match="execution"):
            SSPTableRunner(SSPTableConfig(sim=_training_sim(execution=ExecutionMode.SOFT_BARRIER)))
        with pytest.raises(ValueError, match="sync"):
            SSPTableRunner(SSPTableConfig(sim=_training_sim(sync=[ssp(2), ssp(2)])))


class TestParentPins:
    """The baselines' real-gradient runs against ``tests/baseline_pins.json``,
    written when they stepped their math inline: each replays every step
    and reproduces every pinned digest."""

    PINNED = json.loads(PINS.read_text())

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_replayed_run_reproduces_the_pins(self, name):
        runner, outcome = run_cell(name)
        assert runner.steps_replayed == runner.cfg.cluster.n_workers * runner.cfg.max_iter
        assert outcome == self.PINNED[name]
        if name.startswith("specsync"):
            assert outcome["aborts"] > 0

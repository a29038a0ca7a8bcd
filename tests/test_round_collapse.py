"""Differential tests for the closed-form round fast-forward.

The round collapse (docs/PERFORMANCE.md, "Closed-form round fast-forward
and the cohort state table") must be *bit-identical* to the event path
it replaces: same protocol instant streams, same metrics, same finish
times, same event census — with no observability, and with
observability minus the causal trace, where each committed round lands
in the instant log as one columnar block.  Every cell here goes through
:func:`tests.sim_helpers.assert_matches_reference` (the oracle for
results) and then runs :class:`tests.sim_helpers.EventPathRunner`, which
never collapses, for what the reference cannot produce: the exact event
census, span totals and the inline/drained split.  The collapse's wire,
message by message, is ``tests/test_round_schedule.py``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import AllPushedPush, BSPPull, PullCondition, QuorumPush, SSPPull
from repro.core.models import SyncModel, bsp, dsps, pssp, ssp
from repro.core.server import ExecutionMode
from repro.bench.workloads import blobs_task
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.analysis import (
    ProtocolSanitizer,
    iter_events_from_instants,
    sanitize_events,
    sanitize_run,
)
from repro.obs import NULL_OBS, Instant, MetricsRegistry, Observability
from repro.obs.export import InstantBlock
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import (
    ComputeModel,
    DeterministicCompute,
    ExponentialTailCompute,
    LogNormalCompute,
    cpu_cluster_compute,
)
from repro.sim.trace import SpanKind

from tests.mutants import (
    block_drops_dpr_released,
    capability_by_inheritance,
    block_intruder_pull_missing_one,
    block_rows_in_worker_order,
    depth_two_mixing_accepted,
    handover_redraws,
    weaken_staleness,
)
from tests.sim_helpers import (
    EventPathRunner,
    assert_matches_reference,
    daemon_ticks,
    instant_stream,
    isolated_task_cell,
    protocol_events,
    python_calls,
    server_metrics,
    shard_instants,
)


class _InjectedStraggler(ComputeModel):
    """Deterministic compute with one straggler draw at (worker, iter)."""

    def __init__(self, worker: int, iteration: int, slow_factor: float = 6.0):
        self.worker = worker
        self.iteration = iteration
        self.slow_factor = slow_factor

    def sample(self, worker, iteration, base_time, rng):
        t = base_time
        if worker == self.worker and iteration == self.iteration:
            t *= self.slow_factor
        return t


def _run(cfg_kwargs, collapse, obs=NULL_OBS):
    """``cfg_kwargs`` may be a factory (a training task is stateful)."""
    kwargs = cfg_kwargs() if callable(cfg_kwargs) else cfg_kwargs
    runner = (FluentPSSimRunner if collapse else EventPathRunner)(SimConfig(**kwargs, obs=obs))
    return runner, runner.run()


def _fingerprint(runner, result):
    """Everything the event-path comparison cares about, as one JSON string."""
    return json.dumps(
        {
            "duration": result.duration,
            "finish": runner._finish_times,
            "metrics": server_metrics(runner.servers),
            "net": [runner.net.total_messages, runner.net.total_bytes],
            "dispatch": [runner.server_msgs_inline, runner.server_msgs_drained],
            "spans": sorted(
                (a, k.value, v) for (a, k), v in runner.trace._totals.items()
            ),
            # ``total_by_kind`` sums a kind's totals in key order: the order
            # the keys were created in is part of the result, kind by kind.
            "span_keys": [
                [a for (a, k) in runner.trace._totals if k is kind] for kind in SpanKind
            ],
            "span_counts": sorted(
                (a, k.value, c) for (a, k), c in runner.trace._span_counts.items()
            ),
            "trace_end": runner.trace.end_time,
            "totals": [result.total_compute_time, result.total_comm_time],
        },
        sort_keys=True,
    )


def _assert_differential(cfg_kwargs, obs_factory=lambda: NULL_OBS):
    """The stock run equals the reference, and the event path on what
    the reference does not model; the event census is exact.  Under
    observability each shard's instant stream equals the event path's in
    order (the log's order contract is per shard), and the whole log as
    a multiset."""
    with daemon_ticks() as ticks:
        ra, resa, _ref = assert_matches_reference(cfg_kwargs, make_obs=obs_factory)
        rb, resb = _run(cfg_kwargs, False, obs_factory())
    assert rb.engine.rounds_collapsed == 0
    assert _fingerprint(ra, resa) == _fingerprint(rb, resb)
    # The saved-event census is exact: fast-path events + credited
    # savings reproduce the event path's event count to the event.
    assert protocol_events(rb, ticks) - protocol_events(ra, ticks) == ra.engine.round_events_saved
    if ra.obs.enabled:
        for shard in range(len(ra.servers)):
            assert shard_instants(ra.obs, shard) == shard_instants(rb.obs, shard), shard
        whole_logs = [
            sorted(map(json.dumps, json.loads(instant_stream(r.obs.last_run.instants))))
            for r in (ra, rb)
        ]
        assert whole_logs[0] == whole_logs[1]
    return ra, rb


def _cell(preset, sync_name, compute_name, n=12, m=3, iters=4, seed=7,
          execution=ExecutionMode.LAZY):
    cluster = cpu_cluster(n, n_servers=m) if preset == "cpu" else gpu_cluster_p2(n, m)
    sync = {"ssp3": ssp(3), "pssp": pssp(2, 0.5), "bsp": bsp()}[sync_name]
    compute = {
        "det": DeterministicCompute(),
        "lognorm": cpu_cluster_compute(n),
    }[compute_name]
    return dict(
        cluster=cluster,
        max_iter=iters,
        sync=sync,
        execution=execution,
        workload=alexnet_cifar_workload(),
        compute_model=compute,
        seed=seed,
    )


def _mixed_cell(seed, sync=None):
    """Comm-bound stragglers: fast workers' next requests reach a shard
    before slow workers' current ones (13-29 of them per boundary here)."""
    return dict(
        cluster=cpu_cluster(24, n_servers=2), max_iter=4, sync=sync or ssp(3),
        workload=alexnet_cifar_workload(), compute_model=cpu_cluster_compute(24), seed=seed,
    )


class TestVectorModeDifferential:
    """No observability: the collapse commits cohort analytics directly."""

    @given(
        preset=st.sampled_from(["cpu", "gpu_p2"]),
        sync_name=st.sampled_from(["ssp3", "pssp"]),
        compute_name=st.sampled_from(["det", "lognorm"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=16, deadline=None)
    def test_bit_identical_vs_oracle(self, preset, sync_name, compute_name, seed):
        _assert_differential(_cell(preset, sync_name, compute_name, seed=seed))

    @pytest.mark.parametrize("execution", list(ExecutionMode), ids=lambda e: e.value)
    @pytest.mark.parametrize("compute_name", ["det", "lognorm"])
    @pytest.mark.parametrize("preset", ["cpu", "gpu_p2"])
    def test_bsp_commits_every_round(self, preset, compute_name, execution):
        """BSP's barrier lines the rounds up at every shard: each round
        commits, its buffered pulls released in closed form, although its
        replies overlap the next round's compute."""
        kwargs = _cell(preset, "bsp", compute_name, execution=execution)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 4 and ra.collapse_fallback == {}
        assert ra.engine.events_processed == 0
        assert sum(s.metrics.dprs for s in ra.servers) > 0

    def test_one_barrier_shard_among_ssp_shards(self):
        """Per-server models (Figure 2): only the BSP shard buffers."""
        kwargs = {**_cell("cpu", "ssp3", "lognorm"), "sync": [bsp(), ssp(3), pssp(2, 0.5)]}
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 4
        assert [s.metrics.dprs > 0 for s in ra.servers] == [True, False, False]

    def test_collapse_engages_on_homogeneous_cohort(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=20, m=4, iters=6)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed > 0
        assert ra.engine.round_events_saved > 0

    def test_full_collapse_census_without_hooks(self):
        kwargs = _cell("cpu", "ssp3", "det", iters=3)
        kwargs["base_compute_time"] = 5.0  # comm spread << compute: isolated
        ra, rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 3
        assert ra.engine.events_processed == 0
        # Per worker-round 2 resumes + 2M request TX completions (the M
        # replies ride the worker's fused gather and post nothing), and
        # one spawn wave (n=12, M=3).
        assert rb.engine.events_processed == ra.engine.round_events_saved
        assert ra.engine.round_events_saved == 3 * 12 * (2 + 2 * 3) + 12

    # Rounds that overlap at a shard commit whole: the next round's early
    # requests are merged into the round they overtake.

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_mixed_ssp_rounds_commit(self, seed):
        ra, _rb = _assert_differential(_mixed_cell(seed))
        assert ra.engine.rounds_collapsed == 4 and ra.collapse_fallback == {}
        assert ra.engine.events_processed == 0
        # Pulls answered before the previous round's frontier advance: the
        # intruders of a merged round, two iterations missing.
        assert ra.system.merged_metrics().staleness_hist[2] > 0

    def test_mixed_pssp2_rounds_commit(self):
        """PSSP(2): an intruder pull misses two iterations, under its s: no coin."""
        ra, _rb = _assert_differential(_mixed_cell(0, pssp(2, 0.5)))
        assert ra.engine.rounds_collapsed == 4 and ra.collapse_fallback == {}
        assert sum(s.metrics.probabilistic_passes for s in ra.servers) == 0

    def test_mixed_ssp1_refuses_an_early_intruder_pull(self):
        """SSP(1) cannot answer a pull one round ahead before the frontier advances."""
        ra, _rb = _assert_differential(_mixed_cell(0, ssp(1)))
        assert ra.collapse_fallback == {"reason": "overlap", "round": 1}

    def test_mixed_barrier_shard_refuses_intruders(self):
        """Per-server BSP/SSP(3) with a compute window shorter than the
        rest of a worker's push: a next-round request reaches the barrier
        shard before this round's last pull there — refused, handed over."""
        kwargs = {
            **_cell("cpu", "ssp3", "lognorm", n=24, m=8),
            "sync": [bsp()] + [ssp(3)] * 7,
            "base_compute_time": 0.01,
        }
        ra, _rb = _assert_differential(kwargs)
        assert ra.collapse_fallback == {"reason": "overlap", "round": 2}
        assert ra.engine.rounds_collapsed == 2


class TestDevectorization:
    def test_single_midrun_straggler_exits_without_drift(self):
        """One straggler draw mid-run de-vectorizes back to the event
        path: earlier rounds stay collapsed, the straggler's round and
        everything after run event-by-event, and nothing drifts."""
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=6)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=3, iteration=2)
        ra, _rb = _assert_differential(kwargs)
        assert 0 < ra.engine.rounds_collapsed < 6
        assert ra.engine.events_processed > 0  # the de-vectorized tail

    def test_depth_two_mixing_hands_over(self, monkeypatch):
        """A 4x straggler in round 2: round 4's requests reach a shard
        before the straggler's round-2 ones — no single merge covers that,
        so the cohort hands over at round 2.  Accepting it is a mutant."""
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=6)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=3, iteration=2, slow_factor=4.0)
        ra, _rb = _assert_differential(kwargs)
        assert ra.collapse_fallback == {"reason": "overlap", "round": 2}
        assert ra.engine.rounds_collapsed == 2 and ra.engine.events_processed > 0
        depth_two_mixing_accepted(monkeypatch)
        with pytest.raises(AssertionError):
            assert_matches_reference(kwargs)

    @pytest.mark.parametrize(
        "compute",
        [LogNormalCompute(0.4), ExponentialTailCompute(0.05, 4.0, 0.01)],
        ids=["lognormal", "exp-tail"],
    )
    def test_a_random_draw_hands_over_its_drawn_row(self, compute, monkeypatch):
        """A random draw mixes round 3 into round 2 beyond what a merge
        proves: the cohort hands over with each worker's drawn but
        uncommitted durations, and the event path draws on from where the
        collapse's window left each stream.  A hand-over that re-draws
        them is a mutant."""
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=6, seed=6)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = compute
        ra, _rb = _assert_differential(kwargs)
        assert ra.collapse_fallback == {"reason": "overlap", "round": 2}
        assert ra.engine.rounds_collapsed == 2 and ra.engine.events_processed > 0
        handover_redraws(monkeypatch)
        with pytest.raises(AssertionError):
            assert_matches_reference(kwargs)

    def test_straggler_in_round_zero_collapses_nothing(self):
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=3)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=0, iteration=0)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 0


def test_a_committed_round_pays_no_python_per_worker():
    """Python-level calls per *additional* committed round (runs of 2 and
    of 5 rounds, so set-up and the flush cancel) do not grow from 500 to
    2000 workers: each worker's stream draws all its rounds in one
    ``sample_many`` call, and a span, a progress entry, a lane segment or
    a draw per worker per round would each add 1500 or more.  The slack is
    a cascade's length classes varying with the draw."""

    def per_round(n):
        def calls(iters):
            kwargs = _cell("cpu", "ssp3", "det", n=n, m=4, iters=iters)
            kwargs["compute_model"] = LogNormalCompute(0.01)
            kwargs["base_compute_time"] = 1e5  # isolated at either size
            runner = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
            count = python_calls(runner.run)
            assert runner.engine.rounds_collapsed == iters, runner.collapse_fallback
            return count

        return (calls(5) - calls(2)) / 3

    small, big = per_round(500), per_round(2000)
    assert abs(big - small) <= 20, (small, big)


def test_a_collapsed_lognormal_run_draws_no_scalar_sample(monkeypatch):
    """Every round of a fully collapsed log-normal run commits with the
    scalar draw refused: the collapse draws through ``sample_many`` only."""

    def refused(*_args):
        raise AssertionError("a scalar draw in a collapsed run")

    monkeypatch.setattr(LogNormalCompute, "sample", refused)
    kwargs = _cell("cpu", "ssp3", "det", n=200, m=4, iters=5)
    kwargs["compute_model"] = LogNormalCompute(0.01)
    kwargs["base_compute_time"] = 1e5
    runner = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
    runner.run()
    assert runner.engine.rounds_collapsed == 5 and runner.collapse_fallback == {}


def _columnar_obs():
    return Observability(MetricsRegistry("collapse-test"), causal=False)


def _row_oracle(capture):
    """The capture's protocol stream with every block row materialised
    and replayed one by one (``sanitize_run`` proves blocks in vector
    passes)."""
    return sanitize_events(
        iter_events_from_instants(capture.instants), complete=capture.complete
    )


class TestColumnarInstantsDifferential:
    """Observability without a causal trace: the collapse commits a round
    exactly as it does unobserved and appends its protocol instants as
    one columnar block; rows materialised from the blocks, spans and
    metrics must equal what the event path's handlers record."""

    # Ids from when each cell also ran under a delivery hook ("True-...").
    @pytest.mark.parametrize(
        "sync_name", [pytest.param(name, id=f"False-{name}") for name in ("ssp3", "pssp")]
    )
    def test_instant_streams_identical(self, sync_name):
        kwargs = _cell("cpu", sync_name, "lognorm", n=14, m=3, iters=5)
        ra, _rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        assert ra.engine.rounds_collapsed > 0
        assert any(
            isinstance(seg, InstantBlock) for seg in ra.obs.last_run.instants.segments()
        )

    # One round of this cell is 3*14*3 + 3 = 129 instants: every cap
    # below spills, the smallest ones a block at a time.
    @pytest.mark.no_sanitize
    @pytest.mark.parametrize("cap", [1, 50, 129, 300])
    def test_spill_caps_down_to_less_than_one_block(self, cap, monkeypatch):
        monkeypatch.setenv("REPRO_INSTANT_SPILL_CAP", str(cap))
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        log = ra.obs.last_run.instants
        assert log.spilled_events > 0
        assert len(log) == len(rb.obs.last_run.instants) == sum(1 for _ in log)
        for report in (sanitize_run(ra.obs.last_run), _row_oracle(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == sanitize_run(rb.obs.last_run).n_events

    @pytest.mark.parametrize("handles", [1, 7, 84])
    def test_a_round_cut_into_several_blocks(self, handles, monkeypatch):
        """Past ``_BLOCK_HANDLES`` requests a shard's round is a run of
        blocks (84 = a whole round of this cell, 28 requests per shard):
        same rows, same verdict.  Isolated rounds: every block is proven."""
        monkeypatch.setattr("repro.sim.runner._BLOCK_HANDLES", handles)
        kwargs = {**_cell("cpu", "ssp3", "det", n=14, m=3, iters=5), "base_compute_time": 5.0}
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        blocks = [
            seg for seg in ra.obs.last_run.instants.segments()
            if isinstance(seg, InstantBlock)
        ]
        assert len(blocks) == ra.engine.rounds_collapsed * 3 * -(-28 // handles)
        fed = []
        monkeypatch.setattr(
            ProtocolSanitizer, "feed", lambda self, ev, feed=ProtocolSanitizer.feed: (
                fed.append(ev.name), feed(self, ev))
        )
        report = sanitize_run(ra.obs.last_run)
        assert report.ok, report.violations
        # sanitize_run proves every block of the collapsed rounds and
        # feeds none of their rows ...
        assert len(fed) == report.n_events - sum(len(b) for b in blocks)
        # ... and the row oracle replays every one of them.
        del fed[:]
        assert _row_oracle(ra.obs.last_run).n_events == report.n_events == len(fed)
        assert report.n_events == sanitize_run(rb.obs.last_run).n_events

    def test_metrics_identical(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        assert ra.engine.rounds_collapsed > 0
        da, db = (r.obs.registry.to_dict()["metrics"] for r in (ra, rb))
        # Everything the servers and workers count per request.  Gauge
        # *series* are scrape-timed and follow the engine clock, which a
        # collapsed round does not advance; their last values must agree.
        compared = 0
        for name, metric in db.items():
            if name == "collapse_fallback_total":
                continue  # the oracle never collapses: reasons differ
            if metric["kind"] in ("counter", "histogram", "sketch"):
                assert json.dumps(da[name], sort_keys=True) == json.dumps(
                    metric, sort_keys=True
                ), name
                compared += 1
            elif name == "ps_frontier" or name.startswith("sync_"):
                assert da[name]["values"] == metric["values"], name
                compared += 1
        assert compared >= 10
        # Every round commits: only the event path counts a fallback.
        assert ra.collapse_fallback == {}
        assert set(da) == set(db) - {"collapse_fallback_total"}

    def test_spans_identical(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        runs = []
        for collapse in (True, False):
            obs = Observability(MetricsRegistry("span-test"), causal=False)
            runner, _res = _run(kwargs, collapse, obs)
            runs.append(
                sorted(
                    (s.actor, s.kind.value, s.t0, s.t1, s.iteration)
                    for s in runner.trace.spans
                )
            )
        assert runs[0] == runs[1]

    def test_midrun_devectorization_hands_blocks_over_to_rows(self):
        """Rounds 0-1 commit as blocks, the straggler's round and the
        rest run through the handlers: one log holds blocks then rows,
        and the sanitizer's replay state carries across the seam."""
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=6)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=3, iteration=2)
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        assert 0 < ra.engine.rounds_collapsed < 6
        kinds = [type(seg) for seg in ra.obs.last_run.instants.segments()]
        last_block = max(i for i, k in enumerate(kinds) if k is InstantBlock)
        assert Instant in kinds[last_block + 1 :]
        assert InstantBlock not in kinds[last_block + 1 :]
        for report in (sanitize_run(ra.obs.last_run), _row_oracle(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == sanitize_run(rb.obs.last_run).n_events
        assert ra.collapse_fallback == {
            "reason": "overlap", "round": ra.engine.rounds_collapsed,
        }
        assert ra.obs.registry.get("collapse_fallback_total").value(reason="overlap") == 1.0


def _soft_task_cell():
    """A real-gradient PSSP(1, 0.3) run under the soft barrier with
    stragglers: round 0 commits, round 1 overlaps and hands over."""
    return dict(
        cluster=cpu_cluster(8, n_servers=2), max_iter=6, sync=pssp(1, 0.3),
        execution=ExecutionMode.SOFT_BARRIER, task=blobs_task(8, n_train=160, n_test=40, seed=2),
        workload=alexnet_cifar_workload(), compute_model=cpu_cluster_compute(8), seed=5,
        eval_every=2,
    )


def _parity_grid():
    """Cells that commit every round, merge rounds, release DPRs, or hand
    over mid-run; timing-only, and real-gradient (a timing run plus its
    replay, factories: a task is stateful)."""
    isolated = {**_cell("cpu", "ssp3", "det", iters=3), "base_compute_time": 5.0}
    midrun = {**_cell("cpu", "ssp3", "det", n=10, m=3, iters=6), "base_compute_time": 5.0}
    cells = [
        ("isolated-ssp3", isolated),
        ("mixed-ssp3", _mixed_cell(0)),
        ("mixed-pssp2", _mixed_cell(0, pssp(2, 0.5))),
        ("bsp-lazy", _cell("cpu", "bsp", "lognorm")),
        ("bsp-soft", _cell("cpu", "bsp", "lognorm", execution=ExecutionMode.SOFT_BARRIER)),
        ("bsp-shard-among-ssp3", {
            **_cell("cpu", "ssp3", "lognorm", n=24, m=8),
            "sync": [bsp()] + [ssp(3)] * 7, "base_compute_time": 0.01,
        }),
        ("midrun-straggler", {**midrun, "compute_model": _InjectedStraggler(3, 2)}),
        ("depth-two", {**midrun, "compute_model": _InjectedStraggler(3, 2, slow_factor=4.0)}),
        ("isolated-task", isolated_task_cell),
        ("soft-task", _soft_task_cell),
    ]
    return [pytest.param(kwargs, id=name) for name, kwargs in cells]


class TestObservationParity:
    """Observation does not choose the path: an observed run (no causal
    trace) leaves the collapse where its unobserved twin does, processes
    the same protocol events and finishes at the same instants, with the
    same final parameters and evaluations; its instants match the
    reference and the event path shard by shard, and the sanitizer's
    proof and its row oracle both pass them."""

    @pytest.mark.parametrize("cfg_kwargs", _parity_grid())
    def test_observed_run_takes_the_raw_path(self, cfg_kwargs):
        raw, raw_result = _run(cfg_kwargs, True)
        with daemon_ticks() as ticks:
            ra, rb = _assert_differential(cfg_kwargs, obs_factory=_columnar_obs)
        assert ra.collapse_fallback == raw.collapse_fallback
        assert ra.engine.rounds_collapsed == raw.engine.rounds_collapsed
        assert ra.engine.round_events_saved == raw.engine.round_events_saved
        assert protocol_events(ra, ticks) == raw.engine.events_processed
        assert ra._finish_times == raw._finish_times
        params = ra.system.current_params()
        if raw_result.final_params is None:
            assert params is None
        else:
            assert params.tobytes() == raw_result.final_params.tobytes()
        assert ra.steps_replayed == raw.steps_replayed
        for series in ("eval_by_time", "eval_by_iteration"):
            got, want = getattr(ra, series), getattr(raw, series)
            assert (got.x, got.y) == (want.x, want.y)
        events = sanitize_run(rb.obs.last_run).n_events
        for report in (sanitize_run(ra.obs.last_run), _row_oracle(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == events


def _shard_streams(kwargs, collapse):
    obs = _columnar_obs()
    runner, _result = _run(kwargs, collapse, obs)
    return runner, [shard_instants(obs, m) for m in range(len(runner.servers))]


class TestBlockMutants:
    """One planted bug each in an observed round's instant blocks."""

    def test_block_drops_dpr_released_dies_by_the_event_path(self, monkeypatch):
        kwargs = {**_cell("cpu", "bsp", "det"), "base_compute_time": 5.0}
        slow = _shard_streams(kwargs, False)[1]
        assert _shard_streams(kwargs, True)[1] == slow
        block_drops_dpr_released(monkeypatch)
        runner, fast = _shard_streams(kwargs, True)
        assert runner.engine.rounds_collapsed == 4 and fast != slow

    def test_block_rows_in_worker_order_dies_by_the_event_path(self, monkeypatch):
        kwargs = _mixed_cell(0)
        slow = _shard_streams(kwargs, False)[1]
        assert _shard_streams(kwargs, True)[1] == slow
        block_rows_in_worker_order(monkeypatch)
        runner, fast = _shard_streams(kwargs, True)
        assert runner.engine.rounds_collapsed == 4 and fast != slow

    def test_block_intruder_pull_missing_one_dies_by_the_sanitizer(self, monkeypatch):
        def codes():
            obs = _columnar_obs()
            runner, _result = _run(_mixed_cell(0), True, obs)
            assert runner.engine.rounds_collapsed == 4
            return {v.code for v in sanitize_run(obs.last_run).violations}

        assert codes() == set()
        block_intruder_pull_missing_one(monkeypatch)
        assert "S009" in codes()


class _AdvanceOneEarly(AllPushedPush):
    """Advertises a quorum of n but advances at n - 1: the rule is
    overridden, the advertised quorum inherited."""

    def __call__(self, view):
        return view.pushed(view.v_train) >= view.n_workers - 1


#: Conditions whose class overrides ``__call__`` and inherits the
#: capability the collapse relies on: each must take the event path.
_HAZARDS = {
    "weak-staleness": lambda: weaken_staleness(ssp(0)),
    "early-advance": lambda: SyncModel("bsp+early-advance", BSPPull, _AdvanceOneEarly),
}


def _hazard_cell(sync):
    """Mild jitter at s = 0: a hazard's rule and the stock one part ways."""
    return dict(
        cluster=cpu_cluster(16, n_servers=2), max_iter=6, sync=sync,
        execution=ExecutionMode.LAZY, workload=alexnet_cifar_workload(),
        compute_model=LogNormalCompute(0.05), seed=3,
    )


class _OwnSSP2(PullCondition):
    """A model written outside ``repro``: SSP(2)'s rule, with the bound the
    round collapse relies on declared beside it."""

    kind = "ssp"

    def __call__(self, view):
        return view.progress < view.v_train + 2

    def staleness(self):
        return 2.0

    def quiet_bound(self):
        return 2


class TestEligibilityGates:
    def test_causal_observability_gates_collapse_off(self):
        # The ambient pytest fixture installs an Observability whose
        # captures carry a causal trace; collapse must stand down (the
        # vectorized commit cannot reproduce per-message causal spans).
        cfg = SimConfig(**_cell("cpu", "ssp3", "det"))
        runner = FluentPSSimRunner(cfg)
        runner.run()
        assert runner.causal is not None
        assert runner.engine.rounds_collapsed == 0
        assert runner.collapse_fallback == {"reason": "causal_obs"}

    def test_delivery_hook_gates_collapse_off(self):
        """A hook observes every message as a real ``Message``: the run
        takes the event path, and says so."""
        kwargs = _cell("cpu", "ssp3", "det", iters=3)
        kwargs["base_compute_time"] = 5.0
        obs = _columnar_obs()
        runner = FluentPSSimRunner(SimConfig(**kwargs, obs=obs))
        seen = []
        runner.net.on_delivery(seen.append)
        runner.run()
        assert runner.engine.rounds_collapsed == 0
        assert runner.collapse_fallback == {"reason": "delivery_hook"}
        assert obs.registry.get("collapse_fallback_total").value(reason="delivery_hook") == 1.0
        assert len(seen) == 3 * 12 * 3 * 3  # 3 messages per (worker, shard, iteration)
        assert min(m.msg_id for m in seen) >= 0
        assert runner.net.fused_deliveries == 0

    def test_observed_bsp_commits(self):
        """Observed BSP commits every round as unobserved BSP does: each
        barrier shard's blocks carry its DPRs' buffered, released and
        answer rows, which the row replay checks."""
        kwargs = _cell("cpu", "bsp", "det")
        kwargs["base_compute_time"] = 5.0
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs)
        assert ra.engine.rounds_collapsed == 4 and ra.collapse_fallback == {}
        assert rb.collapse_fallback == {"reason": "subclass"}
        names = {i.name for i in ra.obs.last_run.instants}
        assert {"dpr_buffered", "dpr_released"} <= names
        events = sanitize_run(rb.obs.last_run).n_events
        for report in (sanitize_run(ra.obs.last_run), _row_oracle(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == events

    def test_span_capture_without_obs_commits(self):
        """A bare ``span_capture=True`` run keeps every span and still
        commits in closed form, merged rounds included.  Its spans equal
        the event path's as a set: the span checks sort by ``t0`` and the
        timeline draws per actor, so no consumer reads the list's order."""
        kwargs = {**_mixed_cell(0), "span_capture": True}
        ra, rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 4 and ra.collapse_fallback == {}
        spans = [
            sorted((s.actor, s.kind.value, s.t0, s.t1, s.iteration) for s in r.trace.spans)
            for r in (ra, rb)
        ]
        assert spans[0] and spans[0] == spans[1]

    def test_subclassed_runners_are_ineligible(self):
        # PS-Lite overrides the worker protocol (scheduler-gated grants)
        # but inherits run(); the cohort closed form models only the
        # stock protocol, so subclasses must keep the event path.
        from repro.baselines.pslite import PSLiteSimRunner

        kwargs = _cell("cpu", "ssp3", "det")
        kwargs["base_compute_time"] = 5.0
        cfg = SimConfig(**kwargs, obs=NULL_OBS)
        runner = PSLiteSimRunner(cfg)
        runner.run()
        assert runner.engine.rounds_collapsed == 0
        assert runner.collapse_fallback == {"reason": "subclass"}

    @pytest.mark.parametrize(
        "reason, change",
        [
            (
                "quorum",
                dict(
                    sync=SyncModel(
                        "ssp3-quorum9", lambda: SSPPull(3), lambda: QuorumPush(9), staleness=3
                    )
                ),
            ),
            ("pull_condition", dict(sync=dsps())),
            # A subclass that overrides the rule alone commits no bound.
            ("pull_condition", dict(sync=_HAZARDS["weak-staleness"]())),
            ("quorum", dict(sync=_HAZARDS["early-advance"]())),
            # PSSP at s = 0 flips a coin on every pull.
            ("pull_condition", dict(sync=pssp(0, 0.5))),
        ],
    )
    def test_first_failing_reason_is_reported(self, reason, change):
        kwargs = {**_cell("cpu", "ssp3", "det", iters=2), **change}
        runner = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
        runner.run()
        assert runner.engine.rounds_collapsed == 0
        assert runner.collapse_fallback == {"reason": reason}

    def test_full_collapse_reports_no_fallback(self):
        kwargs = _cell("cpu", "ssp3", "det", iters=3)
        kwargs["base_compute_time"] = 5.0
        obs = _columnar_obs()
        runner = FluentPSSimRunner(SimConfig(**kwargs, obs=obs))
        runner.run()
        assert runner.engine.rounds_collapsed == 3
        assert runner.collapse_fallback == {}
        assert "collapse_fallback_total" not in obs.registry.names()


class TestDeclaredCapabilities:
    """The collapse commits what a condition's class declares with its
    rule (``committed_bound``/``committed_quorum``), and nothing else."""

    @pytest.mark.parametrize("hazard", sorted(_HAZARDS))
    def test_a_hazard_runs_as_the_reference(self, hazard):
        runner, _result, _ref = assert_matches_reference(_hazard_cell(_HAZARDS[hazard]()))
        assert runner.engine.rounds_collapsed == 0

    def test_a_sanitized_weak_staleness_run_reports_s004(self):
        obs = _columnar_obs()
        runner = FluentPSSimRunner(SimConfig(**_hazard_cell(_HAZARDS["weak-staleness"]()), obs=obs))
        runner.run()
        assert runner.collapse_fallback == {"reason": "pull_condition"}
        assert "S004" in {v.code for v in sanitize_run(obs.last_run).violations}

    def test_a_model_that_declares_its_bound_commits_every_round(self):
        kwargs = _cell("cpu", "ssp3", "det")
        kwargs.update(base_compute_time=5.0, sync=SyncModel("own-ssp2", _OwnSSP2, AllPushedPush))
        runner, _result, _ref = assert_matches_reference(kwargs, make_obs=_columnar_obs)
        assert runner.engine.rounds_collapsed == 4 and runner.collapse_fallback == {}
        report = sanitize_run(runner.obs.last_run)
        assert report.ok and report.n_events > 0, report.violations

    def test_capability_by_inheritance_dies_by_the_hazard_rows(self, monkeypatch):
        capability_by_inheritance(monkeypatch)
        for hazard in _HAZARDS.values():
            kwargs = {**_cell("cpu", "ssp3", "det", iters=2), "sync": hazard()}
            runner = FluentPSSimRunner(SimConfig(**kwargs, obs=NULL_OBS))
            runner.run()
            assert runner.engine.rounds_collapsed > 0 and runner.collapse_fallback == {}

"""Differential tests for the closed-form round fast-forward.

The round collapse (docs/PERFORMANCE.md, "Closed-form round fast-forward
and the cohort state table") must be *bit-identical* to the event path
it replaces: same delivery traces, same protocol instant streams, same
metrics, same finish times — with no observability, and with
observability minus the causal trace, where each committed round lands
in the instant log as one columnar block.  Every test here
runs the same configuration twice — the stock runner vs
:class:`tests.sim_helpers.EventPathRunner`, which never collapses — and
compares exhaustively.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import QuorumPush, SSPPull
from repro.core.models import SyncModel, bsp, dsps, pssp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.analysis import ProtocolSanitizer, iter_event_stream, sanitize_events, sanitize_run
from repro.obs import NULL_OBS, Instant, MetricsRegistry, Observability
from repro.obs.export import InstantBlock
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig, _seq_cascade
from repro.sim.stragglers import ComputeModel, DeterministicCompute, cpu_cluster_compute

from tests.sim_helpers import EventPathRunner, instant_stream, server_metrics, wire_row


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

    def mean_factor(self) -> float:
        return 1.0


def _run(cfg_kwargs, collapse, obs=None, hooks=True):
    cfg = SimConfig(**cfg_kwargs, obs=obs if obs is not None else NULL_OBS)
    runner = (FluentPSSimRunner if collapse else EventPathRunner)(cfg)
    rec = []
    if hooks:
        # Stable wire fields only: collapsed-round hook messages carry
        # synthesized ids (msg_id/cause_id = -1).
        runner.net.on_delivery(lambda m: rec.append(wire_row(m)))
    result = runner.run()
    return runner, result, sorted(rec)


def _fingerprint(runner, result, rec):
    """Everything the oracle comparison cares about, as one JSON string."""
    return json.dumps(
        {
            "trace": rec,
            "duration": result.duration,
            "finish": runner._finish_times,
            "metrics": server_metrics(runner.servers),
            "net": [runner.net.total_messages, runner.net.total_bytes],
            "dispatch": [runner.server_msgs_inline, runner.server_msgs_drained],
            "spans": sorted(
                (a, k.value, v) for (a, k), v in runner.trace._totals.items()
            ),
        },
        sort_keys=True,
    )


def _assert_differential(cfg_kwargs, obs_factory=None, hooks=True):
    """Fast path vs oracle: bit-identical results, exact event census."""
    obs_a = obs_factory() if obs_factory else None
    obs_b = obs_factory() if obs_factory else None
    ra, resa, ta = _run(cfg_kwargs, True, obs=obs_a, hooks=hooks)
    rb, resb, tb = _run(cfg_kwargs, False, obs=obs_b, hooks=hooks)
    assert rb.engine.rounds_collapsed == 0
    assert _fingerprint(ra, resa, ta) == _fingerprint(rb, resb, tb)
    # The saved-event census is exact: fast-path events + credited
    # savings reproduce the oracle's event count to the event.
    assert (
        rb.engine.events_processed - ra.engine.events_processed
        == ra.engine.round_events_saved
    )
    if obs_a is not None:
        assert instant_stream(obs_a.last_run.instants) == instant_stream(
            obs_b.last_run.instants
        )
    return ra, rb


def _cell(preset, sync_name, compute_name, n=12, m=3, iters=4, seed=7):
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
        workload=alexnet_cifar_workload(),
        compute_model=compute,
        seed=seed,
    )


class TestVectorModeDifferential:
    """No observability: the collapse commits cohort analytics directly."""

    @given(
        preset=st.sampled_from(["cpu", "gpu_p2"]),
        sync_name=st.sampled_from(["ssp3", "pssp"]),
        compute_name=st.sampled_from(["det", "lognorm"]),
        hooks=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=16, deadline=None)
    def test_bit_identical_vs_oracle(self, preset, sync_name, compute_name, hooks, seed):
        kwargs = _cell(preset, sync_name, compute_name, seed=seed)
        _assert_differential(kwargs, hooks=hooks)

    def test_collapse_engages_on_homogeneous_cohort(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=20, m=4, iters=6)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed > 0
        assert ra.engine.round_events_saved > 0

    def _fully_collapsed(self, hooks):
        kwargs = _cell("cpu", "ssp3", "det", iters=3)
        kwargs["base_compute_time"] = 5.0  # comm spread << compute: isolated
        ra, rb = _assert_differential(kwargs, hooks=hooks)
        assert ra.engine.rounds_collapsed == 3
        assert ra.engine.events_processed == 0
        assert rb.engine.events_processed == ra.engine.round_events_saved
        return ra.engine.round_events_saved

    def test_full_collapse_leaves_no_events(self):
        # Under delivery hooks every message is two events: per
        # worker-round 2 resumes + 2 x 3M, and one spawn wave (n=12, M=3).
        assert self._fully_collapsed(hooks=True) == 3 * 12 * (2 + 6 * 3) + 12

    def test_full_collapse_census_without_hooks(self):
        # Unobserved: 2 resumes + 2M request TX completions; the M
        # replies ride the worker's fused gather and post nothing.
        assert self._fully_collapsed(hooks=False) == 3 * 12 * (2 + 2 * 3) + 12


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

    def test_straggler_in_round_zero_collapses_nothing(self):
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=3)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=0, iteration=0)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 0


def _columnar_obs():
    return Observability(MetricsRegistry("collapse-test"), causal=False)


def _prove_run(capture):
    """The capture's protocol stream with its blocks proven in vector
    passes (``sanitize_run`` replays them row by row)."""
    return sanitize_events(iter_event_stream(capture.instants), complete=capture.complete)


class TestColumnarInstantsDifferential:
    """Observability without a causal trace: the collapse commits a round
    exactly as it does unobserved and appends its protocol instants as
    one columnar block; rows materialised from the blocks, spans and
    metrics must equal what the event path's handlers record."""

    @pytest.mark.parametrize("sync_name", ["ssp3", "pssp"])
    @pytest.mark.parametrize("hooks", [True, False])
    def test_instant_streams_identical(self, sync_name, hooks):
        kwargs = _cell("cpu", sync_name, "lognorm", n=14, m=3, iters=5)
        ra, _rb = _assert_differential(kwargs, obs_factory=_columnar_obs, hooks=hooks)
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
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs, hooks=False)
        log = ra.obs.last_run.instants
        assert log.spilled_events > 0
        assert len(log) == len(rb.obs.last_run.instants) == sum(1 for _ in log)
        for report in (_prove_run(ra.obs.last_run), sanitize_run(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == sanitize_run(rb.obs.last_run).n_events

    @pytest.mark.parametrize("handles", [1, 7, 84])
    def test_a_round_cut_into_several_blocks(self, handles, monkeypatch):
        """Past ``_BLOCK_HANDLES`` requests a round is a run of blocks
        (84 = one round of this cell exactly): same rows, same verdict."""
        monkeypatch.setattr("repro.sim.runner._BLOCK_HANDLES", handles)
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs, hooks=False)
        blocks = [
            seg for seg in ra.obs.last_run.instants.segments()
            if isinstance(seg, InstantBlock)
        ]
        assert len(blocks) >= ra.engine.rounds_collapsed * (84 // handles)
        fed = []
        monkeypatch.setattr(
            ProtocolSanitizer, "feed", lambda self, ev, feed=ProtocolSanitizer.feed: (
                fed.append(ev.name), feed(self, ev))
        )
        report = _prove_run(ra.obs.last_run)
        assert report.ok, report.violations
        # Every block of the collapsed rounds was proven, none replayed ...
        assert len(fed) == report.n_events - sum(len(b) for b in blocks)
        # ... and sanitize_run replays every one of their rows.
        del fed[:]
        assert sanitize_run(ra.obs.last_run).n_events == report.n_events == len(fed)
        assert report.n_events == sanitize_run(rb.obs.last_run).n_events

    def test_metrics_identical(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        ra, rb = _assert_differential(kwargs, obs_factory=_columnar_obs, hooks=False)
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
        assert set(da) == set(db)

    def test_spans_identical(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        runs = []
        for collapse in (True, False):
            obs = Observability(MetricsRegistry("span-test"), causal=False)
            runner, _res, _t = _run(kwargs, collapse, obs=obs, hooks=False)
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
        for report in (_prove_run(ra.obs.last_run), sanitize_run(ra.obs.last_run)):
            assert report.ok, report.violations
            assert report.n_events == sanitize_run(rb.obs.last_run).n_events
        assert ra.collapse_fallback == {
            "reason": "overlap", "round": ra.engine.rounds_collapsed,
        }
        assert ra.obs.registry.get("collapse_fallback_total").value(reason="overlap") == 1.0


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

    def test_bsp_is_ineligible(self):
        kwargs = _cell("cpu", "bsp", "det")
        kwargs["base_compute_time"] = 5.0
        ra, rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 0
        assert ra.collapse_fallback == {"reason": "bsp"}
        assert rb.collapse_fallback == {"reason": "subclass"}

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
            ("kept_spans", dict(keep_spans=True)),
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


class TestSeqCascade:
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=300,
        ),
        cursor=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar_recurrence(self, data, cursor):
        arrivals = np.sort(np.array([a for a, _h in data]))
        holds = np.array([h for _a, h in data])
        ends, final = _seq_cascade(arrivals, holds, cursor)
        c = cursor
        for i in range(len(data)):
            if arrivals[i] > c:
                c = arrivals[i]
            c = c + holds[i]
            assert ends[i] == c  # bit-identical, not approx
        assert final == c

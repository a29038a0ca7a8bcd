"""Causal tracing, critical-path blame, and the repro.obs CLI."""

import json

import pytest

from repro.analysis import check_causal_spans
from repro.core.models import ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability, observed
from repro.obs.__main__ import main as obs_main
from repro.obs.causal import (
    BLAME_ORDER,
    CATEGORIES,
    aggregate_blame,
    causal_from_trace_doc,
    folded_stacks,
    iteration_blames,
    render_blame_table,
    straggler_table,
)
from repro.obs.export import dump_trace, load_trace
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.trace import SpanKind


def _config(n=3, staleness=1, max_iter=5, seed=1, obs=None, span_capture=None):
    kwargs = dict(
        cluster=cpu_cluster(n, n_servers=2),
        max_iter=max_iter,
        sync=ssp(staleness),
        workload=alexnet_cifar_workload(),
        seed=seed,
        span_capture=span_capture,
    )
    if obs is not None:
        kwargs["obs"] = obs
    return SimConfig(**kwargs)


def _traced_run(**kwargs):
    obs = Observability(MetricsRegistry("causal-test"))
    with observed(obs):
        runner = FluentPSSimRunner(_config(**kwargs))
        result = runner.run()
    return obs, runner, result


class TestCausalDag:
    def test_spans_recorded_with_known_categories(self):
        obs, _, _ = _traced_run()
        spans = obs.last_run.causal.spans
        assert spans, "an observed sim run must record causal spans"
        cats = {s.category for s in spans}
        assert cats <= set(CATEGORIES)
        # Every iteration's chain reaches the network and back.
        assert {"compute", "tx_queue", "wire", "rx", "sync_wait"} <= cats

    def test_dag_passes_the_causal_checker(self):
        obs, _, _ = _traced_run()
        assert check_causal_spans(obs.last_run.causal) == []

    def test_checker_flags_bad_spans(self):
        from repro.obs.causal import CausalTrace

        tr = CausalTrace()
        a = tr.record(-1, "w0", "compute", 0.0, 2.0)
        tr.record(a, "w0", "rx", 0.0, 1.0)  # ends before its cause
        tr.record(-1, "w0", "warp", 2.0, 1.0)  # unknown category + t1 < t0
        codes = sorted(v.code for v in check_causal_spans(tr))
        assert codes == ["CS02", "CS03", "CS04"]

    def test_record_rejects_forward_parent(self):
        from repro.obs.causal import CausalTrace

        tr = CausalTrace()
        with pytest.raises(ValueError):
            tr.record(5, "w0", "compute", 0.0, 1.0)


class TestBlame:
    def test_fractions_sum_to_one_per_iteration(self):
        obs, _, _ = _traced_run()
        blames = iteration_blames(obs.last_run.causal.spans)
        assert len(blames) == 3 * 5  # every (worker, iteration)
        for b in blames:
            assert set(b.fractions) <= set(BLAME_ORDER)
            assert sum(b.fractions.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(b.seconds.values()) == pytest.approx(b.total, abs=1e-9)

    def test_aggregate_fractions_sum_to_one(self):
        obs, _, _ = _traced_run()
        agg = aggregate_blame(iteration_blames(obs.last_run.causal.spans))
        assert sum(agg.values()) == pytest.approx(1.0, abs=1e-9)

    def test_tight_staleness_produces_sync_wait_blame(self):
        # s=0 is BSP-like: every worker waits on the slowest each round,
        # so sync-wait blame must appear and name a blocking worker.
        obs, _, _ = _traced_run(staleness=0, max_iter=6)
        blames = iteration_blames(obs.last_run.causal.spans)
        agg = aggregate_blame(blames)
        assert agg.get("sync_wait", 0.0) > 0.0
        stragglers = straggler_table(blames)
        assert stragglers, "sync-wait time must be attributed to workers"
        assert all(name.startswith("worker") for name, _ in stragglers)

    def test_render_blame_table_mentions_contract(self):
        obs, _, _ = _traced_run()
        text = render_blame_table(iteration_blames(obs.last_run.causal.spans))
        assert "sum to 1.0" in text
        assert "aggregate:" in text

    def test_folded_stacks_format(self):
        obs, _, _ = _traced_run()
        lines = folded_stacks(obs.last_run.causal.spans)
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 0
            assert stack.split(";")[0].startswith("worker")


class TestTimelineUnchanged:
    def test_timestamps_bit_identical_with_obs_on_and_off(self):
        def run(obs):
            runner = FluentPSSimRunner(
                _config(n=4, staleness=2, max_iter=6, seed=3, obs=obs,
                        span_capture=True)
            )
            deliveries = []
            runner.net.on_delivery(
                lambda m: deliveries.append(
                    (m.msg_id, m.src, m.dst, repr(m.send_time), repr(m.deliver_time))
                )
            )
            result = runner.run()
            spans = [
                (s.actor, s.kind.value, repr(s.t0), repr(s.t1))
                for s in runner.trace.spans
                if s.kind in (SpanKind.COMPUTE, SpanKind.PULL)
            ]
            return repr(result.duration), deliveries, spans

        # The ambient test observability is enabled; the off-run must opt
        # out explicitly to exercise the uninstrumented path.
        off = run(NULL_OBS)
        on = run(Observability(MetricsRegistry("diff")))
        assert off == on


class TestExportRoundTrip:
    def test_trace_doc_carries_flows_and_causal_spans(self, tmp_path):
        obs, runner, _ = _traced_run()
        run = obs.last_run
        path = tmp_path / "run.trace.json"
        dump_trace(str(path), run.trace, run.instants, causal=run.causal)
        doc = load_trace(path)
        phases = {e.get("ph") for e in doc["traceEvents"]}
        assert {"s", "f"} <= phases, "flow-event arrows must be embedded"
        assert len(doc["causalSpans"]) == len(run.causal.spans)
        rebuilt = causal_from_trace_doc(doc)
        live = iteration_blames(run.causal.spans)
        offline = iteration_blames(rebuilt.spans)
        assert [(b.worker, b.iteration, b.fractions) for b in offline] == [
            (b.worker, b.iteration, b.fractions) for b in live
        ]

    def test_pull_latency_sketch_matches_trace_spans(self):
        obs, runner, _ = _traced_run()
        sketch = obs.registry.get("pull_latency_seconds")
        durations = [
            s.t1 - s.t0 for s in runner.trace.spans if s.kind is SpanKind.PULL
        ]
        merged = sketch.merged()
        assert merged.count == len(durations)
        assert merged.quantile(1.0) <= max(durations) * 1.01
        assert merged.quantile(0.5) == pytest.approx(
            sorted(durations)[len(durations) // 2], rel=0.05
        )


class TestObsCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        obs, _, _ = _traced_run()
        run = obs.last_run
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.json"
        dump_trace(str(trace), run.trace, run.instants, causal=run.causal)
        metrics.write_text(json.dumps(obs.registry.to_dict()))
        return trace, metrics

    def test_blame_is_the_default_action(self, artifacts, capsys):
        trace, _ = artifacts
        assert obs_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical-path blame" in out
        assert "sum to 1.0" in out

    def test_percentiles_merge_metrics_files(self, artifacts, capsys):
        _, metrics = artifacts
        assert obs_main(["--percentiles", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "pull_latency_seconds" in out
        assert "p99" in out

    def test_flame_prints_folded_stacks(self, artifacts, capsys):
        trace, _ = artifacts
        assert obs_main(["--flame", str(trace)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert any(";" in line for line in out)

    def test_directory_expansion(self, artifacts, capsys):
        trace, _ = artifacts
        assert obs_main([str(trace.parent)]) == 0
        assert "critical-path blame" in capsys.readouterr().out

    def test_exit_code_when_nothing_found(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert obs_main([str(empty)]) == 2


class TestPooledArmArtifacts:
    @pytest.mark.no_sanitize
    def test_obs_dir_captures_per_arm_traces(self, tmp_path):
        from repro.bench.figures import _fig7_arm
        from repro.bench.harness import TINY
        from repro.bench.pool import RunTask, SweepExecutor

        arms = tmp_path / "arms"
        tasks = [
            RunTask(fn=_fig7_arm, kwargs=dict(scale=TINY, n=n, seed=7), key=f"fig7/N{n}")
            for n in (2, 4)
        ]
        with SweepExecutor(jobs=2, obs_dir=str(arms)) as pool:
            results = pool.map(tasks)
        assert len(results) == 2
        traces = sorted(p.name for p in arms.glob("*.trace.json"))
        assert traces == ["fig7_N2.trace.json", "fig7_N4.trace.json"]
        assert sorted(p.name for p in arms.glob("*.metrics.json")) == [
            "fig7_N2.metrics.json",
            "fig7_N4.metrics.json",
        ]
        doc = load_trace(arms / "fig7_N2.trace.json")
        assert doc["causalSpans"], "worker-side runs must carry causal spans"
        assert check_causal_spans(causal_from_trace_doc(doc)) == []

    def test_obs_dir_skips_cache_reads_but_still_writes(self, tmp_path):
        from repro.bench.figures import _fig7_arm
        from repro.bench.harness import TINY
        from repro.bench.pool import RunCache, RunTask, SweepExecutor

        cache = RunCache(str(tmp_path / "cache"))
        task = RunTask(fn=_fig7_arm, kwargs=dict(scale=TINY, n=2, seed=7), key="fig7/N2")
        with SweepExecutor(jobs=2, cache=cache, obs_dir=str(tmp_path / "a1")) as pool:
            pool.map([task])
            assert pool.stats.cache_hits == 0
            # The arm still landed in the cache for non-capturing sweeps.
            assert cache.get(cache.key_for(task)) is not None
        with SweepExecutor(jobs=2, cache=cache) as pool:
            pool.map([task])
            assert pool.stats.cache_hits == 1
        # Capturing again bypasses the now-warm cache (artifacts needed).
        with SweepExecutor(jobs=2, cache=cache, obs_dir=str(tmp_path / "a2")) as pool:
            pool.map([task])
            assert pool.stats.cache_hits == 0
        assert list((tmp_path / "a2").glob("*.trace.json"))

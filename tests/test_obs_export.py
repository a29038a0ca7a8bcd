"""Perfetto trace export, snapshot scraping, and end-to-end observability."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.workloads import blobs_task
from repro.core.models import bsp, pssp, ssp
from repro.obs import (
    InstantLog,
    MetricsRegistry,
    Observability,
    dump_metrics,
    dump_trace,
    observed,
)
from repro.obs.export import default_metrics_path
from repro.obs.snapshot import ServerSnapshotter
from repro.sim.cluster import cpu_cluster
from repro.sim.engine import Engine
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import HeterogeneousCompute
from repro.sim.trace import SpanKind, TraceRecorder

# These tests assert ambient-observability defaults (disabled NULL_OBS);
# the sanitizer fixture's ambient bundle would shadow that behaviour.
pytestmark = pytest.mark.no_sanitize


def actor_tracks(doc):
    """Actor name -> tid, from a loaded trace's thread-name metadata."""
    return {
        ev["args"]["name"]: ev["tid"]
        for ev in doc["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }


def events_of_phase(doc, ph, name=None):
    """A loaded trace's events of one phase letter, optionally one name."""
    return [
        ev for ev in doc["traceEvents"]
        if ev.get("ph") == ph and (name is None or ev.get("name") == name)
    ]


def make_trace():
    tr = TraceRecorder()
    tr.record_span("worker0", SpanKind.COMPUTE, 0.0, 1.0, iteration=0)
    tr.record_span("worker0", SpanKind.PULL, 1.0, 1.5, iteration=0)
    tr.record_span("worker1", SpanKind.COMPUTE, 0.0, 2.0, iteration=0, note="straggler")
    return tr


class TestTraceExport:
    def test_round_trip_invariants(self, tmp_path):
        instants = InstantLog()
        instants.record("dpr_buffered", 1.2, actor="server0", worker=1)
        instants.record("global_note", 1.3)  # no actor -> process scope
        path = tmp_path / "trace.json"
        assert dump_trace(path, make_trace(), instants, process_name="test-run") == path
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        tracks = actor_tracks(doc)
        # server0 gets a track from its instant alone
        assert set(tracks) == {"worker0", "worker1", "server0"}
        assert len(set(tracks.values())) == 3
        xs = events_of_phase(doc, "X")
        assert len(xs) == 3
        for ev in xs:
            assert ev["dur"] >= 0
            assert ev["tid"] in tracks.values()
        compute = events_of_phase(doc, "X", "compute")
        assert {e["ts"] for e in compute} == {0.0}
        assert {e["dur"] for e in compute} == {1e6, 2e6}
        note = [e for e in compute if e["args"].get("note")][0]
        assert note["args"]["note"] == "straggler"
        insts = events_of_phase(doc, "i")
        scoped = {e["name"]: e["s"] for e in insts}
        assert scoped == {"dpr_buffered": "t", "global_note": "p"}
        proc = events_of_phase(doc, "M", "process_name")
        assert proc[0]["args"]["name"] == "test-run"

    def test_spanless_trace_rejected(self, tmp_path):
        tr = TraceRecorder(keep_spans=False)
        with pytest.raises(ValueError, match="keep_spans"):
            dump_trace(tmp_path / "t.json", tr)

    def test_default_metrics_path(self):
        assert str(default_metrics_path("/x/trace.json")).endswith("/x/trace.metrics.json")

    def test_dump_metrics(self, tmp_path):
        reg = MetricsRegistry("t")
        reg.counter("c").inc(shard=2)
        path = dump_metrics(tmp_path / "m.json", reg)
        doc = json.load(open(path))
        assert doc["metrics"]["c"]["values"] == {"shard=2": 1.0}


class TestSnapshotter:
    def test_scrape_records_per_shard_and_nic_series(self):
        class FakeServer:
            def __init__(self, shard_id):
                self.shard_id = shard_id
                self.buffered_pulls = shard_id
                self.v_train = 10 + shard_id
                self.version = 20
                self.callbacks = {}
                self.metrics = type("M", (), {"dprs": 5})()

        reg = MetricsRegistry("t")
        snap = ServerSnapshotter(reg, [FakeServer(0), FakeServer(1)])
        snap.scrape(1.0)
        snap.scrape(2.0)
        depth = reg.get("ps_dpr_queue_depth")
        assert depth.value(shard=1) == 1
        ts, vs = depth.series(shard=1)
        assert ts == [0.0, 0.0] or len(ts) == 2  # clock not installed -> 0s
        assert vs == [1.0, 1.0]
        assert reg.get("ps_frontier").value(shard=0) == 10

    def test_install_validates_interval(self):
        reg = MetricsRegistry("t")
        snap = ServerSnapshotter(reg, [])
        with pytest.raises(ValueError):
            snap.install(Engine(), 0.0)

    def test_daemon_sampler_does_not_keep_engine_alive(self):
        eng = Engine()
        reg = MetricsRegistry("t")
        snap = ServerSnapshotter(reg, [])

        def work():
            yield 10.0

        eng.spawn(work())
        snap.install(eng, 1.0)
        end = eng.run()
        # the sampler ticks through the workload then stops with it:
        # the run ends when the work does, not one sampler period later
        assert end == pytest.approx(10.0)
        assert snap.scrapes >= 10


def quick_sim_config(sync, obs=None, max_iter=8):
    # One persistent straggler (spread 1.5, no jitter) guarantees DPRs
    # under BSP/SSP within a handful of iterations.
    return SimConfig(
        cluster=cpu_cluster(n_workers=3, n_servers=2),
        max_iter=max_iter,
        sync=sync,
        base_compute_time=0.01,
        compute_model=HeterogeneousCompute(3, spread=1.5, jitter_sigma=0.0),
        task=blobs_task(n_workers=3, n_train=60, n_test=20, dim=8, hidden=(8,)),
        obs=obs,
    )


class TestEndToEndSim:
    def test_sim_run_with_obs_collects_everything(self, tmp_path):
        obs = Observability(MetricsRegistry("e2e"))
        res = run_fluentps(quick_sim_config(bsp(), obs=obs))
        assert res.iterations == 8
        # per-shard snapshot gauges: every shard applied pushes, and the
        # straggler under BSP made each buffer DPRs
        for name in ("ps_version", "ps_dprs"):
            gauge = obs.registry.get(name)
            assert gauge.value(shard=0) > 0 and gauge.value(shard=1) > 0, name
        # run-level SyncMetrics gauges
        assert obs.registry.get("sync_pulls").value(run=obs.last_run.label) == res.metrics.pulls > 0
        # snapshot gauge series exist per shard
        depth = obs.registry.get("ps_dpr_queue_depth")
        for shard in (0, 1):
            ts, vs = depth.series(shard=shard)
            assert len(ts) >= 2
        # a straggler under BSP guarantees buffered DPRs + instants
        run = obs.last_run
        assert run is not None
        assert run.instants.by_name("dpr_buffered")
        assert run.instants.by_name("frontier_advance")
        # the captured trace exports cleanly with >= 2 actor tracks
        path = dump_trace(tmp_path / "sim.json", run.trace, run.instants)
        tracks = actor_tracks(json.load(open(path)))
        assert len(tracks) >= 2

    def test_pssp_instants_record_pass_pause(self):
        obs = Observability(MetricsRegistry("pssp"))
        run_fluentps(quick_sim_config(pssp(1, 0.5), obs=obs, max_iter=20))
        events = obs.last_run.instants
        flips = len(events.by_name("pssp_pass")) + len(events.by_name("pssp_pause"))
        assert flips > 0
        m, run = obs.registry, obs.last_run.label
        assert (
            m.get("sync_probabilistic_passes").value(run=run)
            + m.get("sync_probabilistic_pauses").value(run=run)
            == flips
        )

    def test_ambient_observability_used_when_config_silent(self):
        obs = Observability(MetricsRegistry("ambient"))
        with observed(obs):
            run_fluentps(quick_sim_config(ssp(2)))
        assert obs.runs, "runner did not pick up the ambient bundle"
        assert obs.registry.get("sync_pulls").value(run=obs.last_run.label) > 0

    def test_each_run_publishes_its_own_sync_gauges(self):
        # One bundle observing several runs (a multi-arm --trace-out) keeps
        # every run's numbers, labelled by its capture.
        obs = Observability(MetricsRegistry("two-runs"))
        first = run_fluentps(quick_sim_config(bsp(), obs=obs))
        second = run_fluentps(quick_sim_config(ssp(2), obs=obs, max_iter=12))
        assert first.metrics.pulls != second.metrics.pulls
        pulls = obs.registry.get("sync_pulls")
        for run, res in zip(obs.runs, (first, second)):
            assert pulls.value(run=run.label) == res.metrics.pulls, run.label

    def test_disabled_obs_records_nothing(self):
        res = run_fluentps(quick_sim_config(bsp()))
        assert res.iterations == 8  # default NULL_OBS: run works, no capture


class TestBenchFlag:
    def test_trace_out_writes_valid_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "bench.json"
        rc = bench_main(
            ["--only", "fig5", "--trace-out", str(trace), "--save-dir", str(tmp_path / "r")]
        )
        assert rc == 0
        doc = json.load(open(trace))
        assert len(actor_tracks(doc)) >= 2
        assert events_of_phase(doc, "i", "dpr_buffered")
        metrics = json.load(open(default_metrics_path(trace)))
        depth = metrics["metrics"]["ps_dpr_queue_depth"]
        assert any(k.startswith("shard=") for k in depth["series"])
        out = capsys.readouterr().out
        assert "observability report" in out

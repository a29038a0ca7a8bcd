"""Tests for the sweep executor and its deterministic run cache."""

import json

import pytest

from repro.bench import figures
from repro.bench.harness import TINY, ExperimentResult
from repro.bench.pool import (
    CACHE_SCHEMA,
    RunCache,
    RunTask,
    SweepExecutor,
    WorkerFailure,
    _sanitized_call,
    code_fingerprint,
    derive_task_seed,
    run_sweep,
)


def _tiny_arm(tag: str, seed: int) -> ExperimentResult:
    """A fast, deterministic arm for executor tests."""
    frag = ExperimentResult(f"pool-test/{tag}", headers=[])
    frag.add_row(tag, seed, seed * 2.5)
    frag.record(tag, seed=float(seed))
    return frag


def _boom(tag: str, seed: int) -> ExperimentResult:
    raise ValueError(f"kaboom in {tag}")


def _task(fn=_tiny_arm, tag="a", seed=1) -> RunTask:
    return RunTask(fn=fn, kwargs={"tag": tag, "seed": seed}, key=f"pool-test/{tag}")


def _doc(result: ExperimentResult) -> str:
    """A result as the JSON document ``save`` writes."""
    return json.dumps(result.to_dict(), indent=2)


class TestDerivedSeeds:
    def test_stable_golden_value(self):
        # Pinned: a change here silently invalidates every committed result.
        assert derive_task_seed("fig7", "N8", 0) == derive_task_seed("fig7", "N8", 0)
        assert derive_task_seed("fig7", "N8", 0) == 1089719681

    def test_in_31_bit_range(self):
        for seed in (0, 1, 2**31, -7):
            assert 0 <= derive_task_seed("e", "v", seed) < 2**31

    def test_sensitive_to_every_component(self):
        base = derive_task_seed("fig7", "N8", 0)
        assert derive_task_seed("fig9", "N8", 0) != base
        assert derive_task_seed("fig7", "N16", 0) != base
        assert derive_task_seed("fig7", "N8", 1) != base


class TestFingerprints:
    def test_task_fingerprint_tracks_inputs(self):
        a, b = _task(seed=1), _task(seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert _task(seed=1).fingerprint() == a.fingerprint()
        assert _task(fn=_boom).fingerprint() != a.fingerprint()

    def test_fingerprint_handles_rich_kwargs(self):
        t = RunTask(fn=_tiny_arm, kwargs={"scale": TINY, "params": {"s": 3}})
        assert t.fingerprint() == RunTask(
            fn=_tiny_arm, kwargs={"params": {"s": 3}, "scale": TINY}
        ).fingerprint()

    def test_code_fingerprint_tracks_source(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(tmp_path)
        assert before == code_fingerprint(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_fingerprint(tmp_path) != before


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        task = _task()
        digest = cache.key_for(task)
        assert cache.get(digest) is None
        result = _tiny_arm("a", 1)
        cache.put(digest, task, result.to_dict())
        assert _doc(ExperimentResult.from_dict(cache.get(digest))) == _doc(result)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        digest = cache.key_for(_task())
        path = cache._path(digest)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(digest) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        digest = cache.key_for(_task())
        path = cache._path(digest)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": CACHE_SCHEMA + 1, "result": {}}))
        assert cache.get(digest) is None


class TestSweepExecutor:
    def test_inline_matches_pooled(self):
        tasks = [_task(tag=t, seed=i) for i, t in enumerate("abcd")]
        inline = run_sweep(tasks)
        with SweepExecutor(jobs=2) as pool:
            pooled = pool.map(tasks)
        assert [_doc(r) for r in inline] == [_doc(r) for r in pooled]

    def test_results_in_submission_order(self):
        tasks = [_task(tag=t, seed=i) for i, t in enumerate("zyx")]
        with SweepExecutor(jobs=2) as pool:
            out = pool.map(tasks)
        assert [r.experiment for r in out] == [f"pool-test/{t}" for t in "zyx"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_transported_with_traceback(self, jobs):
        with SweepExecutor(jobs=jobs) as pool:
            with pytest.raises(WorkerFailure) as exc_info:
                pool.map([_task(fn=_boom, tag="bad")])
        failure = exc_info.value
        assert failure.key == "pool-test/bad"
        assert "kaboom in bad" in str(failure)
        assert "ValueError" in failure.remote_traceback

    def test_one_bad_task_does_not_block_siblings(self, tmp_path):
        cache = RunCache(str(tmp_path))
        tasks = [_task(tag="ok", seed=3), _task(fn=_boom, tag="bad")]
        with SweepExecutor(jobs=2, cache=cache) as pool:
            with pytest.raises(WorkerFailure):
                pool.map(tasks)
            # The sibling still ran and landed in the cache.
            assert cache.get(cache.key_for(tasks[0])) is not None
            assert pool.stats.executed == 2
            assert pool.stats.failed == 1

    def test_cache_hit_on_second_map(self, tmp_path):
        cache = RunCache(str(tmp_path))
        tasks = [_task(tag=t) for t in "ab"]
        with SweepExecutor(jobs=1, cache=cache) as pool:
            first = pool.map(tasks)
            assert (pool.stats.cache_hits, pool.stats.cache_misses) == (0, 2)
            second = pool.map(tasks)
            assert (pool.stats.cache_hits, pool.stats.cache_misses) == (2, 2)
        assert [_doc(r) for r in first] == [_doc(r) for r in second]

    def test_stats_reported_to_ambient_registry(self, tmp_path):
        from repro.obs import MetricsRegistry, Observability, observed

        obs = Observability(MetricsRegistry("pool-test"))
        with observed(obs):
            with SweepExecutor(jobs=1, cache=RunCache(str(tmp_path))) as pool:
                pool.map([_task()])
                pool.map([_task()])
        counter = obs.registry.counter("bench_pool_tasks", "")
        assert counter.value(outcome="cache_miss") == 1
        assert counter.value(outcome="cache_hit") == 1
        assert counter.value(outcome="executed") == 1


class TestSanitizeInWorkers:
    def test_sanitized_call_checks_real_events(self):
        seed = derive_task_seed("fig7", "N2", 0)
        result, n_events = _sanitized_call(
            figures._fig7_arm, {"scale": TINY, "n": 2, "seed": seed}
        )
        assert n_events > 0
        assert _doc(result) == _doc(figures._fig7_arm(TINY, 2, seed))

    def test_events_checked_are_every_instant_logged(self):
        """Every instant a run logs is a protocol event: the sanitizer's
        count is the instant logs' length."""
        from repro.obs import MetricsRegistry, Observability

        obs = Observability(MetricsRegistry("pool-count"), causal=False)
        seed = derive_task_seed("fig7", "N2", 0)
        _, n_events = _sanitized_call(
            figures._fig7_arm, {"scale": TINY, "n": 2, "seed": seed}, obs=obs
        )
        logged = sum(len(cap.instants) for cap in obs.runs) + len(obs.default_instants)
        assert n_events == logged > 0

    def test_executor_sanitizes_inside_workers(self):
        seed = derive_task_seed("fig7", "N2", 0)
        task = RunTask(
            fn=figures._fig7_arm,
            kwargs={"scale": TINY, "n": 2, "seed": seed},
            key="fig7/N2",
        )
        with SweepExecutor(jobs=2, sanitize=True) as pool:
            (pooled,) = pool.map([task])
        assert _doc(pooled) == _doc(figures._fig7_arm(TINY, 2, seed))


class TestExperimentDeterminism:
    def test_cli_jobs1_matches_jobs4(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        d1, d4 = tmp_path / "j1", tmp_path / "j4"
        common = ["--scale", "tiny", "--only", "fig7", "fig10", "--no-cache"]
        assert main([*common, "--jobs", "1", "--save-dir", str(d1)]) == 0
        assert main([*common, "--jobs", "4", "--save-dir", str(d4)]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in d1.glob("*.json"))
        assert files == sorted(p.name for p in d4.glob("*.json")) and files
        for name in files:
            assert (d1 / name).read_bytes() == (d4 / name).read_bytes()

    def test_warm_cache_reproduces_cold_bytes(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        save, cache = tmp_path / "out", tmp_path / "cache"
        common = ["--scale", "tiny", "--only", "fig7", "--save-dir", str(save),
                  "--cache-dir", str(cache)]
        assert main(common) == 0
        cold = {p.name: p.read_bytes() for p in save.glob("*.json")}
        assert main(common) == 0
        out = capsys.readouterr().out
        assert "cache_misses=0" in out.rsplit("[pool:", 1)[-1]
        assert {p.name: p.read_bytes() for p in save.glob("*.json")} == cold

    def test_cli_reports_worker_failure_and_continues(self, tmp_path, capsys,
                                                      monkeypatch):
        from repro.bench import __main__ as bench_main

        def fail(scale, seed, pool):
            return pool.map([_task(fn=_boom, tag="cli")])

        monkeypatch.setitem(bench_main.EXPERIMENTS, "fig7", fail)
        rc = bench_main.main([
            "--scale", "tiny", "--only", "fig7", "fig10", "--no-cache",
            "--save-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fig7: FAILED" in out
        assert "kaboom" in out
        # fig10 still ran and saved despite fig7's failure.
        assert any("figure_10" in p.name for p in tmp_path.glob("*.json"))

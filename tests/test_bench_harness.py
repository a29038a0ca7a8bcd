"""Tests for the experiment harness, workloads and result containers."""

import json

import numpy as np
import pytest

from repro.bench.harness import PAPER, QUICK, ExperimentResult, Scale, resolve_scale
from repro.bench.workloads import (
    blobs_task,
    cifar_proxy_task,
    no_network_config,
    null_task_spec,
    workload_for,
)
from repro.core.models import ssp
from repro.core.step import StepContext
from repro.utils.rng import derive_rng


class TestScale:
    def test_presets_valid(self):
        for scale in (QUICK, PAPER):
            assert scale.iters >= 1
            assert len(scale.worker_counts) >= 2
        assert PAPER.iters > QUICK.iters

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Scale("bad", 0, 1, (2,), 4, 8, 10, 5, 1, 1)

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert resolve_scale().name == "paper"
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert resolve_scale().name == "quick"
        monkeypatch.setenv("REPRO_SCALE", "")
        assert resolve_scale(QUICK).name == "quick"


class TestExperimentResult:
    def test_rows_records_and_lookup(self):
        r = ExperimentResult("Exp", headers=["a", "b"])
        r.add_row(1, 2)
        rec = r.record("one", x=1.5)
        assert r.find("one") is rec
        with pytest.raises(KeyError):
            r.find("two")

    def test_render(self):
        r = ExperimentResult("Exp", headers=["a"])
        r.add_row("v")
        r.notes.append("hello")
        out = r.render()
        assert "Exp" in out and "hello" in out

    def test_save_roundtrip(self, tmp_path):
        r = ExperimentResult("My Exp", headers=["a"])
        r.add_row(1)
        r.record("rec", m=2.0)
        path = r.save(directory=str(tmp_path))
        data = json.loads(path.read_text())
        assert data["experiment"] == "My Exp"
        assert data["records"][0]["metrics"]["m"] == 2.0


class TestWorkloads:
    def test_blobs_task_shapes(self):
        t = blobs_task(4, n_train=200, n_test=50)
        assert t.n_workers == 4
        assert t.init_params.ndim == 1

    def test_cifar_proxy_mlp(self):
        t = cifar_proxy_task(2, n_train=30, n_test=10, size=8)
        u = t.step_fn(StepContext(0, 0, t.init_params.copy(), derive_rng(0, "x")))
        assert u.shape == t.init_params.shape
        assert np.isfinite(u).all()

    def test_null_workload(self):
        spec = null_task_spec(16)
        assert spec.total_elements == 16
        cfg = no_network_config(4, ssp(2), 3)  # timing-only: no step, no parameters
        assert cfg.task is None and cfg.spec.total_elements == null_task_spec().total_elements

    def test_workload_for(self):
        assert workload_for("alexnet").spec.name == "alexnet-cifar"
        assert workload_for("resnet56").spec.total_elements > 8e5
        with pytest.raises(ValueError):
            workload_for("vgg")

"""Tests for compute-time / straggler models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
    LogNormalCompute,
    ParetoTailCompute,
    TransientStragglerCompute,
    cpu_cluster_compute,
    gpu_cluster_compute,
    make_compute_model,
)

ALL_MODELS = [
    DeterministicCompute(),
    LogNormalCompute(0.2),
    ExponentialTailCompute(0.1, 2.0),
    ParetoTailCompute(3.0, 0.3),
    TransientStragglerCompute(4, slow_factor=3.0, period=10, duration=3),
    HeterogeneousCompute(4, spread=0.3),
]


class TestBasics:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_samples_positive_finite(self, model, rng):
        for it in range(50):
            t = model.sample(it % 4, it, 1.0, rng)
            assert np.isfinite(t) and t > 0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_scales_with_base_time(self, model):
        r1 = np.random.default_rng(0)
        r2 = np.random.default_rng(0)
        a = model.sample(0, 5, 1.0, r1)
        b = model.sample(0, 5, 2.0, r2)
        assert b == pytest.approx(2 * a)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_mean_factor_close_to_empirical(self, model, rng):
        samples = [model.sample(w, it, 1.0, rng) for it in range(800) for w in range(4)]
        assert np.mean(samples) == pytest.approx(model.mean_factor(), rel=0.25)


class TestDeterministic:
    def test_exact(self, rng):
        assert DeterministicCompute(1.5).sample(0, 0, 2.0, rng) == 3.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            DeterministicCompute(0.0)


class TestLogNormal:
    def test_zero_sigma_is_deterministic(self, rng):
        m = LogNormalCompute(0.0)
        assert m.sample(0, 0, 2.0, rng) == pytest.approx(2.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LogNormalCompute(-0.1)


class TestExponentialTail:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ExponentialTailCompute(p_slow=1.5)

    def test_tail_increases_mean(self, rng):
        base = LogNormalCompute(0.05)
        tail = ExponentialTailCompute(p_slow=0.5, tail_scale=3.0, jitter_sigma=0.05)
        b = np.mean([base.sample(0, i, 1.0, rng) for i in range(500)])
        t = np.mean([tail.sample(0, i, 1.0, rng) for i in range(500)])
        assert t > b * 1.5


class TestPareto:
    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ParetoTailCompute(alpha=1.0)


class TestTransient:
    def test_straggler_rotates(self):
        m = TransientStragglerCompute(4, period=10, duration=3)
        assert m.straggler_at(0) == 0
        assert m.straggler_at(10) == 1
        assert m.straggler_at(45) == 0  # wraps around

    def test_slow_window(self):
        m = TransientStragglerCompute(4, period=10, duration=3)
        assert m.is_slow(0, 0) and m.is_slow(0, 2)
        assert not m.is_slow(0, 3)
        assert not m.is_slow(1, 0)
        assert m.is_slow(1, 11)

    def test_slow_factor_applied(self, rng):
        m = TransientStragglerCompute(2, slow_factor=5.0, period=10, duration=10,
                                      jitter_sigma=0.0)
        slow = m.sample(0, 0, 1.0, rng)
        fast = m.sample(1, 0, 1.0, rng)
        assert slow == pytest.approx(5 * fast)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            TransientStragglerCompute(2, period=5, duration=6)


class TestHeterogeneous:
    def test_rates_spread_linearly(self):
        m = HeterogeneousCompute(5, spread=0.4, jitter_sigma=0.0)
        rates = [m.rate_factor(w) for w in range(5)]
        assert rates[0] == 1.0
        assert rates[-1] == pytest.approx(1.4)
        assert rates == sorted(rates)

    def test_single_worker(self):
        assert HeterogeneousCompute(1, spread=0.4).rate_factor(0) == 1.0

    def test_invalid_spread(self):
        with pytest.raises(ValueError):
            HeterogeneousCompute(4, spread=-0.1)


class TestFactoryAndPresets:
    @pytest.mark.parametrize(
        "name", ["deterministic", "lognormal", "exp-tail", "pareto"]
    )
    def test_factory_simple(self, name):
        assert make_compute_model(name) is not None

    def test_factory_needs_workers(self):
        with pytest.raises(ValueError):
            make_compute_model("transient")
        with pytest.raises(ValueError):
            make_compute_model("heterogeneous")
        assert make_compute_model("transient", n_workers=4) is not None
        assert make_compute_model("heterogeneous", n_workers=4) is not None

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_compute_model("quantum")

    def test_cluster_presets(self, rng):
        g = gpu_cluster_compute()
        c = cpu_cluster_compute(8)
        assert g.sample(0, 0, 1.0, rng) > 0
        assert c.sample(7, 0, 1.0, rng) > c.sample(0, 0, 1.0, rng) * 0.9


class TestProperties:
    @given(
        sigma=st.floats(min_value=0.0, max_value=1.0),
        base=st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_lognormal_positive(self, sigma, base):
        m = LogNormalCompute(sigma)
        r = np.random.default_rng(0)
        assert m.sample(0, 0, base, r) > 0

    @given(
        n=st.integers(min_value=1, max_value=64),
        spread=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_heterogeneous_rates_bounded(self, n, spread):
        m = HeterogeneousCompute(n, spread=spread, jitter_sigma=0.0)
        for w in range(n):
            assert 1.0 <= m.rate_factor(w) <= 1.0 + spread + 1e-12


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: DeterministicCompute(NAN),
        lambda: LogNormalCompute(NAN),
        lambda: ExponentialTailCompute(0.1, NAN),
        lambda: ExponentialTailCompute(NAN, 2.0),
        lambda: ExponentialTailCompute(0.1, 2.0, jitter_sigma=NAN),
        lambda: ParetoTailCompute(alpha=NAN),
        lambda: ParetoTailCompute(3.0, scale=NAN),
        lambda: TransientStragglerCompute(4, slow_factor=NAN),
        lambda: HeterogeneousCompute(4, spread=NAN),
        lambda: HeterogeneousCompute(4, jitter_sigma=NAN),
        lambda: LogNormalCompute(float("inf")),
    ],
    ids=[
        "deterministic", "lognormal", "exp-tail-scale", "exp-tail-p", "exp-tail-jitter",
        "pareto-alpha", "pareto-scale", "transient", "heterogeneous-spread",
        "heterogeneous-jitter", "lognormal-inf",
    ],
)
def test_non_finite_parameters_fail_at_construction(build):
    """A NaN parameter used to put NaN timestamps on the event heap, and
    the run died later with a misleading ``ProtocolError``."""
    with pytest.raises(ValueError):
        build()

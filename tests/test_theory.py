"""Tests for the regret-bound theory module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pssp import equivalent_ssp_threshold, sample_effective_staleness
from repro.theory.regret import (
    RegretConditions,
    constant_pssp_regret_bound,
    constant_pssp_regret_series,
    dynamic_pssp_regret_bound,
    empirical_regret,
    sgd_regret_experiment,
    ssp_regret_bound,
)


class TestClosedForms:
    def test_ssp_bound_formula(self):
        # 4FL sqrt(2(s+1)N/T)
        assert ssp_regret_bound(3, 16, 1000) == pytest.approx(
            4 * math.sqrt(2 * 4 * 16 / 1000)
        )

    def test_bound_decreases_in_T(self):
        assert ssp_regret_bound(3, 16, 10_000) < ssp_regret_bound(3, 16, 1000)

    def test_bound_increases_in_s_and_N(self):
        assert ssp_regret_bound(5, 16, 1000) > ssp_regret_bound(3, 16, 1000)
        assert ssp_regret_bound(3, 32, 1000) > ssp_regret_bound(3, 16, 1000)

    def test_theorem1_equals_matched_ssp(self):
        for s, c in [(3, 0.5), (3, 0.1), (1, 0.25), (0, 1.0)]:
            s_prime = equivalent_ssp_threshold(s, c)
            assert constant_pssp_regret_bound(s, c, 16, 1000) == pytest.approx(
                ssp_regret_bound(s_prime, 16, 1000)
            )

    def test_c_equals_one_is_ssp(self):
        assert constant_pssp_regret_bound(3, 1.0, 16, 1000) == pytest.approx(
            ssp_regret_bound(3, 16, 1000)
        )

    def test_theorem2_dynamic_equals_half_alpha(self):
        assert dynamic_pssp_regret_bound(3, 0.6, 16, 1000) == pytest.approx(
            constant_pssp_regret_bound(3, 0.3, 16, 1000)
        )

    def test_conditions_scale_linearly(self):
        base = ssp_regret_bound(3, 16, 1000)
        doubled = ssp_regret_bound(3, 16, 1000, RegretConditions(F=2.0, L=1.0))
        assert doubled == pytest.approx(2 * base)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ssp_regret_bound(-1, 16, 1000)
        with pytest.raises(ValueError):
            ssp_regret_bound(3, 0, 1000)
        with pytest.raises(ValueError):
            constant_pssp_regret_bound(3, 0.0, 16, 1000)
        with pytest.raises(ValueError):
            dynamic_pssp_regret_bound(3, 1.5, 16, 1000)
        with pytest.raises(ValueError):
            RegretConditions(F=0.0)


class TestSeriesVsBound:
    @given(
        s=st.integers(min_value=0, max_value=8),
        c=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_series_never_exceeds_bound(self, s, c):
        """Equation 2 (exact mixture) <= Equation 3 (Cauchy-Schwarz bound)."""
        series = constant_pssp_regret_series(s, c, 16, 1000)
        bound = constant_pssp_regret_bound(s, c, 16, 1000)
        assert series <= bound * (1 + 1e-9)

    def test_series_approaches_ssp_at_c1(self):
        assert constant_pssp_regret_series(3, 1.0, 16, 1000) == pytest.approx(
            ssp_regret_bound(3, 16, 1000)
        )


class TestEmpirical:
    def test_empirical_regret(self):
        assert empirical_regret(np.array([2.0, 4.0]), optimum=1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            empirical_regret(np.array([]), 0.0)

    def test_more_staleness_more_regret(self):
        """Monte-Carlo: higher fixed staleness yields higher regret on the
        quadratic — the monotonicity the bounds encode."""
        fresh = sgd_regret_experiment(lambda rng: 0, T=2500, seed=1)
        stale = sgd_regret_experiment(lambda rng: 15, T=2500, seed=1)
        assert stale > fresh

    def test_pssp_staleness_regret_between_ssp_endpoints(self):
        """PSSP(s, c) effective staleness sits between SSP(s) and heavy
        staleness; its regret should too."""
        fresh = sgd_regret_experiment(lambda rng: 0, T=2500, seed=2)
        big = sgd_regret_experiment(lambda rng: 40, T=2500, seed=2)
        pssp_mid = sgd_regret_experiment(
            lambda rng: int(sample_effective_staleness(3, 0.3, rng, 1)[0]),
            T=2500, seed=2,
        )
        # Mild probabilistic staleness stays in the stable regime (within
        # noise of fresh SGD); heavy fixed staleness destabilizes SGD.
        assert pssp_mid <= 2 * fresh
        assert pssp_mid < big

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            sgd_regret_experiment(lambda rng: -1, T=10)

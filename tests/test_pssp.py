"""Tests for PSSP probability models and matched-pair helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pssp import (
    ConstantProbability,
    DynamicProbability,
    SignificanceView,
    effective_staleness_pmf,
    equivalent_ssp_threshold,
    expected_effective_staleness,
    gradient_significance,
    sample_effective_staleness,
    significance_alpha,
)


class TestConstantProbability:
    def test_zero_below_threshold(self):
        p = ConstantProbability(0.4)
        assert p.probability(3, 2) == 0.0
        assert p.probability(3, 3) == 0.4
        assert p.probability(3, 50) == 0.4

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ConstantProbability(1.5)
        with pytest.raises(ValueError):
            ConstantProbability(-0.1)

    def test_describe(self):
        assert "0.4" in ConstantProbability(0.4).describe()


class TestDynamicProbability:
    def test_half_alpha_at_threshold(self):
        p = DynamicProbability(0.8)
        assert p.probability(3, 3) == pytest.approx(0.4)

    def test_approaches_alpha(self):
        p = DynamicProbability(0.8)
        assert p.probability(3, 60) == pytest.approx(0.8, abs=1e-6)

    def test_monotone_in_gap(self):
        p = DynamicProbability(1.0)
        probs = [p.probability(3, k) for k in range(3, 20)]
        assert probs == sorted(probs)

    def test_zero_below_threshold(self):
        assert DynamicProbability(1.0).probability(3, 2) == 0.0

    def test_callable_alpha_uses_significance(self):
        alpha = significance_alpha(scale=10.0, floor=0.1, ceil=1.0)
        p = DynamicProbability(alpha)
        low = p.probability(3, 3, SignificanceView(0.001, 3, 3))
        high = p.probability(3, 3, SignificanceView(0.1, 3, 3))
        assert high > low
        assert low == pytest.approx(0.05)  # floor 0.1 / 2

    def test_callable_alpha_requires_view(self):
        p = DynamicProbability(lambda v: 0.5)
        with pytest.raises(ValueError):
            p.probability(3, 5, None)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            DynamicProbability(1.5)
        with pytest.raises(TypeError):
            DynamicProbability("big")

    @given(
        s=st.integers(min_value=0, max_value=10),
        gap=st.integers(min_value=0, max_value=100),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_probability_always_valid(self, s, gap, alpha):
        p = DynamicProbability(alpha).probability(s, gap)
        assert 0.0 <= p <= alpha + 1e-12


class TestSignificance:
    def test_ratio(self):
        assert gradient_significance(1.0, 10.0) == pytest.approx(0.1, rel=1e-6)

    def test_zero_weights_safe(self):
        assert gradient_significance(1.0, 0.0) > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gradient_significance(-1.0, 1.0)

    def test_alpha_bounds_validated(self):
        with pytest.raises(ValueError):
            significance_alpha(floor=0.9, ceil=0.5)


class TestMatchedPairs:
    def test_equivalent_threshold(self):
        assert equivalent_ssp_threshold(3, 0.5) == pytest.approx(4.0)
        assert equivalent_ssp_threshold(3, 0.1) == pytest.approx(12.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            equivalent_ssp_threshold(3, 0.0)


class TestEffectiveStaleness:
    def test_pmf_sums_to_one(self):
        for c in (0.1, 0.3, 0.7, 1.0):
            total = sum(effective_staleness_pmf(3, c, k) for k in range(3, 2000))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_pmf_zero_below_s(self):
        assert effective_staleness_pmf(3, 0.5, 2) == 0.0

    def test_expected_value(self):
        assert expected_effective_staleness(3, 0.5) == pytest.approx(4.0)
        assert expected_effective_staleness(3, 1.0) == pytest.approx(3.0)

    def test_sampler_matches_pmf(self):
        rng = np.random.default_rng(0)
        samples = sample_effective_staleness(3, 0.4, rng, size=20_000)
        assert samples.min() >= 3
        assert np.mean(samples) == pytest.approx(expected_effective_staleness(3, 0.4), rel=0.05)
        emp = np.mean(samples == 3)
        assert emp == pytest.approx(effective_staleness_pmf(3, 0.4, 3), abs=0.02)

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            effective_staleness_pmf(3, 0.0, 4)
        with pytest.raises(ValueError):
            sample_effective_staleness(3, 1.5, np.random.default_rng(0))

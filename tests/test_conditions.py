"""Tests for pull/push conditions (Table III semantics)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import (
    AllPushedPush,
    ASPPull,
    BSPPull,
    DSPSPull,
    FractionPush,
    PredicatePull,
    PredicatePush,
    PSSPPull,
    QuorumPush,
    SSPPull,
    SyncView,
)
from repro.core.pssp import ConstantProbability, DynamicProbability


def view(progress=0, v_train=0, n=4, count=None, significance=0.0, seed=0,
         fastest=None, slowest=None):
    return SyncView(
        progress=progress,
        worker=0,
        v_train=v_train,
        n_workers=n,
        count=count or {},
        fastest=fastest if fastest is not None else progress,
        slowest=slowest if slowest is not None else v_train - 1,
        significance=significance,
        rng=np.random.default_rng(seed),
    )


class TestSSPPull:
    def test_respond_below_threshold(self):
        cond = SSPPull(3)
        assert cond(view(progress=2, v_train=0))
        assert not cond(view(progress=3, v_train=0))
        assert cond(view(progress=3, v_train=1))

    def test_bsp_is_ssp_zero(self):
        bsp = BSPPull()
        assert bsp.s == 0
        assert not bsp(view(progress=0, v_train=0))
        assert bsp(view(progress=0, v_train=1))

    def test_asp_never_blocks(self):
        asp = ASPPull()
        assert asp(view(progress=10_000, v_train=0))
        assert math.isinf(asp.staleness())

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            SSPPull(-1)

    def test_describe(self):
        assert "BSP" in BSPPull().describe()
        assert "ASP" in ASPPull().describe()
        assert "SSP" in SSPPull(2).describe()

    @given(
        progress=st.integers(min_value=0, max_value=100),
        v_train=st.integers(min_value=0, max_value=100),
        s=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_table3_formula(self, progress, v_train, s):
        assert SSPPull(s)(view(progress=progress, v_train=v_train)) == (
            progress < v_train + s
        )


class TestPSSPPull:
    def test_below_threshold_always_passes(self):
        cond = PSSPPull(3, ConstantProbability(1.0))
        assert cond(view(progress=2, v_train=0))
        assert cond.coin_flips == 0

    def test_c1_reduces_to_ssp(self):
        cond = PSSPPull(3, ConstantProbability(1.0))
        for gap in range(3, 10):
            assert not cond(view(progress=gap, v_train=0, seed=gap))
        assert cond.paused == cond.coin_flips

    def test_c0_reduces_to_asp(self):
        cond = PSSPPull(3, ConstantProbability(0.0))
        for gap in range(3, 10):
            assert cond(view(progress=gap, v_train=0, seed=gap))
        assert cond.paused == 0

    def test_pause_rate_close_to_c(self):
        cond = PSSPPull(3, ConstantProbability(0.3))
        rng = np.random.default_rng(0)
        blocked = 0
        trials = 3000
        v = view(progress=5, v_train=0)
        v.rng = rng
        for _ in range(trials):
            if not cond(v):
                blocked += 1
        assert blocked / trials == pytest.approx(0.3, abs=0.03)

    def test_dynamic_probability_grows_with_gap(self):
        cond = PSSPPull(3, DynamicProbability(1.0))
        rng = np.random.default_rng(7)

        def block_rate(gap, trials=2000):
            v = view(progress=gap, v_train=0)
            v.rng = rng
            return sum(0 if cond(v) else 1 for _ in range(trials)) / trials

        assert block_rate(3) == pytest.approx(0.5, abs=0.05)
        assert block_rate(10) > block_rate(3)

    def test_invalid_staleness(self):
        with pytest.raises(ValueError):
            PSSPPull(-1, ConstantProbability(0.5))


class TestDSPSPull:
    def test_widens_under_high_block_rate(self):
        cond = DSPSPull(s0=2, s_min=1, s_max=8, window=10, hi_rate=0.25, lo_rate=0.05)
        for _ in range(10):
            cond(view(progress=50, v_train=0))  # always blocked
        assert cond.s == 3
        assert cond.adjustments == 1

    def test_narrows_under_low_block_rate(self):
        cond = DSPSPull(s0=4, s_min=1, s_max=8, window=10, hi_rate=0.25, lo_rate=0.05)
        for _ in range(10):
            cond(view(progress=0, v_train=5))  # never blocked
        assert cond.s == 3

    def test_respects_bounds(self):
        cond = DSPSPull(s0=1, s_min=1, s_max=2, window=5)
        for _ in range(30):
            cond(view(progress=0, v_train=5))
        assert cond.s == 1
        for _ in range(30):
            cond(view(progress=50, v_train=0))
        assert cond.s == 2

    def test_invalid_config(self):
        for config in (
            dict(s0=0, s_min=1, s_max=4),
            dict(window=0),
            dict(hi_rate=0.1, lo_rate=0.5),
            dict(s0=2.5),
            dict(s0=True),
            dict(window=2.5),
            dict(window=True),
            dict(s_min=0.5),
        ):
            with pytest.raises(ValueError):
                DSPSPull(**config)


class TestPushConditions:
    def test_all_pushed(self):
        cond = AllPushedPush()
        assert not cond(view(progress=0, v_train=0, n=4, count={0: 3}))
        assert cond(view(progress=0, v_train=0, n=4, count={0: 4}))

    def test_all_pushed_reads_frontier_iteration(self):
        cond = AllPushedPush()
        assert not cond(view(progress=0, v_train=2, n=4, count={0: 4, 1: 4, 2: 1}))
        assert cond(view(progress=0, v_train=2, n=4, count={2: 4}))

    def test_quorum(self):
        cond = QuorumPush(3)
        assert not cond(view(v_train=0, n=8, count={0: 2}))
        assert cond(view(v_train=0, n=8, count={0: 3}))
        assert cond(view(v_train=0, n=8, count={0: 7}))

    def test_quorum_invalid(self):
        for n_t in (0, float("nan"), 2.5, True):
            with pytest.raises(ValueError):
                QuorumPush(n_t)

    def test_fraction_push(self):
        cond = FractionPush(0.75, 8)
        assert cond.n_t == 6
        with pytest.raises(ValueError):
            FractionPush(0.0, 8)

    def test_describe(self):
        assert "N_t" in QuorumPush(3).describe()
        assert "== N" in AllPushedPush().describe()


class TestPredicateAdapters:
    def test_predicate_pull(self):
        cond = PredicatePull(lambda v: v.gap < 5, staleness=5, name="my")
        assert cond(view(progress=4, v_train=0))
        assert not cond(view(progress=5, v_train=0))
        assert cond.staleness() == 5
        assert "my" in cond.describe()

    def test_predicate_push(self):
        cond = PredicatePush(lambda v: v.pushed(v.v_train) >= 2)
        assert cond(view(v_train=1, count={1: 2}))
        assert not cond(view(v_train=1, count={1: 1}))


class TestSyncView:
    def test_gap(self):
        assert view(progress=7, v_train=3).gap == 4

    def test_pushed_default_zero(self):
        assert view().pushed(99) == 0

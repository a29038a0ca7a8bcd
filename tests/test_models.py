"""Tests for the synchronization-model registry."""

import math

import pytest

from repro.core.conditions import DSPSPull, PSSPPull, SSPPull
from repro.core.models import (
    SUPPORTED_MODELS,
    asp,
    bsp,
    drop_stragglers,
    dsps,
    dynamic_pssp,
    make_model,
    pssp,
    ssp,
)
from repro.core.pssp import ConstantProbability


class TestFactories:
    def test_bsp(self):
        m = bsp()
        assert m.staleness == 0
        assert m.make_pull().staleness() == 0

    def test_asp(self):
        assert math.isinf(asp().staleness)

    def test_ssp_params(self):
        m = ssp(4)
        assert m.params["s"] == 4
        with pytest.raises(ValueError):
            ssp(-1)

    def test_pssp_params(self):
        m = pssp(3, 0.25)
        assert m.params == {"s": 3, "c": 0.25}
        with pytest.raises(ValueError):
            pssp(-1, 0.5)

    def test_dynamic_pssp_accepts_callable(self):
        m = dynamic_pssp(2, lambda v: 0.5)
        assert m.params["alpha"] == "fn"

    def test_drop_stragglers_defaults(self):
        m = drop_stragglers(8)
        assert m.params["n_t"] == 6  # 75% of 8
        with pytest.raises(ValueError):
            drop_stragglers(4, n_t=5)

    def test_describe_runs(self):
        for m in (bsp(), asp(), ssp(2), dsps(), drop_stragglers(4), pssp(2, 0.5)):
            assert m.name.split("(")[0] in m.describe()


class TestPerServerInstances:
    def test_dsps_state_not_shared_between_servers(self):
        model = dsps(s0=2, window=5)
        a: DSPSPull = model.make_pull()
        b: DSPSPull = model.make_pull()
        assert a is not b
        for _ in range(5):
            a.observe(blocked=True)
        assert a.s != b.s

    def test_pssp_counters_not_shared(self):
        model = pssp(1, 0.5)
        a: PSSPPull = model.make_pull()
        b: PSSPPull = model.make_pull()
        assert a is not b
        assert a.coin_flips == 0 and b.coin_flips == 0


class TestMakeModel:
    def test_all_supported_kinds_constructible(self):
        kwargs = {
            "bsp": {},
            "asp": {},
            "ssp": {"s": 2},
            "dsps": {},
            "drop_stragglers": {"n_t": 3},
            "pssp": {"s": 2, "c": 0.5},
            "dynamic_pssp": {"s": 2, "alpha": 0.5},
        }
        for kind in SUPPORTED_MODELS:
            m = make_model(kind, n_workers=4, **kwargs[kind])
            assert m.make_pull() is not None
            assert m.make_push() is not None

    def test_hyphen_normalized(self):
        assert make_model("drop-stragglers", n_workers=4).params["n_t"] == 3

    def test_drop_stragglers_requires_n(self):
        with pytest.raises(ValueError):
            make_model("drop_stragglers")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown synchronization model"):
            make_model("turbo")


NAN = float("nan")


class TestStalenessBounds:
    """A NaN bound is refused where the model or condition is built (it
    used to deadlock the run: no pull ever passes ``progress < v + nan``);
    an infinite one stays legal, it is ASP."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ssp(NAN),
            lambda: pssp(NAN, 0.5),
            lambda: dynamic_pssp(NAN),
            lambda: SSPPull(NAN),
            lambda: PSSPPull(NAN, ConstantProbability(0.5)),
            lambda: pssp(1, NAN),
        ],
        ids=["ssp", "pssp", "dynamic_pssp", "SSPPull", "PSSPPull", "pssp-c"],
    )
    def test_nan_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_infinite_bound_is_asp(self):
        assert math.isinf(ssp(math.inf).make_pull().staleness())
        assert SSPPull(math.inf).describe() == "ASP (always)"

"""Tests for shared utilities: RNG streams, records, tables."""

import numpy as np
import pytest

from repro.utils.checks import check_number, check_seed
from repro.utils.records import RunRecord, SeriesRecord
from repro.utils.rng import derive_rng
from repro.utils.tables import format_table


class TestChecks:
    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.int32(3), 3])
    def test_numpy_integers_are_integers(self, value):
        """``SimConfig(max_iter=np.int64(3))`` was refused as no int."""
        out = check_number("max_iter", value, 1, integer=True)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.5, np.float64(3.0), "3"])
    def test_booleans_and_non_integers_are_refused(self, value):
        with pytest.raises(ValueError, match="max_iter must be an int"):
            check_number("max_iter", value, 1, integer=True)

    def test_a_number_passes_through(self):
        assert check_number("x", 2.5) == 2.5

    @pytest.mark.parametrize("value", [0, 1, 2**32 - 1, np.int64(7), np.uint32(2**32 - 1)])
    def test_seeds_in_range(self, value):
        out = check_seed(value)
        assert out == value and type(out) is int

    # 2**32 ran seed 0 and -(2**32) + 1 seed 1: the RNG streams key on
    # the seed modulo 2**32.
    @pytest.mark.parametrize(
        "value", [2**32, -(2**32) + 1, -1, 2.5, True, np.bool_(False), float("nan"), "0", None]
    )
    def test_seeds_refused(self, value):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*32\)"):
            check_seed(value)


class TestRng:
    def test_same_stream_identical(self):
        a = derive_rng(7, "worker", 3).random(5)
        b = derive_rng(7, "worker", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = derive_rng(7, "worker", 3).random(5)
        b = derive_rng(7, "worker", 4).random(5)
        c = derive_rng(8, "worker", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_and_int_keys(self):
        a = derive_rng(1, "compute", 0).random()
        b = derive_rng(1, "step", 0).random()
        assert a != b


class TestRecords:
    def test_run_record_roundtrip(self):
        r = RunRecord("a", params={"n": 4}, metrics={"acc": 0.9})
        r2 = RunRecord.from_dict(r.to_dict())
        assert r2.name == "a"
        assert r2.metrics["acc"] == 0.9

    def test_metric_default(self):
        r = RunRecord("a", metrics={"x": 1.0})
        assert r.metric("missing", default=5.0) == 5.0
        with pytest.raises(KeyError):
            r.metric("missing")

    def test_series_append_and_final(self):
        s = SeriesRecord("s")
        s.append(1, 0.5)
        s.append(2, 0.8)
        assert len(s) == 2
        assert s.final() == 0.8
        assert s.best() == 0.8

    def test_series_empty_errors(self):
        s = SeriesRecord("s")
        with pytest.raises(ValueError):
            s.final()
        with pytest.raises(ValueError):
            s.best()

    def test_series_roundtrip(self):
        s = SeriesRecord("s", x=[1], y=[2], x_label="t", y_label="acc")
        s2 = SeriesRecord.from_dict(s.to_dict())
        assert s2.x == [1.0] and s2.y_label == "acc"


class TestAsciiPlot:
    def _series(self):
        return SeriesRecord("acc", x=[0, 10, 20, 30], y=[0.1, 0.4, 0.6, 0.7])

    def test_renders_with_axes_and_legend(self):
        from repro.utils.plots import ascii_plot

        out = ascii_plot([self._series()], width=40, height=8, title="T")
        assert "T" in out
        assert "acc" in out  # legend
        assert "o" in out  # data glyph
        assert "0.7" in out and "0.1" in out  # y labels

    def test_multiple_series_distinct_glyphs(self):
        from repro.utils.plots import ascii_plot

        other = SeriesRecord("b", x=[0, 30], y=[0.7, 0.1])
        out = ascii_plot([self._series(), other], width=40, height=8)
        assert "o=" in out and "x=" in out

    def test_constant_series_ok(self):
        from repro.utils.plots import ascii_plot

        flat = SeriesRecord("flat", x=[0, 1], y=[0.5, 0.5])
        assert "flat" in ascii_plot([flat], width=20, height=5)

    def test_validation(self):
        from repro.utils.plots import ascii_plot

        with pytest.raises(ValueError):
            ascii_plot([SeriesRecord("empty")])
        with pytest.raises(ValueError):
            ascii_plot([self._series()], width=4, height=2)


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", None]], title="T")
        assert "T" in out
        assert "a" in out and "2.5" in out
        assert "-" in out  # the None cell and separators

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_large_and_small_floats(self):
        out = format_table(["v"], [[1e9], [1e-9], [0.0]])
        assert "e+" in out and "e-" in out and "0" in out


class TestMetricLookup:
    def test_explicit_none_default_honored(self):
        r = RunRecord("a", metrics={"x": 1.0})
        assert r.metric("missing", default=None) is None
        assert r.metric("x", default=None) == 1.0

    def test_missing_key_error_names_record_and_keys(self):
        r = RunRecord("arm", metrics={"acc": 0.9, "time": 1.0})
        with pytest.raises(KeyError, match="available"):
            r.metric("speed")
        try:
            r.metric("speed")
        except KeyError as exc:
            msg = str(exc)
            assert "arm" in msg and "acc" in msg and "time" in msg

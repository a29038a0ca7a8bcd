"""Property tests: result records survive JSON round trips losslessly.

The run cache and the sweep executor's worker processes both transport
``ExperimentResult`` as JSON, so ``loads(dumps(x)) == x`` is what makes
cached and pooled runs byte-identical to inline ones.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentResult
from repro.utils.records import RunRecord, SeriesRecord

# JSON-native scalars a result row may carry.  Floats are restricted to
# finite values: json.dumps rejects NaN/inf under allow_nan=False and
# NaN breaks == anyway.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)

_names = st.text(min_size=1, max_size=30)

_metrics = st.dictionaries(
    _names, st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=4
)

_run_records = st.builds(
    RunRecord,
    name=_names,
    params=st.dictionaries(_names, _scalars, max_size=3),
    metrics=_metrics,
)

_series_records = st.builds(
    SeriesRecord,
    name=_names,
    x=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=6),
    y=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=6),
    x_label=_names,
    y_label=_names,
)

_experiment_results = st.builds(
    ExperimentResult,
    experiment=_names,
    headers=st.lists(_names, max_size=4),
    rows=st.lists(st.lists(_scalars, max_size=4), max_size=4),
    records=st.lists(_run_records, max_size=3),
    series=st.lists(_series_records, max_size=3),
    notes=st.lists(st.text(max_size=30), max_size=3),
)


def hop(x):
    """``x`` through JSON, as the run cache stores it and a pool worker
    returns it: ``to_dict``, dumps, loads, ``from_dict``."""
    return type(x).from_dict(json.loads(json.dumps(x.to_dict())))


@settings(max_examples=100)
@given(_run_records)
def test_run_record_round_trips(rec):
    assert hop(rec) == rec


@settings(max_examples=100)
@given(_series_records)
def test_series_record_round_trips(series):
    assert hop(series) == series


@settings(max_examples=100)
@given(_experiment_results)
def test_experiment_result_round_trips(result):
    assert hop(result) == result


@settings(max_examples=100)
@given(_experiment_results)
def test_json_form_is_stable(result):
    # dumps(loads(dumps(x))) == dumps(x): byte-stable across cache hops.
    once = json.dumps(result.to_dict(), indent=2)
    assert json.dumps(hop(result).to_dict(), indent=2) == once

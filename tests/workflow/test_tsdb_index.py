"""The TSDB's label index answers exactly what a linear scan answers.

``TimeSeriesDB.query`` filters the shortest indexed candidate list
instead of walking every series; over generated label sets (superset
labels, shared values across labels and metrics, missing labels) its
results, their order, ``query_one``'s ``AmbiguousSeries`` and
``metrics()`` must equal a scan of every series in creation order.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.workflow.tsdb import AmbiguousSeries, SeriesNotFound, TimeSeriesDB
from tests.strategies import DERANDOMIZED

METRICS = ("cpu", "memory", "pm_latency")
LABELS = ("testbed", "sut", "build", "chain")
VALUES = ("a", "b", "c", "1")

label_sets = st.dictionaries(st.sampled_from(LABELS), st.sampled_from(VALUES), max_size=4)
selectors = st.tuples(st.sampled_from(METRICS + ("absent",)), label_sets)


def reference_query(db, metric, matchers):
    """The linear scan the index replaced."""
    matchers = {str(k): str(v) for k, v in matchers.items()}
    return [
        series
        for series in db._series.values()
        if series.metric == metric and all(series.labels.get(k) == v for k, v in matchers.items())
    ]


@DERANDOMIZED
@given(
    writes=st.lists(st.tuples(st.sampled_from(METRICS), label_sets, st.booleans()), max_size=40),
    queries=st.lists(selectors, min_size=1, max_size=12),
)
def test_indexed_query_equals_linear_scan(writes, queries):
    db = TimeSeriesDB(name="index-property")
    for step, (metric, labels, bulk) in enumerate(writes):
        if bulk:
            db.write_array(metric, labels, np.array([2.0 * step, 2.0 * step + 1]), np.ones(2))
        else:
            db.write(metric, labels, float(2 * step), 1.0)
    assert db.metrics() == sorted({series.metric for series in db._series.values()})
    for metric, matchers in queries + [(metric, {}) for metric in METRICS]:
        expected = reference_query(db, metric, matchers)
        got = db.query(metric, matchers)
        assert [id(series) for series in got] == [id(series) for series in expected]
        if len(expected) == 1:
            assert db.query_one(metric, matchers) is expected[0]
        else:
            error = AmbiguousSeries if expected else SeriesNotFound
            try:
                db.query_one(metric, matchers)
            except error:
                pass
            else:
                raise AssertionError(f"query_one({metric}, {matchers}) did not raise {error}")


def test_query_results_are_not_the_index():
    db = TimeSeriesDB(name="index-alias")
    db.write("cpu", {"testbed": "a"}, 0.0, 1.0)
    db.query("cpu").clear()
    db.query("cpu", {"testbed": "a"}).clear()
    assert len(db.query("cpu")) == 1
    assert len(db.query("cpu", {"testbed": "a"})) == 1


def test_bulk_extend_stores_python_floats():
    db = TimeSeriesDB(name="index-extend")
    db.write_array("cpu", {}, np.array([0.0, 1.5]), np.array([3.0, 4.25], dtype=np.float32))
    (series,) = db.query("cpu")
    assert series.timestamps == [0.0, 1.5] and series.values == [3.0, 4.25]
    assert all(type(value) is float for value in series.timestamps + series.values)

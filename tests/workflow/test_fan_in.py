"""A batch's fan-in stores its alarms in one transaction, as a serial loop would.

``PredictionPipeline.fan_in`` pushes every alarm of a batch with one
``AlarmStore.push_many`` at the end. Alarm ids, stored rows and each
execution's early-termination verdict must still be what pushing one
execution's alarms at a time gives, also when executions of one batch
share an environment.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.anomaly import Alarm, AnomalyReport
from repro.data import Environment, TestExecution
from repro.workflow import AlarmStore, PredictionPipeline
from tests.strategies import DERANDOMIZED

N_LAGS = 3
ENVIRONMENTS = [Environment(f"tb-{i}", "sut", "tc", f"b{i % 2}") for i in range(3)]


def _scored(n_alarms: int) -> tuple:
    alarms = [Alarm(start=2 * i, end=2 * i + 1, peak_deviation=6.0 + i) for i in range(n_alarms)]
    steps = 2 * n_alarms + 2
    report = AnomalyReport(flags=np.zeros(steps, bool), alarms=alarms, errors=np.zeros(steps), gamma=2.0)
    return report, np.zeros(steps), np.zeros(steps)


@DERANDOMIZED
@given(
    rows=st.lists(st.tuples(st.integers(0, len(ENVIRONMENTS) - 1), st.integers(0, 3)), min_size=1, max_size=8),
    prior=st.integers(0, 2),
    threshold=st.one_of(st.none(), st.integers(1, 4)),
)
def test_batch_fan_in_equals_one_execution_at_a_time(rows, prior, threshold):
    executions = [
        TestExecution(environment=ENVIRONMENTS[env], features=np.zeros((1, 1)), cpu=np.zeros(1))
        for env, _ in rows
    ]
    scored = [_scored(n_alarms) for _, n_alarms in rows]
    stores = AlarmStore(), AlarmStore()
    for store in stores:
        for _ in range(prior):
            store.push(ENVIRONMENTS[0], 0, 1, 1.0, 2.0)
    batched, serial = (PredictionPipeline(None, store, termination_threshold=threshold) for store in stores)

    got = batched.fan_in(executions, scored, model_version=1, n_lags=N_LAGS)
    want = [
        serial.fan_in([execution], [triple], model_version=1, n_lags=N_LAGS)[0]
        for execution, triple in zip(executions, scored)
    ]
    assert [run.alarm_ids for run in got] == [run.alarm_ids for run in want]
    assert [run.terminated_early for run in got] == [run.terminated_early for run in want]
    assert stores[0].fetch() == stores[1].fetch()


def test_a_batch_counts_its_earlier_alarms_of_the_same_environment():
    """Two executions of one environment, one alarm each, threshold 2: the
    second must terminate, though neither alarm is stored when it is checked."""
    execution = TestExecution(environment=ENVIRONMENTS[0], features=np.zeros((1, 1)), cpu=np.zeros(1))
    pipeline = PredictionPipeline(None, AlarmStore(), termination_threshold=2)
    runs = pipeline.fan_in([execution, execution], [_scored(1), _scored(1)], model_version=1, n_lags=N_LAGS)
    assert [run.terminated_early for run in runs] == [False, True]
    assert [run.alarm_ids for run in runs] == [[1], [2]]

"""Contextual anomaly detection tests (gamma rule, 5% filter, alarm scoring)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Alarm,
    AlarmScore,
    ContextualAnomalyDetector,
    GaussianErrorModel,
    merge_flags_into_alarms,
    score_alarms,
)
from repro.obs import get_observability
from tests.strategies import DERANDOMIZED, detection_rows

#: Counters the detector moves, per row or per group.
_DETECTOR_COUNTERS = (
    "repro_detector_detections_total",
    "repro_detector_alarms_total",
    "repro_detector_flagged_timesteps_total",
    "repro_detector_filtered_timesteps_total",
)


def _counter_deltas(run) -> list[float]:
    """What ``run()`` adds to the detector counters, metrics switched on."""
    registry = get_observability().registry
    was_enabled, registry.enabled = registry.enabled, True
    try:
        counters = [registry.get(name) for name in _DETECTOR_COUNTERS]
        before = [counter.value for counter in counters]
        run()
        return [counter.value - b for counter, b in zip(counters, before)]
    finally:
        registry.enabled = was_enabled


class TestGaussianErrorModel:
    def test_fit_mean_sigma(self):
        errors = np.array([1.0, 2.0, 3.0, 4.0])
        model = GaussianErrorModel.fit(errors)
        assert model.mu == pytest.approx(2.5)
        # Sample std: chains have few prior builds, so sigma is Bessel-
        # corrected (ddof=1) to avoid the small-n low bias that over-alarms.
        assert model.sigma == pytest.approx(errors.std(ddof=1))
        assert model.sigma > errors.std()

    def test_fit_uses_sample_std_not_population(self):
        errors = np.array([0.0, 2.0])
        model = GaussianErrorModel.fit(errors)
        assert model.sigma == pytest.approx(np.sqrt(2.0))  # ddof=1, not 1.0

    def test_zscore(self):
        model = GaussianErrorModel(mu=2.0, sigma=0.5)
        np.testing.assert_allclose(model.zscore(np.array([2.0, 3.0])), [0.0, 2.0])

    def test_is_anomalous_two_sided(self):
        model = GaussianErrorModel(mu=0.0, sigma=1.0)
        flags = model.is_anomalous(np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), gamma=2.0)
        np.testing.assert_array_equal(flags, [True, False, False, False, True])

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(0, 1, 500)
        model = GaussianErrorModel.fit(errors)
        counts = [model.is_anomalous(errors, gamma).sum() for gamma in (1.0, 2.0, 3.0)]
        assert counts[0] >= counts[1] >= counts[2]

    def test_degenerate_sigma_floor(self):
        model = GaussianErrorModel.fit(np.array([1.0, 1.0, 1.0]))
        assert model.sigma > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianErrorModel.fit(np.array([1.0]))
        with pytest.raises(ValueError):
            GaussianErrorModel.fit(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            GaussianErrorModel(0, 1).is_anomalous(np.zeros(3), gamma=0.0)


class TestAlarmMerging:
    def test_consecutive_flags_merge(self):
        flags = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        deviations = np.arange(10, dtype=float)
        alarms = merge_flags_into_alarms(flags, deviations)
        assert [(a.start, a.end) for a in alarms] == [(1, 3), (4, 5), (7, 10)]
        assert alarms[0].peak_deviation == 2.0
        assert alarms[2].peak_deviation == 9.0

    def test_trailing_alarm_closed(self):
        alarms = merge_flags_into_alarms(np.array([0, 0, 1], dtype=bool), np.ones(3))
        assert alarms[-1].end == 3

    def test_no_flags_no_alarms(self):
        assert merge_flags_into_alarms(np.zeros(5, dtype=bool), np.zeros(5)) == []

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            merge_flags_into_alarms(np.zeros(5, dtype=bool), np.zeros(4))

    def test_alarm_validation(self):
        with pytest.raises(ValueError):
            Alarm(start=5, end=5, peak_deviation=1.0)
        with pytest.raises(ValueError):
            Alarm(start=-1, end=3, peak_deviation=1.0)

    def test_alarm_overlap(self):
        alarm = Alarm(start=5, end=10, peak_deviation=1.0)
        assert alarm.overlaps_interval(9, 20)
        assert alarm.overlaps_interval(0, 6)
        assert not alarm.overlaps_interval(10, 15)
        assert alarm.length == 5

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_property_alarms_partition_flags(self, flag_list):
        """Union of alarm intervals == flagged timesteps; alarms are disjoint."""
        flags = np.array(flag_list, dtype=bool)
        alarms = merge_flags_into_alarms(flags, np.ones(len(flags)))
        covered = np.zeros(len(flags), dtype=bool)
        for alarm in alarms:
            assert not covered[alarm.start : alarm.end].any()  # disjoint
            covered[alarm.start : alarm.end] = True
        np.testing.assert_array_equal(covered, flags)

    @staticmethod
    def _merge_by_loop(flags, deviations):
        """The step-by-step merge, kept as the reference."""
        alarms, start = [], None
        for i, flagged in enumerate(flags):
            if flagged and start is None:
                start = i
            elif not flagged and start is not None:
                alarms.append(Alarm(start, i, float(np.abs(deviations[start:i]).max())))
                start = None
        if start is not None:
            alarms.append(Alarm(start, len(flags), float(np.abs(deviations[start:]).max())))
        return alarms

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(-100, 100)), max_size=60))
    def test_property_equals_the_step_loop(self, steps):
        flags = np.array([flagged for flagged, _ in steps], dtype=bool)
        deviations = np.array([deviation for _, deviation in steps], dtype=np.float64)
        got = merge_flags_into_alarms(flags, deviations)
        assert got == self._merge_by_loop(flags, deviations)
        assert all(type(alarm.start) is int and type(alarm.end) is int for alarm in got)


class TestContextualAnomalyDetector:
    def _series(self, n=200, fault=(120, 140), magnitude=15.0, noise=1.0, seed=0):
        rng = np.random.default_rng(seed)
        observed = 50.0 + rng.normal(0, noise, n)
        predicted = np.full(n, 50.0)
        observed[fault[0] : fault[1]] += magnitude
        return predicted, observed

    def test_detects_injected_shift(self):
        predicted, observed = self._series()
        detector = ContextualAnomalyDetector(gamma=2.0)
        error_model = detector.fit_error_model(predicted[:100], observed[:100])
        report = detector.detect(predicted, observed, error_model)
        assert report.n_alarms >= 1
        assert any(a.overlaps_interval(120, 140) for a in report.alarms)
        # Nothing flagged well outside the fault.
        assert not report.flags[:100].any()

    def test_absolute_filter_suppresses_small_deviations(self):
        # A tight error model would flag a 3%-CPU shift, but the 5% absolute
        # filter (§4.2.2) must suppress it.
        predicted, observed = self._series(magnitude=3.0, noise=0.2)
        detector = ContextualAnomalyDetector(gamma=2.0, abs_threshold=5.0)
        error_model = detector.fit_error_model(predicted[:100], observed[:100])
        report = detector.detect(predicted, observed, error_model)
        assert report.n_alarms == 0
        unfiltered = ContextualAnomalyDetector(gamma=2.0, abs_threshold=0.0)
        assert unfiltered.detect(predicted, observed, error_model).n_alarms >= 1

    def test_gamma_tradeoff(self):
        # Higher gamma -> stricter -> fewer or equal flags (§3.2).
        predicted, observed = self._series(magnitude=8.0, noise=2.5)
        flags = []
        for gamma in (1.0, 2.0, 3.0):
            detector = ContextualAnomalyDetector(gamma=gamma)
            error_model = detector.fit_error_model(predicted[:100], observed[:100])
            flags.append(detector.detect(predicted, observed, error_model).flags.sum())
        assert flags[0] >= flags[1] >= flags[2]

    def test_self_calibrated_mode(self):
        predicted, observed = self._series()
        detector = ContextualAnomalyDetector(gamma=2.0)
        report = detector.detect_self_calibrated(predicted, observed)
        assert any(a.overlaps_interval(120, 140) for a in report.alarms)

    def test_clean_series_rarely_flagged(self):
        rng = np.random.default_rng(1)
        observed = 50.0 + rng.normal(0, 1.0, 300)
        predicted = np.full(300, 50.0)
        detector = ContextualAnomalyDetector(gamma=3.0)
        error_model = detector.fit_error_model(predicted[:150], observed[:150])
        report = detector.detect(predicted, observed, error_model)
        assert report.n_alarms == 0  # |error| never near 5% with sigma=1

    def test_validation(self):
        with pytest.raises(ValueError):
            ContextualAnomalyDetector(gamma=0)
        with pytest.raises(ValueError):
            ContextualAnomalyDetector(abs_threshold=-1)
        detector = ContextualAnomalyDetector()
        with pytest.raises(ValueError):
            detector.detect(np.zeros(3), np.zeros(4), GaussianErrorModel(0, 1))
        with pytest.raises(ValueError):
            detector.fit_error_model(np.zeros(3), np.zeros(4))

    def test_report_properties(self):
        predicted, observed = self._series()
        detector = ContextualAnomalyDetector(gamma=2.0)
        report = detector.detect_self_calibrated(predicted, observed)
        assert report.gamma == 2.0
        assert report.errors.shape == predicted.shape


class TestDetectMany:
    """Grouped detection equals per-row ``detect``/``detect_self_calibrated``."""

    @staticmethod
    def _per_row(detector, rows):
        return [
            detector.detect_self_calibrated(predicted, observed)
            if model is None
            else detector.detect(predicted, observed, model)
            for predicted, observed, model, _ in rows
        ]

    @staticmethod
    def _grouped(detector, rows):
        predicted, observed, models, _ = zip(*rows)
        return detector.detect_many(list(predicted), list(observed), list(models))

    @DERANDOMIZED
    @given(rows=detection_rows())
    def test_equals_per_row_detection(self, rows):
        detector = ContextualAnomalyDetector(gamma=2.0)
        got, want = [], []
        got_counts = _counter_deltas(lambda: got.extend(self._grouped(detector, rows)))
        want_counts = _counter_deltas(lambda: want.extend(self._per_row(detector, rows)))
        assert len(got) == len(want)
        for got_report, want_report in zip(got, want):
            assert got_report.flags.dtype == want_report.flags.dtype
            assert got_report.flags.tobytes() == want_report.flags.tobytes()
            assert got_report.errors.dtype == want_report.errors.dtype
            assert got_report.errors.tobytes() == want_report.errors.tobytes()
            assert got_report.alarms == want_report.alarms
            assert got_report.gamma == want_report.gamma
        assert got_counts == want_counts

    @DERANDOMIZED
    @given(rows=detection_rows(self_calibrated=True))
    def test_self_calibrated_group_equals_per_row_detection(self, rows):
        """The served batch's shape takes the group path without grouping."""
        detector = ContextualAnomalyDetector(gamma=1.0)
        got = self._grouped(detector, rows)
        want = self._per_row(detector, rows)
        for got_report, want_report in zip(got, want, strict=True):
            assert got_report.flags.tobytes() == want_report.flags.tobytes()
            assert got_report.errors.tobytes() == want_report.errors.tobytes()
            assert got_report.alarms == want_report.alarms

    def test_patterns_reach_their_alarms(self):
        # One batch with every pattern the strategy draws, checked by hand:
        # nothing flagged, every step flagged, and alarms on either edge.
        observed = np.full(6, 50.0)
        model = GaussianErrorModel(mu=0.0, sigma=1.0)
        spiked_first, spiked_last = observed.copy(), observed.copy()
        spiked_first[0] += 50.0
        spiked_last[-1] -= 50.0
        rows = [
            (observed.copy(), observed, None, "clear"),
            (observed + 40.0, observed, model, "all_flagged"),
            (spiked_first, observed, model, "first_step"),
            (spiked_last, observed, model, "last_step"),
        ]
        detector = ContextualAnomalyDetector(gamma=2.0)
        clear, flagged, first, last = self._grouped(detector, rows)
        assert clear.alarms == [] and not clear.flags.any()
        assert flagged.alarms == [Alarm(start=0, end=6, peak_deviation=40.0)]
        assert first.alarms == [Alarm(start=0, end=1, peak_deviation=50.0)]
        assert last.alarms == [Alarm(start=5, end=6, peak_deviation=50.0)]
        assert [report.alarms for report in self._per_row(detector, rows)] == [
            clear.alarms, flagged.alarms, first.alarms, last.alarms
        ]


class TestAlarmScoring:
    def test_true_and_false_alarms(self):
        truth = np.zeros(100, dtype=bool)
        truth[40:50] = True
        alarms = [
            Alarm(42, 46, 10.0),  # overlaps truth -> correct
            Alarm(70, 75, 8.0),  # false positive
        ]
        score = score_alarms(alarms, truth)
        assert score.n_alarms == 2
        assert score.correct_alarms == 1
        assert score.true_alarm_rate == pytest.approx(0.5)

    def test_no_alarms(self):
        score = score_alarms([], np.zeros(10, dtype=bool))
        assert score.true_alarm_rate == 0.0

    def test_perfect_detector(self):
        truth = np.zeros(50, dtype=bool)
        truth[10:20] = True
        score = score_alarms([Alarm(12, 18, 5.0)], truth)
        assert score.true_alarm_rate == 1.0

    def test_scores_add(self):
        a = AlarmScore(n_alarms=3, correct_alarms=2)
        b = AlarmScore(n_alarms=1, correct_alarms=1)
        total = a + b
        assert total.n_alarms == 4
        assert total.correct_alarms == 3
        assert total.true_alarm_rate == pytest.approx(0.75)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_rates_sum_to_one_when_alarms_exist(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        truth = rng.random(n) < 0.2
        flags = rng.random(n) < 0.3
        alarms = merge_flags_into_alarms(flags, np.ones(n))
        score = score_alarms(alarms, truth)
        assert 0 <= score.correct_alarms <= score.n_alarms

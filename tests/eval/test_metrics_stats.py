"""Metrics, CDF, running averages, and paired t-test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import RunningAverage, empirical_cdf, mae, mse, paired_t_test


class TestErrorMetrics:
    def test_mae_mse_values(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.array([2.0, 2.0, 1.0])
        assert mae(y, p) == pytest.approx(1.0)
        assert mse(y, p) == pytest.approx((1 + 0 + 4) / 3)

    def test_perfect_prediction(self):
        y = np.arange(5.0)
        assert mae(y, y) == 0.0
        assert mse(y, y) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            mse(np.zeros(0), np.zeros(0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10_000))
    def test_property_mse_bounds_mae(self, n, seed):
        """RMS >= MAE (Jensen), so MSE >= MAE^2."""
        rng = np.random.default_rng(seed)
        y, p = rng.standard_normal(n), rng.standard_normal(n)
        assert mse(y, p) >= mae(y, p) ** 2 - 1e-12


class TestEmpiricalCDF:
    def test_sorted_and_monotone(self):
        values, fractions = empirical_cdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(values, [1, 2, 3])
        np.testing.assert_allclose(fractions, [1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_property_cdf_reaches_one(self, values):
        ordered, fractions = empirical_cdf(values)
        assert fractions[-1] == pytest.approx(1.0)
        assert (np.diff(ordered) >= 0).all()


class TestRunningAverage:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100)
        acc = RunningAverage()
        for value in values:
            acc.update(float(value))
        assert acc.mean == pytest.approx(values.mean())
        assert acc.std == pytest.approx(values.std())
        assert acc.count == 100

    def test_single_value(self):
        acc = RunningAverage()
        acc.update(5.0)
        assert acc.mean == 5.0
        assert acc.std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RunningAverage().mean


class TestPairedTTest:
    def test_identical_samples_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(30)
        result = paired_t_test(a, a + rng.normal(0, 1e-9, 30))
        assert not result.significant

    def test_clear_difference_significant(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(30)
        b = a + 1.0 + rng.normal(0, 0.1, 30)
        result = paired_t_test(a, b)
        assert result.significant
        assert result.mean_difference == pytest.approx(-1.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_str_rendering(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(10)
        b = a + 2.0 + rng.normal(0, 0.2, 10)
        text = str(paired_t_test(a, b))
        assert "t=" in text and "p=" in text

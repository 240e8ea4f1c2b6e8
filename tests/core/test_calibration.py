"""Error-calibration and quantile-detector tests (§3.2 caveat)."""

import numpy as np
import pytest

from repro.core import (
    ContextualAnomalyDetector,
    GaussianErrorModel,
    QuantileErrorModel,
    calibration_report,
    gamma_to_quantile,
)


class TestGammaToQuantile:
    def test_known_values(self):
        assert gamma_to_quantile(1.0) == pytest.approx(0.1587, abs=1e-4)
        assert gamma_to_quantile(2.0) == pytest.approx(0.0228, abs=1e-4)
        assert gamma_to_quantile(3.0) == pytest.approx(0.00135, abs=1e-5)

    def test_monotone_decreasing(self):
        values = [gamma_to_quantile(g) for g in (0.5, 1.0, 2.0, 3.0)]
        assert values == sorted(values, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gamma_to_quantile(0.0)


class TestCalibrationReport:
    def test_gaussian_errors_pass(self):
        errors = np.random.default_rng(0).normal(0, 2, 3000)
        report = calibration_report(errors)
        assert report.looks_gaussian
        # Empirical tails match Gaussian predictions closely.
        for empirical, predicted in report.tail_mass.values():
            assert empirical == pytest.approx(predicted, abs=0.02)

    def test_heavy_tailed_errors_flagged(self):
        errors = np.random.default_rng(1).standard_t(df=3, size=3000)
        report = calibration_report(errors)
        assert not report.looks_gaussian
        assert report.excess_kurtosis > 1.0
        # At gamma=3 the empirical tail far exceeds the Gaussian mass.
        empirical, predicted = report.tail_mass[3.0]
        assert empirical > predicted * 2

    def test_table_text(self):
        errors = np.random.default_rng(2).normal(0, 1, 100)
        text = calibration_report(errors).table()
        assert "normality" in text and "γ" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_report(np.zeros(5))
        with pytest.raises(ValueError):
            calibration_report(np.array([np.nan] * 30))


class TestQuantileErrorModel:
    def test_agrees_with_gaussian_on_normal_errors(self):
        errors = np.random.default_rng(0).normal(0, 2, 5000)
        gaussian = GaussianErrorModel.fit(errors)
        quantile = QuantileErrorModel.fit(errors)
        probe = np.linspace(-8, 8, 400)
        gaussian_flags = gaussian.is_anomalous(probe, 2.0)
        quantile_flags = quantile.is_anomalous(probe, 2.0)
        agreement = (gaussian_flags == quantile_flags).mean()
        assert agreement > 0.97

    def test_heavy_tails_widen_bounds(self):
        errors = np.random.default_rng(1).standard_t(df=3, size=5000)
        gaussian = GaussianErrorModel.fit(errors)
        quantile = QuantileErrorModel.fit(errors)
        lower, upper = quantile.bounds(3.0)
        # Quantile bounds at gamma=3 must be wider than mu +/- 3 sigma is
        # NOT guaranteed... but the quantile model flags ~the right mass:
        flagged = quantile.is_anomalous(errors, 3.0).mean()
        assert flagged == pytest.approx(2 * gamma_to_quantile(3.0), rel=0.5)
        # while the Gaussian model over-flags heavy tails.
        assert gaussian.is_anomalous(errors, 3.0).mean() > flagged

    def test_bounds_ordered_and_monotone_in_gamma(self):
        errors = np.random.default_rng(2).normal(0, 1, 500)
        model = QuantileErrorModel.fit(errors)
        l1, u1 = model.bounds(1.0)
        l2, u2 = model.bounds(2.0)
        assert l1 < u1 and l2 < u2
        assert l2 <= l1 and u2 >= u1

    def test_plugs_into_detector(self):
        rng = np.random.default_rng(3)
        history_errors = rng.normal(0, 1.5, 400)
        model = QuantileErrorModel.fit(history_errors)
        detector = ContextualAnomalyDetector(gamma=2.0)
        observed = 50.0 + rng.normal(0, 1.5, 200)
        observed[100:110] += 20.0
        predicted = np.full(200, 50.0)
        report = detector.detect(predicted, observed, model)
        assert any(a.overlaps_interval(100, 110) for a in report.alarms)

    def test_zscore_robust(self):
        errors = np.random.default_rng(4).normal(0, 1, 1000)
        model = QuantileErrorModel.fit(errors)
        z = model.zscore(np.array([0.0, 3.0]))
        assert abs(z[0]) < 0.2
        assert z[1] > 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileErrorModel.fit(np.zeros(5))
        with pytest.raises(ValueError):
            QuantileErrorModel.fit(np.array([np.inf] * 20))

"""SVR, PCA, scalers, and label-encoder tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    PCA,
    SVR,
    LabelEncoder,
    StandardScaler,
)
from repro.ml.svr import POLY_DEGREE, _kernel_matrix

RNG = np.random.default_rng(31)


class TestSVR:
    def test_linear_kernel_fits_linear_data(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 2))
        y = 3.0 * X[:, 0] - X[:, 1] + 0.5
        model = SVR(alpha=0.001, kernel="linear", epsilon=0.1).fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.05

    def test_rbf_kernel_fits_nonlinear_data(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (150, 1))
        y = np.sin(2 * X[:, 0])
        model = SVR(alpha=0.001, kernel="rbf", epsilon=0.1, gamma=1.0).fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.05

    def test_poly_kernel_runs(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] ** 2
        model = SVR(alpha=0.01, kernel="poly", gamma=1.0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()
        # the kernel is the degree-POLY_DEGREE polynomial (gamma = 1)
        np.testing.assert_allclose(
            _kernel_matrix("poly", X[:3], X[:3], 1.0),
            (X[:3] @ X[:3].T + 1.0) ** POLY_DEGREE,
        )

    def test_epsilon_tube_tolerates_small_errors(self):
        # With a wide tube, residuals within epsilon carry no loss, so the
        # model prefers the flattest function: near-constant predictions.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 1))
        y = 0.05 * X[:, 0] + 1.0
        wide = SVR(alpha=1.0, kernel="linear", epsilon=1.0).fit(X, y)
        spread = np.ptp(wide.predict(X))
        assert spread < 0.05

    def test_larger_alpha_flattens_prediction(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 1))
        y = 2.0 * X[:, 0]
        weak = SVR(alpha=0.001, kernel="linear", epsilon=0.1).fit(X, y)
        strong = SVR(alpha=100.0, kernel="linear", epsilon=0.1).fit(X, y)
        assert np.ptp(strong.predict(X)) < np.ptp(weak.predict(X))

    def test_gamma_scale_handles_constant_features(self):
        X = np.ones((20, 2))
        y = RNG.standard_normal(20)
        model = SVR(kernel="rbf").fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SVR(alpha=0.0)
        with pytest.raises(ValueError):
            SVR(epsilon=-0.1)
        with pytest.raises(ValueError):
            SVR(kernel="sigmoid")

    def test_wrong_feature_count(self):
        X = RNG.standard_normal((30, 3))
        model = SVR(kernel="linear").fit(X, X[:, 0])
        with pytest.raises(ValueError):
            model.predict(X[:, :2])


class TestPCA:
    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0]) / 5.0
        X = np.outer(rng.standard_normal(300), direction) + 0.01 * rng.standard_normal((300, 2))
        pca = PCA(n_components=1).fit(X)
        component = pca.components_[0]
        assert abs(abs(component @ direction) - 1.0) < 1e-3

    def test_transform_centers_data(self):
        X = RNG.standard_normal((100, 3)) + 10.0
        Z = PCA(n_components=2).fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)

    def test_explained_variance_ratio_sums_to_one_full_rank(self):
        X = RNG.standard_normal((50, 3))
        pca = PCA(n_components=3).fit(X)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0)

    def test_components_orthonormal(self):
        X = RNG.standard_normal((60, 4))
        pca = PCA(n_components=3).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_too_many_components_rejected(self):
        with pytest.raises(ValueError):
            PCA(n_components=5).fit(RNG.standard_normal((10, 3)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PCA().transform(np.zeros((2, 2)))


class TestScalers:
    def test_standard_scaler_zero_mean_unit_var(self):
        X = RNG.standard_normal((200, 4)) * 5 + 3
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_standard_scaler_constant_column(self):
        X = np.hstack([RNG.standard_normal((50, 1)), np.full((50, 1), 7.0)])
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z[:, 1], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_feature_count_mismatch(self):
        scaler = StandardScaler().fit(RNG.standard_normal((10, 3)))
        with pytest.raises(ValueError):
            scaler.transform(RNG.standard_normal((5, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10_000))
    def test_property_standard_scaler_idempotent_stats(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3)) * rng.uniform(0.5, 5)
        Z = StandardScaler().fit_transform(X)
        Z2 = StandardScaler().fit_transform(Z)
        np.testing.assert_allclose(Z, Z2, atol=1e-8)


class TestLabelEncoder:
    def test_fit_transform_roundtrip(self):
        values = ["Testbed_15", "Testbed_08", "Testbed_15", "Testbed_11"]
        encoder = LabelEncoder().fit(values)
        ids = encoder.transform(values)
        assert [encoder.classes_[i] for i in ids] == values

    def test_unknown_value_gets_unknown_id(self):
        encoder = LabelEncoder().fit(["a", "b"])
        ids = encoder.transform(["a", "zzz", "b"])
        assert ids[1] == encoder.unknown_id

    def test_vocabulary_size_includes_unknown(self):
        encoder = LabelEncoder().fit(["x", "y", "z"])
        assert encoder.vocabulary_size == 4

    def test_deterministic_sorted_classes(self):
        e1 = LabelEncoder().fit(["b", "a", "c"])
        e2 = LabelEncoder().fit(["c", "b", "a", "a"])
        assert e1.classes_ == e2.classes_ == ["a", "b", "c"]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LabelEncoder().transform(["a"])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30))
    def test_property_transform_inverse_identity_on_seen(self, values):
        encoder = LabelEncoder().fit(values)
        as_str = [str(v) for v in values]
        assert [encoder.classes_[i] for i in encoder.transform(as_str)] == as_str

"""Frame (mini dataframe) and sliding-window tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Frame, build_windows, build_windows_multi
from tests.strategies import DERANDOMIZED, window_series


class TestFrame:
    def _frame(self):
        return Frame(
            {
                "demand": [10.0, 20.0, 30.0],
                "cpu": [40.0, 50.0, 60.0],
                "build": ["S01", "S01", "S02"],
            }
        )

    def test_shape_and_columns(self):
        frame = self._frame()
        assert frame.shape == (3, 3)
        assert frame.columns == ["demand", "cpu", "build"]
        assert "cpu" in frame and "nope" not in frame

    def test_column_access(self):
        np.testing.assert_allclose(self._frame()["cpu"], [40, 50, 60])
        with pytest.raises(KeyError, match="nope"):
            self._frame()["nope"]

    def test_length_consistency_enforced(self):
        frame = self._frame()
        with pytest.raises(ValueError):
            frame["bad"] = [1.0, 2.0]

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            Frame({"x": np.zeros((2, 2))})


class TestBuildWindows:
    def test_alignment(self):
        features = np.arange(12, dtype=float).reshape(6, 2)
        target = np.array([10.0, 11, 12, 13, 14, 15])
        X, history, y = build_windows(features, target, n_lags=2)
        assert X.shape == (4, 2)
        np.testing.assert_allclose(y, [12, 13, 14, 15])
        # history row i holds [y_{p-2}, y_{p-1}] oldest first
        np.testing.assert_allclose(history[0], [10, 11])
        np.testing.assert_allclose(history[-1], [13, 14])
        np.testing.assert_allclose(X[0], features[2])

    def test_single_lag(self):
        target = np.array([1.0, 2, 3])
        X, history, y = build_windows(np.zeros((3, 1)), target, n_lags=1)
        np.testing.assert_allclose(history[:, 0], [1, 2])
        np.testing.assert_allclose(y, [2, 3])

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros((3, 1)), np.zeros(3), n_lags=3)

    def test_minimum_length_yields_exactly_one_window(self):
        """Boundary: len(target) == n_lags + 1 is the shortest legal series
        (one supervised example); one sample fewer must raise. The campaign
        skip rule `n_timesteps <= n_lags + 1` deliberately also skips the
        one-window case, so both sides of that fence are pinned here."""
        n_lags = 3
        target = np.array([1.0, 2.0, 3.0, 4.0])  # length n_lags + 1
        X, history, y = build_windows(np.zeros((4, 2)), target, n_lags=n_lags)
        assert X.shape == (1, 2)
        np.testing.assert_allclose(history, [[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(y, [4.0])
        with pytest.raises(ValueError, match="too short"):
            build_windows(np.zeros((3, 2)), target[:3], n_lags=n_lags)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros((5, 1)), np.zeros(5), n_lags=0)
        with pytest.raises(ValueError):
            build_windows(np.zeros(5), np.zeros(5), n_lags=1)
        with pytest.raises(ValueError):
            build_windows(np.zeros((5, 1)), np.zeros((5, 1)), n_lags=1)
        with pytest.raises(ValueError):
            build_windows(np.zeros((4, 1)), np.zeros(5), n_lags=1)

    def test_multi_series_no_straddling(self):
        series = [
            (np.zeros((5, 1)), np.array([1.0, 2, 3, 4, 5])),
            (np.zeros((4, 1)), np.array([10.0, 20, 30, 40])),
        ]
        X, history, y, ids = build_windows_multi(series, n_lags=2)
        assert len(y) == 3 + 2
        # No window mixes values from both series.
        np.testing.assert_allclose(history[3], [10, 20])
        np.testing.assert_allclose(ids, [0, 0, 0, 1, 1])

    def test_multi_requires_series(self):
        with pytest.raises(ValueError):
            build_windows_multi([], n_lags=1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=6, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_window_contents_match_source(self, n_lags, length, seed):
        """Every history row equals the target slice immediately before y."""
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((length, 3))
        target = rng.standard_normal(length)
        X, history, y = build_windows(features, target, n_lags)
        assert len(y) == length - n_lags
        for i in range(len(y)):
            p = i + n_lags
            np.testing.assert_allclose(history[i], target[p - n_lags : p])
            assert y[i] == target[p]
            np.testing.assert_allclose(X[i], features[p])


def _error_of(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


def _bad_series(kind: str, n_lags: int) -> tuple[np.ndarray, np.ndarray]:
    """One invalid series per failure ``build_windows`` names."""
    steps = n_lags + 3
    return {
        "too_short": (np.zeros((n_lags, 3)), np.zeros(n_lags)),
        "features_not_2d": (np.zeros(steps), np.zeros(steps)),
        "target_not_1d": (np.zeros((steps, 3)), np.zeros((steps, 1))),
        "length_mismatch": (np.zeros((steps - 1, 3)), np.zeros(steps)),
    }[kind]


_BAD_KINDS = ("too_short", "features_not_2d", "target_not_1d", "length_mismatch")


class TestBuildWindowsMulti:
    """One gather over the batch equals windowing series one at a time."""

    @DERANDOMIZED
    @given(drawn=window_series())
    def test_byte_equals_concatenated_build_windows(self, drawn):
        series, n_lags = drawn
        got = build_windows_multi(series, n_lags)
        parts = [build_windows(features, target, n_lags) for features, target in series]
        want = [np.concatenate(blocks, axis=0) for blocks in zip(*parts)]
        want.append(
            np.concatenate(
                [np.full(len(y), index, dtype=np.int64) for index, (_, _, y) in enumerate(parts)]
            )
        )
        for got_block, want_block in zip(got, want):
            assert got_block.dtype == want_block.dtype
            assert got_block.shape == want_block.shape
            assert got_block.tobytes() == want_block.tobytes()

    @pytest.mark.parametrize("first", _BAD_KINDS)
    @DERANDOMIZED
    @given(drawn=window_series(), data=st.data())
    def test_first_bad_series_raises_its_error(self, first, drawn, data):
        series, n_lags = drawn
        at = data.draw(st.integers(0, len(series)))
        later = _bad_series(data.draw(st.sampled_from(_BAD_KINDS)), n_lags)
        bad = _bad_series(first, n_lags)
        batch = [*series[:at], bad, *series[at:], later]
        want = _error_of(lambda: build_windows(*bad, n_lags))
        assert _error_of(lambda: build_windows_multi(batch, n_lags)) == want

    def test_bad_n_lags_raises_before_windowing(self):
        series = [(np.zeros((5, 1)), np.zeros(5))]
        want = _error_of(lambda: build_windows(*series[0], 0))
        assert _error_of(lambda: build_windows_multi(series, 0)) == want

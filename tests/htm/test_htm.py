"""Tests for the HTM stack: encoder, spatial pooler, temporal memory, detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import (
    AnomalyLikelihood,
    HTMDetector,
    ScalarEncoder,
    SpatialPooler,
    TemporalMemory,
)


class TestScalarEncoder:
    def test_active_bit_count(self):
        encoder = ScalarEncoder(0, 100, n_bits=200, w=21)
        assert encoder.encode(50).sum() == 21
        assert encoder.encode(0).sum() == 21
        assert encoder.encode(100).sum() == 21

    def test_nearby_values_overlap(self):
        encoder = ScalarEncoder(0, 100, n_bits=400, w=21)
        assert encoder.overlap(50, 50.5) > 15
        assert encoder.overlap(50, 51) > 10

    def test_distant_values_disjoint(self):
        encoder = ScalarEncoder(0, 100, n_bits=400, w=21)
        assert encoder.overlap(10, 90) == 0

    def test_out_of_range_clipped(self):
        encoder = ScalarEncoder(0, 100, n_bits=200, w=21)
        np.testing.assert_array_equal(encoder.encode(-50), encoder.encode(0))
        np.testing.assert_array_equal(encoder.encode(500), encoder.encode(100))

    def test_monotonic_buckets(self):
        encoder = ScalarEncoder(0, 10, n_bits=100, w=5)
        buckets = [encoder.bucket(v) for v in np.linspace(0, 10, 20)]
        assert buckets == sorted(buckets)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ScalarEncoder(10, 10)
        with pytest.raises(ValueError):
            ScalarEncoder(0, 1, n_bits=5, w=7)
        with pytest.raises(ValueError):
            ScalarEncoder(0, 1, n_bits=100, w=4)  # even w

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_property_overlap_decreases_with_distance(self, a, b):
        encoder = ScalarEncoder(0, 100, n_bits=400, w=21)
        same = encoder.overlap(a, a)
        cross = encoder.overlap(a, b)
        assert same == 21
        assert cross <= same


class TestSpatialPooler:
    def test_output_sparsity(self):
        pooler = SpatialPooler(input_size=200, n_columns=100, sparsity=0.05, seed=0)
        encoder = ScalarEncoder(0, 10, n_bits=200, w=21)
        active = pooler.compute(encoder.encode(5.0))
        assert active.sum() == pooler.n_active == 5

    def test_same_input_same_columns_after_learning(self):
        pooler = SpatialPooler(input_size=200, n_columns=100, seed=0)
        encoder = ScalarEncoder(0, 10, n_bits=200, w=21)
        sdr = encoder.encode(5.0)
        for _ in range(10):
            first = pooler.compute(sdr, learn=True)
        second = pooler.compute(sdr, learn=False)
        np.testing.assert_array_equal(first, second)

    def test_different_inputs_different_columns(self):
        pooler = SpatialPooler(input_size=400, n_columns=200, sparsity=0.05, seed=0)
        encoder = ScalarEncoder(0, 100, n_bits=400, w=21)
        a = pooler.compute(encoder.encode(10.0), learn=False)
        b = pooler.compute(encoder.encode(90.0), learn=False)
        assert (a & b).sum() < a.sum()

    def test_learning_strengthens_active_synapses(self):
        pooler = SpatialPooler(input_size=100, n_columns=50, seed=1)
        sdr = np.zeros(100, dtype=bool)
        sdr[:20] = True
        before = pooler.permanence.copy()
        active = pooler.compute(sdr, learn=True)
        winners = np.flatnonzero(active)
        changed = pooler.permanence[winners] - before[winners]
        # Synapses to active inputs must not decrease; to inactive, not increase.
        potential = pooler.potential[winners]
        assert (changed[:, :20][potential[:, :20]] >= 0).all()
        assert (changed[:, 20:][potential[:, 20:]] <= 0).all()

    def test_wrong_input_shape(self):
        pooler = SpatialPooler(input_size=100, n_columns=50, seed=0)
        with pytest.raises(ValueError):
            pooler.compute(np.zeros(99, dtype=bool))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SpatialPooler(10, sparsity=0.0)
        with pytest.raises(ValueError):
            SpatialPooler(10, potential_fraction=0.0)


class TestTemporalMemory:
    def _column_sdr(self, n_columns, active_ids):
        sdr = np.zeros(n_columns, dtype=bool)
        sdr[list(active_ids)] = True
        return sdr

    def test_first_input_is_fully_anomalous(self):
        memory = TemporalMemory(n_columns=50, activation_threshold=3, learning_threshold=2, seed=0)
        anomaly = memory.compute(self._column_sdr(50, range(10)))
        assert anomaly == 1.0

    def test_learns_repeating_sequence(self):
        memory = TemporalMemory(
            n_columns=60,
            cells_per_column=4,
            activation_threshold=5,
            learning_threshold=3,
            seed=0,
        )
        pattern_a = self._column_sdr(60, range(0, 10))
        pattern_b = self._column_sdr(60, range(20, 30))
        pattern_c = self._column_sdr(60, range(40, 50))
        anomalies = []
        for _ in range(30):
            for pattern in (pattern_a, pattern_b, pattern_c):
                anomalies.append(memory.compute(pattern))
        # After training, transitions are predicted: anomaly near 0.
        assert np.mean(anomalies[-6:]) < 0.2

    def test_novel_pattern_raises_anomaly(self):
        memory = TemporalMemory(
            n_columns=60,
            cells_per_column=4,
            activation_threshold=5,
            learning_threshold=3,
            seed=0,
        )
        pattern_a = self._column_sdr(60, range(0, 10))
        pattern_b = self._column_sdr(60, range(20, 30))
        for _ in range(30):
            memory.compute(pattern_a)
            memory.compute(pattern_b)
        settled = memory.compute(pattern_a)
        novel = memory.compute(self._column_sdr(60, range(45, 55)))
        assert novel > settled
        assert novel == 1.0

    def test_empty_input_zero_anomaly(self):
        memory = TemporalMemory(n_columns=30, activation_threshold=3, learning_threshold=2)
        assert memory.compute(np.zeros(30, dtype=bool)) == 0.0

    def test_wrong_shape(self):
        memory = TemporalMemory(n_columns=30, activation_threshold=3, learning_threshold=2)
        with pytest.raises(ValueError):
            memory.compute(np.zeros(29, dtype=bool))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TemporalMemory(10, cells_per_column=0)
        with pytest.raises(ValueError):
            TemporalMemory(10, activation_threshold=3, learning_threshold=5)


class TestAnomalyLikelihood:
    def test_warmup_returns_half(self):
        likelihood = AnomalyLikelihood(window=50, short_window=5, learning_period=10)
        values = [likelihood.update(0.1) for _ in range(10)]
        assert all(v == 0.5 for v in values)

    def test_spike_after_calm_gives_high_likelihood(self):
        likelihood = AnomalyLikelihood(window=100, short_window=5, learning_period=20)
        rng = np.random.default_rng(0)
        for _ in range(80):
            likelihood.update(float(rng.uniform(0.0, 0.15)))
        out = [likelihood.update(1.0) for _ in range(5)]
        assert out[-1] > 0.99

    def test_constant_scores_not_anomalous(self):
        likelihood = AnomalyLikelihood(window=100, short_window=5, learning_period=20)
        for _ in range(60):
            result = likelihood.update(0.2)
        assert result < 0.9

    def test_rejects_out_of_range(self):
        likelihood = AnomalyLikelihood()
        with pytest.raises(ValueError):
            likelihood.update(1.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AnomalyLikelihood(window=5, short_window=10)
        with pytest.raises(ValueError):
            AnomalyLikelihood(learning_period=-1)


class TestHTMDetector:
    def test_detects_level_shift_in_periodic_signal(self):
        rng = np.random.default_rng(0)
        t = np.arange(400)
        normal = 50 + 10 * np.sin(2 * np.pi * t / 20) + rng.normal(0, 0.5, len(t))
        shifted = normal.copy()
        shifted[300:] += 35  # abrupt level shift
        detector = HTMDetector(minimum=0, maximum=120, seed=0)
        result = detector.run(shifted)
        # Likelihood right after the shift should exceed the calm baseline.
        calm = result.likelihoods[250:300].max()
        post = result.likelihoods[300:320].max()
        assert post >= calm

    def test_raw_score_drops_as_pattern_learned(self):
        t = np.arange(300)
        signal = 50 + 10 * np.sin(2 * np.pi * t / 25)
        detector = HTMDetector(minimum=0, maximum=100, seed=0)
        result = detector.run(signal)
        assert result.raw_scores[250:].mean() < result.raw_scores[:50].mean()

    def test_alarm_mask_shape(self):
        detector = HTMDetector(minimum=0, maximum=1, seed=0)
        result = detector.run(np.linspace(0, 1, 60))
        assert result.alarms().shape == (60,)
        assert result.alarms().dtype == bool

"""SequencedMerger: in-order release of out-of-order completions."""

import pytest

from repro.serve._internal.batcher import SequencedMerger


class TestSequencedMerger:
    def test_releases_in_sequence_order(self):
        merger = SequencedMerger()
        assert merger.put(1, "b") == []  # ahead of its turn: buffered
        assert merger.pending == 1
        released = merger.put(0, "a")
        assert released == [(0, "a"), (1, "b")]
        assert merger.pending == 0

    def test_contiguous_run_released_at_once(self):
        merger = SequencedMerger()
        assert merger.put(2, "c") == []
        assert merger.put(1, "b") == []
        assert merger.put(3, "d") == []
        assert merger.put(0, "a") == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]

    def test_custom_start_and_in_order_passthrough(self):
        merger = SequencedMerger(start=5)
        assert merger.put(5, "x") == [(5, "x")]
        assert merger.put(6, "y") == [(6, "y")]

    def test_duplicate_or_stale_sequence_rejected(self):
        merger = SequencedMerger()
        merger.put(0, "a")
        with pytest.raises(ValueError):
            merger.put(0, "again")
        merger.put(2, "c")
        with pytest.raises(ValueError):
            merger.put(2, "again")

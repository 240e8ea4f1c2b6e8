"""In-order fan-in for out-of-order completions.

The serve supervisor is the only owner of process parallelism; this is
the piece of its fan-in that is independent of processes and pipes.
"""

from __future__ import annotations

__all__ = ["SequencedMerger"]


class SequencedMerger:
    """Release out-of-order completions in strict submission order.

    In the serve supervisor, batches complete on whichever worker
    process finishes first, but side effects (alarm pushes) must be
    applied in dispatch order to stay byte-identical to a serial run. ``put(seq, item)`` buffers the item
    and returns every ``(seq, item)`` pair that is now releasable — a
    contiguous run starting at the next unreleased sequence number.

    Single-threaded by design (it lives on an event loop); callers that
    share one across threads must lock around ``put``.
    """

    def __init__(self, start: int = 0):
        self._next = int(start)
        self._buffer: dict[int, object] = {}

    @property
    def next_seq(self) -> int:
        """The sequence number the merger is waiting to release."""
        return self._next

    @property
    def pending(self) -> int:
        """Completed items buffered behind an earlier, unfinished one."""
        return len(self._buffer)

    def put(self, seq: int, item) -> list[tuple[int, object]]:
        """Buffer ``item`` under ``seq``; return the newly releasable run."""
        if seq < self._next or seq in self._buffer:
            raise ValueError(f"sequence {seq} was already released or buffered")
        self._buffer[seq] = item
        released: list[tuple[int, object]] = []
        while self._next in self._buffer:
            released.append((self._next, self._buffer.pop(self._next)))
            self._next += 1
        return released

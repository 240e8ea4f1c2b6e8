"""Dead-letter store: where un-processable work goes to be accounted for.

When the degradation ladder bottoms out — a collector outage loses a whole
scrape window, a gap is too long to impute, the TSDB stays down past the
retry budget — the execution is *quarantined*: excluded from monitoring
and training, but never silently discarded. Every quarantined unit lands
here with a machine-readable reason, so a campaign can assert that
``scheduled == processed + quarantined`` and an engineer can replay the
dead letters once the infrastructure recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import get_observability

__all__ = ["DeadLetterRecord", "DeadLetterStore"]

_OBS = get_observability()
_M_DEAD_LETTERS = _OBS.counter(
    "repro_resilience_dead_letters_total",
    "Work units quarantined to a dead-letter store, by reason.",
    labels=("reason",),
)
_G_SIZE = _OBS.gauge(
    "repro_resilience_dead_letter_size",
    "Records currently held in a dead-letter store.",
)


@dataclass(frozen=True)
class DeadLetterRecord:
    """One quarantined work unit and why it could not be processed."""

    key: str
    reason: str
    detail: str = ""
    day: int | None = None


class DeadLetterStore:
    """In-memory quarantine keyed by an arbitrary string (e.g. an EM id)."""

    def __init__(self) -> None:
        self._records: dict[str, DeadLetterRecord] = {}

    def add(self, key: str, reason: str, detail: str = "", day: int | None = None) -> DeadLetterRecord:
        """Quarantine one unit; re-adding a key overwrites its record."""
        if not key:
            raise ValueError("dead-letter key must be non-empty")
        if not reason:
            raise ValueError("dead-letter reason must be non-empty")
        record = DeadLetterRecord(key=key, reason=reason, detail=detail, day=day)
        self._records[key] = record
        _M_DEAD_LETTERS.labels(reason=reason).inc()
        _G_SIZE.set(len(self._records))
        return record

    def restore(self, records: list[DeadLetterRecord]) -> None:
        """Reload checkpointed records without re-counting quarantines."""
        for record in records:
            self._records[record.key] = record
        _G_SIZE.set(len(self._records))

    def get(self, key: str) -> DeadLetterRecord:
        return self._records[key]

    def records(self, reason: str | None = None) -> list[DeadLetterRecord]:
        """All records (insertion order), optionally filtered by reason."""
        out = list(self._records.values())
        if reason is not None:
            out = [record for record in out if record.reason == reason]
        return out

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

"""Prometheus file-based service discovery (paper §3, step 1).

"When a new test case is executed, we modify a service discovery
configuration JSON file for Prometheus, appending the endpoint for the
metric collector along with a reference to the EM labels:

    [..., {"targets": ["IP:PORT"], "labels": {"env": "EM_record_id"}}]
"

:class:`ServiceDiscovery` maintains exactly that JSON file, plus the EM
record registry mapping record ids to full environments.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..data.environment import Environment

__all__ = ["ServiceDiscovery", "EMRegistry"]


class EMRegistry:
    """Maps EM record ids to environments (the 'EM_record_id' reference)."""

    def __init__(self) -> None:
        self._records: dict[str, Environment] = {}
        self._ids: dict[Environment, str] = {}
        self._counter = 0

    def register(self, environment: Environment) -> str:
        """Idempotently register an environment; returns its record id."""
        if environment in self._ids:
            return self._ids[environment]
        record_id = f"em-{self._counter:06d}"
        self._counter += 1
        self._records[record_id] = environment
        self._ids[environment] = record_id
        return record_id

    def lookup(self, record_id: str) -> Environment:
        try:
            return self._records[record_id]
        except KeyError:
            raise KeyError(f"unknown EM record id {record_id!r}") from None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records


class ServiceDiscovery:
    """The Prometheus `file_sd` JSON config, as the paper modifies it."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if self.path.exists():
            self._entries = json.loads(self.path.read_text())
            if not isinstance(self._entries, list):
                raise ValueError(f"{self.path} does not contain a JSON list")
        else:
            self._entries = []
            self._flush()

    def _flush(self) -> None:
        self.path.write_text(json.dumps(self._entries, indent=2))

    def add_target(self, endpoint: str, em_record_id: str) -> None:
        """Append the paper's snippet: a target plus its env label."""
        if not endpoint or ":" not in endpoint:
            raise ValueError(f"endpoint must look like IP:PORT; got {endpoint!r}")
        if any(endpoint in entry["targets"] for entry in self._entries):
            raise ValueError(f"endpoint {endpoint!r} is already registered")
        self._entries.append({"targets": [endpoint], "labels": {"env": em_record_id}})
        self._flush()

    def targets(self) -> list[dict]:
        """The current config entries (as Prometheus would read them)."""
        return [dict(entry) for entry in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

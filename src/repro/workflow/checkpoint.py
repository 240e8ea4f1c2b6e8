"""Per-day campaign checkpoints for idempotent resume.

A multi-day testing campaign is exactly the kind of process that gets
killed mid-run — node reboots, deploys, OOM. The orchestrator therefore
snapshots its mutable state after every completed day: the training pool,
the masked-environment set, the serving model blob, the drift detector,
the day of the last full fit, the self-scrape clock, the day reports so
far, and the dead-letter records. Restoring the latest snapshot and
re-running the campaign replays only the *remaining* days and produces
the same reports and the same final model as an uninterrupted run.
Training is deterministic given the snapshot: a full fit trains a fresh
regressor seeded by the campaign seed on the pool, and a warm day
fine-tunes a copy of the serving model blob with its replay sample and
every random draw derived from ``(seed, day)``. The last full-fit day
decides which kind the next day runs. A snapshot written before that
field existed loads with it unset, so its next day refits in full.

Snapshots are single ``day-NNNNN.npz`` files: JSON metadata plus the pool
arrays and the model blob, written atomically (tmp file + rename) so a
kill during checkpointing never leaves a torn snapshot as "latest".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.environment import Environment

__all__ = ["CampaignState", "save_checkpoint", "load_latest_checkpoint", "checkpoint_days"]


@dataclass
class CampaignState:
    """Everything the orchestrator needs to resume after ``day``."""

    day: int
    pool: list[tuple[Environment, np.ndarray, np.ndarray]]
    masked: list[Environment]
    model_blob: bytes | None
    drift_state: dict
    exporter_now: float | None
    reports: list[dict] = field(default_factory=list)
    dead_letters: list[dict] = field(default_factory=list)
    # None: the next retrain must be a full fit.
    last_full_day: int | None = None


def _checkpoint_path(directory: Path, day: int) -> Path:
    return directory / f"day-{day:05d}.npz"


def checkpoint_days(directory: str | Path) -> list[int]:
    """Days with a stored checkpoint, ascending."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    days = []
    for path in directory.glob("day-*.npz"):
        try:
            days.append(int(path.stem.split("-")[1]))
        except (IndexError, ValueError):
            continue
    return sorted(days)


def save_checkpoint(directory: str | Path, state: CampaignState) -> Path:
    """Write one atomic snapshot; returns the checkpoint path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "day": state.day,
        "pool_environments": [env.as_dict() for env, _, _ in state.pool],
        "masked": [env.as_dict() for env in state.masked],
        "drift_state": state.drift_state,
        "exporter_now": state.exporter_now,
        "reports": state.reports,
        "dead_letters": state.dead_letters,
        "last_full_day": state.last_full_day,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    }
    for i, (_, features, cpu) in enumerate(state.pool):
        arrays[f"pool_f_{i:05d}"] = np.asarray(features, dtype=np.float64)
        arrays[f"pool_c_{i:05d}"] = np.asarray(cpu, dtype=np.float64)
    if state.model_blob is not None:
        arrays["model_blob"] = np.frombuffer(state.model_blob, dtype=np.uint8)
    path = _checkpoint_path(directory, state.day)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)
    return path


def load_checkpoint(directory: str | Path, day: int) -> CampaignState:
    """Load one day's snapshot."""
    path = _checkpoint_path(Path(directory), day)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
        pool = []
        for i, env_dict in enumerate(meta["pool_environments"]):
            pool.append(
                (
                    Environment(**env_dict),
                    archive[f"pool_f_{i:05d}"],
                    archive[f"pool_c_{i:05d}"],
                )
            )
        model_blob = archive["model_blob"].tobytes() if "model_blob" in archive else None
    return CampaignState(
        day=int(meta["day"]),
        pool=pool,
        masked=[Environment(**env) for env in meta["masked"]],
        model_blob=model_blob,
        drift_state=meta["drift_state"],
        exporter_now=meta["exporter_now"],
        reports=meta["reports"],
        dead_letters=meta["dead_letters"],
        last_full_day=meta.get("last_full_day"),
    )


def load_latest_checkpoint(directory: str | Path) -> CampaignState | None:
    """The most recent snapshot in ``directory``, or None when empty."""
    days = checkpoint_days(directory)
    if not days:
        return None
    return load_checkpoint(directory, days[-1])

"""Model store (paper §3, steps 2 and 5 — model-server substitute).

"After training completion, the model is available via HTTP" and "the
Env2Vec prediction pipeline fetches the latest model (essentially a weight
matrix), before beginning execution, from the training pipeline HTTP
server." The store versions serialized model blobs
(:mod:`repro.nn.serialize` npz bytes) on disk or in memory; the prediction
pipeline always fetches the latest published version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["CorruptModelError", "ModelVersion", "ModelStore"]


class CorruptModelError(RuntimeError):
    """A fetched model blob is truncated or fails its integrity checks.

    Serving a half-written blob is worse than serving no model at all —
    deserialization may *succeed* on a truncated npz and yield garbage
    weights. Every blob is checksummed (SHA-256) at publish time and
    verified on fetch; callers with a cached model are expected to keep
    serving it (the prediction pipeline's last-good fallback).
    """


@dataclass(frozen=True)
class ModelVersion:
    version: int
    size_bytes: int
    published_at: float
    metadata: dict
    checksum: str = ""


class ModelStore:
    """Versioned blob store; ``path=None`` keeps everything in memory."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._blobs: dict[int, bytes] = {}
        self._versions: dict[int, ModelVersion] = {}
        self._latest = 0
        self._subscribers: list[Callable[[ModelVersion], None]] = []
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._load_existing()

    def _load_existing(self) -> None:
        for blob_file in sorted(self.path.glob("model-*.npz")):
            version = int(blob_file.stem.split("-")[1])
            meta_file = self.path / f"model-{version:06d}.json"
            meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
            blob = blob_file.read_bytes()
            self._blobs[version] = blob
            self._versions[version] = ModelVersion(
                version=version,
                size_bytes=len(blob),
                published_at=meta.get("published_at", blob_file.stat().st_mtime),
                metadata=meta.get("metadata", {}),
                # Blobs published before checksums existed verify by
                # structure alone; new publishes always record a digest.
                checksum=meta.get("checksum", ""),
            )
            self._latest = max(self._latest, version)

    def publish(
        self,
        blob: bytes,
        metadata: dict | None = None,
        published_at: float | None = None,
    ) -> ModelVersion:
        """Store a new model blob as the latest version.

        ``published_at`` defaults to the version number itself — a logical
        timestamp. Reading the wall clock here (REP002) made same-seed
        campaign reports differ byte-for-byte across runs; callers that
        want real time pass it explicitly.
        """
        if not blob:
            raise ValueError("cannot publish an empty model blob")
        version = self._latest + 1
        record = ModelVersion(
            version=version,
            size_bytes=len(blob),
            published_at=float(version) if published_at is None else published_at,
            metadata=dict(metadata or {}),
            checksum=hashlib.sha256(blob).hexdigest(),
        )
        self._blobs[version] = blob
        self._versions[version] = record
        self._latest = version
        if self.path is not None:
            (self.path / f"model-{version:06d}.npz").write_bytes(blob)
            (self.path / f"model-{version:06d}.json").write_text(
                json.dumps(
                    {
                        "published_at": record.published_at,
                        "metadata": record.metadata,
                        "checksum": record.checksum,
                    }
                )
            )
        # Publish hooks fire after the blob is durably stored, so a
        # subscriber that immediately fetches the version always succeeds.
        # The serve layer uses this to compile the new version *at publish
        # time*, so the request path never pays a cold compile after a
        # retrain. Subscriber exceptions propagate to the publisher (a
        # failed compile is the trainer's problem, not a condition to hide
        # from it); subscribers that prefer last-good semantics catch
        # their own errors.
        for callback in tuple(self._subscribers):
            callback(record)
        return record

    def subscribe(self, callback: Callable[[ModelVersion], None]) -> Callable[[], None]:
        """Invoke ``callback(record)`` after every successful publish.

        Returns an idempotent unsubscribe function. Callbacks run
        synchronously inside ``publish``, in subscription order.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass  # already unsubscribed

        return unsubscribe

    def _verify(self, blob: bytes, record: ModelVersion) -> None:
        """Reject truncated or bit-rotted blobs before they deserialize.

        The stored bytes must match what was published — length for fast
        truncation detection, SHA-256 for everything subtler. Content is
        deliberately not sniffed: the store versions opaque blobs.
        """
        if len(blob) != record.size_bytes:
            raise CorruptModelError(
                f"model version {record.version} is {len(blob)} bytes; "
                f"expected {record.size_bytes} (truncated blob?)"
            )
        if record.checksum and hashlib.sha256(blob).hexdigest() != record.checksum:
            raise CorruptModelError(
                f"model version {record.version} fails its SHA-256 integrity check"
            )

    def fetch_latest(self) -> tuple[bytes, ModelVersion]:
        """Step 5: the prediction pipeline fetches the newest model.

        Raises :class:`CorruptModelError` when the stored blob fails its
        integrity checks (truncation, bad magic, checksum mismatch).
        """
        if not self._latest:
            raise LookupError("no model has been published yet")
        return self.fetch(self._latest)

    def fetch(self, version: int) -> tuple[bytes, ModelVersion]:
        if version not in self._blobs:
            raise LookupError(f"no model version {version}")
        blob, record = self._blobs[version], self._versions[version]
        self._verify(blob, record)
        return blob, record

    def versions(self) -> list[ModelVersion]:
        return [self._versions[v] for v in sorted(self._versions)]

    @property
    def latest_version(self) -> int:
        return self._latest

"""Content-hash incremental cache for the two-phase analyzer.

Phase 1 is a pure function of one file's bytes, so its outputs — the
per-file findings, the suppression bookkeeping, and the
:class:`~repro.analysis.summaries.ModuleSummary` phase 2 consumes — can
be keyed by the file's content hash and reused across scans. Phase 2
always re-links (it is repo-wide and cheap relative to parsing), so a
warm scan costs one hash per file plus one link pass.

Entries live under ``.repro_analysis_cache/`` next to the baseline (or
wherever the caller points the cache), one JSON file per source file,
named by the SHA-1 of the repo-relative path so arbitrary paths map to
flat filenames. An entry is valid only when its content hash, cache
format version, and rule-set version all match — bumping
``RULESET_VERSION`` in :mod:`repro.analysis.rules` invalidates every
entry at once, which is what makes rule changes take effect without a
manual cache wipe. Corrupt or unreadable entries are treated as misses;
the cache never makes a scan wrong, only faster.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .engine import FileScan, Finding
from .summaries import SUMMARY_SCHEMA_VERSION, ModuleSummary

__all__ = ["AnalysisCache", "CACHE_DIR_NAME", "CACHE_FORMAT_VERSION"]

CACHE_DIR_NAME = ".repro_analysis_cache"

#: Bump when the on-disk entry layout changes shape.
CACHE_FORMAT_VERSION = 1


class AnalysisCache:
    """Flat directory of per-file phase-1 entries, content-hash keyed."""

    def __init__(self, directory: str | Path, ruleset_version: int) -> None:
        self.directory = Path(directory)
        self.ruleset_version = ruleset_version
        self.hits = 0
        self.misses = 0

    def _entry_path(self, rel_path: str) -> Path:
        digest = hashlib.sha1(rel_path.encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.json"

    def load(self, rel_path: str, digest: str) -> FileScan | None:
        entry_path = self._entry_path(rel_path)
        try:
            data = json.loads(entry_path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            data.get("content_sha256") != digest
            or data.get("cache_version") != CACHE_FORMAT_VERSION
            or data.get("ruleset_version") != self.ruleset_version
            or data.get("summary_version") != SUMMARY_SCHEMA_VERSION
            or data.get("path") != rel_path
        ):
            self.misses += 1
            return None
        try:
            scan = FileScan(
                findings=[
                    Finding(
                        rule=f["rule"], path=f["path"], line=f["line"],
                        message=f["message"], snippet=f["snippet"],
                        related=tuple(tuple(r) for r in f.get("related", [])),
                    )
                    for f in data["findings"]
                ],
                n_suppressed=data["n_suppressed"],
                summary=ModuleSummary.from_dict(data["summary"]),
                deferred={int(k): list(v) for k, v in data["deferred"].items()},
            )
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return scan

    def store(self, rel_path: str, digest: str, scan: FileScan) -> None:
        payload = {
            "content_sha256": digest,
            "cache_version": CACHE_FORMAT_VERSION,
            "ruleset_version": self.ruleset_version,
            "summary_version": SUMMARY_SCHEMA_VERSION,
            "path": rel_path,
            "findings": [
                {
                    "rule": f.rule, "path": f.path, "line": f.line,
                    "message": f.message, "snippet": f.snippet,
                    "related": [list(r) for r in f.related],
                }
                for f in scan.findings
            ],
            "n_suppressed": scan.n_suppressed,
            "summary": scan.summary.to_dict(),
            "deferred": {str(k): sorted(v) for k, v in scan.deferred.items()},
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self._entry_path(rel_path).with_suffix(".tmp")
            tmp.write_text(json.dumps(payload, separators=(",", ":")))
            tmp.replace(self._entry_path(rel_path))
        except OSError:  # cache is best-effort; a read-only tree still scans
            pass

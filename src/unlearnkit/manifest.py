"""Run manifest: one JSON index mapping config hashes to artifact directories.

All writes go through a single writer (the CLI process); sweep workers return
results to the parent, which records them here. Every start_all or finish_all call
rewrites the file once, so a sweep marks all its runs pending with one write
and records each group of results with one more. Completed entries are never
overwritten silently — callers must pass force=True to replace one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .errors import ConfigError
from .fileio import write_atomic

STATUSES = ("pending", "done", "failed")


class Manifest:
    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "manifest.json"
        self.entries: dict[str, dict] = {}
        if self.path.exists():
            self.entries = json.loads(self.path.read_text())

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, json.dumps(self.entries, indent=2, sort_keys=True))

    def is_done(self, key: str) -> bool:
        entry = self.entries.get(key)
        return entry is not None and entry.get("status") == "done"

    def start_all(self, kind: str, items, force: bool = False) -> None:
        """Mark every ``(key, directory)`` of one kind pending, with one save."""
        items = list(items)
        for key, _ in items:
            existing = self.entries.get(key)
            if existing is not None and existing.get("status") == "done" and not force:
                raise ConfigError(f"entry {key} is already done; pass force to redo it")
        started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        for key, directory in items:
            self.entries[key] = {"kind": kind, "dir": str(directory), "status": "pending",
                                 "started_at": started_at, "finished_at": None}
        self.save()

    def finish_all(self, results) -> None:
        """Record every ``(key, status, message)`` result, with one save."""
        results = list(results)
        for _, status, _ in results:
            if status not in STATUSES:
                raise ConfigError(f"bad status {status!r}")
        finished_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        for key, status, message in results:
            entry = self.entries[key]
            entry["status"] = status
            entry["finished_at"] = finished_at
            if message:
                entry["message"] = message
        self.save()

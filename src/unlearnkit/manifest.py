"""Run manifest: one JSON index mapping config hashes to artifact directories.

All writes go through a single writer (the CLI process); sweep workers return
results to the parent, which records them here. Completed entries are never
overwritten silently — callers must pass force=True to replace one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .errors import ConfigError

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
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.entries, indent=2, sort_keys=True))
        os.replace(tmp, self.path)

    def is_done(self, key: str) -> bool:
        entry = self.entries.get(key)
        return entry is not None and entry.get("status") == "done"

    def start(self, key: str, kind: str, directory, force: bool = False) -> dict:
        existing = self.entries.get(key)
        if existing is not None and existing.get("status") == "done" and not force:
            raise ConfigError(f"entry {key} is already done; pass force to redo it")
        entry = {"kind": kind, "dir": str(directory), "status": "pending",
                 "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                 "finished_at": None}
        self.entries[key] = entry
        self.save()
        return entry

    def finish(self, key: str, status: str, message: str | None = None) -> None:
        if status not in STATUSES:
            raise ConfigError(f"bad status {status!r}")
        entry = self.entries[key]
        entry["status"] = status
        entry["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        if message:
            entry["message"] = message
        self.save()

"""Run manifest: a JSON status log mapping config hashes to artifact directories.

It records each run's kind, directory, status (``pending``, ``done`` or
``failed``), times and failure message, for people and tools to read. No
command decides anything by it: a run is complete when its directory holds
its completion files (``cli._locate``), so an entry lost to a second CLI
writing the same root misleads no resume and no report.

All writes go through a single writer (the CLI process); sweep workers return
results to the parent, which records them here. Every start_all or finish_all call
rewrites the file once, so a sweep marks all its runs pending with one write
and records each group of results with one more.
"""

from __future__ import annotations

import time
from pathlib import Path

from .errors import ConfigError
from .fileio import read_json, write_json


class Manifest:
    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "manifest.json"
        self.entries: dict[str, dict] = {}
        if self.path.exists():
            self.entries = read_json(self.path, "manifest")
        for key, entry in self.entries.items():
            if not (isinstance(entry, dict) and isinstance(entry.get("status"), str)):
                raise ConfigError(f"bad manifest {self.path}: entry {key!r} is not an "
                                  "object with a string 'status'")

    def save(self) -> None:
        write_json(self.path, self.entries)

    def start_all(self, kind: str, items) -> None:
        """Mark every ``(key, directory)`` of one kind pending, with one save."""
        started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        for key, directory in items:
            self.entries[key] = {"kind": kind, "dir": str(directory), "status": "pending",
                                 "started_at": started_at, "finished_at": None}
        self.save()

    def finish_all(self, results) -> None:
        """Record every ``(key, status, message)`` result, with one save."""
        finished_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        for key, status, message in results:
            entry = self.entries[key]
            entry["status"] = status
            entry["finished_at"] = finished_at
            if message:
                entry["message"] = message
        self.save()

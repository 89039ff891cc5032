"""Crash-safe artifact files: every artifact the toolkit writes goes through here."""

import csv
import json
import os
from pathlib import Path

from .errors import ConfigError


def write_atomic(path, write) -> None:
    """Replace the file at ``path`` with what ``write(fh)`` writes to ``fh``, through a
    temp file beside it, making ``path``'s directory first if it is missing.

    The temp file is renamed over ``path`` only once it is complete, so a
    reader, or a process killed mid-write, sees the previous file or the new
    one, never part of one. On any error the temp file is removed and the
    previous file is left as it was. The temp name carries the process id,
    so two processes writing one path do not share a temp file. ``fh`` is a
    text file that writes UTF-8 with line endings as given.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, the header row first, as one CSV file through :func:`write_atomic`."""
    write_atomic(path, lambda fh: csv.writer(fh).writerows(rows))


def write_json(path, value) -> None:
    """Write ``json.dump(value, indent=2, sort_keys=True)`` through :func:`write_atomic`."""
    write_atomic(path, lambda fh: json.dump(value, fh, indent=2, sort_keys=True))


def read_json(path, what: str) -> dict:
    """Parse the JSON object in the file at ``path``.

    A file that cannot be read or does not hold one raises
    ``ConfigError("bad <what> <path>: …")``.
    """
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad {what} {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"bad {what} {path}: not a JSON object")
    return value

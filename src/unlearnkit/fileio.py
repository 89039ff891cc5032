"""Crash-safe artifact files: every artifact the toolkit writes goes through here."""

import csv
import io
import json
import os
from pathlib import Path

from .errors import ConfigError


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` through a temp file beside it.

    The temp file is renamed over ``path`` only once it is complete, so a
    reader, or a process killed mid-write, sees the previous file or the new
    one, never part of one. On any error the temp file is removed and the
    previous file is left as it was. The temp name carries the process id,
    so two processes writing one path do not share a temp file. The text is
    written as UTF-8 with its line endings as given.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, the header row first, as one CSV file through :func:`write_atomic`."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue())


def write_json(path, value) -> None:
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` through :func:`write_atomic`."""
    write_atomic(path, json.dumps(value, indent=2, sort_keys=True))


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

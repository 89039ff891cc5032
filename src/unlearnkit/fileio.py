"""Crash-safe artifact writes: every JSON artifact the toolkit writes goes through here."""

import os


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` through a temp file beside it.

    The temp file is renamed over ``path`` only once it is complete, so a
    reader, or a process killed mid-write, sees the previous file or the new
    one, never part of one. On any error the temp file is removed and the
    previous file is left as it was. The temp name carries the process id,
    so two processes writing one path do not share a temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

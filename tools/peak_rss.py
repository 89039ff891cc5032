"""Print the peak resident set size of one unlearnkit command, and only its own.

Runs ``python -m unlearnkit.cli ARGS...`` (with this checkout's ``src`` first
on ``PYTHONPATH``) to completion, its output passed through, then prints
``peak_rss_mb <MB>``: the command's ``ru_maxrss`` from ``os.wait4``, in MiB,
covering its own reaped children (a ``--workers`` pool) too. Exits with the
command's exit code. Standard library only.

Usage, from the repository root:

    python3 tools/peak_rss.py ARGS...    # e.g. python3 tools/peak_rss.py sweep --root r

``subprocess`` starts a child with ``vfork`` when it can, and Linux then
keeps the parent's high-water mark in the child's ``maxrss``: a child
``python -c pass`` read 13.6 MB alone, and 113.6 MB after its parent had
touched and freed 100 MB. The ``preexec_fn`` here makes ``subprocess`` fork
instead, so the child starts from the parent's current resident set, which
for this small process lies below any command's own peak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_mb(args: list[str]) -> tuple[int, float]:
    """Run the unlearnkit command ``args``; return its exit code and peak RSS in MiB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "unlearnkit.cli", *args], env=env,
                            preexec_fn=lambda: None)  # fork, not vfork
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    code, peak = peak_rss_mb(argv)
    print(f"peak_rss_mb {peak:.2f}", flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

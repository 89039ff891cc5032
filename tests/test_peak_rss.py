"""tools/peak_rss.py: one unlearnkit command's own peak RSS, not its parent's."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"

# Touches and frees 120 MB, then runs the tool on ``unlearnkit --help``. A child that
# subprocess started with vfork would report at least those 120 MB.
AFTER_A_LARGE_PEAK = f"""
import runpy, sys
big = b"\\1" * (120 << 20)
del big
sys.argv = [{str(TOOL)!r}, "--help"]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_peak_rss_reports_the_commands_own_peak():
    out = subprocess.run([sys.executable, "-c", AFTER_A_LARGE_PEAK], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "usage: unlearnkit" in out.stdout
    name, value = out.stdout.splitlines()[-1].split()
    assert name == "peak_rss_mb" and 0 < float(value) < 100


def test_peak_rss_exits_with_the_commands_exit_code():
    out = subprocess.run([sys.executable, str(TOOL), "no-such-command"], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 1 and "invalid choice" in out.stderr  # the CLI's usage error
    assert out.stdout.startswith("peak_rss_mb ")

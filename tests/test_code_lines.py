"""tools/code_lines.py: the line count the ROADMAP measures the package by."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
PACKAGE = TOOL.parents[1] / "src" / "unlearnkit"

# Counted by hand: the docstrings, the comment-only line and the blank lines do not
# count; the three lines of one statement and a bare string after code do.
MODULE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts


def f(x):
    """A function docstring."""
    # a comment-only line
    total = (x +
             1 +
             2)
    "a bare string after code is not a docstring"
    return os.sep, total
'''
MODULE_LINES = 7  # import, def, the statement's 3, the bare string, return


def _run(directory):
    return subprocess.run([sys.executable, str(TOOL), str(directory)],
                          capture_output=True, text=True, timeout=60)


def test_code_lines_counts_a_module_by_hand(tmp_path):
    (tmp_path / "one.py").write_text(MODULE)
    done = _run(tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines() == [f"{MODULE_LINES:6d}  one.py",
                                      f"{MODULE_LINES:6d}  total"]


def test_code_lines_total_is_the_sum_of_the_package_rows():
    done = _run(PACKAGE)
    assert done.returncode == 0
    *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert total[1] == "total"
    assert [name for _, name in rows] == sorted(p.name for p in PACKAGE.glob("*.py"))
    assert int(total[0]) == sum(int(count) for count, _ in rows) > 0

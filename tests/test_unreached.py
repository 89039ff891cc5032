"""tools/unreached.py: the package statements a pytest run never executes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "unreached.py"
CURRICULUM = (ROOT / "src" / "unlearnkit" / "curriculum.py").read_text().splitlines()


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def _line_of(text):
    [number] = [n for n, line in enumerate(CURRICULUM, 1) if line.strip() == text]
    return f"src/unlearnkit/curriculum.py:{number}  {text}"


def test_unreached_lists_what_one_test_leaves_out_and_counts_it():
    done = _run("tests/test_curriculum.py::test_lambert_identities")
    assert done.returncode == 0, done.stderr
    *_, count = done.stdout.splitlines()
    listed = [line for line in done.stdout.splitlines() if line.startswith("src/")]
    assert count == f"{len(listed)} unreached statements"
    # lambert_w0(-1/e) returns at the branch point: the raise below it never runs.
    assert _line_of('raise DomainError(f"lambert_w0 domain is [-1/e, inf), got {x}")') in listed
    assert _line_of("return -1.0") not in listed
    assert not any(line.split("  ", 1)[1].startswith(("def ", "import ", "from ", '"""'))
                   for line in listed)


def test_unreached_exits_with_pytests_exit_code():
    done = _run("tests/test_curriculum.py", "-k", "no_such_test")
    assert done.returncode == 5  # pytest's "no tests collected"
    assert done.stdout.splitlines()[-1].endswith(" unreached statements")

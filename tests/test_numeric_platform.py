"""tools/numeric_platform.py: the numpy, OpenBLAS and ufunc dispatch the bytes depend on."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "numeric_platform.py"


def _tool():
    spec = importlib.util.spec_from_file_location("numeric_platform", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numeric_platform_prints_numpy_openblas_and_each_kernel_ufunc():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    lines = dict(line.split(" ", 1) for line in out.stdout.splitlines())
    tool = _tool()
    assert list(lines) == ["numpy", "openblas_config", "openblas_corename",
                           "openblas_num_threads", *(f"ufunc.{u}" for u in tool.UFUNCS)]
    assert lines["numpy"] == np.__version__
    threads = lines["openblas_num_threads"]
    assert threads == tool.UNKNOWN or int(threads) >= 1
    if lines["openblas_corename"] != tool.UNKNOWN:
        assert lines["openblas_corename"] in lines["openblas_config"]
    for name in tool.UFUNCS:
        value = lines[f"ufunc.{name}"]
        assert value == tool.UNDISPATCHED or all(
            loop.startswith("d") and ":" in loop for loop in value.split(","))


def test_a_missing_openblas_reads_unknown():
    tool = _tool()
    assert tool._call(None, "get_corename", None) == tool.UNKNOWN

"""Print the numeric platform that unlearnkit's output bytes depend on.

The trained bytes depend on which SIMD kernels numpy and OpenBLAS pick at run
time, and on how OpenBLAS splits a product among its threads. This prints,
one ``name value`` pair a line:

- ``numpy``: the numpy version;
- ``openblas_config``, ``openblas_corename``, ``openblas_num_threads``: read
  through ``ctypes`` from the OpenBLAS library numpy ships in ``numpy.libs``
  (``unknown`` when no library or symbol is found);
- ``ufunc.<name>``: the float64 dispatch target of each ufunc the kernels
  call, as ``<loop signature>:<target>``, from
  ``np.lib.introspect.opt_func_info`` (``undispatched`` for a ufunc whose
  float64 loop is fixed at build time).

Usage, from the repository root:

    python3 tools/numeric_platform.py

The environment variables that change the dispatch (``NPY_DISABLE_CPU_FEATURES``,
``OPENBLAS_CORETYPE``, ``OPENBLAS_NUM_THREADS``) change what it prints.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

# The ufuncs of the training step, the snapshot, Adam and the curriculum.
UFUNCS = ("add", "subtract", "multiply", "divide", "negative", "absolute", "sign",
          "maximum", "minimum", "sqrt", "exp", "log", "tanh", "isfinite", "logical_and")
# Wheels built by scipy-openblas prefix and suffix the OpenBLAS symbols.
SYMBOL_FORMS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")
UNKNOWN = "unknown"
UNDISPATCHED = "undispatched"  # no float64 loop chosen at run time: the build's baseline


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library numpy loaded, or None when ``numpy.libs`` holds none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _call(lib: ctypes.CDLL | None, name: str, restype) -> object:
    """``name()`` from ``lib`` under the first symbol form it exports, or ``unknown``."""
    if lib is None:
        return UNKNOWN
    for form in SYMBOL_FORMS:
        fn = getattr(lib, form.format(name), None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            value = fn()
            return value.decode().strip() if isinstance(value, bytes) else value
    return UNKNOWN


def numeric_platform() -> dict[str, object]:
    """The numpy version, OpenBLAS's build and threads, and each kernel ufunc's target."""
    lib = _openblas()
    info: dict[str, object] = {
        "numpy": np.__version__,
        "openblas_config": _call(lib, "get_config", ctypes.c_char_p),
        "openblas_corename": _call(lib, "get_corename", ctypes.c_char_p),
        "openblas_num_threads": _call(lib, "get_num_threads", ctypes.c_int),
    }
    targets = np.lib.introspect.opt_func_info(signature="float64")
    for name in UFUNCS:
        loops = targets.get(name, {})
        info[f"ufunc.{name}"] = ",".join(
            f"{sig}:{loop['current']}" for sig, loop in sorted(loops.items())
            if sig.startswith("d")) or UNDISPATCHED
    return info


def main() -> int:
    for name, value in numeric_platform().items():
        print(name, value)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Ask the loaded OpenBLAS how many threads it will use."""

from __future__ import annotations

import ctypes
import os

_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_openblas() -> "list[str]":
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> "int | str":
    """The thread count OpenBLAS reports, or the environment's setting."""
    import numpy  # noqa: F401 - loads the BLAS library

    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return "OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "unset")

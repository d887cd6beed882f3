"""Runtime configuration: size caps and kernel selection.

Environment variables
---------------------
COHOMKIT_SIZE_CAP   max number of coordinates in a single cochain space
                    (default 10**6); computations needing a larger space
                    raise SizeCapExceeded.
COHOMKIT_NUMBA      "0" forces the pure numpy/python kernel path even when
                    numba is importable; "1" (default) uses numba if present.
"""

import os

DEFAULT_SIZE_CAP = 10**6
DEFAULT_ORDER_CAP = 64


def size_cap() -> int:
    raw = os.environ.get("COHOMKIT_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        v = int(raw)
    except ValueError:
        return DEFAULT_SIZE_CAP
    return v if v > 0 else DEFAULT_SIZE_CAP


def numba_enabled() -> bool:
    if os.environ.get("COHOMKIT_NUMBA", "1") == "0":
        return False
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True

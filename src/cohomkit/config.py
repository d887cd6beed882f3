"""Runtime configuration: size caps and the group cache bound.

Environment variables
---------------------
COHOMKIT_SIZE_CAP   max number of coordinates in a single cochain space
                    (default 10**6 when unset); computations needing a
                    larger space raise SizeCapExceeded, and so does the
                    thick ideal count for kC_p when its 2^(p-1) seeds
                    exceed the cap.  A value that is not a positive
                    integer raises ValueError.
"""

import os

DEFAULT_SIZE_CAP = 10**6
DEFAULT_ORDER_CAP = 64
# groups whose cochain complexes and factorizations stay cached at once
# (bar_cochains, cohomology_system); the least recently used one is dropped
GROUP_CACHE_SIZE = 32


def size_cap() -> int:
    raw = os.environ.get("COHOMKIT_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v <= 0:
        raise ValueError(
            f"COHOMKIT_SIZE_CAP must be a positive integer, not {raw!r}")
    return v

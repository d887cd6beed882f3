"""Speed probe: a fixed loop that measures how fast its core runs.

Usage::

    python3 perfbench/probe.py

The loop is shaped like cohomkit's op-log replay: random reads and writes
of a list of small ints, indexed through numpy arrays of a million entries.
It prints ``ready`` once its data is built, then runs until it is killed
or its parent exits.  On each SIGUSR1 it prints one line, ``<chunks done>
<its CPU seconds>``, so the caller can take the loop's rate over any
interval of CPU time.
"""

import os
import signal
import time

import numpy as np

CHUNK = 1000
N = 1 << 20

chunks = 0


def report(signum, frame):
    os.write(1, f"{chunks} {time.process_time()!r}\n".encode())


def main():
    global chunks
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, N, N), rng.integers(0, N, N)
    q = rng.integers(-3, 4, N)
    v = [int(x) for x in rng.integers(0, 7, N)]
    signal.signal(signal.SIGUSR1, report)
    parent = os.getppid()
    os.write(1, b"ready\n")
    pos = 0
    while os.getppid() == parent:
        # Values stay below 7, so they are the interpreter's shared small
        # ints: the loop keeps no new objects, and its speed does not drift
        # as the list's objects move about in memory.
        for i in range(pos, pos + CHUNK):
            j = a[i]
            v[j] = (v[j] - int(q[i]) * v[b[i]]) % 7
        pos = (pos + CHUNK) % (N - CHUNK)
        chunks += 1


if __name__ == "__main__":
    main()

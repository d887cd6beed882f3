"""Dense exact Smith normal form over Z, and the parsing of a modulus.

Everything here uses python integers, so no computation can overflow.  In
the package the Smith form runs in one place only: phase 3 of the sparse
engine in :mod:`cohomkit.exact.sparse`, on its small echelon block; module
presentations go through that engine too.  The Smith form's input and its
transforms U, D and V are numpy object arrays of python ints, which the
engine reads by :func:`cohomkit.kernels.matmul` alone, as it does every
other dense matrix of the package.  The tests use the Smith form as their
oracle, with a solver and a kernel of their own on its transforms
(``smith_solve`` and ``smith_kernel`` in ``tests/oracles.py``): nothing
here comes from the kernels, so the oracles share only the decomposition
with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# entrywise int(): numpy integers in an object array become python ints
_to_int = np.frompyfunc(int, 1, 1)


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """U*M*V = D with U, V unimodular and D diagonal with divisibility chain,
    each an object array of python ints; ``source`` is M."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    source: np.ndarray

    def diagonal(self):
        return self.D.diagonal().tolist()

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form with full transforms of ``M``, a 2-D integer array
    or a list of equal-length rows.

    Pivot selection: smallest nonzero absolute value, ties broken by lowest
    (row, col) index, which makes the output deterministic.
    """
    src = np.array(M, dtype=object)
    if src.ndim != 2:
        if src.size:
            raise ValueError("a matrix needs equal-length rows")
        src = src.reshape(0, 0)
    src = _to_int(src)
    nr, nc = src.shape
    a = src.tolist()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    t = 0
    limit = min(nr, nc)
    while t < limit:
        # pivot: min |value|, ties by (row, col)
        best = None
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = ai[j]
                if x != 0 and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            x = a[i][t]
            if x:
                q = x // p
                if q:
                    ai, at = a[i], a[t]
                    for j in range(t, nc):
                        ai[j] -= q * at[j]
                    ui, ut = u[i], u[t]
                    for j in range(nr):
                        ui[j] -= q * ut[j]
                if a[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, nc):
            x = a[t][j]
            if x:
                q = x // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, nr):
            ai = a[i]
            for j in range(t + 1, nc):
                if ai[j] % p != 0:
                    bad = j
                    break
            if bad is not None:
                break
        if bad is not None:
            for row in a:
                row[t] += row[bad]
            for row in v:
                row[t] += row[bad]
            continue
        if p < 0:
            for j in range(t, nc):
                a[t][j] = -a[t][j]
            for j in range(nr):
                u[t][j] = -u[t][j]
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    return SmithDecomposition(
        U=np.array(u, dtype=object).reshape(nr, nr),
        D=np.array(d, dtype=object).reshape(nr, nc),
        V=np.array(v, dtype=object).reshape(nc, nc),
        source=src,
    )


def normalize_modulus(m) -> int:
    """Accept "Z", 0 or None for the integers, or a modulus >= 2 given as an
    integer or a string such as "4" or "Z/4"; return 0 for Z."""
    if m in ("Z", "z", None, 0):
        return 0
    if isinstance(m, str):
        m = m.strip()
        if m.upper().startswith("Z/"):
            m = m[2:]
    m = int(m)
    if m < 2:
        raise ValueError(f"modulus must be 'Z' or an integer >= 2, got {m}")
    return m


"""Dense exact linear algebra over Z and Z/m.

Everything here uses python integers, so no computation can overflow.  In
the package the Smith form runs in one place only: phase 3 of the sparse
engine in :mod:`cohomkit.exact.sparse`, on its small echelon block; module
presentations go through that engine too.  The tests use it as their
oracle.  ``IntMatrix`` holds the Smith form's input and transforms, and has
only what that form and phase 3 read (entries, rows, ``mul_vec``); every
other dense matrix of the package is a numpy array, multiplied by
:func:`cohomkit.kernels.matmul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..errors import InternalCheckFailed


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [int(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rowlist) -> "IntMatrix":
        rowlist = [list(r) for r in rowlist]
        r = len(rowlist)
        c = len(rowlist[0]) if r else 0
        if any(len(row) != c for row in rowlist):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rowlist for x in row])

    def __getitem__(self, rc):
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum(x * y for x, y in zip(ai, v)) for ai in self.to_rows()]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U*M*V = D with U, V unimodular and D diagonal with divisibility chain."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    source: IntMatrix

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def solve(self, b, m=0):
        """Some x with source x = b (mod m), or None; m = 0 or "Z" solves
        over Z.

        The returned solution is deterministic: each Smith coordinate is
        chosen as the least nonnegative value.  A solution that fails the
        final source x = b check raises InternalCheckFailed.
        """
        m = normalize_modulus(m)
        nr, nc = self.source.rows, self.source.cols
        b = [int(x) for x in b]
        if len(b) != nr:
            raise ValueError("rhs length mismatch")
        c = self.U.mul_vec(b)
        diag = self.diagonal()
        y = [0] * nc
        for i in range(nr):
            ci = c[i]
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if (ci % m if m else ci) != 0:
                    return None
            else:
                if m == 0:
                    if ci % d != 0:
                        return None
                    y[i] = ci // d
                else:
                    g = gcd(d, m)
                    if ci % g != 0:
                        return None
                    mm = m // g
                    y[i] = (((ci // g) * pow(d // g, -1, mm)) % mm
                            if mm > 1 else 0)
        x = self.V.mul_vec(y)
        if m:
            x = [xi % m for xi in x]
        back = self.source.mul_vec(x)
        if any((bi - ci) % m != 0 if m else bi != ci
               for bi, ci in zip(back, b)):
            raise InternalCheckFailed("Smith solve produced a non-solution")
        return x

    def kernel(self, m=0):
        """Generators of {x : source x = 0 (mod m)} over Z, in column order:
        (m / gcd(d, m)) V_j for each nonzero d_j (only when m > 0), then the
        columns of V past the rank.  They are a Z-basis of that lattice, which
        for m > 0 contains m Z^n; m = 0 or "Z" gives ker(source) over Z."""
        m = normalize_modulus(m)
        V, n = self.V, self.V.rows
        cols = [(j, m // gcd(d, m))
                for j, d in enumerate(self.diagonal()) if d and m]
        cols += [(j, 1) for j in range(self.rank(), n)]
        return [[mult * V[i, j] for i in range(n)] for j, mult in cols]


def _as_rows(M):
    if isinstance(M, IntMatrix):
        return M.to_rows(), M.rows, M.cols
    rows = [list(map(int, r)) for r in M]
    r = len(rows)
    c = len(rows[0]) if r else 0
    return rows, r, c


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form with full transforms.

    Pivot selection: smallest nonzero absolute value, ties broken by lowest
    (row, col) index, which makes the output deterministic.
    """
    a, nr, nc = _as_rows(M)
    src = M if isinstance(M, IntMatrix) else IntMatrix.from_rows(a)
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
        U=IntMatrix.from_rows(u),
        D=IntMatrix.from_rows(d),
        V=IntMatrix.from_rows(v),
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


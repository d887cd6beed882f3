"""Dense oracles for the tests: free resolutions of the trivial module over
ZG and their cochain complexes, on the dense Smith normal form only, and
F_p row echelon forms by numpy row operations, and back-substitution
through +-1 pivot rows one entry at a time.  Their matrices are numpy
object arrays of python ints, multiplied with ``@``.  The solver and the
kernel on a Smith decomposition, ``smith_solve`` and ``smith_kernel``,
live here and read it one coordinate at a time; the engine reads its
decomposition by array products, so the two share no solving code.

Two independent constructions are provided: the normalized bar resolution
(any finite group) and the period-2 resolution of cyclic groups, which
serves as a cross-check oracle for every cohomology computation.  Homology
is read off by ``subquotient_invariants``, on dense matrices.  A module
presentation is realized by ``realize_presentation`` on the Smith form of
its relations, as the package did before its presentations went through the
sparse engine.

The degree-n term of the normalized bar resolution is free over ZG on
n-tuples of non-identity elements, so ranks grow like (|G|-1)^n; tuples are
ordered lexicographically, as in :mod:`cohomkit.resolutions`.

They use nothing of the sparse engine they check (which shares only the
dense Smith form, on its small echelon block): from ``cohomkit`` they
import only ``exact.dense``, ``groups``, ``config`` and ``errors``
(``test_hygiene.py`` holds them to that).
"""

from math import gcd

import numpy as np

from cohomkit.config import size_cap
from cohomkit.errors import InternalCheckFailed, SizeCapExceeded
from cohomkit.exact.dense import normalize_modulus, smith_normal_form
from cohomkit.groups import FiniteGroup, cyclic


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def zero(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object)


def matmul(*factors) -> np.ndarray:
    """The product of the factors, 2-D arrays or lists of rows, in numpy
    object arrays of python ints."""
    out = np.array(factors[0], dtype=object)
    for a in factors[1:]:
        out = out @ np.array(a, dtype=object)
    return out


def smith_solve(dec, b, m=0):
    """Some x with source x = b (mod m) for the Smith decomposition
    ``dec``, or None; m = 0 or "Z" solves over Z.

    The returned solution is deterministic: each Smith coordinate is
    chosen as the least nonnegative value, one coordinate at a time in
    python ints.  A solution that fails the final source x = b check
    raises InternalCheckFailed.
    """
    m = normalize_modulus(m)
    nr, nc = dec.source.shape
    b = [int(x) for x in b]
    if len(b) != nr:
        raise ValueError("rhs length mismatch")
    c = (dec.U @ np.array(b, dtype=object)).tolist()
    diag = dec.diagonal()
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
    x = dec.V @ np.array(y, dtype=object)
    if m:
        x %= m
    back = dec.source @ x
    if any((bi - ci) % m != 0 if m else bi != ci
           for bi, ci in zip(back, b)):
        raise InternalCheckFailed("Smith solve produced a non-solution")
    return x.tolist()


def smith_kernel(dec, m=0):
    """Generators of {x : source x = 0 (mod m)} over Z for the Smith
    decomposition ``dec``, in column order: (m / gcd(d, m)) V_j for each
    nonzero d_j (only when m > 0), then the columns of V past the rank.
    They are a Z-basis of that lattice, which for m > 0 contains m Z^n;
    m = 0 or "Z" gives ker(source) over Z."""
    m = normalize_modulus(m)
    cols = [(j, m // gcd(d, m))
            for j, d in enumerate(dec.diagonal()) if d and m]
    cols += [(j, 1) for j in range(dec.rank(), len(dec.V))]
    return [(mult * dec.V[:, j]).tolist() for j, mult in cols]


def solve_mod(A, b, m):
    """Some x with A x = b (mod m), or None; see smith_solve."""
    return smith_solve(smith_normal_form(A), b, m)


def backsub(rows, pivcol, pivinv, rhs, x, m=0) -> list:
    """Back-substitution through frozen pivot rows, one entry at a time in
    python ints, over Z/m, or over Z when m == 0.  ``rows`` is a pool
    (starts, lens, cols, vals) of the rows in pivot order, each with its
    pivot entry first; row t solves for column ``pivcol[t]``, in reverse
    pivot order, with ``pivinv[t]`` the inverse of its pivot.  ``x`` is a
    vector prefilled on the non-pivot columns."""
    starts, lens, cols, vals = rows
    x = [int(v) % m if m else int(v) for v in x]
    for t in range(len(starts) - 1, -1, -1):
        s = starts[t]
        acc = int(rhs[t])
        for k in range(s + 1, s + lens[t]):  # entry s is the pivot
            acc -= vals[k] * x[cols[k]]
        x[pivcol[t]] = acc * pivinv[t] % m if m else acc * pivinv[t]
    return x


def cokernel_invariants(M, m) -> list:
    """Invariant factors of target/(image of M) over Z or Z/m, read off the
    Smith form of [M | m I].  ``M`` is a 2-D array or a list of rows.

    Over Z a factor 0 denotes a free summand; over Z/m all factors divide m.
    """
    m = normalize_modulus(m)
    M = np.array(M, dtype=object)
    nr = len(M)
    if m and nr:
        M = np.hstack([M, m * identity(nr)])
    diag = smith_normal_form(M).diagonal()
    rank = sum(1 for d in diag if d != 0)
    return [d for d in diag if d > 1] + [0] * (nr - rank)


def echelon_modp(A, p):
    """Reduced row echelon form of A mod p by numpy row operations,
    independent of the Smith form; returns (R, pivot columns)."""
    M = np.asarray(A, dtype=np.int64) % p
    rows, cols = M.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = [rr for rr in range(r, rows) if M[rr, c]]
        if not nz:
            continue
        M[[r, nz[0]]] = M[[nz[0], r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for rr in range(rows):
            if rr != r and M[rr, c]:
                M[rr] = (M[rr] - M[rr, c] * M[r]) % p
        piv.append(c)
        r += 1
    return M, piv


def det(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in M]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_smith(dec) -> bool:
    """U M V = D with U, V unimodular and D a nonnegative diagonal with
    the divisibility chain, zeros last."""
    if not np.array_equal(matmul(dec.U, dec.source, dec.V), dec.D):
        return False
    if abs(det(dec.U)) != 1 or abs(det(dec.V)) != 1:
        return False
    diag = dec.diagonal()
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0 and (diag[i] == 0 or diag[i + 1] % diag[i] != 0):
            return False
        if diag[i] == 0 and diag[i + 1] != 0:
            return False
    if any(d < 0 for d in diag):
        return False
    nr, nc = dec.D.shape
    return all(dec.D[i, j] == 0 for i in range(nr) for j in range(nc)
               if i != j)


def unimodular_inverse(M) -> np.ndarray:
    """Inverse of a unimodular integer matrix, read off its own Smith form:
    U' M V' = I gives M^-1 = V' U'.  ValueError unless that form is I."""
    dec = smith_normal_form(M)
    if not np.array_equal(dec.D, identity(len(dec.D))):
        raise ValueError("matrix is not unimodular")
    return matmul(dec.V, dec.U)


def realize_presentation(generators: int, relations, action, m: int):
    """Dense reference realization of a presentation without torsion: Z^g
    (g = ``generators``) modulo the ``relations`` and m Z^g, m = 0 over Z.

    With the Smith form U A V = D of the relation matrix A (one column per
    relation), the quotient is the sum of the Z/gcd(d_i, m) on the
    coordinates (U x)_i.  Returns (the matrix of each of ``action`` on the
    coordinates of order m, the projection onto them): rows i of U, times
    the action, times columns i of U^-1."""
    A = np.array(relations, dtype=object).reshape(len(relations),
                                                  generators).T
    dec = smith_normal_form(A)
    diag = dec.diagonal()
    free = [i for i in range(generators)
            if gcd(diag[i] if i < len(diag) else 0, m) == m]
    proj = dec.U[free]
    lift = unimodular_inverse(dec.U)[:, free]
    return [matmul(proj, mat, lift) for mat in action], proj


class Resolution:
    """Free resolution data over the group ring.

    Differentials are stored sparsely as lists of (col, row, g, coeff)
    meaning d(e_col) += coeff * g * e_row; ``differential_int_matrix``
    expands degree n to the underlying Z-lattice map of shape
    (ranks[n-1]*|G|) x (ranks[n]*|G|).
    """

    def __init__(self, group: FiniteGroup, ranks, zg_diffs):
        self.group = group
        self.ranks = list(ranks)
        self.zg_diffs = zg_diffs  # zg_diffs[n] for 1 <= n <= N

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential_int_matrix(self, n: int) -> np.ndarray:
        order = self.group.order
        rows = self.ranks[n - 1] * order
        cols = self.ranks[n] * order
        if rows * cols > size_cap() * 64:
            raise SizeCapExceeded(
                f"expanded differential {rows}x{cols} exceeds the cap")
        table = self.group.table
        ent = [[0] * cols for _ in range(rows)]
        # d(h . e_j) = h . d(e_j), so the g-term lands on (h g) . e_i
        for (j, i, g, c) in self.zg_diffs[n]:
            for h in range(order):
                ent[i * order + table[h][g]][j * order + h] += c
        return np.array(ent, dtype=object)

    def augmentation_matrix(self) -> np.ndarray:
        order = self.group.order
        return np.ones((1, self.ranks[0] * order), dtype=object)

    def dual_differential(self, n: int,
                          coefficient_modulus: int = 0) -> np.ndarray:
        """Matrix of Hom_ZG(d_n, M) for the trivial module M = Z or Z/m,
        as a map M^{ranks[n-1]} -> M^{ranks[n]}."""
        rows = [[0] * self.ranks[n - 1] for _ in range(self.ranks[n])]
        for (j, i, g, c) in self.zg_diffs[n]:
            rows[j][i] += c
        if coefficient_modulus:
            rows = [[v % coefficient_modulus for v in r] for r in rows]
        return np.array(rows, dtype=object)


def bar_resolution(G: FiniteGroup, N: int) -> Resolution:
    """Normalized bar resolution of Z over ZG up to degree N."""
    q = G.order - 1
    cap = size_cap()
    if q**N > cap:
        raise SizeCapExceeded(
            f"bar resolution rank {q}^{N} exceeds the cochain cap {cap}")
    ranks = [q**n for n in range(N + 1)]
    diffs = {n: _bar_zg_entries(G, n) for n in range(1, N + 1)}
    return Resolution(G, ranks, diffs)


def _tuple_of_index(idx: int, n: int, q: int):
    """Lexicographic tuple of non-identity element indices (each in 1..q)."""
    digits = []
    for _ in range(n):
        digits.append(idx % q + 1)
        idx //= q
    return tuple(reversed(digits))


def _index_of_tuple(tup, q: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * q + (t - 1)
    return idx


def _bar_zg_entries(G: FiniteGroup, n: int):
    """Sparse ZG entries of d_n: F_n -> F_{n-1} of the normalized bar
    resolution: d[g1|..|gn] = g1[g2|..|gn] + sum (-1)^i [..|g_i g_{i+1}|..]
    + (-1)^n [g1|..|g_{n-1}], degenerate faces dropped."""
    q = G.order - 1
    table = G.table
    out = []
    for j in range(q**n):
        tup = _tuple_of_index(j, n, q)
        if n == 1:
            out.append((j, 0, tup[0], 1))
            out.append((j, 0, 0, -1))
            continue
        out.append((j, _index_of_tuple(tup[1:], q), tup[0], 1))
        sign = -1
        for i in range(1, n):
            prod = table[tup[i - 1]][tup[i]]
            if prod != 0:
                merged = tup[:i - 1] + (prod,) + tup[i + 1:]
                out.append((j, _index_of_tuple(merged, q), 0, sign))
            sign = -sign
        out.append((j, _index_of_tuple(tup[:-1], q), 0, sign))
    return out


def bar_csr_by_coo(bar, n: int, cleared=()):
    """The CSR triple (indptr, indices, data) of the bar differential D_n
    without the entries of the columns ``cleared``, built as a COO triple
    and sorted as a whole: the faces of ``bar._terms`` applied to the row
    and column indices (the pad -1 for a degenerate face), concatenated,
    pads and cleared columns dropped, lexsorted by row and column, equal
    positions summed and zero sums dropped.  ``bar`` is a
    ``cohomkit.resolutions.BarCochains``, passed in, so that this module
    imports nothing of the engine."""
    rank, low = bar.rank(n), bar.rank(n - 1)
    live = np.ones(low + 1, dtype=bool)
    live[list(cleared)] = False
    live[-1] = False  # the pad
    cells = np.arange(rank, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, signs = [empty], [empty], [empty]
    for sign, at, vals in bar._terms(n, [cells] * (n + 1),
                                     np.arange(low, dtype=np.int64), pad=-1):
        rows.append(at.ravel())
        cols.append(np.broadcast_to(vals, at.shape).ravel())
        signs.append(np.full(at.size, sign, dtype=np.int64))
    rows, cols, signs = (np.concatenate(a) for a in (rows, cols, signs))
    keep = live[cols]
    rows, cols, signs = rows[keep], cols[keep], signs[keep]
    order = np.lexsort((cols, rows))
    rows, cols, signs = rows[order], cols[order], signs[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(signs, starts) if len(signs) else signs
    nz = sums != 0
    indptr = np.zeros(rank + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[starts][nz], minlength=rank), out=indptr[1:])
    return indptr, cols[starts][nz], sums[nz]


def periodic_resolution_cyclic(n: int, N: int) -> Resolution:
    """Period-2 resolution of Z over ZC_n: multiplication by (g-1) in odd
    degrees and by the norm element in even degrees."""
    if n < 2:
        raise ValueError("cyclic group order must be >= 2")
    G = cyclic(n)
    ranks = [1] * (N + 1)
    diffs = {}
    for k in range(1, N + 1):
        if k % 2 == 1:
            diffs[k] = [(0, 0, 1, 1), (0, 0, 0, -1)]
        else:
            diffs[k] = [(0, 0, g, 1) for g in range(n)]
    return Resolution(G, ranks, diffs)


def subquotient_invariants(d_in: np.ndarray, d_out: np.ndarray, m) -> list:
    """Invariant factors of ker(d_out)/im(d_in) over Z (m=0/"Z") or Z/m.

    Dense, exact, independent of the sparse machinery: used as the oracle
    for small complexes.  Over Z a 0 denotes a free summand.
    """
    m = normalize_modulus(m)
    r = d_out.shape[1]
    if len(d_in) != r:
        raise ValueError("differentials do not compose")
    # lattice L = {x : d_out x = 0 (mod m)} expressed by a basis matrix B
    basis = smith_kernel(smith_normal_form(d_out), m)
    if not basis:
        return []
    B = np.array(basis, dtype=object).T
    # generators of im(d_in) + mZ^r in B-coordinates
    gens = d_in.T.tolist()
    if m:
        gens += (m * identity(r)).tolist()
    bdec = smith_normal_form(B)
    rel_cols = []
    for gvec in gens:
        y = smith_solve(bdec, gvec)
        if y is None:
            raise ValueError("image does not lie in the kernel lattice")
        rel_cols.append(y)
    if not rel_cols:
        return [0] * B.shape[1]
    R = np.array(rel_cols, dtype=object).T
    return cokernel_invariants(R, "Z")


def verify_complex(resolution: Resolution, max_degree: int | None = None) -> dict:
    """Check d o d = 0 and exactness of the augmented complex.

    Returns {"dd_zero": {n: bool}, "exact": {n: bool}, "pass": bool}.
    Exactness at degree n (1 <= n <= N-1) means the homology of the
    underlying Z-lattice complex vanishes there; degree 0 checks that the
    augmentation identifies H_0 with Z.
    """
    N = resolution.length if max_degree is None else min(max_degree,
                                                         resolution.length)
    order = resolution.group.order
    table = resolution.group.table
    report = {"dd_zero": {}, "exact": {}}
    # symbolic composition over the group ring
    for n in range(2, N + 1):
        acc: dict = {}
        by_col: dict = {}
        for (j, i, g, c) in resolution.zg_diffs[n]:
            by_col.setdefault(j, []).append((i, g, c))
        inner: dict = {}
        for (j2, i2, g2, c2) in resolution.zg_diffs[n - 1]:
            inner.setdefault(j2, []).append((i2, g2, c2))
        ok = True
        for j, terms in by_col.items():
            acc.clear()
            for (mid, g, c) in terms:
                for (i2, g2, c2) in inner.get(mid, []):
                    key = (i2, table[g][g2])
                    acc[key] = acc.get(key, 0) + c * c2
            if any(acc.values()):
                ok = False
                break
        report["dd_zero"][n] = ok
    # exactness via dense invariants on the expanded lattice complex
    mats = {}

    def mat(n):
        if n not in mats:
            if n == 0:
                mats[n] = resolution.augmentation_matrix()
            else:
                mats[n] = resolution.differential_int_matrix(n)
        return mats[n]

    for n in range(0, N):
        d_out = mat(n)          # F_n -> F_{n-1} (or augmentation at n=0)
        d_in = mat(n + 1)       # F_{n+1} -> F_n
        try:
            inv = subquotient_invariants(d_in=d_in, d_out=d_out, m="Z")
        except ValueError:
            # image not even contained in the kernel: d o d != 0 here
            report["exact"][n] = False
            continue
        report["exact"][n] = (inv == [])
    report["pass"] = all(report["dd_zero"].values()) and \
        all(report["exact"].values())
    return report


class CochainComplex:
    """Hom over the group ring from a resolution into Z or Z/c (trivial
    module), with dual differentials materialized on demand."""

    def __init__(self, resolution: Resolution, coefficient_modulus: int = 0):
        self.resolution = resolution
        self.coefficient_modulus = int(coefficient_modulus)

    def rank(self, n: int) -> int:
        return self.resolution.ranks[n]

    def differential(self, n: int) -> np.ndarray:
        """d^n : C^{n-1} -> C^n."""
        return self.resolution.dual_differential(
            n, coefficient_modulus=self.coefficient_modulus)

    def verify_dd_zero(self, max_degree: int | None = None) -> bool:
        N = self.resolution.length if max_degree is None else max_degree
        m = self.coefficient_modulus
        for n in range(2, N + 1):
            prod = matmul(self.differential(n), self.differential(n - 1))
            if (prod % m if m else prod).any():
                return False
        return True

    def cohomology_invariants(self, n: int) -> list:
        d_in = self.differential(n) if n >= 1 else zero(self.rank(0), 1)
        d_out = self.differential(n + 1)
        return subquotient_invariants(d_in, d_out,
                                      self.coefficient_modulus or "Z")

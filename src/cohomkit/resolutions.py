"""Free resolutions of the trivial module and their cochain complexes.

Two independent constructions are provided: the normalized bar resolution
(any finite group) and the period-2 resolution of cyclic groups, which
serves as a cross-check oracle for every cohomology computation.

The degree-n term of the normalized bar resolution is free over ZG on
n-tuples of non-identity elements, so ranks grow like (|G|-1)^n; tuples are
ordered lexicographically, and all cocycle vectors in the package refer to
that ordering.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import GROUP_CACHE_SIZE, size_cap
from .errors import SizeCapExceeded
from .exact.dense import (IntMatrix, cokernel_invariants, normalize_modulus,
                          smith_normal_form)
from .exact.sparse import SparseFactorization
from .groups import FiniteGroup
from . import kernels


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

    def differential_int_matrix(self, n: int) -> IntMatrix:
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
        return IntMatrix.from_rows(ent)

    def augmentation_matrix(self) -> IntMatrix:
        order = self.group.order
        return IntMatrix.from_rows([[1] * (self.ranks[0] * order)])

    def dual_differential(self, n: int, coefficient_modulus: int = 0) -> IntMatrix:
        """Matrix of Hom_ZG(d_n, M) for the trivial module M = Z or Z/m,
        as a map M^{ranks[n-1]} -> M^{ranks[n]}."""
        rows = [[0] * self.ranks[n - 1] for _ in range(self.ranks[n])]
        for (j, i, g, c) in self.zg_diffs[n]:
            rows[j][i] += c
        if coefficient_modulus:
            rows = [[v % coefficient_modulus for v in r] for r in rows]
        return IntMatrix.from_rows(rows)


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


def periodic_resolution_cyclic(n: int, N: int) -> Resolution:
    """Period-2 resolution of Z over ZC_n: multiplication by (g-1) in odd
    degrees and by the norm element in even degrees."""
    if n < 2:
        raise ValueError("cyclic group order must be >= 2")
    from .groups import cyclic

    G = cyclic(n)
    ranks = [1] * (N + 1)
    diffs = {}
    for k in range(1, N + 1):
        if k % 2 == 1:
            diffs[k] = [(0, 0, 1, 1), (0, 0, 0, -1)]
        else:
            diffs[k] = [(0, 0, g, 1) for g in range(n)]
    return Resolution(G, ranks, diffs)


def subquotient_invariants(d_in: IntMatrix, d_out: IntMatrix, m) -> list:
    """Invariant factors of ker(d_out)/im(d_in) over Z (m=0/"Z") or Z/m.

    Dense, exact, independent of the sparse machinery: used as the oracle
    for small complexes.  Over Z a 0 denotes a free summand.
    """
    m = normalize_modulus(m)
    r = d_out.cols
    if d_in.rows != r:
        raise ValueError("differentials do not compose")
    # lattice L = {x : d_out x = 0 (mod m)} expressed by a basis matrix B
    basis = smith_normal_form(d_out).kernel(m)
    if not basis:
        return []
    B = IntMatrix.from_rows([list(col) for col in zip(*basis)])
    # generators of im(d_in) + mZ^r in B-coordinates
    gens = [[d_in[i, j] for i in range(r)] for j in range(d_in.cols)]
    if m:
        gens += [[m if k == i else 0 for k in range(r)] for i in range(r)]
    bdec = smith_normal_form(B)
    rel_cols = []
    for gvec in gens:
        y = bdec.solve(gvec)
        if y is None:
            raise ValueError("image does not lie in the kernel lattice")
        rel_cols.append(y)
    if not rel_cols:
        return [0] * B.cols
    R = IntMatrix.from_rows([list(col) for col in zip(*rel_cols)])
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

    def differential(self, n: int) -> IntMatrix:
        """d^n : C^{n-1} -> C^n."""
        return self.resolution.dual_differential(
            n, coefficient_modulus=self.coefficient_modulus)

    def verify_dd_zero(self, max_degree: int | None = None) -> bool:
        N = self.resolution.length if max_degree is None else max_degree
        m = self.coefficient_modulus
        for n in range(2, N + 1):
            prod = self.differential(n) @ self.differential(n - 1)
            bad = any((v % m if m else v) for v in prod.entries)
            if bad:
                return False
        return True

    def cohomology_invariants(self, n: int) -> list:
        d_in = self.differential(n) if n >= 1 else \
            IntMatrix.zero(self.rank(0), 1)
        d_out = self.differential(n + 1)
        return subquotient_invariants(d_in, d_out,
                                      self.coefficient_modulus or "Z")


# ---------------------------------------------------------------------------
# bar cochain machinery (trivial coefficients)
# ---------------------------------------------------------------------------

class BarCochains:
    """Cochain complex Hom_ZG(bar resolution, trivial module) of a group.

    Degree-n cochains are integer vectors indexed lexicographically by
    n-tuples of non-identity elements.  The dual differentials are cached as
    CSR matrices, and their sparse factorizations over Z are cached per
    degree; each factorization answers the mod-m questions too.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.q = G.order - 1
        self._csr: dict = {}
        self._facts: dict = {}
        self._table = np.array(G.table, dtype=np.int64)

    def rank(self, n: int) -> int:
        return self.q**n

    def check_cap(self, n: int):
        if self.rank(n) > size_cap():
            raise SizeCapExceeded(
                f"cochain space of dimension {self.q}^{n} exceeds the cap "
                f"{size_cap()} (set COHOMKIT_SIZE_CAP to raise it)")

    def digits(self, n: int) -> np.ndarray:
        """(n, q^n) array: tuple entries (1..q) of each basis index."""
        nrows = self.rank(n)
        digits = np.empty((n, nrows), dtype=np.int64)
        r = np.arange(nrows, dtype=np.int64)
        for k in range(n - 1, -1, -1):
            digits[k] = r % self.q + 1
            r //= self.q
        return digits

    def csr(self, n: int):
        """CSR triple of D_n : C^{n-1} -> C^n (dual differential)."""
        if n in self._csr:
            return self._csr[n]
        self.check_cap(n)
        q = self.q
        nrows = self.rank(n)
        rows_idx = np.arange(nrows, dtype=np.int64)
        digits = self.digits(n)

        def tuple_index(dig_list):
            out = np.zeros(nrows, dtype=np.int64)
            for d in dig_list:
                out = out * q + (d - 1)
            return out

        coo_r, coo_c, coo_v = [], [], []
        # face 0 (drop first; trivial coefficients kill the action)
        coo_r.append(rows_idx)
        coo_c.append(tuple_index([digits[k] for k in range(1, n)]))
        coo_v.append(np.ones(nrows, dtype=np.int64))
        # inner faces
        sign = -1
        for i in range(1, n):
            prod = self._table[digits[i - 1], digits[i]]
            ok = prod != 0
            dig = [digits[k] for k in range(i - 1)] + [prod] + \
                [digits[k] for k in range(i + 1, n)]
            coo_r.append(rows_idx[ok])
            coo_c.append(tuple_index(dig)[ok])
            coo_v.append(np.full(int(ok.sum()), sign, dtype=np.int64))
            sign = -sign
        # last face (drop last)
        coo_r.append(rows_idx)
        coo_c.append(tuple_index([digits[k] for k in range(n - 1)]))
        coo_v.append(np.full(nrows, sign, dtype=np.int64))

        r = np.concatenate(coo_r)
        c = np.concatenate(coo_c)
        v = np.concatenate(coo_v)
        # sum duplicates into CSR
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        if len(r):
            newgrp = np.empty(len(r), dtype=bool)
            newgrp[0] = True
            newgrp[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            gid = np.cumsum(newgrp) - 1
            vv = np.zeros(gid[-1] + 1, dtype=np.int64)
            np.add.at(vv, gid, v)
            rr = r[newgrp]
            cc = c[newgrp]
            keep = vv != 0
            rr, cc, vv = rr[keep], cc[keep], vv[keep]
        else:
            rr, cc, vv = r, c, v
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rr + 1, 1)
        indptr = np.cumsum(indptr)
        self._csr[n] = (indptr, cc.astype(np.int64), vv.astype(np.int64))
        return self._csr[n]

    def fact(self, n: int) -> SparseFactorization:
        """Factorization of D_n over Z; its queries take the modulus."""
        if n not in self._facts:
            self.check_cap(n)
            self.check_cap(n - 1)
            indptr, indices, data = self.csr(n)
            rows = np.repeat(np.arange(self.rank(n), dtype=np.int64),
                             np.diff(indptr))
            self._facts[n] = SparseFactorization(
                self.rank(n), self.rank(n - 1), (rows, indices, data))
        return self._facts[n]

    def matvec(self, n: int, vec):
        """D_n applied to a degree-(n-1) cochain vector, exact over Z."""
        indptr, indices, data = self.csr(n)
        return kernels.csr_matvec_int(indptr, indices, data, vec)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def bar_cochains(G: FiniteGroup) -> BarCochains:
    """The cached cochain complex of G (groups hash by identity)."""
    return BarCochains(G)

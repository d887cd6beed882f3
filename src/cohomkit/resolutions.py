"""The cochain complex of the normalized bar resolution with trivial
coefficients, and its cached sparse factorizations.

The degree-n term of the normalized bar resolution is free over ZG on
n-tuples of non-identity elements, so ranks grow like (|G|-1)^n; tuples are
ordered lexicographically, and all cocycle vectors in the package refer to
that ordering.  One index rule reads the faces of a cell off its index: a
dual differential is applied from its faces, and built as a CSR matrix
only to be factored.  The dense resolutions that cross-check it live
with the tests (``tests/oracles.py``).

D_n is factored *cleared* (Chen & Kerber, "Persistent homology
computation with a twist", 2011; Bauer, "Ripser", 2021): without the
columns P that phase 1 of D_{n-1} chose as its +-1 pivot rows.  Phase-1
sources are always pivot rows, so D_{n-1} on the rows P and its pivot
columns is a unit lower-triangular matrix times the frozen block of pivot
rows, and that block is +-1-triangular: phase 1 takes its pivots in
rounds, and a pivot row holds no pivot column of an earlier round and no
other one of its own, so ordered by round the block is triangular with
the +-1 pivots on its diagonal.  The product is a unimodular matrix.  So each j in P has an integral b_j in
im D_{n-1} with (b_j)_P = e_j, and since D_n D_{n-1} = 0, D_n e_j =
D_n (e_j - b_j), a combination of the columns outside P.  The image of
D_n over Z, and mod every m, is therefore that of its columns outside P:
cokernel invariants and image membership are those of the full D_n, and
a solution that is zero on P solves the full D_n.  Phase-2 echelon rows
are never cleared, since their pivots need not be units.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import GROUP_CACHE_SIZE, size_cap
from .errors import InternalCheckFailed, SizeCapExceeded
from .exact.sparse import SparseFactorization, coo_to_csr
from .groups import FiniteGroup
from . import kernels

_LIMIT = 1 << 62  # int64 sums are exact while their bound stays below


class BarCochains:
    """Cochain complex Hom_ZG(bar resolution, trivial module) of a group.

    Degree-n cochains are integer vectors indexed lexicographically by
    n-tuples of non-identity elements: index r holds the entry at position
    j as the digit ``r // q**(n-1-j) % q``, one less than the element.  The
    sparse factorizations of the dual differentials over Z, the one cache,
    are kept per degree and answer the mod-m questions too.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.q = G.order - 1
        self._facts: dict = {}
        self._table = np.array(G.table, dtype=np.int64)

    def rank(self, n: int) -> int:
        """Dimension (|G| - 1)^n of the degree-n cochains, n >= 0."""
        if n < 0:
            raise ValueError(f"no cochains in negative degree {n}")
        return self.q**n

    def check_cap(self, n: int):
        if self.rank(n) > size_cap():
            raise SizeCapExceeded(
                f"cochain space of dimension {self.q}^{n} exceeds the cap "
                f"{size_cap()} (set COHOMKIT_SIZE_CAP to raise it)")

    def _collapse(self, n: int, r: np.ndarray, i: int, k: int):
        """The bar-cell index rule.  For degree-n cell indices ``r``: the
        index of each tuple with its ``k`` >= 1 entries from position ``i``
        replaced by their product, and the mask where that product is not
        the identity (elsewhere the cell is degenerate and the index is
        not one)."""
        q = self.q
        prod = r // q**(n - 1 - i) % q + 1
        for j in range(i + 1, i + k):
            prod = self._table[prod, r // q**(n - 1 - j) % q + 1]
        low = q**(n - i - k)
        return (r // q**(n - i) * q + prod - 1) * low + r % low, prod != 0

    def _faces(self, n: int):
        """The faces of D_n : C^{n-1} -> C^n as (sign, rows, columns):
        face i, of sign (-1)^i, sends the degree-n cells ``rows`` to the
        cells ``columns``.  Faces 0 and n drop the first and the last entry
        (the action is trivial); face i multiplies entries i-1 and i, on
        the cells where that product is not the identity."""
        r = np.arange(self.rank(n), dtype=np.int64)
        yield 1, r, r % self.q**(n - 1)
        for i in range(1, n):
            cols, ok = self._collapse(n, r, i - 1, 2)
            yield (-1)**i, r[ok], cols[ok]
        yield (-1)**n, r, r // self.q

    def csr(self, n: int, cleared=()):
        """CSR triple of D_n : C^{n-1} -> C^n (dual differential) without
        the entries of the columns ``cleared``, so of the same shape, built
        for its factorization, which keeps the arrays."""
        self.check_cap(n)
        live = np.ones(self.rank(n - 1), dtype=bool)
        live[list(cleared)] = False
        faces = [(sign, rows[keep], cols[keep])
                 for sign, rows, cols in self._faces(n)
                 for keep in [live[cols]]]
        return coo_to_csr(
            self.rank(n), self.rank(n - 1),
            np.concatenate([rows for _, rows, _ in faces]),
            np.concatenate([cols for _, _, cols in faces]),
            np.concatenate([np.full(len(rows), sign, dtype=np.int64)
                            for sign, rows, _ in faces]))

    def fact(self, n: int) -> SparseFactorization:
        """Factorization over Z of D_n, cleared for n >= 2: without the
        columns that phase 1 of D_{n-1} chose as its +-1 pivot rows, which
        the other columns already span (see the module docstring).  Its
        queries take the modulus and read the image of the full D_n, and a
        ``solve`` is zero on the cleared columns.  Its ``kernel_basis`` is
        not ker D_n, since the cleared columns read as free directions: no
        caller may ask for it (``tests/test_hygiene.py``)."""
        if n not in self._facts:
            self.check_cap(n)  # before the lower degrees are factored
            below = self.fact(n - 1) if n >= 2 else None
            f = SparseFactorization(
                self.rank(n), self.rank(n - 1),
                self.csr(n, below.piv_rows if below else ()))
            self._check_fact(n, f, below)
            self._facts[n] = f
        return self._facts[n]

    def _check_fact(self, n: int, f: SparseFactorization, below):
        """Two checks of the factorization ``f`` of D_n that theory gives
        for free, where ``below`` is that of D_{n-1} (None for n = 1).
        H^{n-1}(G; Q) = 0, so rank D_{n-1} + rank D_n = (|G| - 1)^{n-1} for
        n >= 2, and clearing keeps the rank; and |G| kills H^n(G; Z), the
        torsion of coker D_n (Brown, Cohomology of Groups, III.10.2), so
        every invariant factor above 1 divides |G|.  InternalCheckFailed if
        either fails."""
        def rank(g):
            return len(g.piv_rows) + len(g.echelon_rows)

        if below is not None and rank(below) + rank(f) != self.rank(n - 1):
            raise InternalCheckFailed(
                f"bar complex: rank D_{n - 1} + rank D_{n} = "
                f"{rank(below) + rank(f)}, not {self.rank(n - 1)}")
        bad = [d for d in f.coker_invariants() if d > 1
               and self.group.order % d]
        if bad:
            raise InternalCheckFailed(
                f"bar complex: invariant factors {bad} of coker D_{n} do "
                f"not divide |G| = {self.group.order}")

    def matvec(self, n: int, vec):
        """D_n applied to a degree-(n-1) cochain vector, or to the columns
        of an (rank, k) block of them in one pass over the faces, exact over
        Z, as a sum of +-w[column] over its faces: in int64 iff (n+1) *
        max|w| < 2^62 over the whole block, and in python ints otherwise."""
        if len(vec) != self.rank(n - 1):
            raise ValueError(f"cochain of length {len(vec)} where "
                             f"{self.rank(n - 1)} expected in degree {n - 1}")
        self.check_cap(n)
        w = kernels.int_array(vec)
        if (n + 1) * kernels.max_abs(w) >= _LIMIT:
            w = w.astype(object)
        out = np.zeros((self.rank(n),) + w.shape[1:], dtype=w.dtype)
        for sign, rows, cols in self._faces(n):
            if sign > 0:
                out[rows] += w[cols]
            else:
                out[rows] -= w[cols]
        return kernels.output(out)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def bar_cochains(G: FiniteGroup) -> BarCochains:
    """The cached cochain complex of G (groups hash by identity)."""
    return BarCochains(G)

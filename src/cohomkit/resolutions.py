"""The cochain complex of the normalized bar resolution with trivial
coefficients, and its cached sparse factorizations.

The degree-n term of the normalized bar resolution is free over ZG on
n-tuples of non-identity elements, so ranks grow like (|G|-1)^n; tuples are
ordered lexicographically, and all cocycle vectors in the package refer to
that ordering.  So a cochain reshaped to (q^i, q, q, q^(n-i-2)), q =
|G| - 1, holds at [:, a, b] the cells whose entries i and i + 1 have the
digits (a, b), and one rule reads the faces of all cells at once by shape:
the face that multiplies those two entries is, for each a, one gather
through row a of the product table, and the faces that drop the first or
the last entry are broadcasts.  As in Ripser (Bauer, 2021), a coboundary
is enumerated, never stored: a dual differential is applied by this rule,
and built as a CSR matrix only to be factored, row by row: the rule
applied to the column indices fills one table with a column a face, and
each row of it, sorted, gives that row of the matrix.  The dense
resolutions that cross-check it live with the tests
(``tests/oracles.py``).

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
from .exact.sparse import SparseFactorization
from .groups import FiniteGroup
from . import kernels

_LIMIT = 1 << 62  # int64 sums are exact while their bound stays below


class BarCochains:
    """Cochain complex Hom_ZG(bar resolution, trivial module) of a group.

    Degree-n cochains are integer vectors indexed lexicographically by
    n-tuples of non-identity elements: index r holds the entry at position
    j as the digit ``r // q**(n-1-j) % q``, one less than the element, so
    a cochain reshaped to (q^j, q, q^(n-1-j)) holds at [:, d] the cells
    whose entry j has the digit d.  The
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

    def check_cochain(self, vec, n: int):
        """ValueError unless ``vec``, a vector or a block of them as
        columns, has the rank(n) rows of a degree-n cochain."""
        if len(vec) != self.rank(n):
            raise ValueError(f"cochain of length {len(vec)} where "
                             f"{self.rank(n)} expected in degree {n}")

    def _products(self, k: int) -> np.ndarray:
        """The products of the k-tuples of non-identity elements, k >= 1,
        indexed like the degree-k cells, each as the digit of the product:
        one less than the element, so -1 for the identity."""
        p = np.arange(1, self.q + 1)
        for _ in range(k - 1):
            p = self._table[p[:, None], np.arange(1, self.q + 1)].ravel()
        return p - 1

    def collapse(self, out, w, i: int, k: int, pad=0):
        """The bar-cell rule, by shape.  ``out`` holds degree-n cochains
        and ``w`` degree-(n - k + 1) ones, vectors or blocks alike.
        Reshaped to (q^i, q, q^(k-1), q^(n-i-k)), ``out`` holds at [:, a]
        the cells whose entry i has the digit a.  For each a < q this
        yields (a, cells, vals): that view of ``out``, and ``w`` read on
        its cells with their k entries from i on replaced by their product,
        or ``pad`` where the product is the identity (the cell is
        degenerate): one gather of w, padded, through row a of the
        product table."""
        q = self.q
        if not q:
            return  # the trivial group has no cells in degree >= 1
        blk = w.shape[1:]
        hi = q**i
        lo = len(w) // (hi * q)
        prods = self._products(k).reshape(q, -1)
        wp = np.full((hi, q + 1, lo) + blk, pad, dtype=w.dtype)
        wp[:, :q] = w.reshape((hi, q, lo) + blk)  # digit -1 reads the pad
        cells = out.reshape((hi, q, q**(k - 1), lo) + blk)
        for a in range(q):
            yield a, cells[:, a], wp[:, prods[a]]

    def _terms(self, n: int, outs, w, pad=0):
        """The faces of D_n : C^{n-1} -> C^n on the degree-(n-1) cochains
        ``w``, by shape: yields (sign, cells, vals), a view of ``outs[i]``,
        the degree-n cochains that face i writes, and ``w`` read on its
        cells by that face, of sign (-1)^i.  Faces 0 and n drop the first
        and the last entry (the action is trivial), each one broadcast;
        face i multiplies entries i-1 and i, ``pad`` where that product is
        the identity (:meth:`collapse`)."""
        q, low = self.q, self.rank(n - 1)
        blk = w.shape[1:]
        yield 1, outs[0].reshape((q, low) + blk), w
        for i in range(1, n):
            for _, cells, vals in self.collapse(outs[i], w, i - 1, 2, pad):
                yield (-1)**i, cells, vals
        yield (-1)**n, outs[n].reshape((low, q) + blk), w[:, None]

    def csr(self, n: int, cleared=()):
        """CSR triple of D_n : C^{n-1} -> C^n (dual differential) without
        the entries of the columns ``cleared``, so of the same shape, built
        for its factorization, which keeps the arrays.  It is built row by
        row, in one (rank(n), n + 1) table: column i holds the column that
        face i reads, the pad -1 where the face is degenerate (:meth:`_terms`
        applied to the column indices), times two plus the parity of i,
        which gives the face's sign.  Each row is sorted, so that equal
        columns sit side by side, and the sign of each is added into the
        next equal one; pads, zero sums and the columns ``cleared`` are
        dropped."""
        self.check_cap(n)
        live = np.ones(self.rank(n - 1) + 1, dtype=bool)
        live[list(cleared)] = False
        live[-1] = False  # the pad
        table = np.empty((self.rank(n), n + 1), dtype=np.int64)
        for _, cells, vals in self._terms(
                n, table.T, np.arange(self.rank(n - 1), dtype=np.int64),
                pad=-1):
            cells[...] = vals
        table <<= 1
        table[:, 1::2] |= 1  # odd faces subtract
        table.sort(axis=1, kind="stable")
        sign = table & 1
        sign *= -2
        sign += 1
        table >>= 1  # the columns, ascending in each row
        for j in range(1, n + 1):
            same = np.flatnonzero(table[:, j] == table[:, j - 1])
            sign[same, j] += sign[same, j - 1]
            sign[same, j - 1] = 0
        keep = sign != 0
        keep &= live[table]
        indptr = np.zeros(self.rank(n) + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, table[keep], sign[keep]

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
        """D_n applied to a degree-(n-1) cochain vector w, or to the
        columns of an (rank, k) block of them, exact over Z, by shape: each
        face adds +-w, broadcast or gathered a digit at a time
        (:meth:`_terms`), into a view of the result: no index array per
        cell is built, and a gather reads rank(n)/q entries.  In int64 iff
        (n+1) * max|w| < 2^62 over the whole block, and in python ints
        otherwise."""
        self.check_cochain(vec, n - 1)
        self.check_cap(n)
        w = kernels.int_array(vec)
        if (n + 1) * kernels.max_abs(w) >= _LIMIT:
            w = w.astype(object)
        out = np.zeros((self.rank(n),) + w.shape[1:], dtype=w.dtype)
        for sign, cells, vals in self._terms(n, [out] * (n + 1), w):
            (np.add if sign > 0 else np.subtract)(cells, vals, out=cells)
        return kernels.output(out)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def bar_cochains(G: FiniteGroup) -> BarCochains:
    """The cached cochain complex of G (groups hash by identity)."""
    return BarCochains(G)

"""The cochain complex of the normalized bar resolution with trivial
coefficients, and its cached sparse factorizations.

The degree-n term of the normalized bar resolution is free over ZG on
n-tuples of non-identity elements, so ranks grow like (|G|-1)^n; tuples are
ordered lexicographically, and all cocycle vectors in the package refer to
that ordering.  The dense resolutions that cross-check it live with the
tests (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import GROUP_CACHE_SIZE, size_cap
from .errors import SizeCapExceeded
from .exact.sparse import SparseFactorization, coo_to_csr
from .groups import FiniteGroup
from . import kernels


class BarCochains:
    """Cochain complex Hom_ZG(bar resolution, trivial module) of a group.

    Degree-n cochains are integer vectors indexed lexicographically by
    n-tuples of non-identity elements.  The dual differentials are cached as
    CSR matrices, and their sparse factorizations over Z are cached per
    degree; a factorization holds the very arrays of its CSR matrix, and
    answers the mod-m questions too.
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

        self._csr[n] = coo_to_csr(nrows, self.rank(n - 1),
                                  np.concatenate(coo_r),
                                  np.concatenate(coo_c),
                                  np.concatenate(coo_v))
        return self._csr[n]

    def fact(self, n: int) -> SparseFactorization:
        """Factorization of D_n over Z; its queries take the modulus."""
        if n not in self._facts:
            self.check_cap(n)
            self.check_cap(n - 1)
            self._facts[n] = SparseFactorization(
                self.rank(n), self.rank(n - 1), self.csr(n))
        return self._facts[n]

    def matvec(self, n: int, vec):
        """D_n applied to a degree-(n-1) cochain vector, exact over Z."""
        if len(vec) != self.rank(n - 1):
            raise ValueError(f"cochain of length {len(vec)} where "
                             f"{self.rank(n - 1)} expected in degree {n - 1}")
        indptr, indices, data = self.csr(n)
        return kernels.csr_matvec_int(indptr, indices, data, vec)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def bar_cochains(G: FiniteGroup) -> BarCochains:
    """The cached cochain complex of G (groups hash by identity)."""
    return BarCochains(G)

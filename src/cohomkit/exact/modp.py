"""Linear algebra over the prime fields F_p, on the sparse engine.

Each question factors A once over Z with
:meth:`SparseFactorization.from_columns`, its entries entered as symmetric
residues mod p, so that p - 1 is the unit -1 and stays an elimination
pivot.  The logged row operations are unimodular over Z, so they stay
invertible mod p, and the one factorization answers over F_p: the rank of
A mod p is its number of rows less the number of invariant factors of its
cokernel mod p (``coker_invariants(p)``), the kernel mod p is
``kernel_basis(p)``, and A x = b mod p is ``solve(b, p)``.  Rows of A that
vanish mod p carry no entry into the factorization, so the tall, mostly
zero systems of :mod:`cohomkit.fiso` cost no more than their nonzero rows.

Matrices are anything numpy reads as a 2-D integer array; results are
int64 arrays with entries in [0, p).
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseFactorization


def _factor_modp(A, p) -> SparseFactorization:
    M = np.asarray(A, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    return SparseFactorization.from_columns(M.T, M.shape[0], p)


def rank_modp(A, p) -> int:
    fact = _factor_modp(A, p)
    return fact.nrows - len(fact.coker_invariants(p))


def nullspace_modp(A, p):
    """Basis of ker(A) over F_p as a list of int vectors."""
    return [np.array(v, dtype=np.int64)
            for v in _factor_modp(A, p).kernel_basis(p)]


def solve_modp(A, b, p):
    """One solution of A x = b over F_p, or None."""
    x = _factor_modp(A, p).solve(b, p)
    return None if x is None else np.array(x, dtype=np.int64)

"""Linear algebra over the prime fields F_p, read off the Smith form over Z.

A Smith decomposition U A V = D over Z has unimodular U and V, and those
stay invertible mod every prime p.  So one factorization answers each
question over F_p: the rank of A mod p counts the d that p does not divide,
the kernel mod p is spanned by the columns of V whose d is 0 mod p (the
generators of ``SmithDecomposition.kernel(p)`` that do not vanish mod p),
and A x = b mod p is ``SmithDecomposition.solve(b, p)``.

Rows of A that vanish mod p are dropped before factoring: they constrain
nothing, and the systems of :mod:`cohomkit.fiso` are tall (thousands of
cokernel coordinates by a few classes) and mostly zero.  The other entries
enter as symmetric residues, so p - 1 is the unit -1.

Matrices are anything numpy reads as a 2-D integer array; results are
int64 arrays with entries in [0, p).
"""

from __future__ import annotations

import numpy as np

from .dense import IntMatrix, smith_normal_form


def _smith_modp(A, p):
    """Smith form of the rows of A that are nonzero mod p, and the mask of
    those rows."""
    M = np.asarray(A, dtype=np.int64) % p
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    keep = M.any(axis=1)
    M = M[keep]
    M[M > p // 2] -= p
    rows, cols = M.shape
    return smith_normal_form(IntMatrix(rows, cols, M.ravel().tolist())), keep


def rank_modp(A, p) -> int:
    dec, _keep = _smith_modp(A, p)
    return sum(1 for d in dec.diagonal() if d % p)


def nullspace_modp(A, p):
    """Basis of ker(A) over F_p as a list of int vectors."""
    dec, _keep = _smith_modp(A, p)
    basis = [np.array([x % p for x in v], dtype=np.int64)
             for v in dec.kernel(p)]
    return [v for v in basis if v.any()]


def modp_solver(A, p):
    """Factor A once; returns ``solve(b)``, one solution of A x = b over
    F_p or None."""
    dec, keep = _smith_modp(A, p)

    def solve(b):
        bb = np.asarray(b, dtype=np.int64).reshape(-1) % p
        if bb[~keep].any():
            return None
        x = dec.solve(bb[keep].tolist(), p)
        return None if x is None else np.array(x, dtype=np.int64)

    return solve


def solve_modp(A, b, p):
    """One solution of A x = b over F_p, or None."""
    return modp_solver(A, p)(b)

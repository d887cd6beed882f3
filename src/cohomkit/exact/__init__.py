from .dense import (
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
    solve_mod,
    unimodular_inverse,
    cokernel_invariants,
)
from .sparse import SparseFactorization

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "solve_mod",
    "unimodular_inverse",
    "cokernel_invariants",
    "SparseFactorization",
]

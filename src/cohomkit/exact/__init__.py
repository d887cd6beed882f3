from .dense import (
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
    unimodular_inverse,
)
from .sparse import SparseFactorization

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "unimodular_inverse",
    "SparseFactorization",
]

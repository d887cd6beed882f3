from .dense import (
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
)
from .sparse import SparseFactorization

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "SparseFactorization",
]

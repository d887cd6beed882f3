from .sparse import SparseFactorization

__all__ = ["SparseFactorization"]

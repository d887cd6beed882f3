"""Group cohomology over Z and Z/m on the normalized bar resolution.

Integral groups come straight out of the sparse factorization of the
incoming differential: in positive degrees H^n(G, Z) is finite (|G| kills
it), so it equals the torsion of coker(d^n), whose representatives are
certified cocycles.

For Z/m coefficients the universal coefficient sequence is made
constructive: a basis consists of reductions of integral classes together
with connecting-map sections built by exact solves in degree n+1.  Every
mod-m cocycle is then read in its own degree alone: H^n(G, Z/m) is a
subgroup of coker(D_n tensor Z/m), whose canonical coordinates the degree-n
factorization gives, so a class is zero iff it lies in the image of D_n mod
m, and its coordinates solve one small system against the generators'
cokernel coordinates.  Only the basis needs the degree-(n+1) factorization.

The coordinate queries take one cocycle vector or a block of them, the
columns of a (rank, k) array, and return the list of the k answers: a
block costs one coboundary, one log replay and one small solve, not k.
Each check of a query (the cocycle check, the free-coordinate check, the
solve's self-check) applies to every column, and raises the error the
column alone would raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .abelian import FiniteAbelian, factorize, prime_power, require_prime
from .config import GROUP_CACHE_SIZE
from .errors import (DegreeZeroUnsupported, InternalCheckFailed,
                     ModulusMismatch)
from .exact.dense import normalize_modulus
from .exact.sparse import SparseFactorization
from .groups import FiniteGroup
from . import kernels
from .resolutions import bar_cochains

# A block of degree-n cocycles holds at most about this many entries of the
# degree-(n+1) coboundary its cocycle check forms: peak RSS grows with the
# block, and a query's fixed costs are spread thin well before this size.
BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class CohomologyClass:
    """Degree + modulus + cocycle vector on the normalized bar cochains."""

    group: FiniteGroup
    degree: int
    modulus: int  # 0 means Z
    vector: tuple

    def __post_init__(self):
        vec = (kernels.residues(self.vector, self.modulus) if self.modulus
               else kernels.int_array(self.vector))
        object.__setattr__(self, "vector", tuple(vec.tolist()))


@dataclass(frozen=True)
class CohomologyGroup:
    group: FiniteGroup
    degree: int
    modulus: int
    invariant_factors: tuple
    basis: tuple  # CohomologyClass for each invariant factor

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        parts = []
        for f in self.invariant_factors:
            parts.append("Z" if f == 0 else f"Z/{f}")
        return " + ".join(parts)


@dataclass(frozen=True)
class PrimaryPart:
    prime: int
    degree: int
    invariant_factors: tuple

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z/{f}" for f in self.invariant_factors)


class _UCTData:
    """Generators of H^n(G, Z/m) and the data to take coordinates."""

    __slots__ = ("orders", "gens", "abelian", "system")

    def __init__(self, orders, gens, system=None):
        self.orders = orders  # cyclic order of each generator
        self.gens = gens      # mod-m cocycle vectors
        self.abelian = FiniteAbelian(orders) if orders else None
        # the generators' scaled cokernel coordinates, factored mod m
        self.system = system


def _scaled_coords(fact, vec: np.ndarray, m: int):
    """Coordinates of ``vec`` in coker(D_n tensor Z/m), coordinate j (of
    modulus mu_j, which divides m) scaled by m / mu_j into Z/m: an injective
    map of C^n_m / B^n_m, so of its subgroup H^n(G, Z/m), into (Z/m)^N.  A
    list for a vector; an (N, k) array for a block."""
    block = vec.ndim == 2
    answers = fact.coords(vec, m)
    cols = [[v * (m // d) for v, d in zip(vals, mods)]
            for vals, mods in (answers if block else [answers])]
    return kernels.int_array(cols).T if block else cols[0]


class CohomologySystem:
    """Per-group engine: factorizations, coordinates, coefficient maps."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.bc = bar_cochains(G)
        self._uct: dict = {}
        self._int_basis: dict = {}

    # -- integral layer ----------------------------------------------------

    def rank(self, n: int) -> int:
        return self.bc.rank(n)

    def block_width(self, n: int) -> int:
        """How many degree-n cocycles one block query takes at a time."""
        return max(1, BLOCK_ENTRIES // self.rank(n + 1))

    def integral_basis(self, n: int):
        """[(invariant factor, cocycle vector)] for H^n(G, Z), n >= 1."""
        if n not in self._int_basis:
            fact = self.bc.fact(n)
            reps = fact.torsion_reps()
            if reps and self.bc.matvec(
                    n + 1, kernels.int_array([w for _, w in reps]).T).any():
                raise InternalCheckFailed(
                    f"torsion representative in degree {n} is not a cocycle")
            self._int_basis[n] = reps
        return self._int_basis[n]

    def integral_coords(self, n: int, vec):
        """Coordinates of an integral degree-n cocycle, or of each column of
        a block, in the invariant factor basis; verifies the finiteness
        assumptions on the fly."""
        vec = kernels.int_array(vec)
        block = vec.ndim == 2
        if n == 0:
            # H^0(G, Z) = Z spanned by the unit cochain
            out = [[v] for v in np.atleast_1d(vec[0]).tolist()]
            return out if block else out[0]
        answers = self.bc.fact(n).coords(vec)
        out = []
        for vals, mods in answers if block else [answers]:
            if any(v for v, d in zip(vals, mods) if d == 0):
                raise InternalCheckFailed(
                    "cocycle has a free cokernel coordinate; "
                    "H^n(G, Z) failed the finiteness assumption")
            out.append([v % d for v, d in zip(vals, mods) if d > 1])
        return out if block else out[0]

    # -- mod-m layer ---------------------------------------------------------

    def uct_data(self, n: int, m: int) -> _UCTData:
        key = (n, m)
        if key in self._uct:
            return self._uct[key]
        if n == 0:
            data = _UCTData([m], [[1]])
            self._uct[key] = data
            return data
        orders = []
        gens = []
        # theta part: reductions of integral classes
        for f, w in self.integral_basis(n):
            g = gcd(f, m)
            if g > 1:
                orders.append(g)
                gens.append([v % m for v in w])
        # Tor part: sections of the connecting map, one solve for all
        fact_up = self.bc.fact(n + 1)
        tor = [(gcd(f2, m), f2, w2) for f2, w2 in self.integral_basis(n + 1)
               if gcd(f2, m) > 1]
        if tor:
            scaled = kernels.int_array([[(m * (f2 // g2)) * v for v in w2]
                                        for g2, f2, w2 in tor]).T
            for (g2, _, _), u in zip(tor, fact_up.solve(scaled)):
                if u is None:
                    raise InternalCheckFailed(
                        "connecting-map section solve failed; the scaled "
                        "torsion class should be a coboundary")
                orders.append(g2)
                gens.append([v % m for v in u])
        system = None
        if gens:
            cols = _scaled_coords(self.bc.fact(n), kernels.int_array(gens).T,
                                  m)
            system = SparseFactorization.from_columns(cols.T, len(cols), m)
        data = _UCTData(orders, gens, system)
        self._uct[key] = data
        return data

    def mod_coords(self, n: int, m: int, vec):
        """Coordinates of a mod-m degree-n cocycle, or of each column of a
        block, in the UCT generator basis (internal order: theta
        generators, then Tor generators), read off its scaled cokernel
        coordinates in degree n."""
        lift = kernels.residues(vec, m)
        block = lift.ndim == 2
        if n == 0:
            out = [[v] for v in np.atleast_1d(lift[0]).tolist()]
            return out if block else out[0]
        if (kernels.int_array(self.bc.matvec(n + 1, lift)) % m).any():
            raise ValueError("vector is not a mod-m cocycle")
        data = self.uct_data(n, m)
        if data.system is None:
            return [[] for _ in range(lift.shape[1])] if block else []
        xs = data.system.solve(_scaled_coords(self.bc.fact(n), lift, m), m)
        out = []
        for x in xs if block else [xs]:
            if x is None:
                raise InternalCheckFailed(
                    "cocycle is not in the span of the UCT generators")
            out.append([v % o for v, o in zip(x, data.orders)])
        return out if block else out[0]

    # -- public class helpers ----------------------------------------------

    def coords(self, x: CohomologyClass):
        if x.modulus:
            return self.mod_coords(x.degree, x.modulus, x.vector)
        return self.integral_coords(x.degree, x.vector)

    def canonical_coords(self, n: int, m: int, vec):
        """Coordinates of a degree-n cocycle mod m (over Z when m = 0), or
        of each column of a block, in the canonical basis of its cohomology
        group."""
        vec = kernels.int_array(vec)
        if m == 0:
            return self.integral_coords(n, vec)
        raw = self.mod_coords(n, m, vec)
        if n == 0:
            return raw
        ab = self.uct_data(n, m).abelian
        out = [ab.to_canonical(r) if ab else []
               for r in (raw if vec.ndim == 2 else [raw])]
        return out if vec.ndim == 2 else out[0]

    def is_zero(self, x: CohomologyClass) -> bool:
        """Whether x is the zero class.  A mod-m class of positive degree is
        decided by image membership in its own degree; only a vector found
        outside the image is checked to be a cocycle."""
        if not x.modulus or x.degree == 0:
            return all(c == 0 for c in self.coords(x))
        if self.bc.fact(x.degree).in_image(x.vector, x.modulus):
            return True
        if not self.verify_cocycle(x):
            raise ValueError("vector is not a mod-m cocycle")
        return False

    def verify_cocycle(self, x: CohomologyClass) -> bool:
        dz = self.bc.matvec(x.degree + 1, list(x.vector))
        if x.modulus:
            return all(v % x.modulus == 0 for v in dz)
        return not any(dz)

    def unit_class(self, modulus: int) -> CohomologyClass:
        return CohomologyClass(self.group, 0, modulus, (1,))


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def cohomology_system(G: FiniteGroup) -> CohomologySystem:
    """The cached cohomology system of G (groups hash by identity)."""
    return CohomologySystem(G)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def cohomology_group(G: FiniteGroup, coeff, n: int) -> CohomologyGroup:
    """H^n(G, Z) or H^n(G, Z/m) with explicit cocycle basis."""
    m = normalize_modulus(coeff)
    sys = cohomology_system(G)
    if n == 0:
        unit = sys.unit_class(m)
        return CohomologyGroup(G, 0, m, (m,), (unit,))
    if m == 0:
        reps = sys.integral_basis(n)
        factors = tuple(f for f, _ in reps)
        basis = tuple(CohomologyClass(G, n, 0, tuple(w)) for _, w in reps)
        return CohomologyGroup(G, n, 0, factors, basis)
    data = sys.uct_data(n, m)
    if not data.orders:
        return CohomologyGroup(G, n, m, (), ())
    ab = data.abelian
    factors = tuple(ab.canonical_factors)
    vecs = ab.canonical_vectors(data.gens, modulus=m)
    basis = tuple(CohomologyClass(G, n, m, tuple(v)) for v in vecs)
    return CohomologyGroup(G, n, m, factors, basis)


def canonical_coords(G: FiniteGroup, x: CohomologyClass):
    """Coordinates of x in the canonical basis of its cohomology group."""
    return cohomology_system(G).canonical_coords(x.degree, x.modulus,
                                                 x.vector)


def coefficient_map(kind: str, x: CohomologyClass,
                    modulus: int | None = None) -> CohomologyClass:
    """pi_i (mod p^i -> mod p^{i-1}), epsilon_i (mod p^i -> mod p), or
    theta_i (Z -> mod p^i, any modulus m >= 2 accepted)."""
    if kind in ("pi", "pi_i"):
        if x.modulus == 0:
            raise ModulusMismatch("pi_i needs a mod-p^i class")
        p, i = prime_power(x.modulus)
        if i < 2:
            raise ModulusMismatch("pi_i needs i >= 2")
        target = p ** (i - 1)
        return CohomologyClass(x.group, x.degree, target,
                               tuple(v % target for v in x.vector))
    if kind in ("epsilon", "epsilon_i"):
        if x.modulus == 0:
            raise ModulusMismatch("epsilon_i needs a mod-p^i class")
        p, _ = prime_power(x.modulus)
        return CohomologyClass(x.group, x.degree, p,
                               tuple(v % p for v in x.vector))
    if kind in ("theta", "theta_i"):
        if x.modulus != 0:
            raise ModulusMismatch("theta_i reduces an integral class")
        if modulus is None:
            raise ValueError("theta_i needs the target modulus")
        m = int(modulus)
        return CohomologyClass(x.group, x.degree, m,
                               tuple(v % m for v in x.vector))
    raise ValueError(f"unknown coefficient map {kind!r}")


def bockstein_delta(i: int, x: CohomologyClass) -> CohomologyClass:
    """Connecting map of 0 -> Z/p -> Z/p^{i+1} -> Z/p^i -> 0 by
    lift - differentiate - divide."""
    if x.modulus == 0:
        raise ModulusMismatch("bockstein_delta needs a mod-p^i class")
    p, level = prime_power(x.modulus)
    if level != i:
        raise ModulusMismatch(
            f"class has modulus {x.modulus}, expected p^{i}")
    sys = cohomology_system(x.group)
    q = p**i
    lift = [int(v) % q for v in x.vector]
    dz = sys.bc.matvec(x.degree + 1, lift)
    if any(v % q for v in dz):
        raise ValueError("vector is not a cocycle mod p^i")
    u = [(v // q) % p for v in dz]
    return CohomologyClass(x.group, x.degree + 1, p, tuple(u))


def p_primary_part(G: FiniteGroup, p: int, n: int) -> PrimaryPart:
    """p-power invariant factors of H^n(G, Z), n >= 1."""
    if n == 0:
        raise DegreeZeroUnsupported("H^0(G, Z) = Z has no finite p-part")
    require_prime(p)
    sys = cohomology_system(G)
    out = []
    for f, _w in sys.integral_basis(n):
        e = factorize(f).get(p, 0)
        if e:
            out.append(p**e)
    out.sort()
    return PrimaryPart(p, n, tuple(out))

"""Small helpers that the tests share and the package does not need: they
ask test-only questions of the engine through its public API.

Unlike ``oracles.py`` they use the engine, so they check nothing on their
own; they only phrase a test's question.
"""

from cohomkit.abelian import factorize
from cohomkit.cohomology import (CohomologyClass, canonical_coords,
                                 cohomology_group, cohomology_system,
                                 p_primary_part)
from cohomkit.cup import GradedRingSlice, cup_product
from cohomkit.exact.dense import normalize_modulus
from cohomkit.errors import ModulusMismatch
from cohomkit.exact.sparse import SparseFactorization
from cohomkit.fibrewise import GModule
from cohomkit.resolutions import bar_cochains


def classes_equal(x: CohomologyClass, y: CohomologyClass) -> bool:
    """Whether x and y are the same cohomology class: their difference is
    a coboundary."""
    if (x.degree != y.degree or x.modulus != y.modulus
            or x.group is not y.group):
        raise ModulusMismatch("classes live in different groups")
    m = x.modulus
    diff = tuple((a - b) % m if m else a - b
                 for a, b in zip(x.vector, y.vector))
    return cohomology_system(x.group).is_zero(
        CohomologyClass(x.group, x.degree, m, diff))


def invariant_factor_form(orders) -> list[int]:
    """Invariant factors (ascending divisibility chain) of ⊕ Z/o."""
    orders = [o for o in orders if o > 1]
    primary: dict[int, list[int]] = {}
    for o in orders:
        for p, e in factorize(o).items():
            primary.setdefault(p, []).append(e)
    for p in primary:
        primary[p].sort(reverse=True)
    k = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(k):
        f = 1
        for p, es in primary.items():
            if i < len(es):
                f *= p ** es[i]
        factors.append(f)
    factors.reverse()  # ascending chain
    return factors


def full_invariants_from_primary(G, n: int) -> list[int]:
    """Invariant factors of H^n(G; Z) recombined from its p-primary parts,
    over the primes dividing |G|."""
    orders = []
    for p in sorted(factorize(G.order)):
        orders.extend(p_primary_part(G, p, n).invariant_factors)
    return invariant_factor_form(orders)


def reduce_mod(M: GModule, p: int) -> GModule:
    """The F_pG-module M/pM of a ZG-lattice M."""
    return GModule(M.group, M.action, p, label=f"{M.label} mod {p}")


def verify_structure(fa) -> bool:
    """Every product of two basis elements of a fibre algebra is one basis
    element: the structure constants of each pair sum to 1."""
    G = fa.group
    want = 1 % fa.characteristic if fa.characteristic else 1
    return all(sum(fa.structure_constant(a, b, c) for c in range(G.order))
               == want for a in range(G.order) for b in range(G.order))


def lift_class(lift) -> CohomologyClass:
    """The class of a PthPowerLift: its preimage cocycle, or the zero class
    when it records none."""
    g = lift.source.group
    vec = lift.vector
    if vec is None:
        vec = (0,) * cohomology_system(g).rank(lift.degree)
    return CohomologyClass(g, lift.degree, lift.modulus, vec)


def full_fact(G, n: int) -> SparseFactorization:
    """The factorization of the whole bar D_n of G, no column cleared, as
    the engine factors any matrix (``BarCochains.fact`` clears)."""
    bc = bar_cochains(G)
    return SparseFactorization(bc.rank(n), bc.rank(n - 1), bc.csr(n))


def ring_slice_by_product(G, coeff, N: int) -> GradedRingSlice:
    """The ring slice to degree N one product at a time: each structure
    constant is one cup product of two basis classes, read in canonical
    coordinates by its own query, as ``cup.ring_slice`` did before it read
    each degree's products in blocks."""
    m = normalize_modulus(coeff)
    groups = [cohomology_group(G, coeff, n) for n in range(N + 1)]
    table = {}
    for d1 in range(0, N + 1):
        for d2 in range(0, N + 1 - d1):
            for i, x in enumerate(groups[d1].basis):
                for j, y in enumerate(groups[d2].basis):
                    z = cup_product(x, y)
                    table[(d1, i, d2, j)] = tuple(canonical_coords(G, z))
    return GradedRingSlice(G, m, N, groups, table)

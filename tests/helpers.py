"""Small helpers that the tests share and the package does not need: they
ask test-only questions of the engine through its API.

Unlike ``oracles.py`` they use the engine, so they check nothing on their
own; they only phrase a test's question.  The largest of them is the tower
of free covers, over Z and over F_p, which no command asks for: Ext over ZG
(``ext_group``) and free resolutions over F_pG
(``field_free_resolution``).  It runs on the sparse engine, whose
factorizations make it fast; the dense Smith form took about 300 times as
long on the same Ext values.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from cohomkit.abelian import factorize
from cohomkit.cohomology import (CohomologyClass, canonical_coords,
                                 cohomology_group, cohomology_system,
                                 p_primary_part)
from cohomkit.cup import GradedRingSlice, cup_product
from cohomkit.exact.dense import normalize_modulus
from cohomkit.errors import InternalCheckFailed, ModulusMismatch
from cohomkit.exact.modp import rank_modp
from cohomkit.exact.sparse import SparseFactorization
from cohomkit.fibrewise import FGModule, GModule, _free_cover_data
from cohomkit.groups import FiniteGroup
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


# ---------------------------------------------------------------------------
# the tower of free covers, over Z (Ext) and over F_p (resolutions)
# ---------------------------------------------------------------------------

def _translate(G: FiniteGroup, g: int, v):
    """g v for v in (RG)^k, with coordinates j*|G| + h."""
    n = G.order
    out = [0] * len(v)
    for idx, val in enumerate(v):
        if val:
            j, h = divmod(idx, n)
            out[j * n + G.table[g][h]] = val
    return out


def _cover_kernel(G: FiniteGroup, m: int, rank: int, action, lattice=()):
    """Basis over Z (m = 0) or F_m of the kernel of the free cover
    P : (RG)^rank -> M, e_{j,g} -> g m_j.  With ``lattice``, independent
    columns spanning a sublattice L of Z^rank, it is the kernel of P
    followed by Z^rank -> Z^rank / L: ker [P | -L] projected, which the
    independence makes injective."""
    # column j*|G| + g of P is column j of action[g]
    cols = [[row[j] for row in action[g]]
            for j in range(rank) for g in range(G.order)]
    k = len(cols)
    cols += [[-x for x in v] for v in lattice]
    fact = SparseFactorization.from_columns(cols, rank, m)
    return [x[:k] for x in fact.kernel_basis(m)]


def _kernel_action(G: FiniteGroup, m: int, K):
    """Action matrices of G on the span of the kernel basis K, in that
    basis: each g K_j solved against one factorization of K."""
    fact = SparseFactorization.from_columns(K, len(K[0]), m)
    mats = []
    for g in range(G.order):
        cols = [fact.solve(_translate(G, g, v), m) for v in K]
        if None in cols:
            raise InternalCheckFailed("kernel not action-stable")
        mats.append([list(r) for r in zip(*cols)])
    return mats


def _syzygies(G: FiniteGroup, m: int, K):
    """Yield the kernel basis K, then the kernel bases of the free covers of
    the successive syzygies, each in (RG)^{len of the one before}.  The
    action on a kernel is computed only when the next kernel is asked
    for."""
    while True:
        yield K
        K = _cover_kernel(G, m, len(K), _kernel_action(G, m, K)) if K else []


# ---------------------------------------------------------------------------
# Ext over ZG
# ---------------------------------------------------------------------------

def _hom(G: FiniteGroup, K, r: int, N: GModule):
    """Columns of Hom_ZG(d, N) : N^r -> N^{len(K)} for d : ZG^{len(K)} ->
    ZG^r sending generator t to K[t]; block (t, j) is
    sum_g K[t][j*|G| + g] N(g)."""
    n, rN = G.order, N.rank
    cols = [[0] * (len(K) * rN) for _ in range(r * rN)]
    for t, v in enumerate(K):
        for idx, val in enumerate(v):
            if val:
                j, g = divmod(idx, n)
                for a, row in enumerate(N.action[g].tolist()):
                    for b, x in enumerate(row):
                        cols[j * rN + b][t * rN + a] += val * x
    return cols


def relation_lattice(M: FGModule) -> list:
    """Basis of the relations plus m Z^g: gcd(o_i, m) b_i, for every
    nonzero order."""
    return [[o * v for v in b]
            for o, (_, b) in zip(M.orders(), M.coker_basis) if o]


def ext_group(M, N: GModule, i: int) -> list:
    """Invariant factors of Ext^i_{ZG}(M, N); 0 denotes a free summand.

    M may be a GModule over ZG or an FGModule presentation (torsion
    allowed).  The resolution is the tower of basis-sized free covers; its
    first kernel is that of F_0 -> Z^g -> M, taken against the relation
    lattice.  Ext^i is ker(d_out)/im(d_in) for the induced maps
    d_out = Hom(d_{i+1}, N) and d_in = Hom(d_i, N): a kernel basis, the
    coordinates of im(d_in) in it, and their cokernel."""
    G = M.group
    if G is not N.group:
        raise ValueError("modules over different groups")
    if isinstance(M, FGModule):
        rank, action, lattice = (M.generators, M.full_action(),
                                 relation_lattice(M))
    else:
        rank, action, lattice = M.rank, M.action, []
    if N.p or isinstance(M, GModule) and M.p:
        raise ValueError("Ext is taken over ZG")
    if rank == 0:
        return []
    first = _cover_kernel(G, 0, rank, action, lattice)
    kernels = list(islice(_syzygies(G, 0, first), i + 1))
    ranks = [rank] + [len(K) for K in kernels]
    d_out = _hom(G, kernels[i], ranks[i], N)
    basis = SparseFactorization.from_columns(
        d_out, ranks[i + 1] * N.rank).kernel_basis()
    if not basis:
        return []
    coords = SparseFactorization.from_columns(basis, ranks[i] * N.rank)
    rels = [coords.solve(col)
            for col in (_hom(G, kernels[i - 1], ranks[i - 1], N) if i else [])]
    if None in rels:
        raise InternalCheckFailed("d_out d_in != 0 in the Ext complex")
    return SparseFactorization.from_columns(rels,
                                            len(basis)).coker_invariants()


# ---------------------------------------------------------------------------
# free resolutions over F_pG (iterated kernels)
# ---------------------------------------------------------------------------

@dataclass
class FieldResolution:
    """Iterated basis-sized free covers of an F_pG-module."""

    module: GModule
    free_ranks: list
    diffs: list        # F_p matrices of d_t : F_t -> F_{t-1} (expanded)
    cover: np.ndarray | None  # matrix F_0 -> M

    @property
    def length(self) -> int:
        return len(self.free_ranks)


def _is_free(M: GModule) -> bool:
    """Greedy search for a free F_pG-basis among the standard basis
    vectors."""
    n = M.group.order
    if M.rank % n:
        return False
    span = []
    for cand in range(M.rank):
        orbit = M.action[:, :, cand].tolist()
        if rank_modp(span + orbit, M.p) == len(span) + n:
            span += orbit
            if len(span) == M.rank:
                return True
    return False


def field_free_resolution(M: GModule, N: int) -> FieldResolution:
    """Iterated free covers to length N, stopping at a zero syzygy: each
    step maps a free module on a basis of the current syzygy, so d_t sends
    e_{j,g} to g K_j for the kernel basis K of the cover before it; any
    free resolution computes Ext."""
    if M.rank == 0 or _is_free(M):
        return FieldResolution(M, [], [], None)
    G, p = M.group, M.p
    ranks, diffs = [M.rank], []
    for K in islice(_syzygies(G, p, _cover_kernel(G, p, M.rank, M.action)),
                    N):
        if not K:
            break
        ranks.append(len(K))
        diffs.append([list(r) for r in zip(*(
            _translate(G, g, v) for v in K for g in range(G.order)))])
    return FieldResolution(M, ranks, diffs,
                           _free_cover_data(M.action))

"""Fibrewise module criteria over ZG: projectivity through the residue
fields, Gorenstein projectivity, the dualising module isomorphism, Ext
groups, and Koszul self-duality.

Modules are handled in two concrete forms: a presentation (FGModule, the
JSON-facing type) and a realized Z-lattice or F_p-vector space carrying the
action of every group element.  Projectivity at a fibre is decided by one
linear splitting system; no minimal-resolution machinery anywhere.  The
splitting systems have at most dim+1 nonzeros per row and are factored over
Z by :mod:`cohomkit.exact.sparse`.  A lattice's system is factored once, and
that one factorization answers all three questions: the integral test solves
over Z, each fibre solves mod p (the system mod p is the fibre's own), and
the rational test reads the free cokernel coordinates.  An F_p-module's
system is lifted to Z with symmetric residues and solved mod p.  Dense SNF
is their test oracle.

A presentation is realized through the Smith form U A V = D over Z of its
relations: the quotient has coordinates (U x)_i, for the i past the rank
over Z (a lattice) or for the i with d_i = 0 mod p (an F_p-module).  The
F_p kernels and solves of the free resolutions over F_pG are read off the
same kind of Smith form by :mod:`cohomkit.exact.modp`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import inf

import numpy as np

from .abelian import factorize
from .errors import (InternalCheckFailed, InvalidModule, NoIsomorphismFound,
                     NotBaseFree)
from .exact.dense import (IntMatrix, cokernel_invariants, smith_normal_form,
                          unimodular_inverse)
from .exact.modp import modp_solver, nullspace_modp, rank_modp
from .exact.sparse import SparseFactorization
from .groups import FiniteGroup
from .resolutions import subquotient_invariants


# ---------------------------------------------------------------------------
# module containers
# ---------------------------------------------------------------------------

@dataclass
class FGModule:
    """Finitely generated module presentation over ZG or F_pG.

    ``relations`` rows are Z-linear relations among the generators;
    ``action`` maps a group element index to its matrix on the generators.
    """

    group: FiniteGroup
    base: str                 # "Z", "Fp", or "Q"
    p: int                    # prime for Fp, else 0
    generators: int
    relations: list
    action: dict              # element index -> matrix (list of rows)

    @classmethod
    def from_json_file(cls, path, group: FiniteGroup) -> "FGModule":
        with open(path) as fh:
            data = json.load(fh)
        return cls(group=group,
                   base=data["base"],
                   p=int(data.get("p", 0) or 0),
                   generators=int(data["generators"]),
                   relations=[list(map(int, r))
                              for r in data.get("relations", [])],
                   action={int(k): [list(map(int, row)) for row in v]
                           for k, v in data["action"].items()})

    def full_action(self):
        """Action matrix for every group element, generated from the given
        ones by table multiplication; raises InvalidModule on failure."""
        G = self.group
        n = self.generators
        known = {0: [[1 if i == j else 0 for j in range(n)]
                     for i in range(n)]}
        for k, mat in self.action.items():
            known[int(k)] = [list(map(int, row)) for row in mat]
        frontier = list(known)
        gens = [k for k in self.action]
        while len(known) < G.order:
            progressed = False
            for a in list(known):
                for g in gens:
                    c = G.table[int(g)][a]
                    if c not in known:
                        known[c] = _matmul(known[int(g)], known[a], self.p)
                        progressed = True
            if not progressed:
                raise InvalidModule(
                    "action generators do not generate the group")
        # validate the multiplication table on all pairs, modulo relations
        rel_dec = None
        if self.relations and self.base == "Z":
            R = IntMatrix.from_rows(
                [list(r) for r in zip(*self.relations)])
            rel_dec = smith_normal_form(R)
        for a in range(G.order):
            for b in range(G.order):
                got = _matmul(known[a], known[b], self.p)
                want = known[G.table[a][b]]
                if got != want:
                    if rel_dec is not None and all(
                            rel_dec.solve([got[i][j] - want[i][j]
                                           for i in range(n)]) is not None
                            for j in range(n)):
                        continue
                    raise InvalidModule(
                        f"action violates the table at ({a},{b})")
        return known


def _matmul(A, B, p=0):
    n = len(A)
    k = len(B[0]) if B else 0
    out = [[0] * k for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t, a in enumerate(Ai):
            if a:
                Bt = B[t]
                oi = out[i]
                for j in range(k):
                    oi[j] += a * Bt[j]
    if p:
        out = [[v % p for v in row] for row in out]
    return out


class LatticeModule:
    """Z-free ZG-module: rank + action matrix of every group element."""

    def __init__(self, group: FiniteGroup, action: list, label: str = "M"):
        self.group = group
        self.rank = len(action[0]) if action else 0
        self.action = [[list(map(int, row)) for row in mat] for mat in action]
        self.label = label
        self._validate()

    def _validate(self):
        G = self.group
        if len(self.action) != G.order:
            raise InvalidModule("need an action matrix per group element")
        ident = [[1 if i == j else 0 for j in range(self.rank)]
                 for i in range(self.rank)]
        if self.action[0] != ident:
            raise InvalidModule("identity element must act as the identity")
        for a in range(G.order):
            for b in range(G.order):
                if _matmul(self.action[a], self.action[b]) != \
                        self.action[G.table[a][b]]:
                    raise InvalidModule(
                        f"action violates the table at ({a},{b})")

    def reduce_mod(self, p: int) -> "FpModule":
        return FpModule(self.group, p,
                        [[[v % p for v in row] for row in mat]
                         for mat in self.action],
                        label=f"{self.label} mod {p}")


class FpModule:
    """Finite dimensional F_pG-module with full element action."""

    def __init__(self, group: FiniteGroup, p: int, action: list,
                 label: str = "M"):
        self.group = group
        self.p = p
        self.dim = len(action[0]) if action else 0
        self.action = [np.asarray(mat, dtype=np.int64).reshape(
            self.dim, self.dim) % p for mat in action]
        self.label = label
        if self.dim == 0:
            return
        for a in range(group.order):
            for b in range(group.order):
                got = (self.action[a] @ self.action[b]) % p
                if not np.array_equal(got, self.action[group.table[a][b]]):
                    raise InvalidModule(
                        f"action violates the table at ({a},{b})")


def regular_module(G: FiniteGroup) -> LatticeModule:
    """ZG with the left regular action."""
    n = G.order
    mats = []
    for g in range(n):
        mat = [[0] * n for _ in range(n)]
        for h in range(n):
            mat[G.table[g][h]][h] = 1
        mats.append(mat)
    return LatticeModule(G, mats, label="ZG")


def trivial_module(G: FiniteGroup) -> LatticeModule:
    return LatticeModule(G, [[[1]] for _ in range(G.order)], label="Z")


def augmentation_ideal(G: FiniteGroup) -> LatticeModule:
    """Kernel of ZG -> Z with basis e_g - e_0 for g != 0."""
    n = G.order
    mats = []
    for g in range(n):
        # g . (e_h - e_0) = e_{gh} - e_g = (e_{gh} - e_0) - (e_g - e_0)
        mat = [[0] * (n - 1) for _ in range(n - 1)]
        for h in range(1, n):
            gh = G.table[g][h]
            if gh != 0:
                mat[gh - 1][h - 1] += 1
            if g != 0:
                mat[g - 1][h - 1] -= 1
        mats.append(mat)
    return LatticeModule(G, mats, label="aug")


def lattice_from_presentation(M: FGModule) -> LatticeModule:
    """Realize a Z-presented module as a lattice; NotBaseFree on torsion."""
    if M.base != "Z":
        raise ValueError("only Z-based presentations become lattices")
    full = M.full_action()
    if not M.relations:
        return LatticeModule(M.group, [full[a] for a in range(M.group.order)])
    dec = _relation_smith(M)
    _check_relations_stable(M, full, dec)
    torsion = [d for d in dec.diagonal() if d > 1]
    if torsion:
        raise NotBaseFree(f"presentation has torsion {torsion}")
    free = range(dec.rank(), M.generators)
    return LatticeModule(M.group, _quotient_action(M, full, dec, free))


def fp_module_from_presentation(M: FGModule) -> FpModule:
    """Realize an F_p presentation as an explicit FpModule."""
    if M.base != "Fp" or not M.p:
        raise ValueError("expected an Fp presentation with a prime p")
    p = M.p
    full = M.full_action()
    if not M.relations:
        return FpModule(M.group, p, [full[a] for a in range(M.group.order)])
    dec = _relation_smith(M)
    # Z^g / (relations + p Z^g) is F_p on the coordinates with p | d
    diag = dec.diagonal()
    free = [i for i in range(M.generators)
            if i >= len(diag) or diag[i] % p == 0]
    return FpModule(M.group, p, _quotient_action(M, full, dec, free))


def _relation_smith(M: FGModule):
    """Smith form over Z of the relation matrix (one column per
    relation)."""
    return smith_normal_form(
        IntMatrix.from_rows([list(r) for r in M.relations]).transpose())


def _quotient_action(M: FGModule, full, dec, free):
    """Action matrices on the quotient of Z^g by the relations, in the
    coordinates (U x)_i for i in ``free``, where U A V = D is ``dec``; a
    coordinate lifts back through column i of U^-1."""
    g = M.generators
    Uinv = unimodular_inverse(dec.U)
    proj_rows = [dec.U.row(i) for i in free]
    lift_cols = [[Uinv[i, j] for i in range(g)] for j in free]
    mats = []
    for a in range(M.group.order):
        act = full[a]
        imgs = [[sum(act[i][t] * col[t] for t in range(g)) for i in range(g)]
                for col in lift_cols]
        mats.append([[sum(r * x for r, x in zip(row, img)) for img in imgs]
                     for row in proj_rows])
    return mats


def _check_relations_stable(M: FGModule, full_action, dec):
    """The relation submodule, the columns of ``dec.source``, must be
    action-stable."""
    A = dec.source
    for a in range(M.group.order):
        act = full_action[a]
        for j in range(A.cols):
            col = [A[i, j] for i in range(A.rows)]
            img = [sum(act[i][t] * col[t] for t in range(len(col)))
                   for i in range(len(col))]
            if dec.solve(img) is None:
                raise InvalidModule(
                    "relation submodule is not stable under the action")


# ---------------------------------------------------------------------------
# fibre algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FibreAlgebra:
    """Group algebra over the residue field at p (p = 0 means Q)."""

    group: FiniteGroup
    characteristic: int
    dimension: int

    def structure_constant(self, a: int, b: int, c: int) -> int:
        v = 1 if self.group.table[a][b] == c else 0
        return v % self.characteristic if self.characteristic else v

    def verify_structure(self) -> bool:
        G = self.group
        for a in range(G.order):
            for b in range(G.order):
                tot = sum(self.structure_constant(a, b, c)
                          for c in range(G.order))
                want = 1 % self.characteristic if self.characteristic else 1
                if tot != want:
                    return False
        return True


def fibre_algebra(G: FiniteGroup, p: int) -> FibreAlgebra:
    if p != 0:
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError(f"{p} is not prime (or 0 for Q)")
    return FibreAlgebra(G, p, G.order)


# ---------------------------------------------------------------------------
# projectivity tests
# ---------------------------------------------------------------------------

@dataclass
class ProjectivityResult:
    projective: bool
    splitting: list | None  # columns express sigma: M -> F


def _free_cover_data(group: FiniteGroup, dim: int, action_of):
    """Free cover F = (RG)^dim -> M, e_{j,g} -> g m_j; returns the cover
    matrix P (dim x dim*|G|) and the F-action permutation data."""
    n = group.order
    P = [[0] * (dim * n) for _ in range(dim)]
    for j in range(dim):
        for g in range(n):
            col = j * n + g
            mat = action_of(g)
            for i in range(dim):
                P[i][col] = mat[i][j]
    return P


def _splitting_system(group: FiniteGroup, dim: int, action_of):
    """Linear system for an equivariant splitting sigma with P sigma = id.

    Unknowns: sigma entries (dim*|G|) x dim, row-major.  Returns
    ``(nrows, ncols, coo, b)`` for A x = b, with A as COO triples; each row
    has at most dim+1 nonzeros."""
    n = group.order
    P = _free_cover_data(group, dim, action_of)
    nf = dim * n
    ri, ci, vi = [], [], []
    rhs = []

    def entry(col, v):
        ri.append(len(rhs))
        ci.append(col)
        vi.append(v)

    # P sigma = I
    for i in range(dim):
        for j in range(dim):
            for t in range(nf):
                if P[i][t]:
                    entry(t * dim + j, P[i][t])
            rhs.append(1 if i == j else 0)
    # equivariance: sigma act_M(g) = act_F(g) sigma for every element
    for g in range(1, n):
        mat = action_of(g)
        for r in range(nf):
            j0, h = divmod(r, n)
            src = j0 * n + _left_division(group, g, h)
            for c in range(dim):
                for t in range(dim):
                    if mat[t][c]:
                        entry(r * dim + t, mat[t][c])
                # (act_F(g) sigma)[r][c] = sigma[g^{-1} component]
                entry(src * dim + c, -1)
                rhs.append(0)
    return len(rhs), nf * dim, (ri, ci, vi), rhs


def _left_division(group: FiniteGroup, g: int, h: int) -> int:
    """x with g x = h."""
    return group.table[group.inverse[g]][h]


def _splitting_factorization(group: FiniteGroup, dim: int, action_of):
    """The splitting system factored over Z, and its right-hand side."""
    nrows, ncols, coo, rhs = _splitting_system(group, dim, action_of)
    return SparseFactorization(nrows, ncols, coo), rhs


def _splitting_test(group: FiniteGroup, dim: int, action_of,
                    m: int) -> ProjectivityResult:
    """Solve the splitting system over Z (m=0) or F_m with the sparse
    factorization; a solution is the witness sigma."""
    if dim == 0:
        return ProjectivityResult(True, [])
    fact, rhs = _splitting_factorization(group, dim, action_of)
    x = fact.solve(rhs, m)
    if x is None:
        return ProjectivityResult(False, None)
    sigma = [[x[r * dim + c] for c in range(dim)]
             for r in range(dim * group.order)]
    return ProjectivityResult(True, sigma)


def fibre_projectivity_test(M: FpModule) -> ProjectivityResult:
    """Projectivity over F_pG by solvability of the splitting system.

    The system is factored over Z from symmetric residues (|v| <= p/2), so
    that p - 1 enters as the unit -1 and stays an elimination pivot."""
    half = M.p // 2
    lifted = [[[v - M.p if v > half else v for v in row]
               for row in mat.tolist()] for mat in M.action]
    return _splitting_test(M.group, M.dim, lambda g: lifted[g], M.p)


def integral_projectivity_test(M: LatticeModule) -> ProjectivityResult:
    """Projectivity over ZG by an exact integral splitting of the free
    cover (the direct side of the fibrewise criterion)."""
    return _splitting_test(M.group, M.rank, lambda g: M.action[g], 0)


def rational_projectivity_test(M: LatticeModule) -> bool:
    """Exact splitting over Q (always succeeds by Maschke; kept as a
    verification toggle), decided by the Z factorization."""
    if M.rank == 0:
        return True
    fact, rhs = _splitting_factorization(M.group, M.rank,
                                         lambda g: M.action[g])
    return fact.solvable_over_q(rhs)


@dataclass
class FibreDimReport:
    module_label: str
    fibres: dict          # prime -> bool (projective at that fibre)
    rational_projective: bool
    supremum: float       # 0 or inf
    integral_projective: bool  # the direct test: splitting solvable over Z

    def __str__(self):
        rows = ", ".join(f"p={p}: {'proj' if v else 'not proj'}"
                         for p, v in sorted(self.fibres.items()))
        sup = "0" if self.supremum == 0 else "infinity"
        return f"{self.module_label}: [{rows}] sup proj.dim = {sup}"


def proj_dim_via_fibres(M: LatticeModule,
                        verify_rational: bool = False) -> FibreDimReport:
    """Projective dimension over ZG through the fibres: 0 when every
    residue-field fibre is projective, infinity otherwise (fibre group
    algebras are self-injective, so no intermediate values occur).

    The lattice's splitting system is factored once over Z; fibre p is
    projective iff the system is solvable mod p, since the system mod p is
    the splitting system of M/pM.  The same factorization solves it over Z
    for the direct verdict of ``integral_projectivity_test``."""
    primes = sorted(factorize(M.group.order))
    fibres = {p: True for p in primes}
    rational = integral = True
    if M.rank:
        fact, rhs = _splitting_factorization(M.group, M.rank,
                                             lambda g: M.action[g])
        fibres = {p: fact.solve(rhs, p) is not None for p in primes}
        integral = fact.solve(rhs, 0) is not None
        if verify_rational:
            rational = fact.solvable_over_q(rhs)
    if not rational:
        raise InternalCheckFailed("rational fibre failed Maschke splitting")
    sup = 0 if all(fibres.values()) else inf
    return FibreDimReport(M.label, fibres, rational, sup, integral)


def gproj_test(M: FGModule) -> dict:
    """Gorenstein projectivity over ZG for f.g. presentations: equivalent
    to Z-freeness of the underlying abelian group, decided by SNF."""
    if M.base != "Z":
        raise ValueError("gproj_test applies to Z-based presentations")
    if not M.relations:
        return {"gorenstein_projective": True, "invariants": []}
    A = IntMatrix.from_rows([list(r) for r in M.relations]).transpose()
    inv = cokernel_invariants(A, "Z")
    torsion = [f for f in inv if f > 1]
    return {"gorenstein_projective": not torsion, "invariants": inv}


# ---------------------------------------------------------------------------
# dualising module
# ---------------------------------------------------------------------------

@dataclass
class DualisingWitness:
    group_label: str
    matrix: list
    determinant: int

    def verify(self, G: FiniteGroup) -> bool:
        n = G.order
        T = self.matrix
        for g in range(n):
            # L_g: e_h -> e_{g h}; omega action: f_h -> f_{h g^{-1}}
            for h in range(n):
                lhs = [T[i][G.table[g][h]] for i in range(n)]
                col = [T[i][h] for i in range(n)]
                rhs = [0] * n
                for i in range(n):
                    if col[i]:
                        rhs[G.table[i][G.inverse[g]]] += col[i]
                if lhs != rhs:
                    return False
        return abs(self.determinant) == 1


def dualising_check(G: FiniteGroup) -> DualisingWitness:
    """Left-module isomorphism Hom_Z(ZG, Z) ~ ZG found by solving the
    equivariance system and searching the solution lattice for a
    unimodular element."""
    n = G.order
    # unknowns: T (n x n), T e_h = column h; constraints:
    # T . L_g = act_omega(g) . T for all g
    rows = []
    for g in range(1, n):
        for h in range(n):
            for i in range(n):
                row = [0] * (n * n)
                # (T L_g)[i][h] = T[i][g h]
                row[i * n + G.table[g][h]] += 1
                # (act_omega(g) T)[i][h] = T[g^{-1} i ... ]
                # omega: f_k -> f_{k g^{-1}} so row i receives T[i g][h]
                row[G.table[i][g] * n + h] -= 1
                rows.append(row)
    A = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(1, n * n)
    basis = smith_normal_form(A).kernel()
    candidates = list(basis)
    for a, b in combinations(range(len(basis)), 2):
        candidates.append([x + y for x, y in zip(basis[a], basis[b])])
        candidates.append([x - y for x, y in zip(basis[a], basis[b])])
    # the solution lattice is {T_f : f in Z^n} with T_f(e_h) = h.f; the
    # delta-supported choices give permutation matrices, so seed those too
    for k in range(n):
        cand = [0] * (n * n)
        for h in range(n):
            i = G.table[k][G.inverse[h]]
            cand[i * n + h] = 1
        candidates.append(cand)
    for cand in candidates:
        T = [[cand[i * n + j] for j in range(n)] for i in range(n)]
        det = IntMatrix.from_rows(T).det()
        if abs(det) == 1:
            w = DualisingWitness(G.label, T, det)
            if not w.verify(G):
                raise InternalCheckFailed(
                    "candidate passed unimodularity but not equivariance")
            return w
    raise NoIsomorphismFound(
        f"no unimodular equivariant map found for {G.label}; this "
        "contradicts self-injectivity of group algebras")


# ---------------------------------------------------------------------------
# Ext over ZG via iterated free covers
# ---------------------------------------------------------------------------

def _lattice_basis_of_span(cols):
    """Basis of the lattice spanned by the given integer columns."""
    if not cols:
        return []
    W = IntMatrix.from_rows([list(r) for r in zip(*cols)])
    dec = smith_normal_form(W)
    # U W V = D, so the columns of W V are U^-1 D: d_j times column j of U^-1
    WV = W @ dec.V
    return [[WV[i, j] for i in range(W.rows)]
            for j, d in enumerate(dec.diagonal()) if d != 0]


def _syzygy_module(G: FiniteGroup, cols):
    """The sublattice of ZG^k spanned by the given columns, as a
    LatticeModule in the column basis (columns must be a lattice basis of
    an action-stable sublattice)."""
    n = G.order
    B = IntMatrix.from_rows([list(r) for r in zip(*cols)])
    bdec = smith_normal_form(B)
    mats = []
    for g in range(n):
        mat_cols = []
        for v in cols:
            img = [0] * len(v)
            for idx, val in enumerate(v):
                if val:
                    j, h = divmod(idx, n)
                    img[j * n + G.table[g][h]] += val
            y = bdec.solve(img)
            if y is None:
                raise InternalCheckFailed("syzygy lattice not action-stable")
            mat_cols.append(y)
        mats.append([list(r) for r in zip(*mat_cols)])
    return LatticeModule(G, mats, label="syzygy")


def ext_group(M, N: LatticeModule, i: int) -> list:
    """Invariant factors of Ext^i_{ZG}(M, N); 0 denotes a free summand.

    M may be a LatticeModule or an FGModule presentation (torsion
    allowed); the resolution uses basis-sized free covers, with the first
    kernel adjusted by the relation lattice.
    """
    G = M.group
    if G is not N.group:
        raise ValueError("modules over different groups")
    n = G.order
    if isinstance(M, LatticeModule):
        gens = M.rank
        relations = []
        action_of = lambda g: M.action[g]
    else:
        full = M.full_action()
        gens = M.generators
        relations = [list(r) for r in M.relations]
        action_of = lambda g: full[g]
    if gens == 0:
        return []
    # tower of free covers: ranks[t] = rank of F_t, cols_t = d_{t+1} columns
    ranks = [gens]
    zg_cols = []
    cover = _free_cover_data(G, gens, action_of)
    if relations:
        # kernel of Z^{gens*n} -> Z^gens -> Z^gens / (relation lattice)
        R = [list(r) for r in zip(*relations)]  # gens x (#relations)
        aug_rows = [cover[r_] + [-R[r_][c] for c in range(len(relations))]
                    for r_ in range(gens)]
        kern = smith_normal_form(IntMatrix.from_rows(aug_rows)).kernel()
        projected = [v[:gens * n] for v in kern]
        cols = _lattice_basis_of_span(projected)
    else:
        cols = smith_normal_form(IntMatrix.from_rows(cover)).kernel()
    zg_cols.append(cols)
    cur = _syzygy_module(G, cols) if cols else None
    for t in range(1, i + 2):
        if cur is None:
            zg_cols.append([])
            ranks.append(0)
            continue
        ranks.append(cur.rank)
        cov = _free_cover_data(G, cur.rank, lambda g, c=cur: c.action[g])
        kern = smith_normal_form(IntMatrix.from_rows(cov)).kernel()
        zg_cols.append(kern)
        cur = _syzygy_module(G, kern) if kern else None

    rN = N.rank

    def hom_matrix(t):
        """delta^t : N^{k_{t-1}} -> N^{k_t} induced by d_t."""
        cols_t = zg_cols[t - 1]
        k_prev = ranks[t - 1]
        k_t = len(cols_t)
        rows_out = k_t * rN
        cols_out = k_prev * rN
        ent = [[0] * cols_out for _ in range(rows_out)]
        for jt, v in enumerate(cols_t):
            for idx, val in enumerate(v):
                if not val:
                    continue
                j, g = divmod(idx, n)
                act = N.action[g]
                for a in range(rN):
                    for b in range(rN):
                        if act[a][b]:
                            ent[jt * rN + a][j * rN + b] += val * act[a][b]
        return IntMatrix.from_rows(ent) if rows_out else \
            IntMatrix.zero(0, cols_out)

    d_out = hom_matrix(i + 1)
    if i == 0:
        d_in = IntMatrix.zero(ranks[0] * rN, 1)
    else:
        d_in = hom_matrix(i)
    return subquotient_invariants(d_in, d_out, "Z")


# ---------------------------------------------------------------------------
# Koszul self-duality
# ---------------------------------------------------------------------------

@dataclass
class KoszulReport:
    elements: tuple
    passed: bool
    shift_signs: tuple
    h0_invariants: tuple


def koszul_complex_matrices(elements):
    """Differentials of the Koszul complex on the given integers:
    d_k : Lambda^k -> Lambda^{k-1}."""
    d = len(elements)
    subsets = {k: list(combinations(range(d), k)) for k in range(d + 1)}
    index = {k: {S: i for i, S in enumerate(subsets[k])} for k in subsets}
    mats = {}
    for k in range(1, d + 1):
        rows = len(subsets[k - 1])
        cols = len(subsets[k])
        ent = [[0] * cols for _ in range(rows)]
        for j, S in enumerate(subsets[k]):
            for pos, elem in enumerate(S):
                T = tuple(x for x in S if x != elem)
                ent[index[k - 1][T]][j] += (-1) ** pos * elements[elem]
        mats[k] = IntMatrix.from_rows(ent)
    return mats, subsets


def koszul_selfdual_check(elements) -> KoszulReport:
    """Exhibit Hom_Z(K, Z) ~ shifted K via signed Hodge-star maps.

    For each degree k the candidate phi_k sends e_S to sign(S, S^c) e_{S^c};
    the search tries per-degree global signs so that every square
    phi_{k-1} d_k = +- d_{d-k+1}^T phi_k commutes.
    """
    elements = tuple(int(a) for a in elements)
    d = len(elements)
    if not 1 <= d <= 4:
        raise ValueError("1 <= d <= 4 supported")
    mats, subsets = koszul_complex_matrices(elements)
    index = {k: {S: i for i, S in enumerate(subsets[k])} for k in subsets}

    def star(k):
        rows = len(subsets[d - k])
        cols = len(subsets[k])
        ent = [[0] * cols for _ in range(rows)]
        for j, S in enumerate(subsets[k]):
            comp = tuple(x for x in range(d) if x not in S)
            # sign of the permutation sorting S followed by complement
            perm = list(S) + list(comp)
            sgn = _perm_sign(perm)
            ent[index[d - k][comp]][j] = sgn
        return IntMatrix.from_rows(ent) if rows and cols else \
            IntMatrix.from_rows([[1]])

    stars = {k: star(k) for k in range(d + 1)}
    from itertools import product as iproduct

    for signs in iproduct((1, -1), repeat=d + 1):
        ok = True
        for k in range(1, d + 1):
            lhs = stars[k - 1] @ mats[k]
            lhs = IntMatrix(lhs.rows, lhs.cols,
                            [signs[k - 1] * v for v in lhs.entries])
            rhs = mats[d - k + 1].transpose() @ stars[k]
            rhs = IntMatrix(rhs.rows, rhs.cols,
                            [signs[k] * v for v in rhs.entries])
            if lhs != rhs:
                ok = False
                break
        if ok:
            h0 = cokernel_invariants(mats[1], "Z")
            return KoszulReport(elements, True, signs, tuple(h0))
    return KoszulReport(elements, False, (), ())


def _perm_sign(perm):
    sgn = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


# ---------------------------------------------------------------------------
# free resolutions over F_pG (iterated kernels)
# ---------------------------------------------------------------------------

@dataclass
class FieldResolution:
    """Iterated basis-sized free covers of an F_pG-module."""

    module: FpModule
    free_ranks: list
    diffs: list        # F_p matrices of d_t : F_t -> F_{t-1} (expanded)
    cover: list | None  # matrix F_0 -> M

    @property
    def length(self) -> int:
        return len(self.free_ranks)


def _is_free_decomposition(M: FpModule):
    """Greedy search for a free basis; None if not found."""
    G, p = M.group, M.p
    n = G.order
    if M.dim == 0 or M.dim % n != 0:
        return None if M.dim else []
    chosen = []
    span_rows = []
    for cand in range(M.dim):
        v = np.zeros(M.dim, dtype=np.int64)
        v[cand] = 1
        orbit = [(M.action[g] @ v) % p for g in range(n)]
        test = span_rows + orbit
        if rank_modp(test, p) == len(span_rows) + n:
            chosen.append(v)
            span_rows = test
            if len(span_rows) == M.dim:
                return chosen
    return None


def field_free_resolution(M: FpModule, N: int) -> FieldResolution:
    """Iterated free covers: each step maps a free module on a basis of the
    current module; any free resolution computes Ext."""
    if M.dim == 0:
        return FieldResolution(M, [], [], None)
    if _is_free_decomposition(M) is not None:
        return FieldResolution(M, [], [], None)
    G, p = M.group, M.p
    n = G.order
    ranks = []
    diffs = []
    cover0 = None
    cur = M
    incl_prev = None
    for t in range(N + 1):
        P = _free_cover_data(G, cur.dim, lambda g, c=cur: c.action[g].tolist())
        ranks.append(cur.dim)
        if t == 0:
            cover0 = P
        else:
            # d_t = incl_{t-1} o cover_t expanded to F_p matrices
            exp_prev = incl_prev  # columns of K_{t-1} in F_{t-1}
            mat = (np.asarray(exp_prev, dtype=np.int64).T @
                   np.asarray(P, dtype=np.int64)) % p
            # exp_prev: list of kernel basis vectors; P maps F_t onto K bases
            diffs.append(mat.tolist())
        K = nullspace_modp(P, p)
        if not K:
            break
        # action of G on the kernel subspace, in the kernel basis
        solve = modp_solver(np.stack(K, axis=1), p)
        mats = []
        for g in range(n):
            imgs = []
            for v in K:
                img = np.zeros_like(v)
                for idx in range(v.shape[0]):
                    if v[idx]:
                        j, h = divmod(idx, n)
                        img[j * n + G.table[g][h]] = \
                            (img[j * n + G.table[g][h]] + v[idx]) % p
                imgs.append(img)
            sol = []
            for img in imgs:
                y = solve(img)
                if y is None:
                    raise InternalCheckFailed("kernel not action-stable")
                sol.append([int(t2) % p for t2 in y])
            mats.append([list(r) for r in zip(*sol)])
        incl_prev = [v.tolist() for v in K]
        cur = FpModule(G, p, mats, label="syzygy")
    return FieldResolution(M, ranks, diffs, cover0)

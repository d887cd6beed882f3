"""Fibrewise module criteria over ZG: projectivity through the residue
fields, Gorenstein projectivity, the dualising module isomorphism and
Koszul self-duality.

Modules come in two forms: a presentation (FGModule, the JSON-facing type)
and a GModule, a module over RG that is free over R = Z (p = 0) or F_p and
carries the action matrix of every group element.

Everything runs on :mod:`cohomkit.exact.sparse`, whose one factorization
over Z answers over Z and over every Z/p.  A presentation factors its
relation matrix A once, over Z.  With m = p over F_p and m = 0 over Z, the
factorization's cokernel basis b_i of orders o_i splits the quotient of Z^g
by the relations and m Z^g into the Z/gcd(o_i, m) b_i; the module keeps the
b_i of order m, and a vector's coordinates in them are its cokernel
coordinates.  The same factorization checks the action against the group
table and the relations for stability, by image membership mod m.

Projectivity at a fibre is decided by one linear splitting system, with at
most dim+1 nonzeros per row.  A lattice's system is factored once, and that
factorization answers all three questions: the integral test solves over
Z, each fibre solves mod p (the system mod p is the fibre's own), and the
rational test reads the free cokernel coordinates.  Koszul H_0 is the
cokernel of one factorization.  F_p entries enter every factorization as
symmetric residues (|v| <= p/2, ``SparseFactorization.from_columns``), so
p - 1 is the unit -1 and stays an elimination pivot.  The dense Smith form
runs only inside that factorization, as its phase 3; in the tests it is the
oracle.  Ext over ZG and free resolutions over F_pG, which no command
asks for, are test helpers (``tests/helpers.py``) on the same engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, inf

from .abelian import factorize, require_prime
from .errors import (InternalCheckFailed, InvalidModule, NoIsomorphismFound,
                     NotBaseFree)
from .exact.dense import IntMatrix
from .exact.sparse import (SparseFactorization, coo_to_csr,
                           symmetric_residue)
from .groups import FiniteGroup, int_rows


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
    base: str                 # "Z" or "Fp"
    p: int                    # prime for Fp, else 0
    generators: int
    relations: list
    action: dict              # element index -> matrix (list of rows)

    def __post_init__(self):
        if self.base not in ("Z", "Fp"):
            raise InvalidModule(
                f'base must be "Z" or "Fp", not {self.base!r}')
        if self.base == "Fp":
            require_prime(self.p)
        g, order = self.generators, self.group.order
        if any(len(r) != g for r in self.relations):
            raise InvalidModule("a relation needs one entry per generator")
        for k, mat in self.action.items():
            if not 0 <= int(k) < order:
                raise InvalidModule(f"action key {k} is not an element "
                                    f"index in [0, {order})")
            if len(mat) != g or any(len(row) != g for row in mat):
                raise InvalidModule(f"the action matrix of element {k} "
                                    f"must be {g} x {g}")

    @classmethod
    def from_json_file(cls, path, group: FiniteGroup) -> "FGModule":
        """Module input file: {"base": "Z" or "Fp", "p": prime (Fp only),
        "generators": g, "relations": [[int] * g, ...], "action":
        {"element index": g x g integer matrix, ...}}.  A file that is not
        JSON, or a field of the wrong shape, raises InvalidModule naming the
        file (and the field)."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidModule(f"{path}: not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidModule(f"{path}: a module file holds a JSON object")

        def wrong(field, shape):
            return InvalidModule(f'{path}: "{field}" must be {shape}')

        action = data.get("action")
        if not isinstance(data.get("p") or 0, int):
            raise wrong("p", "a prime")
        if not isinstance(data.get("generators"), int):
            raise wrong("generators", "an integer")
        if not int_rows(data.get("relations", [])):
            raise wrong("relations", "a list of integer rows")
        if not isinstance(action, dict) or not all(
                k.isdecimal() and int_rows(v) for k, v in action.items()):
            raise wrong("action", "an object from element indices to "
                        "integer matrices")
        return cls(group=group,
                   base=data.get("base"),
                   p=data.get("p") or 0,
                   generators=data["generators"],
                   relations=data.get("relations", []),
                   action={int(k): v for k, v in action.items()})

    @property
    def modulus(self) -> int:
        """p over F_p, 0 over Z: the module is Z^g modulo the relations and
        modulus * Z^g."""
        return self.p if self.base == "Fp" else 0

    @cached_property
    def factorization(self) -> SparseFactorization:
        """The relation matrix A, one column per relation, factored over
        Z."""
        return SparseFactorization.from_columns(self.relations,
                                                self.generators)

    @cached_property
    def coker_basis(self) -> list:
        """(order over Z, vector) for each basis vector b_i of Z^g that the
        factorization adapts to the cokernel of A."""
        return self.factorization.coker_basis()

    def orders(self) -> list:
        """Order gcd(o_i, m) of each quotient basis vector b_i (0 = Z)."""
        return [gcd(o, self.modulus) for o, _ in self.coker_basis]

    def full_action(self):
        """Action matrix for every group element, generated from the given
        ones by table multiplication.  Products must match the table and the
        generators must keep the relations, both up to the relations and
        m Z^g (image membership mod m); raises InvalidModule."""
        G = self.group
        n = self.generators
        m = self.modulus
        known = {0: [[1 if i == j else 0 for j in range(n)]
                     for i in range(n)]}
        for k, mat in self.action.items():
            known[int(k)] = [list(map(int, row)) for row in mat]
        gens = [k for k in self.action]
        while len(known) < G.order:
            progressed = False
            for a in list(known):
                for g in gens:
                    c = G.table[int(g)][a]
                    if c not in known:
                        known[c] = _matmul(known[int(g)], known[a], m)
                        progressed = True
            if not progressed:
                raise InvalidModule(
                    "action generators do not generate the group")
        fact = self.factorization

        def related(cols):
            return all(fact.in_image(list(col), m) for col in cols)

        for a in range(G.order):
            for b in range(G.order):
                got = _matmul(known[a], known[b], m)
                want = known[G.table[a][b]]
                if got != want and not related(zip(*(
                        [x - y for x, y in zip(r, s)]
                        for r, s in zip(got, want)))):
                    raise InvalidModule(
                        f"action violates the table at ({a},{b})")
        for g in gens:
            if not related(_matvec(known[int(g)], rel)
                           for rel in self.relations):
                raise InvalidModule(
                    "relation submodule is not stable under the action")
        return known


def _matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


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


class GModule:
    """Module over RG, free of rank ``rank`` over R = Z (p = 0) or F_p: the
    action matrix of every group element in python ints, reduced mod p, and
    checked against the group table."""

    def __init__(self, group: FiniteGroup, action: list, p: int = 0,
                 label: str = "M"):
        if p:
            require_prime(p)
        self.group = group
        self.p = p
        self.rank = len(action[0]) if action else 0
        self.action = [[[int(v) % p if p else int(v) for v in row]
                        for row in mat] for mat in action]
        self.label = label
        if len(self.action) != group.order:
            raise InvalidModule("need an action matrix per group element")
        if self.action[0] != [[int(i == j) for j in range(self.rank)]
                              for i in range(self.rank)]:
            raise InvalidModule("identity element must act as the identity")
        for a in range(group.order):
            for b in range(group.order):
                if _matmul(self.action[a], self.action[b], p) != \
                        self.action[group.table[a][b]]:
                    raise InvalidModule(
                        f"action violates the table at ({a},{b})")


def regular_module(G: FiniteGroup) -> GModule:
    """ZG with the left regular action."""
    n = G.order
    mats = []
    for g in range(n):
        mat = [[0] * n for _ in range(n)]
        for h in range(n):
            mat[G.table[g][h]][h] = 1
        mats.append(mat)
    return GModule(G, mats, label="ZG")


def trivial_module(G: FiniteGroup) -> GModule:
    return GModule(G, [[[1]] for _ in range(G.order)], label="Z")


def augmentation_ideal(G: FiniteGroup) -> GModule:
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
    return GModule(G, mats, label="aug")


def module_from_presentation(M: FGModule) -> GModule:
    """Realize a Z or F_p presentation as a GModule on its quotient basis
    vectors b_i of order m: column i of the action of g holds the cokernel
    coordinates of g b_i at those b_j.  NotBaseFree when a Z presentation
    has torsion."""
    full = M.full_action()
    m = M.modulus
    orders = M.orders()
    torsion = [o for o in orders if o not in (1, m)]
    if torsion:
        raise NotBaseFree(f"presentation has torsion {torsion}")
    free = [i for i, o in enumerate(orders) if o == m]
    coords = M.factorization.coords

    def realize(mat):
        cols = [coords(_matvec(mat, M.coker_basis[i][1]), m)[0]
                for i in free]
        return [[col[j] for col in cols] for j in free]

    return GModule(M.group, [realize(full[a]) for a in range(M.group.order)],
                   m)


# ---------------------------------------------------------------------------
# projectivity tests
# ---------------------------------------------------------------------------

@dataclass
class ProjectivityResult:
    projective: bool
    splitting: list | None  # columns express sigma: M -> F


def _free_cover_data(group: FiniteGroup, dim: int, action_of):
    """Free cover F = (RG)^dim -> M, e_{j,g} -> g m_j, as its matrix P
    (dim x dim*|G|)."""
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
    return SparseFactorization(nrows, ncols,
                               coo_to_csr(nrows, ncols, *coo)), rhs


def fibre_projectivity_test(M: GModule) -> ProjectivityResult:
    """Projectivity over F_pG (over ZG when M.p = 0) by solvability of the
    splitting system; a solution is the witness sigma.

    The system is factored over Z from symmetric residues (|v| <= p/2), so
    that p - 1 enters as the unit -1 and stays an elimination pivot."""
    dim = M.rank
    if dim == 0:
        return ProjectivityResult(True, [])
    lifted = [[[symmetric_residue(v, M.p) for v in row] for row in mat]
              for mat in M.action]
    fact, rhs = _splitting_factorization(M.group, dim, lambda g: lifted[g])
    x = fact.solve(rhs, M.p)
    if x is None:
        return ProjectivityResult(False, None)
    sigma = [[x[r * dim + c] for c in range(dim)]
             for r in range(dim * M.group.order)]
    return ProjectivityResult(True, sigma)


def integral_projectivity_test(M: GModule) -> ProjectivityResult:
    """Projectivity over ZG by an exact integral splitting of the free
    cover (the direct side of the fibrewise criterion)."""
    if M.p:
        raise ValueError("expected a module over ZG")
    return fibre_projectivity_test(M)


def rational_projectivity_test(M: GModule) -> bool:
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


def proj_dim_via_fibres(M: GModule,
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
    to Z-freeness of the underlying abelian group.  The presentation is
    validated, then its invariants are read off the relation Smith form."""
    if M.base != "Z":
        raise ValueError("gproj_test applies to Z-based presentations")
    M.full_action()
    orders = M.orders()
    torsion = [o for o in orders if o > 1]
    return {"gorenstein_projective": not torsion,
            "invariants": torsion + [0] * orders.count(0)}


# ---------------------------------------------------------------------------
# dualising module
# ---------------------------------------------------------------------------

@dataclass
class DualisingWitness:
    group_label: str
    matrix: list
    determinant: int

    def verify(self, G: FiniteGroup) -> bool:
        """T is a permutation matrix, so unimodular, and commutes with the
        actions."""
        n = G.order
        T = self.matrix
        unit = [0] * (n - 1) + [1]
        if any(sorted(line) != unit for line in [*T, *zip(*T)]):
            return False
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
        return True


def dualising_check(G: FiniteGroup) -> DualisingWitness:
    """Left-module isomorphism Hom_Z(ZG, Z) ~ ZG in closed form.

    T e_h = f_{k h^{-1}} commutes with the actions for every k, since
    L_g e_h = e_{g h} and g f_x = f_{x g^{-1}}; it permutes the basis, so it
    is unimodular.  k is the last element."""
    n = G.order
    k = n - 1
    perm = [G.table[k][G.inverse[h]] for h in range(n)]
    T = [[0] * n for _ in range(n)]
    for h, r in enumerate(perm):
        T[r][h] = 1
    w = DualisingWitness(G.label, T, _perm_sign(perm))
    if not w.verify(G):
        raise NoIsomorphismFound(
            f"the permutation witness fails for {G.label}; this "
            "contradicts self-injectivity of group algebras")
    return w


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
            h0 = SparseFactorization.from_columns(
                [[v] for v in mats[1].entries], 1).coker_invariants()
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

"""Fibrewise module criteria over ZG: projectivity through the residue
fields, Gorenstein projectivity, the dualising module isomorphism and
Koszul self-duality.

Modules come in two forms: a presentation (FGModule, the JSON-facing type)
and a GModule, a module over RG that is free of rank r over R = Z (p = 0)
or F_p and carries its action as one (|G|, r, r) array, the matrix of
element g at index g.

Every dense matrix here is a numpy array: the actions, the free cover, the
splitting, the dualising witness, the Koszul differentials and the Hodge
stars.  Each is int64 when its entries fit and object (python ints)
otherwise, and each product of two of them is :func:`kernels.matmul`,
which runs in int64 only where a bound shows it exact.  A check compares
whole arrays: an action meets the group table when one batched product,
action[a] @ action[b] for every pair (a, b), equals the action indexed by
the table.

The linear systems run on :mod:`cohomkit.exact.sparse`, whose one
factorization over Z answers over Z and over every Z/p.  A presentation
factors its relation matrix A once, over Z.  With m = p over F_p and m = 0
over Z, the factorization's cokernel basis b_i of orders o_i splits the
quotient of Z^g by the relations and m Z^g into the Z/gcd(o_i, m) b_i; the
module keeps the b_i of order m, and a vector's coordinates in them are its
cokernel coordinates.  The same factorization checks the action against
the group table and the relations for stability, by image membership mod
m, one block of columns per check.

Projectivity at a fibre is decided by one linear splitting system, with at
most dim+1 nonzeros per row, built by index arithmetic on the action
array.  A lattice's system is factored once, and that factorization
answers all three questions: the integral test solves over Z, each fibre
solves mod p (the system mod p is the fibre's own), and the rational test
reads the free cokernel coordinates.  Koszul H_0 is the cokernel of one
factorization.  F_p entries enter every factorization as symmetric
residues (|v| <= p/2, ``symmetric_residues``), so p - 1 is the unit -1 and
stays an elimination pivot.  The dense Smith form runs only inside that
factorization, as its phase 3; in the tests it is the oracle.  Ext over ZG
and free resolutions over F_pG, which no command asks for, are test
helpers (``tests/helpers.py``) on the same engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import gcd, inf

import numpy as np

from . import kernels
from .abelian import factorize, require_prime
from .errors import (InternalCheckFailed, InvalidModule, NoIsomorphismFound,
                     NotBaseFree)
from .exact.sparse import (SparseFactorization, coo_to_csr,
                           symmetric_residues)
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

    def full_action(self) -> np.ndarray:
        """The action of every group element, a (|G|, g, g) array generated
        from the given matrices by table multiplication.  Products must
        match the table and the generators must keep the relations, both up
        to the relations and m Z^g (image membership mod m); raises
        InvalidModule."""
        G = self.group
        g = self.generators
        m = self.modulus
        known = {0: np.eye(g, dtype=np.int64)}
        for k, mat in self.action.items():
            known[int(k)] = kernels.int_array(mat).reshape(g, g)
        gens = [int(k) for k in self.action]
        while len(known) < G.order:
            progressed = False
            for a in list(known):
                for k in gens:
                    c = G.table[k][a]
                    if c not in known:
                        known[c] = kernels.matmul(known[k], known[a], m)
                        progressed = True
            if not progressed:
                raise InvalidModule(
                    "action generators do not generate the group")
        action = np.stack([known[a] for a in range(G.order)])
        pairs, diff = _table_misses(G, action, m)
        if pairs:
            ok = self._related(diff)
            if not all(ok):
                a, b = pairs[ok.index(False) // g]
                raise InvalidModule(f"action violates the table at ({a},{b})")
        rel = kernels.int_array(self.relations).reshape(
            len(self.relations), g).T
        if rel.size and gens and not all(self._related(
                kernels.matmul(action[gens], rel))):
            raise InvalidModule(
                "relation submodule is not stable under the action")
        return action

    def _related(self, mats: np.ndarray) -> list:
        """Whether each column of each matrix in the stack ``mats`` lies in
        the span of the relations and m Z^g, in stack order: one block
        image query."""
        block = mats.transpose(1, 0, 2).reshape(self.generators, -1)
        return self.factorization.in_image(block, self.modulus)


class GModule:
    """Module over RG, free of rank ``rank`` over R = Z (p = 0) or F_p: the
    action as one (|G|, rank, rank) array, reduced mod p, and checked
    against the group table."""

    def __init__(self, group: FiniteGroup, action, p: int = 0,
                 label: str = "M"):
        if p:
            require_prime(p)
        action = kernels.residues(action, p) if p else \
            kernels.int_array(action)
        if (action.ndim != 3 or len(action) != group.order
                or action.shape[1] != action.shape[2]):
            raise InvalidModule("need a square action matrix per group "
                                "element")
        self.group = group
        self.p = p
        self.rank = action.shape[1]
        self.action = action
        self.label = label
        if not np.array_equal(action[0], np.eye(self.rank, dtype=np.int64)):
            raise InvalidModule("identity element must act as the identity")
        pairs, _ = _table_misses(group, action, p)
        if pairs:
            a, b = pairs[0]
            raise InvalidModule(f"action violates the table at ({a},{b})")


def _table_misses(group: FiniteGroup, action: np.ndarray, m: int):
    """The pairs (a, b), in row-major order, at which action[a] @ action[b]
    mod m (over Z for m = 0) differs from action[ab], by one batched
    product, and the stack of those differences."""
    prod = kernels.matmul(action[:, None], action[None, :], m)
    want = action[np.array(group.table)]
    bad = np.nonzero((prod != want).any(axis=(2, 3)))
    return (list(zip(*(x.tolist() for x in bad))),
            prod[bad].astype(object) - want[bad])


def _permutation_action(images: np.ndarray) -> np.ndarray:
    """The (|G|, n, n) action in which element g sends basis vector h to
    basis vector images[g, h]."""
    n = images.shape[1]
    return (images[:, None, :] == np.arange(n)[:, None]).astype(np.int64)


def regular_module(G: FiniteGroup) -> GModule:
    """ZG with the left regular action."""
    return GModule(G, _permutation_action(np.array(G.table)), label="ZG")


def trivial_module(G: FiniteGroup) -> GModule:
    return GModule(G, np.ones((G.order, 1, 1), dtype=np.int64), label="Z")


def augmentation_ideal(G: FiniteGroup) -> GModule:
    """Kernel of ZG -> Z with basis e_g - e_0 for g != 0."""
    # g . (e_h - e_0) = e_{gh} - e_0 - (e_g - e_0): the regular action on
    # the e_h, h != 0, less a row of ones at e_g
    eye = np.eye(G.order, dtype=np.int64)
    return GModule(G, regular_module(G).action[:, 1:, 1:] - eye[:, 1:, None],
                   label="aug")


def module_from_presentation(M: FGModule) -> GModule:
    """Realize a Z or F_p presentation as a GModule on its quotient basis
    vectors b_i of order m: column i of the action of g holds the cokernel
    coordinates of g b_i at those b_j, all read by one block query.
    NotBaseFree when a Z presentation has torsion."""
    full = M.full_action()
    m = M.modulus
    orders = M.orders()
    torsion = [o for o in orders if o not in (1, m)]
    if torsion:
        raise NotBaseFree(f"presentation has torsion {torsion}")
    free = [i for i, o in enumerate(orders) if o == m]
    n, r = M.group.order, len(free)
    if not r:
        return GModule(M.group, np.zeros((n, 0, 0), dtype=np.int64), m)
    basis = kernels.int_array([M.coker_basis[i][1] for i in free])
    # column a*r + i of the block is g_a b_i
    block = kernels.matmul(full, basis.T).transpose(1, 0, 2)
    coords = M.factorization.coords(block.reshape(M.generators, n * r), m)
    cols = kernels.int_array([vals for vals, _ in coords])[:, free]
    return GModule(M.group, cols.reshape(n, r, r).transpose(0, 2, 1), m)


# ---------------------------------------------------------------------------
# projectivity tests
# ---------------------------------------------------------------------------

@dataclass
class ProjectivityResult:
    projective: bool
    splitting: np.ndarray | None  # columns express sigma: M -> F


def _free_cover_data(action: np.ndarray) -> np.ndarray:
    """Free cover F = (RG)^dim -> M, e_{j,g} -> g m_j, as its matrix P
    (dim x dim*|G|): column j*|G| + g is column j of the action of g."""
    n, dim, _ = action.shape
    return action.transpose(1, 2, 0).reshape(dim, dim * n)


def _splitting_system(group: FiniteGroup, action: np.ndarray):
    """Linear system for an equivariant splitting sigma with P sigma = id.

    Unknowns: sigma entries (dim*|G|) x dim, row-major.  Returns
    ``(nrows, ncols, coo, b)`` for A x = b, with A as COO arrays; each row
    has at most dim+1 nonzeros.  Row i*dim + j says (P sigma)[i][j] =
    [i == j].  Then, for g = 1, ..., |G| - 1, r < dim*|G| and c < dim, row
    dim^2 + ((g - 1) dim|G| + r) dim + c says sigma act_M(g) = act_F(g)
    sigma at (r, c), where (act_F(g) sigma)[r] is the row of sigma at the
    g^-1 translate of r."""
    n, dim, _ = action.shape
    nf = dim * n
    cols = np.arange(dim)
    # P sigma = I: P[i][t] at column t*dim + j of row i*dim + j
    P = _free_cover_data(action)
    i, t = np.nonzero(P)
    ri = [(i[:, None] * dim + cols).ravel()]
    ci = [(t[:, None] * dim + cols).ravel()]
    vi = [np.repeat(P[i, t], dim)]
    # sigma act_M(g): act_M(g)[t][c] at column r*dim + t (g - 1 below)
    g, t, c = np.nonzero(action[1:])
    r = np.arange(nf)[:, None]
    rows = dim * dim + (g * nf + r) * dim + c
    ri.append(rows.ravel())
    ci.append((r * dim + t).ravel())
    vi.append(np.broadcast_to(action[1:][g, t, c], rows.shape).ravel())
    # -act_F(g) sigma: -1 at column src*dim + c, r = j*|G| + h and
    # src = j*|G| + g^-1 h
    table = np.array(group.table)
    r = np.arange(nf)
    src = r - r % n + table[group.inverse][1:, r % n]
    ri.append(dim * dim + np.arange((n - 1) * nf * dim))
    ci.append((src[:, :, None] * dim + cols).ravel())
    vi.append(np.full((n - 1) * nf * dim, -1))
    nrows = dim * dim + (n - 1) * nf * dim
    rhs = np.zeros(nrows, dtype=np.int64)
    rhs[:dim * dim] = np.eye(dim, dtype=np.int64).ravel()
    return (nrows, nf * dim,
            tuple(np.concatenate(x) for x in (ri, ci, vi)), rhs)


def _splitting_factorization(group: FiniteGroup, action: np.ndarray):
    """The splitting system factored over Z, and its right-hand side."""
    nrows, ncols, coo, rhs = _splitting_system(group, action)
    return SparseFactorization(nrows, ncols,
                               coo_to_csr(nrows, ncols, *coo)), rhs


def fibre_projectivity_test(M: GModule) -> ProjectivityResult:
    """Projectivity over F_pG (over ZG when M.p = 0) by solvability of the
    splitting system; a solution is the witness sigma.

    The system is factored over Z from symmetric residues (|v| <= p/2), so
    that p - 1 enters as the unit -1 and stays an elimination pivot."""
    dim = M.rank
    if dim == 0:
        return ProjectivityResult(True, np.zeros((0, 0), dtype=np.int64))
    fact, rhs = _splitting_factorization(
        M.group, symmetric_residues(M.action, M.p))
    x = fact.solve(rhs, M.p)
    if x is None:
        return ProjectivityResult(False, None)
    return ProjectivityResult(
        True, kernels.int_array(x).reshape(dim * M.group.order, dim))


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
    fact, rhs = _splitting_factorization(M.group, M.action)
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
        fact, rhs = _splitting_factorization(M.group, M.action)
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
    matrix: np.ndarray
    determinant: int

    def verify(self, G: FiniteGroup) -> bool:
        """T is a permutation matrix, so unimodular, and commutes with the
        actions: T L_g = R_g T for every g, with L_g e_h = e_{g h} on ZG and
        R_g f_x = f_{x g^-1} on Hom_Z(ZG, Z)."""
        T = self.matrix
        unit = np.eye(G.order, dtype=np.int64)[-1]
        if not ((np.sort(T, axis=0) == unit[:, None]).all()
                and (np.sort(T, axis=1) == unit).all()):
            return False
        table = np.array(G.table)
        left = _permutation_action(table)
        right = _permutation_action(table[:, G.inverse].T)
        return np.array_equal(kernels.matmul(T, left),
                              kernels.matmul(right, T))


def dualising_check(G: FiniteGroup) -> DualisingWitness:
    """Left-module isomorphism Hom_Z(ZG, Z) ~ ZG in closed form.

    T e_h = f_{k h^{-1}} commutes with the actions for every k, since
    L_g e_h = e_{g h} and g f_x = f_{x g^{-1}}; it permutes the basis, so it
    is unimodular.  k is the last element."""
    n = G.order
    k = n - 1
    perm = [G.table[k][G.inverse[h]] for h in range(n)]
    T = np.zeros((n, n), dtype=np.int64)
    T[perm, np.arange(n)] = 1
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
    d_k : Lambda^k -> Lambda^{k-1}, one array each."""
    a = kernels.int_array(elements)
    d = len(a)
    subsets = {k: list(combinations(range(d), k)) for k in range(d + 1)}
    index = {k: {S: i for i, S in enumerate(subsets[k])} for k in subsets}
    mats = {}
    for k in range(1, d + 1):
        ent = np.zeros((len(subsets[k - 1]), len(subsets[k])), dtype=a.dtype)
        for j, S in enumerate(subsets[k]):
            for pos, elem in enumerate(S):
                ent[index[k - 1][S[:pos] + S[pos + 1:]], j] = \
                    (-1) ** pos * a[elem]
        mats[k] = ent
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
        ent = np.zeros((len(subsets[d - k]), len(subsets[k])), dtype=np.int64)
        for j, S in enumerate(subsets[k]):
            comp = tuple(x for x in range(d) if x not in S)
            # sign of the permutation sorting S followed by complement
            ent[index[d - k][comp], j] = _perm_sign(list(S) + list(comp))
        return ent

    stars = {k: star(k) for k in range(d + 1)}
    squares = [(kernels.matmul(stars[k - 1], mats[k]),
                kernels.matmul(mats[d - k + 1].T, stars[k]))
               for k in range(1, d + 1)]
    for signs in product((1, -1), repeat=d + 1):
        if all(np.array_equal(signs[k - 1] * lhs, signs[k] * rhs)
               for k, (lhs, rhs) in enumerate(squares, 1)):
            h0 = SparseFactorization.from_columns(mats[1].T, 1)
            return KoszulReport(elements, True, signs,
                                tuple(h0.coker_invariants()))
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

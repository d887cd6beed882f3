"""Cup products via the Alexander-Whitney diagonal on bar cochains, and
graded ring slices up to a degree bound.

For trivial coefficients the AW formula needs no action twisting: the
product of an a-cochain and a b-cochain evaluates on an (a+b)-tuple as
front value times back value.  The circle-one (cup-1) product implements
Steenrod's overlapping formula; it is used mod 2, where its coboundary
identity d(u u1 v) = uv + vu + (du u1 v) + (u u1 dv) provides explicit
lifting witnesses.

A ring slice reads its structure constants a block at a time: the products
of a degree's basis pairs are formed as the columns of one array, and one
coordinate query reads them all (see :mod:`cohomkit.cohomology`).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .cohomology import (CohomologyClass, CohomologyGroup, cohomology_group,
                         cohomology_system)
from .errors import ModulusMismatch, SizeCapExceeded
from .exact.dense import normalize_modulus
from .groups import FiniteGroup
from . import kernels
from .resolutions import bar_cochains

_I64 = 1 << 63


def _factor_arrays(u, v, modulus: int, terms: int = 1):
    """``u`` and ``v`` as arrays on which any sum of ``terms`` products
    u[i] * v[j], and its residue mod ``modulus``, is exact: int64 while
    terms * max|u| * max|v| and the modulus are below 2^63, else object
    arrays of python ints."""
    ua, va = kernels.int_array(u), kernels.int_array(v)
    bound = terms * kernels.max_abs(ua) * kernels.max_abs(va)
    if max(bound, modulus) >= _I64:
        return ua.astype(object), va.astype(object)
    return ua, va


def cup_vec(G: FiniteGroup, u, a: int, v, b: int, modulus: int = 0):
    """AW product of raw cochain vectors: degree a + b, the outer product
    of ``u`` and ``v`` read as one cochain.  ``u`` and ``v`` may also be
    blocks of k cochains each, as columns: column c of the result is the
    product of their columns c, all formed at once."""
    bc = bar_cochains(G)
    bc.check_cochain(u, a)
    bc.check_cochain(v, b)
    bc.check_cap(a + b)
    ua, va = _factor_arrays(u, v, modulus)
    out = (ua[:, None] * va[None]).reshape((bc.rank(a + b),) + ua.shape[1:])
    if modulus:
        out %= modulus
    return kernels.output(out)


def cup1_vec(G: FiniteGroup, u, a: int, v, b: int, modulus: int = 0):
    """Steenrod cup-1 of raw cochains: degree a + b - 1.

    Convention: (u u1 v)(g_1..g_n) sums over windows of length b,
    u evaluated with the window collapsed to its product.  Satisfies
    d(u u1 v) = uv + vu + (du)u1 v + u u1 (dv) mod 2.  Each window is read
    by shape, through the table of b-fold products
    (:meth:`BarCochains.collapse`); ``u`` and ``v`` may be blocks, as in
    :func:`cup_vec`.
    """
    bc = bar_cochains(G)
    bc.check_cochain(u, a)
    bc.check_cochain(v, b)
    n = a + b - 1
    if a == 0 or b == 0:
        return [0] * bc.rank(max(n, 0))
    bc.check_cap(n)
    ua, va = _factor_arrays(u, v, modulus, terms=a)
    out = np.zeros((bc.rank(n),) + ua.shape[1:], dtype=ua.dtype)
    # v by the first entry of its window
    windows = va.reshape((bc.q, bc.rank(b - 1)) + va.shape[1:])
    for i in range(a):
        for first, cells, vals in bc.collapse(out, ua, i, b):
            cells += vals * windows[first][:, None]
    if modulus:
        out %= modulus
    return kernels.output(out)


def cup_product(x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    """Cocycle-level cup product; bilinear, associative up to coboundary."""
    if x.group is not y.group:
        raise ModulusMismatch("classes live over different groups")
    if x.modulus != y.modulus:
        raise ModulusMismatch(
            f"modulus mismatch: {x.modulus} vs {y.modulus}")
    vec = cup_vec(x.group, x.vector, x.degree, y.vector, y.degree,
                  modulus=x.modulus)
    return CohomologyClass(x.group, x.degree + y.degree, x.modulus,
                           tuple(vec))


class GradedRingSlice:
    """Degreewise bases and multiplication table of H^*(G, coeff) up to N.

    Structure constants are stored for every basis pair with total degree
    at most N, in canonical coordinates of the target degree.
    """

    def __init__(self, group: FiniteGroup, modulus: int, max_degree: int,
                 groups: list, table: dict, label: str = ""):
        self.group = group
        self.modulus = modulus
        self.max_degree = max_degree
        self.groups = groups  # CohomologyGroup per degree 0..N
        self.table = table    # (d1, i, d2, j) -> tuple of coords
        self.label = label or f"H*({group.label}; "\
            f"{'Z' if not modulus else f'Z/{modulus}'})"

    def dimension(self, d: int) -> int:
        return len(self.groups[d].invariant_factors)

    def dimensions(self):
        return [self.dimension(d) for d in range(self.max_degree + 1)]

    def orders(self, d: int):
        return list(self.groups[d].invariant_factors)

    def basis_coords(self, d: int, i: int):
        """Coordinates of the i-th basis element of degree d."""
        return tuple(1 if t == i else 0 for t in range(self.dimension(d)))

    def multiply(self, d1: int, coords1, d2: int, coords2):
        """Coordinates of the product of two homogeneous elements."""
        if d1 + d2 > self.max_degree:
            raise SizeCapExceeded("product degree exceeds the slice bound")
        n = self.dimension(d1 + d2)
        out = [0] * n
        for i, a in enumerate(coords1):
            if a == 0:
                continue
            for j, b in enumerate(coords2):
                if b == 0:
                    continue
                sc = self.table[(d1, i, d2, j)]
                for t in range(n):
                    out[t] += a * b * sc[t]
        orders = self.orders(d1 + d2)
        return tuple(v % f if f else v for v, f in zip(out, orders))

    def power_coords(self, d: int, coords, k: int):
        """Coordinates of the k-th power of a homogeneous element."""
        if k == 0:
            return (1,)
        cur_d, cur = d, tuple(coords)
        for _ in range(k - 1):
            cur = self.multiply(cur_d, cur, d, coords)
            cur_d += d
        return cur

    def element_is_zero(self, d: int, coords) -> bool:
        orders = self.orders(d)
        return all(c % f == 0 if f else c == 0
                   for c, f in zip(coords, orders))

    def check_unit(self) -> bool:
        if self.dimension(0) != 1:
            return False
        for d in range(0, self.max_degree + 1):
            for i in range(self.dimension(d)):
                want = tuple(1 if t == i else 0
                             for t in range(self.dimension(d)))
                if self.table[(0, 0, d, i)] != want:
                    return False
                if self.table[(d, i, 0, 0)] != want:
                    return False
        return True

    def check_graded_commutativity(self) -> bool:
        for d1 in range(self.max_degree + 1):
            for d2 in range(self.max_degree + 1 - d1):
                sign = -1 if (d1 % 2 and d2 % 2) else 1
                orders = self.orders(d1 + d2)
                for i in range(self.dimension(d1)):
                    for j in range(self.dimension(d2)):
                        ab = self.table[(d1, i, d2, j)]
                        ba = self.table[(d2, j, d1, i)]
                        for x, y, f in zip(ab, ba, orders):
                            diff = x - sign * y
                            if (diff % f if f else diff) != 0:
                                return False
        return True

    def check_associativity(self) -> bool:
        """(x y) z = x (y z) in coordinates, all basis triples in range."""
        N = self.max_degree
        for d1 in range(1, N + 1):
            for d2 in range(1, N + 1 - d1):
                for d3 in range(1, N + 1 - d1 - d2):
                    for i in range(self.dimension(d1)):
                        for j in range(self.dimension(d2)):
                            for k in range(self.dimension(d3)):
                                xy = self.table[(d1, i, d2, j)]
                                a = self.multiply(d1 + d2, xy, d3,
                                                  self.basis_coords(d3, k))
                                yz = self.table[(d2, j, d3, k)]
                                b = self.multiply(d1, self.basis_coords(d1, i),
                                                  d2 + d3, yz)
                                if a != b:
                                    return False
        return True

    def to_dict(self, include_basis: bool = False) -> dict:
        data = {
            "group": self.group.label,
            "modulus": self.modulus,
            "max_degree": self.max_degree,
            "dimensions": self.dimensions(),
            "orders": [self.orders(d) for d in range(self.max_degree + 1)],
            "structure_constants": [
                {"deg": [d1, d2], "idx": [i, j], "coords": list(self.table[(d1, i, d2, j)])}
                for (d1, i, d2, j) in sorted(self.table)
            ],
        }
        if include_basis:
            data["basis"] = [
                [list(map(int, b.vector)) for b in self.groups[d].basis]
                for d in range(self.max_degree + 1)
            ]
        return data


def basis_block(group: CohomologyGroup) -> np.ndarray:
    """The basis cocycles of a cohomology group as the columns of one
    (rank, dim) array."""
    vecs = kernels.int_array([b.vector for b in group.basis])
    return vecs.reshape(len(group.basis),
                        bar_cochains(group.group).rank(group.degree)).T


def product_blocks(G: FiniteGroup, bases, D: int, modulus: int = 0):
    """The cup products of all basis pairs of total degree D, a block of at
    most ``block_width(D)`` of them at a time.  ``bases[d]`` holds the
    degree-d basis cocycles as columns (:func:`basis_block`).  Yields
    (keys, products): the keys (d1, i, d2, j), and the products as the
    columns of one array, in that order."""
    keys = [(d1, i, D - d1, j) for d1 in range(D + 1)
            for i in range(bases[d1].shape[1])
            for j in range(bases[D - d1].shape[1])]
    width = cohomology_system(G).block_width(D)
    for s in range(0, len(keys), width):
        chunk = keys[s:s + width]
        parts = []
        for d1, pairs in groupby(chunk, key=lambda key: key[0]):
            _, ii, _, jj = zip(*pairs)
            parts.append(cup_vec(G, bases[d1][:, list(ii)], d1,
                                 bases[D - d1][:, list(jj)], D - d1, modulus))
        yield chunk, np.concatenate(parts, axis=1)


def ring_slice(G: FiniteGroup, coeff, N: int, label: str = "") -> GradedRingSlice:
    """Cohomology ring slice to degree N: bases from cohomology_group, and
    each degree's products read in canonical coordinates a block at a
    time."""
    m = normalize_modulus(coeff)
    sys = cohomology_system(G)
    groups = [cohomology_group(G, coeff, n) for n in range(N + 1)]
    bases = [basis_block(g) for g in groups]
    table = {}
    for D in range(N + 1):
        for keys, prods in product_blocks(G, bases, D, m):
            coords = sys.canonical_coords(D, m, prods)
            table.update(zip(keys, map(tuple, coords)))
    return GradedRingSlice(G, m, N, groups, table, label=label)

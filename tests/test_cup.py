import json

import numpy as np
import pytest

from cohomkit.cohomology import (canonical_coords, coefficient_map,
                                 cohomology_group, cohomology_system)
from cohomkit.cup import cup1_vec, cup_product, cup_vec, ring_slice
from cohomkit.errors import ModulusMismatch
from cohomkit.exact.sparse import SparseFactorization
from cohomkit.groups import BUILTIN_GROUPS, klein_four
from cohomkit.resolutions import bar_cochains
from helpers import classes_equal, ring_slice_by_product


class TestCupProduct:
    def test_unit_acts_as_identity(self, groups):
        G = groups["s3"]
        sys = cohomology_system(G)
        unit = sys.unit_class(2)
        x = cohomology_group(G, 2, 2).basis[0]
        assert cup_product(unit, x).vector == x.vector
        assert cup_product(x, unit).vector == x.vector

    @pytest.mark.parametrize("product", [cup_vec, cup1_vec])
    def test_rejects_cochains_of_the_wrong_length(self, groups, product):
        """C^1 of klein4 has rank 3: a longer u used to be read in part (a
        cup product of 9 entries), and a shorter one died with an
        IndexError.  A block counts its rows."""
        G = groups["klein4"]
        for u, v in (([1, 2, 3, 4], [1, 0, 1]), ([1, 2], [1, 0, 1]),
                     ([1, 0, 1], [1, 0, 1, 1]), (np.ones((4, 2), int),
                                                 np.ones((3, 2), int))):
            with pytest.raises(ValueError, match="expected in degree 1"):
                product(G, u, 1, v, 1)
        rank = 9 if product is cup_vec else 3  # of degree 2, or of 1
        assert len(product(G, [1, 2, 3], 1, [1, 0, 1], 1)) == rank

    def test_x_squared_generates_H2_C2(self, groups):
        G = groups["c2"]
        sys = cohomology_system(G)
        x = cohomology_group(G, 2, 1).basis[0]
        sq = cup_product(x, x)
        assert sys.verify_cocycle(sq)
        assert not sys.is_zero(sq)
        assert list(canonical_coords(G, sq)) == [1]

    def test_degree1_square_vanishes_mod3_C3(self, groups):
        G = groups["c3"]
        sys = cohomology_system(G)
        u = cohomology_group(G, 3, 1).basis[0]
        assert sys.is_zero(cup_product(u, u))

    def test_modulus_mismatch(self, groups):
        a = cohomology_group(groups["c2"], 2, 1).basis[0]
        b = cohomology_group(groups["c2"], 4, 1).basis[0]
        with pytest.raises(ModulusMismatch):
            cup_product(a, b)

    def test_bilinear(self, groups):
        G = groups["klein4"]
        H1 = cohomology_group(G, 2, 1)
        a, b = H1.basis
        c = cohomology_group(G, 2, 2).basis[0]
        from cohomkit.cohomology import CohomologyClass

        s = CohomologyClass(G, 1, 2, tuple(
            (x + y) % 2 for x, y in zip(a.vector, b.vector)))
        lhs = cup_product(s, c)
        r1 = cup_product(a, c)
        r2 = cup_product(b, c)
        sys = cohomology_system(G)
        rhs = CohomologyClass(G, 3, 2, tuple(
            (x + y) % 2 for x, y in zip(r1.vector, r2.vector)))
        assert classes_equal(lhs, rhs)


class TestRingSlices:
    def test_c2_polynomial_ring(self, groups):
        s = ring_slice(groups["c2"], 2, 6)
        assert s.dimensions() == [1] * 7
        assert s.check_unit()
        assert s.check_graded_commutativity()
        assert s.check_associativity()
        # polynomial on one degree-1 class: every power nonzero
        coords = (1,)
        for k in range(2, 7):
            coords = s.multiply(k - 1, coords, 1, (1,))
            assert any(coords)

    def test_klein4_dimensions(self, groups):
        s = ring_slice(groups["klein4"], 2, 4)
        assert s.dimensions() == [1, 2, 3, 4, 5]
        assert s.check_unit()
        assert s.check_graded_commutativity()
        assert s.check_associativity()

    def test_degree0_spanned_by_unit(self, groups):
        s = ring_slice(groups["s3"], 2, 2)
        assert s.dimension(0) == 1
        assert s.table[(0, 0, 0, 0)] == (1,)

    def test_integral_slice_graded_commutativity(self, groups):
        s = ring_slice(groups["klein4"], "Z", 4)
        assert s.check_graded_commutativity()
        assert s.check_associativity()

    def test_c4_slice_mod4(self, groups):
        s = ring_slice(groups["c4"], 4, 4)
        assert s.check_unit()
        assert s.check_graded_commutativity()
        assert s.check_associativity()

    def test_pi_compatible_with_products(self, groups):
        """pi(x u y) = pi(x) u pi(y) as classes, on all basis pairs."""
        G = groups["c4"]
        sys = cohomology_system(G)
        N = 4
        Hs = [cohomology_group(G, 4, n) for n in range(N + 1)]
        for d1 in range(1, N):
            for d2 in range(1, N + 1 - d1):
                for x in Hs[d1].basis:
                    for y in Hs[d2].basis:
                        lhs = coefficient_map("pi_i", cup_product(x, y))
                        rhs = cup_product(coefficient_map("pi_i", x),
                                          coefficient_map("pi_i", y))
                        assert classes_equal(lhs, rhs)

    @pytest.mark.parametrize("coeff", ["Z", 2, 3, 4, 6])
    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_blocks_match_products_one_by_one(self, groups, name, coeff):
        """The slice read a block of products at a time has the table of
        the slice read one product at a time."""
        G = groups[name]
        N = 5 if G.order <= 4 else 4
        assert ring_slice(G, coeff, N).table == \
            ring_slice_by_product(G, coeff, N).table

    def test_one_coords_query_per_block(self, monkeypatch):
        """The klein4 mod-2 slice to degree 6 reads its 210 products with
        one cokernel-coordinate query per block of a degree's products
        (and one for the degree's UCT generators), not one per product."""
        G = klein_four()  # a fresh instance: fresh caches
        bc = bar_cochains(G)
        calls = {}
        coords = SparseFactorization.coords

        def spy(f, vec, m=0):
            degree = next(n for n, g in bc._facts.items() if g is f)
            calls[degree] = calls.get(degree, 0) + 1
            return coords(f, vec, m)

        monkeypatch.setattr(SparseFactorization, "coords", spy)
        s = ring_slice(G, 2, 6)
        assert len(s.table) == 210
        sys = cohomology_system(G)
        for D in range(1, 7):
            products = sum(s.dimension(d) * s.dimension(D - d)
                           for d in range(D + 1))
            blocks = -(-products // sys.block_width(D))
            assert calls.get(D, 0) <= blocks + 1, (D, calls)
        assert sum(calls.values()) <= 30  # against 210 products

    def test_json_export_deterministic(self, groups):
        a = json.dumps(ring_slice(groups["klein4"], 2, 3).to_dict())
        b = json.dumps(ring_slice(groups["klein4"], 2, 3).to_dict())
        assert a == b
        data = json.loads(a)
        assert data["dimensions"] == [1, 2, 3, 4]


class TestCupOne:
    @pytest.mark.parametrize("name", ["c2", "c4", "s3"])
    @pytest.mark.parametrize("ab", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_steenrod_identity_mod2(self, groups, name, ab):
        """d(u u1 v) = uv + vu + (du u1 v) + (u u1 dv) mod 2."""
        G = groups[name]
        bc = bar_cochains(G)
        a, b = ab
        rng = np.random.default_rng(hash((name, ab)) % 2**32)
        u = rng.integers(0, 2, bc.rank(a)).tolist()
        v = rng.integers(0, 2, bc.rank(b)).tolist()
        n = a + b - 1
        lhs = np.asarray(bc.matvec(n + 1, cup1_vec(G, u, a, v, b))) % 2
        du = bc.matvec(a + 1, u)
        dv = bc.matvec(b + 1, v)
        rhs = (np.asarray(cup_vec(G, u, a, v, b))
               + np.asarray(cup_vec(G, v, b, u, a))
               + np.asarray(cup1_vec(G, du, a + 1, v, b))
               + np.asarray(cup1_vec(G, u, a, dv, b + 1))) % 2
        assert np.array_equal(lhs, rhs)

    def test_leibniz_for_cup(self, groups):
        """d(u v) = du v + (-1)^|u| u dv, exactly over Z."""
        G = groups["s3"]
        bc = bar_cochains(G)
        rng = np.random.default_rng(7)
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            u = rng.integers(-2, 3, bc.rank(a)).tolist()
            v = rng.integers(-2, 3, bc.rank(b)).tolist()
            lhs = bc.matvec(a + b + 1, cup_vec(G, u, a, v, b))
            du = bc.matvec(a + 1, u)
            dv = bc.matvec(b + 1, v)
            sign = (-1) ** a
            rhs = [x + sign * y
                   for x, y in zip(cup_vec(G, du, a + 1, v, b),
                                   cup_vec(G, u, a, dv, b + 1))]
            assert lhs == rhs


def _tuple_of(idx, n, q):
    """Bar basis index -> tuple of non-identity elements (1..q)."""
    out = []
    for _ in range(n):
        out.append(idx % q + 1)
        idx //= q
    return out[::-1]


def _index_of(tup, q):
    idx = 0
    for t in tup:
        idx = idx * q + t - 1
    return idx


def cup_reference(G, u, a, v, b, m):
    """Front-face times back-face, over python ints."""
    q = G.order - 1
    out = []
    for idx in range(q ** (a + b)):
        tup = _tuple_of(idx, a + b, q)
        x = u[_index_of(tup[:a], q)] * v[_index_of(tup[a:], q)]
        out.append(x % m if m else x)
    return out


def cup1_reference(G, u, a, v, b, m):
    """Sum over the a windows of length b, u on the collapsed tuple (a
    window whose product is the identity contributes nothing)."""
    q, n = G.order - 1, a + b - 1
    out = []
    for idx in range(q ** n):
        tup = _tuple_of(idx, n, q)
        x = 0
        for i in range(a):
            window = tup[i:i + b]
            prod = window[0]
            for g in window[1:]:
                prod = G.table[prod][g]
            if prod:
                x += (u[_index_of(tup[:i] + [prod] + tup[i + b:], q)]
                      * v[_index_of(window, q)])
        out.append(x % m if m else x)
    return out


class TestLargeEntries:
    """Cup products are exact for entries and moduli of any size: the int64
    path runs only while the bound on its sums and the modulus fit.  Cup-1
    used to wrap silently (a 2^40 times 2^40 product came back as 0)."""

    def test_cup1_product_past_int64(self, groups):
        assert cup1_vec(groups["c2"], [2**40], 1, [2**40], 1) == [2**80]

    # s3 keeps the test ids it had before klein4 and q8 joined
    @pytest.mark.parametrize("name", ["s3", "klein4", "q8"],
                             ids=[pytest.HIDDEN_PARAM, "klein4", "q8"])
    @pytest.mark.parametrize("m", [0, 2**61 + 1, 2**64 + 13])
    @pytest.mark.parametrize("bits", [20, 31, 33, 70])
    @pytest.mark.parametrize("ab", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_against_python_ints(self, groups, ab, bits, m, name):
        G = groups[name]
        a, b = ab
        rng = np.random.default_rng((bits, a, b, m % 97))
        q = G.order - 1

        def vec(k):
            return [int(x) * 2 ** (bits - 20)
                    + int(y) for x, y in zip(rng.integers(-2**20, 2**20, q**k),
                                             rng.integers(-9, 10, q**k))]

        u, v = vec(a), vec(b)
        assert cup_vec(G, u, a, v, b, m) == cup_reference(G, u, a, v, b, m)
        assert cup1_vec(G, u, a, v, b, m) == cup1_reference(G, u, a, v, b, m)
        # a block answers as its columns
        U, V = (np.array([x, x[::-1]], dtype=object).T for x in (u, v))
        for product, reference in ((cup_vec, cup_reference),
                                   (cup1_vec, cup1_reference)):
            assert product(G, U, a, V, b, m).T.tolist() == [
                reference(G, U[:, c].tolist(), a, V[:, c].tolist(), b, m)
                for c in range(2)]

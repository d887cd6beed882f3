import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit.abelian import PRIME_BOUND, FiniteAbelian, require_prime
from cohomkit.cohomology import (CohomologyClass, bockstein_delta,
                                 canonical_coords, coefficient_map,
                                 cohomology_group, cohomology_system,
                                 p_primary_part)
from cohomkit.cup import cup_product
from cohomkit.errors import DegreeZeroUnsupported, ModulusMismatch, NotPrime
from cohomkit.groups import klein_four
from helpers import (classes_equal, full_invariants_from_primary,
                     invariant_factor_form)
from oracles import (bar_resolution, echelon_modp,
                     periodic_resolution_cyclic, subquotient_invariants,
                     zero)


class TestAbelianCanonicalization:
    def test_invariant_factor_form(self):
        assert invariant_factor_form([2, 3]) == [6]
        assert invariant_factor_form([2, 4, 3]) == [2, 12]
        assert invariant_factor_form([]) == []

    def test_require_prime_is_exact(self):
        """Miller-Rabin to the bases 2..41 agrees with trial division, and
        refuses the strong pseudoprimes to the bases 2, 2..7 and 2..37."""
        for n in range(-2, 5000):
            prime = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
            try:
                require_prime(n)
                assert prime, n
            except NotPrime:
                assert not prime, n
        for n in (2047, 3215031751, 318665857834031151167461,
                  1000000007 * 1000000009):
            with pytest.raises(NotPrime, match="is not prime"):
                require_prime(n)
        require_prime(10**18 + 3)
        with pytest.raises(NotPrime, match="is not below"):
            require_prime(PRIME_BOUND)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 8, 9, 6, 12]),
                    min_size=1, max_size=4))
    def test_canonical_form_preserves_group(self, orders):
        fa = FiniteAbelian(orders)
        fs = fa.canonical_factors
        # same cardinality and a genuine divisibility chain
        prod = 1
        for o in orders:
            prod *= o
        prod2 = 1
        for f in fs:
            prod2 *= f
        assert prod == prod2
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 9]), min_size=1, max_size=3),
           st.integers(0, 10**6))
    def test_coords_are_homomorphic(self, orders, seed):
        fa = FiniteAbelian(orders)
        rng = random.Random(seed)
        a = [rng.randrange(o) for o in orders]
        b = [rng.randrange(o) for o in orders]
        ca = fa.to_canonical(a)
        cb = fa.to_canonical(b)
        csum = fa.to_canonical([(x + y) % o
                                for x, y, o in zip(a, b, orders)])
        assert csum == [(x + y) % f for x, y, f in
                        zip(ca, cb, fa.canonical_factors)]
        # zero iff zero
        assert (all(v == 0 for v in a)) == (all(v == 0 for v in ca))


class TestIntegralCohomology:
    def test_H0_is_Z(self, groups):
        for G in groups.values():
            H = cohomology_group(G, "Z", 0)
            assert list(H.invariant_factors) == [0]

    def test_H1_C2_vanishes(self, groups):
        assert cohomology_group(groups["c2"], "Z", 1).invariant_factors == ()

    def test_H2_C2_via_periodic_oracle(self, groups):
        per = periodic_resolution_cyclic(2, 4)
        want = subquotient_invariants(per.dual_differential(2),
                                      per.dual_differential(3), "Z")
        H = cohomology_group(groups["c2"], "Z", 2)
        assert sorted(H.invariant_factors) == sorted(want) == [2]

    @pytest.mark.parametrize("n,want", [
        (1, []), (2, [2, 2]), (3, [2]), (4, [2, 2, 2]), (5, [2, 2])])
    def test_klein4_integral(self, groups, n, want):
        H = cohomology_group(groups["klein4"], "Z", n)
        assert sorted(H.invariant_factors) == want

    @pytest.mark.parametrize("n,want", [(2, [2]), (3, []), (4, [6]), (5, [])])
    def test_s3_integral(self, groups, n, want):
        H = cohomology_group(groups["s3"], "Z", n)
        assert sorted(H.invariant_factors) == want

    def test_basis_elements_are_cocycles_with_unit_coords(self, groups):
        sys = cohomology_system(groups["klein4"])
        for n in (2, 3, 4):
            H = cohomology_group(groups["klein4"], "Z", n)
            for k, b in enumerate(H.basis):
                assert sys.verify_cocycle(b)
                cc = canonical_coords(groups["klein4"], b)
                assert list(cc) == [1 if t == k else 0
                                    for t in range(len(H.basis))]


class TestModularCohomology:
    def test_C2_mod2_all_degrees(self, groups):
        per = periodic_resolution_cyclic(2, 8)
        for n in range(0, 7):
            H = cohomology_group(groups["c2"], 2, n)
            d_in = per.dual_differential(n) if n else zero(1, 1)
            want = subquotient_invariants(d_in, per.dual_differential(n + 1), 2)
            assert sorted(H.invariant_factors) == sorted(want) == [2]

    def test_uct_vs_dense_oracle(self, groups):
        """Mod-m groups agree with a direct dense subquotient on the same
        bar complex (independent linear algebra path)."""
        cases = [("klein4", 2, 3), ("klein4", 4, 3), ("c4", 4, 4),
                 ("s3", 2, 3), ("s3", 3, 3), ("s3", 9, 2), ("c6", 6, 2)]
        for name, m, maxn in cases:
            G = groups[name]
            res = bar_resolution(G, maxn + 1)
            for n in range(1, maxn + 1):
                want = subquotient_invariants(res.dual_differential(n),
                                              res.dual_differential(n + 1), m)
                got = cohomology_group(G, m, n)
                assert sorted(got.invariant_factors) == sorted(want), \
                    (name, m, n)

    def test_mod_m_basis_verifies(self, groups):
        G = groups["c4"]
        sys = cohomology_system(G)
        for m in (2, 4, 8):
            for n in range(1, 5):
                H = cohomology_group(G, m, n)
                for k, b in enumerate(H.basis):
                    assert sys.verify_cocycle(b)
                    cc = canonical_coords(G, b)
                    assert list(cc) == [1 if t == k else 0
                                        for t in range(len(H.basis))]

    def test_equality_is_by_coboundary_not_vectors(self, groups):
        G = groups["c2"]
        sys = cohomology_system(G)
        H = cohomology_group(G, 2, 2)
        x = H.basis[0]
        # add a coboundary: d of a degree-1 cochain
        c = [1] + [0] * (sys.rank(1) - 1)
        dc = sys.bc.matvec(2, c)
        shifted = CohomologyClass(G, 2, 2, tuple(
            (a + b) % 2 for a, b in zip(x.vector, dc)))
        assert shifted.vector != x.vector or all(v % 2 == 0 for v in dc)
        assert classes_equal(x, shifted)


def _mod_cases():
    """(group, m, degree) with Tor generators in H^n(G; Z/m), n <= 3."""
    torsion = {"c4": {2: [4], 4: [4]}, "klein4": {2: [2, 2], 3: [2],
                                                  4: [2, 2, 2]},
               "s3": {2: [2], 4: [6]}, "q8": {2: [2, 2], 4: [8]}}
    cases = []
    for name, degs in torsion.items():
        for m in (2, 3, 4, 6):
            for n in (1, 2, 3):
                if any(gcd(f, m) > 1 for f in degs.get(n + 1, [])):
                    cases.append((name, m, n))
    return cases


class TestModCoords:
    """mod_coords and is_zero against classes built from known coordinates
    in the UCT generator basis."""

    @pytest.mark.parametrize("name, m, n", _mod_cases())
    def test_known_coordinates(self, groups, name, m, n):
        G = groups[name]
        sys = cohomology_system(G)
        data = sys.uct_data(n, m)
        theta = [f for f, _ in sys.integral_basis(n) if gcd(f, m) > 1]
        assert len(data.orders) > len(theta)  # Tor generators follow
        rng = random.Random(f"{name}-{m}-{n}")
        for trial in range(8):
            # every other trial is a multiple of the orders: the zero class
            c = [rng.randrange(m) * (o if trial % 2 else 1)
                 for o in data.orders]
            r = [rng.randrange(m) for _ in range(sys.rank(n - 1))]
            vec = sys.bc.matvec(n, r)
            for ci, g in zip(c, data.gens):
                vec = [a + ci * b for a, b in zip(vec, g)]
            vec = [v % m for v in vec]
            want = [ci % o for ci, o in zip(c, data.orders)]
            assert sys.mod_coords(n, m, vec) == want
            x = CohomologyClass(G, n, m, tuple(vec))
            assert sys.is_zero(x) == (not any(want))

    @pytest.mark.parametrize("name, m, n", _mod_cases())
    def test_non_cocycle_raises(self, groups, name, m, n):
        G = groups[name]
        sys = cohomology_system(G)
        for i in range(sys.rank(n)):
            vec = [0] * sys.rank(n)
            vec[i] = 1
            if any(v % m for v in sys.bc.matvec(n + 1, vec)):
                break
        else:
            pytest.fail("every unit cochain is a cocycle")
        with pytest.raises(ValueError):
            sys.mod_coords(n, m, vec)
        with pytest.raises(ValueError):
            sys.is_zero(CohomologyClass(G, n, m, tuple(vec)))

    @pytest.mark.parametrize("name, m, n", _mod_cases()[::4])
    def test_block_equals_columns(self, groups, name, m, n):
        """A block of cocycles, the columns of one array, gets the list of
        its columns' coordinates, mod m and over Z, raw and canonical."""
        sys = cohomology_system(groups[name])
        rng = random.Random(f"block-{name}-{m}-{n}")
        data = sys.uct_data(n, m)
        cols = []
        for _ in range(5):
            r = [rng.randrange(m) for _ in range(sys.rank(n - 1))]
            vec = sys.bc.matvec(n, r)
            for g in data.gens:
                c = rng.randrange(m)
                vec = [a + c * b for a, b in zip(vec, g)]
            cols.append([v % m for v in vec])
        block = np.array(cols, dtype=np.int64).T
        assert sys.mod_coords(n, m, block) == [
            sys.mod_coords(n, m, col) for col in cols]
        assert sys.canonical_coords(n, m, block) == [
            sys.canonical_coords(n, m, col) for col in cols]
        reps = [w for _, w in sys.integral_basis(n)]
        coboundary = sys.bc.matvec(n, [1] * sys.rank(n - 1))
        zblock = np.array(reps + [coboundary], dtype=np.int64).T
        assert sys.integral_coords(n, zblock) == [
            sys.integral_coords(n, col) for col in reps + [coboundary]]

    @pytest.mark.parametrize("name, m, n", _mod_cases()[::4])
    def test_block_with_one_non_cocycle_raises(self, groups, name, m, n):
        """One non-cocycle column makes the whole block raise the error of
        the per-vector call."""
        sys = cohomology_system(groups[name])
        good = [v % m for v in sys.bc.matvec(n, [1] * sys.rank(n - 1))]
        for i in range(sys.rank(n)):
            bad = [0] * sys.rank(n)
            bad[i] = 1
            if any(v % m for v in sys.bc.matvec(n + 1, bad)):
                break
        with pytest.raises(ValueError, match="not a mod-m cocycle"):
            sys.mod_coords(n, m, bad)
        with pytest.raises(ValueError, match="not a mod-m cocycle"):
            sys.mod_coords(n, m, np.array([good, bad, good]).T)

    def test_wrong_length_raises(self, groups):
        G = groups["s3"]
        sys = cohomology_system(G)
        short = CohomologyClass(G, 2, 2, (0,) * (sys.rank(2) - 1))
        with pytest.raises(ValueError):
            sys.mod_coords(2, 2, short.vector)
        with pytest.raises(ValueError):
            sys.is_zero(short)

    def test_is_zero_stays_in_its_degree(self):
        """is_zero on a mod-m class of degree n factors D_n only: it builds
        no UCT data and no degree-(n+1) factorization."""
        G = klein_four()  # a fresh instance: fresh caches
        sys = cohomology_system(G)
        x, y = cohomology_group(G, 2, 1).basis
        uct = dict(sys._uct)
        assert 3 not in sys.bc._facts
        nonzero = cup_product(x, y)
        coboundary = CohomologyClass(
            G, 2, 2, tuple(sys.bc.matvec(2, [1] * sys.rank(1))))
        assert not sys.is_zero(nonzero)
        assert sys.is_zero(coboundary)
        assert sys._uct == uct
        assert 3 not in sys.bc._facts


class TestCoefficientMaps:
    def test_pi_surjective_C4(self, groups):
        G = groups["c4"]
        sys = cohomology_system(G)
        H4 = cohomology_group(G, 4, 1)
        assert list(H4.invariant_factors) == [4]
        img = coefficient_map("pi_i", H4.basis[0])
        # the image generates H^1(C4, Z/2) = Z/2
        assert not sys.is_zero(img)

    def test_epsilon_level1_is_identity(self, groups):
        G = groups["c2"]
        H = cohomology_group(G, 2, 2)
        e = coefficient_map("epsilon_i", H.basis[0])
        assert e.vector == H.basis[0].vector

    def test_theta_injective_on_H2_C2(self, groups):
        G = groups["c2"]
        sys = cohomology_system(G)
        H = cohomology_group(G, "Z", 2)
        t = coefficient_map("theta_i", H.basis[0], modulus=2)
        assert not sys.is_zero(t)

    def test_modulus_mismatch(self, groups):
        H = cohomology_group(groups["c2"], "Z", 2)
        with pytest.raises(ModulusMismatch):
            coefficient_map("pi_i", H.basis[0])
        Hm = cohomology_group(groups["c2"], 2, 2)
        with pytest.raises(ModulusMismatch):
            coefficient_map("theta_i", Hm.basis[0], modulus=2)
        with pytest.raises(ModulusMismatch):
            coefficient_map("pi_i", Hm.basis[0])  # i = 1 has no pi


class TestBockstein:
    def test_delta_zero_on_H1_C4_mod2(self, groups):
        G = groups["c4"]
        sys = cohomology_system(G)
        x = cohomology_group(G, 2, 1).basis[0]
        assert sys.is_zero(bockstein_delta(1, x))

    def test_delta_after_theta_vanishes(self, groups):
        # integral classes reduce to classes with zero Bockstein
        for name in ("c2", "c4", "klein4"):
            G = groups[name]
            sys = cohomology_system(G)
            for n in (2, 3):
                for b in cohomology_group(G, "Z", n).basis:
                    t = coefficient_map("theta_i", b, modulus=2)
                    assert sys.is_zero(bockstein_delta(1, t)), (name, n)

    def test_delta_squared_vanishes(self, groups):
        for name in ("c2", "c4", "klein4"):
            G = groups[name]
            sys = cohomology_system(G)
            for n in (1, 2, 3):
                for b in cohomology_group(G, 2, n).basis:
                    assert sys.is_zero(bockstein_delta(1, bockstein_delta(1, b)))

    @pytest.mark.parametrize("name", ["c2", "c4", "klein4"])
    def test_kernel_of_delta_equals_image_of_pi(self, groups, name):
        """Exactness of the Bockstein sequence at the mod-p spot,
        degrees <= 4, i = 1."""
        G = groups[name]
        sys = cohomology_system(G)
        p = 2
        for n in range(1, 5):
            Hp = cohomology_group(G, p, n)
            if not Hp.basis:
                continue
            Hp1 = cohomology_group(G, p, n + 1)
            # matrix of delta_1 in canonical coordinates
            delta_cols = [canonical_coords(G, bockstein_delta(1, b))
                          for b in Hp.basis]
            # image of pi_2 in canonical coordinates
            Hp2 = cohomology_group(G, p * p, n)
            pi_cols = [canonical_coords(G, coefficient_map("pi_i", b))
                       for b in Hp2.basis]
            # im(pi) is contained in ker(delta)
            for b in Hp2.basis:
                assert sys.is_zero(bockstein_delta(1,
                                                   coefficient_map("pi_i", b)))
            if Hp1.basis:
                dmat = [[delta_cols[j][i] for j in range(len(delta_cols))]
                        for i in range(len(Hp1.basis))]
                ker_dim = len(Hp.basis) - len(echelon_modp(dmat, p)[1])
            else:
                ker_dim = len(Hp.basis)
            img_dim = len(echelon_modp(pi_cols, p)[1]) if pi_cols else 0
            assert ker_dim == img_dim, (name, n)


class TestThetaSequence:
    @pytest.mark.parametrize("name,p", [("c2", 2), ("c4", 2),
                                        ("klein4", 2), ("c3", 3)])
    def test_theta_kernel_is_divisible_by_p(self, groups, name, p):
        """theta_1(x) = 0 iff x = p y in H^n(G, Z), on all basis classes
        and doubled combinations."""
        G = groups[name]
        sys = cohomology_system(G)
        for n in (2, 3, 4):
            H = cohomology_group(G, "Z", n)
            for k, b in enumerate(H.basis):
                f = H.invariant_factors[k]
                for mult in (1, p):
                    x = CohomologyClass(G, n, 0,
                                        tuple(mult * v for v in b.vector))
                    red_zero = sys.is_zero(
                        coefficient_map("theta_i", x, modulus=p))
                    # divisibility of the class by p: each coordinate
                    # c solves p y = c mod f
                    c = (mult) % f
                    divisible = c % gcd(p, f) == 0
                    assert red_zero == divisible, (name, n, k, mult)


class TestPrimaryPart:
    def test_H2_C6_at_2(self, groups):
        part = p_primary_part(groups["c6"], 2, 2)
        assert list(part.invariant_factors) == [2]

    def test_prime_not_dividing_order(self, groups):
        for n in (1, 2, 3, 4):
            assert p_primary_part(groups["c2"], 3, n).invariant_factors == ()

    def test_H2_C2_at_2(self, groups):
        assert list(p_primary_part(groups["c2"], 2, 2).invariant_factors) \
            == [2]

    def test_degree_zero_unsupported(self, groups):
        with pytest.raises(DegreeZeroUnsupported):
            p_primary_part(groups["c2"], 2, 0)

    def test_not_prime(self, groups):
        with pytest.raises(NotPrime):
            p_primary_part(groups["c2"], 4, 2)

    @pytest.mark.parametrize("name", ["c6", "s3", "c4", "klein4"])
    def test_reconstruction_from_primary_parts(self, groups, name):
        G = groups[name]
        for n in (2, 3, 4):
            want = sorted(cohomology_group(G, "Z", n).invariant_factors)
            got = sorted(full_invariants_from_primary(G, n))
            assert invariant_factor_form(got) == invariant_factor_form(want)

import json

import pytest

from cohomkit.cohomology import (CohomologyClass, bockstein_delta,
                                 coefficient_map, cohomology_group,
                                 cohomology_system)
from cohomkit.cup import cup_product, cup_vec
from cohomkit import resolutions
from cohomkit.errors import NotPrime
from cohomkit.exact.sparse import SparseFactorization
from cohomkit.fiso import (f_iso_check, integral_psth_preimage,
                           pth_power_preimage, s_exponent, verify_derivation)
from cohomkit.groups import cyclic, symmetric_3
from helpers import classes_equal, lift_class


def _primes_of(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class TestSExponent:
    def test_examples(self, groups):
        assert s_exponent(groups["s3"], 2) == 1
        assert s_exponent(groups["c8"], 2) == 3
        assert s_exponent(groups["klein4"], 3) == 0

    def test_not_prime(self, groups):
        with pytest.raises(NotPrime):
            s_exponent(groups["c2"], 6)


class TestDerivation:
    def test_unit_case(self, groups):
        """x = unit: both sides reduce to delta_i(y)."""
        G = groups["c4"]
        sys = cohomology_system(G)
        unit = sys.unit_class(4)
        y = cohomology_group(G, 4, 2).basis[0]
        chk = verify_derivation(2, unit, y)
        assert chk.passed
        assert classes_equal(chk.lhs, bockstein_delta(2, y))

    def test_c2_degree_one_square(self, groups):
        G = groups["c2"]
        x = cohomology_group(G, 2, 1).basis[0]
        chk = verify_derivation(1, x, x)
        assert chk.passed
        # both sides vanish: delta(x^2) = 2 x delta(x) = 0 mod 2
        sys = cohomology_system(G)
        assert sys.is_zero(chk.lhs) and sys.is_zero(chk.rhs)

    def test_c4_level2_all_pairs_degree4(self, groups):
        G = groups["c4"]
        for d1 in range(1, 4):
            for d2 in range(1, 5 - d1):
                H1 = cohomology_group(G, 4, d1)
                H2 = cohomology_group(G, 4, d2)
                for x in H1.basis:
                    for y in H2.basis:
                        assert verify_derivation(2, x, y).passed

    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "klein4", "s3"])
    def test_family_total_degree5(self, groups, name):
        """Derivation identity over the core family, all basis pairs
        with total degree <= 5, i in {1, 2}."""
        G = groups[name]
        for p in _primes_of(G.order):
            for i in (1, 2):
                m = p**i
                for d1 in range(1, 5):
                    for d2 in range(1, 6 - d1):
                        for x in cohomology_group(G, m, d1).basis:
                            for y in cohomology_group(G, m, d2).basis:
                                chk = verify_derivation(i, x, y)
                                assert chk.passed, (name, p, i, d1, d2)

    @pytest.mark.slow
    def test_q8_total_degree5(self, groups):
        G = groups["q8"]
        for i in (1, 2):
            m = 2**i
            for d1 in range(1, 5):
                for d2 in range(1, 6 - d1):
                    for x in cohomology_group(G, m, d1).basis:
                        for y in cohomology_group(G, m, d2).basis:
                            assert verify_derivation(i, x, y).passed, \
                                (i, d1, d2)

    @pytest.mark.parametrize("name,p", [("c2", 2), ("c4", 2), ("c3", 3)])
    def test_power_rule_consequence(self, groups, name, p):
        """delta_i(x^n) = n eps_i(x)^{n-1} delta_i(x) for n <= p and basis
        classes of degree <= 2, in the cases where the lifting argument
        invokes it (|x| even or p = 2); for odd degree at odd p the square
        itself vanishes, which is the dispatch the proof uses instead."""
        G = groups[name]
        sys = cohomology_system(G)
        for i in (1, 2):
            m = p**i
            for d in (1, 2):
                for x in cohomology_group(G, m, d).basis:
                    if d % 2 == 1 and p % 2 == 1:
                        assert sys.is_zero(cup_product(x, x)), (name, i, d)
                        continue
                    power = x
                    for n in range(2, p + 1):
                        power = cup_product(power, x)
                        lhs = bockstein_delta(i, power)
                        ex = coefficient_map("epsilon_i", x)
                        rhs = bockstein_delta(i, x)
                        for _ in range(n - 1):
                            rhs = cup_product(ex, rhs)
                        rhs = CohomologyClass(G, rhs.degree, p, tuple(
                            (n * v) % p for v in rhs.vector))
                        assert classes_equal(lhs, rhs), (name, i, d, n)


class TestPthPowerPreimage:
    def test_c2_level2(self, groups):
        G = groups["c2"]
        x = cohomology_group(G, 4, 1).basis[0]
        lift = pth_power_preimage(2, x)
        assert lift.modulus == 8
        assert lift.degree == 2
        # reduction of the witness matches x^2 on the nose
        w = lift_class(lift)
        sq = cup_product(x, x)
        assert tuple(v % 4 for v in w.vector) == sq.vector

    def test_c4_level2_degree2(self, groups):
        G = groups["c4"]
        H = cohomology_group(G, 4, 2)
        for y in H.basis:
            lift = pth_power_preimage(2, y)
            sys = cohomology_system(G)
            assert sys.verify_cocycle(lift_class(lift))

    def test_odd_square_zero_route(self, groups):
        G = groups["c3"]
        H = cohomology_group(G, 9, 1)
        assert H.basis
        for x in H.basis:
            lift = pth_power_preimage(2, x)
            assert lift.witness["kind"] == "odd-square-zero"
            # re-verify the recorded witness: x^2 = d(c) mod 9
            sys = cohomology_system(G)
            sq = cup_vec(G, list(x.vector), 1, list(x.vector), 1, modulus=9)
            dc = sys.bc.matvec(2, lift.witness["square_cobounding"])
            assert all((a - b) % 9 == 0 for a, b in zip(sq, dc))

    def test_obstruction_solve_route_c3_degree2(self, groups):
        G = groups["c3"]
        H = cohomology_group(G, 9, 2)
        assert H.basis
        for x in H.basis:
            lift = pth_power_preimage(2, x)
            assert lift.modulus == 27
            sys = cohomology_system(G)
            assert sys.verify_cocycle(lift_class(lift))
            # pi reduces the witness to x^p
            w = lift_class(lift)
            cube = cup_product(cup_product(x, x), x)
            assert tuple(v % 9 for v in w.vector) == cube.vector

    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "klein4", "s3"])
    def test_family_level2_no_failures(self, groups, name):
        """p-th power lifting at i = 2 across the family, degrees 1..3."""
        G = groups[name]
        for p in _primes_of(G.order):
            for d in (1, 2, 3):
                if p * d > 6:
                    continue
                for x in cohomology_group(G, p * p, d).basis:
                    lift = pth_power_preimage(2, x)  # must not raise
                    assert lift.modulus == p**3

    def test_level1_accepted(self, groups):
        G = groups["c2"]
        x = cohomology_group(G, 2, 1).basis[0]
        lift = pth_power_preimage(1, x)
        assert lift.modulus == 4


class TestIntegralPsthPreimage:
    def test_c2_degree1(self, groups):
        G = groups["c2"]
        x = cohomology_group(G, 2, 1).basis[0]
        lift = integral_psth_preimage(x)
        assert lift.degree == 2
        assert lift.verify()
        # the preimage is the generator of H^2(C2, Z)
        assert list(cohomology_system(G).integral_coords(
            2, lift.integral_class.vector)) == [1]

    def test_already_integral_class(self, groups):
        """x a reduction of an integral class: powers of that class lift."""
        G = groups["c4"]
        w = cohomology_group(G, "Z", 2).basis[0]
        x = coefficient_map("theta_i", w, modulus=2)
        lift = integral_psth_preimage(x)
        assert lift.verify()

    def test_klein4_fourth_power(self, groups):
        G = groups["klein4"]
        assert s_exponent(G, 2) == 2
        for x in cohomology_group(G, 2, 1).basis:
            lift = integral_psth_preimage(x)
            assert lift.degree == 4
            assert lift.verify()


class TestFIsoCheck:
    def test_c2(self, groups):
        rep = f_iso_check(groups["c2"], 2, 6)
        assert rep.verdict
        assert any(w["degree"] == 1 for w in rep.onto_witnesses)

    def test_vacuous_prime(self, groups):
        rep = f_iso_check(groups["c6"], 5, 6)
        assert rep.verdict
        assert rep.notes

    def test_klein4_at_5(self, groups):
        rep = f_iso_check(groups["klein4"], 2, 5)
        assert rep.verdict

    def test_report_json_roundtrip(self, groups):
        rep = f_iso_check(groups["c3"], 3, 6)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["verdict"] == "pass"
        assert data["p"] == 3

    @pytest.mark.parametrize("make, N", [(lambda: cyclic(4), 6),
                                         (symmetric_3, 4)], ids=["c4", "s3"])
    def test_one_factorization_per_degree(self, monkeypatch, make, N):
        """The integral and the mod-p questions of a degree share one
        factorization of D_n over Z."""
        built = []

        class Counting(SparseFactorization):
            def __init__(self, nrows, *args, **kwargs):
                built.append(nrows)
                super().__init__(nrows, *args, **kwargs)

        monkeypatch.setattr(resolutions, "SparseFactorization", Counting)
        G = make()  # a new group instance has no cached factorization
        assert f_iso_check(G, 2, N).verdict
        assert built
        # D_n has q^n rows (q = |G| - 1), so the row count names the degree
        assert sorted(built) == sorted(set(built))

import json

import pytest

from cohomkit.errors import NotPrime, SliceTooShallow
from cohomkit.fiso import f_iso_check
from cohomkit.strata import (JordanType, enumerate_block_ses,
                             jordan_tensor_type, kappa_certificate,
                             kappa_map_for_group, thick_closure,
                             thick_lattice_report)


class TestJordanTensor:
    def test_unit_block(self):
        for p in (2, 3, 5):
            for b in range(1, p + 1):
                assert jordan_tensor_type(1, b, p).blocks == (b,)

    def test_p3_J2_tensor_J2(self):
        assert jordan_tensor_type(2, 2, 3).blocks == (1, 3)

    def test_p2_J2_tensor_J2(self):
        assert jordan_tensor_type(2, 2, 2).blocks == (2, 2)

    def test_commutative_and_dimension(self):
        for p in (3, 5):
            for a in range(1, p + 1):
                for b in range(1, p + 1):
                    t1 = jordan_tensor_type(a, b, p)
                    t2 = jordan_tensor_type(b, a, p)
                    assert t1 == t2
                    assert t1.dimension == a * b

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            jordan_tensor_type(4, 1, 3)
        with pytest.raises(ValueError):
            JordanType(3, (4,))
        with pytest.raises(NotPrime):
            jordan_tensor_type(1, 1, 6)


class TestBlockSES:
    def test_p3_sequences(self):
        # uniserial structure: 0 -> J_a -> J_c -> J_{c-a} -> 0
        assert enumerate_block_ses(3) == [(1, 2, 1), (1, 3, 2), (2, 3, 1)]

    @pytest.mark.parametrize("p,want", [
        (2, [(1, 2, 1)]),
        (5, [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4), (2, 3, 1),
             (2, 4, 2), (2, 5, 3), (3, 4, 1), (3, 5, 2), (4, 5, 1)]),
        (7, [(a, c, c - a) for a in range(1, 8) for c in range(a + 1, 8)]),
    ])
    def test_pinned_sequences(self, p, want):
        assert enumerate_block_ses(p) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dimensions_add(self, p):
        for (a, c, b) in enumerate_block_ses(p):
            assert a + b == c


class TestThickClosure:
    def test_empty_seed(self):
        assert thick_closure(set(), 3) == set()

    def test_p3_seed_two(self):
        assert thick_closure({2}, 3) == {1, 2}

    def test_p5_seed_one(self):
        assert thick_closure({1}, 5) == {1, 2, 3, 4}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_nonempty_seed_is_full(self, p):
        full = set(range(1, p))
        for mask in range(1, 1 << (p - 1)):
            seed = {i + 1 for i in range(p - 1) if mask >> i & 1}
            assert thick_closure(seed, p) == full, (p, seed)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exactly_two_ideals(self, p):
        rep = thick_lattice_report(p, {1})
        assert rep.ideal_count == 2
        assert rep.full

    def test_projective_seed_rejected(self):
        with pytest.raises(ValueError):
            thick_closure({3}, 3)


class TestKappaCertificate:
    def test_identity_map_passes(self, groups):
        from cohomkit.cup import ring_slice
        from cohomkit.strata import RingMapSlice

        s = ring_slice(groups["c2"], 2, 4)
        mats = {d: [[1 if i == j else 0 for j in range(s.dimension(d))]
                    for i in range(s.dimension(d))] for d in range(5)}
        f = RingMapSlice(s, s, mats, label="id")
        assert f.check_multiplicative()
        rep = kappa_certificate(f, 2, 1, 4)
        assert rep.verdict

    def test_zero_map_fails_onto(self, groups):
        from cohomkit.cup import ring_slice
        from cohomkit.strata import RingMapSlice

        s = ring_slice(groups["c2"], 2, 4)
        mats = {d: [[0] * s.dimension(d) for _ in range(s.dimension(d))]
                for d in range(5)}
        f = RingMapSlice(s, s, mats, label="zero")
        rep = kappa_certificate(f, 2, 1, 4)
        assert not rep.verdict

    def test_c2_comparison_map(self, groups):
        f = kappa_map_for_group(groups["c2"], 2, 6)
        assert f.check_multiplicative()
        rep = kappa_certificate(f, 2, 1, 6)
        assert rep.verdict
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["verdict"] == "pass"

    def test_klein4_comparison_map(self, groups):
        f = kappa_map_for_group(groups["klein4"], 2, 6)
        assert f.check_multiplicative()
        rep = kappa_certificate(f, 2, 2, 6)
        assert rep.verdict

    def test_slice_too_shallow(self, groups):
        f = kappa_map_for_group(groups["c2"], 2, 3)
        with pytest.raises(SliceTooShallow):
            kappa_certificate(f, 2, 1, 5)

    def test_consistency_with_f_iso(self, groups):
        """f_iso_check passing implies the kappa certificate passes on the
        same instance (cross-module invariant)."""
        for name, p, s, N in [("c2", 2, 1, 6), ("klein4", 2, 2, 5)]:
            G = groups[name]
            fis = f_iso_check(G, p, N)
            f = kappa_map_for_group(G, p, N)
            rep = kappa_certificate(f, p, s, N)
            assert fis.verdict and rep.verdict, name

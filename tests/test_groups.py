import json

import pytest

from cohomkit.errors import OrderCapExceeded
from cohomkit.groups import (BUILTIN_GROUPS, FiniteGroup, builtin_group,
                             group_from_generators, klein_four,
                             load_group_json, quaternion_8, symmetric_3)


class TestGroupFromGenerators:
    def test_transposition_gives_order_2(self):
        G = group_from_generators([(1, 0)])
        assert G.order == 2

    def test_three_cycle_gives_order_3(self):
        G = group_from_generators([(1, 2, 0)])
        assert G.order == 3

    def test_symmetric_group_on_three_letters(self):
        G = group_from_generators([(1, 0, 2), (1, 2, 0)])
        assert G.order == 6
        assert not G.is_abelian()

    def test_order_cap(self):
        # a 7-cycle and a transposition generate S_7 (order 5040)
        with pytest.raises(OrderCapExceeded):
            group_from_generators([(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            group_from_generators([(0, 0, 1)])


class TestTableValidation:
    def test_non_latin_square_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_non_associative_rejected(self):
        # Latin square with identity that fails associativity
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError):
            FiniteGroup(table)

    def test_non_associative_rejected_above_the_order_cap(self):
        """Associativity was checked only up to order 64: Z/66 with the
        intercalate at rows and columns 1 and 34 swapped, still a Latin
        square with identity 0, was accepted."""
        n = 66
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for r in (1, 34):
            table[r][1], table[r][34] = table[r][34], table[r][1]
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroup(table)

    def test_inverses(self):
        G = symmetric_3()
        for a in range(G.order):
            assert G.mul(a, G.inv(a)) == 0
            assert G.mul(G.inv(a), a) == 0


class TestBuiltins:
    @pytest.mark.parametrize("name,order", [
        ("c2", 2), ("c3", 3), ("c4", 4), ("c6", 6), ("c8", 8),
        ("klein4", 4), ("s3", 6), ("q8", 8)])
    def test_orders(self, name, order):
        assert builtin_group(name).order == order

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_group("m11")

    def test_klein_four_exponent_two(self):
        G = klein_four()
        assert all(G.mul(a, a) == 0 for a in range(4))

    def test_quaternion_structure(self):
        G = quaternion_8()
        orders = sorted(G.element_order(a) for a in range(8))
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
        assert not G.is_abelian()

    def test_group_json_roundtrip(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(
            {"name": "s3", "generators": [[1, 0, 2], [1, 2, 0]]}))
        G = load_group_json(path)
        assert G.order == 6
        assert G.label == "s3"

import random
from itertools import product
from math import gcd

import pytest

from cohomkit.exact.dense import (IntMatrix, cokernel_invariants,
                                  smith_normal_form, solve_mod)
from cohomkit.errors import InternalCheckFailed
from cohomkit.exact.sparse import SparseFactorization


def dense_solvable_over_q(dense, b):
    """Dense SNF oracle: rank A == rank [A | b]."""
    aug = [row + [v] for row, v in zip(dense, b)]
    return (smith_normal_form(IntMatrix.from_rows(dense)).rank()
            == smith_normal_form(IntMatrix.from_rows(aug)).rank())


def minors_gcd_invariants(rows):
    """Independent oracle: invariant factors from determinantal divisors
    (gcd of all k x k minors), feasible for tiny matrices."""
    M = IntMatrix.from_rows(rows)
    n = min(M.rows, M.cols)
    prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        from itertools import combinations

        for rsel in combinations(range(M.rows), k):
            for csel in combinations(range(M.cols), k):
                sub = IntMatrix.from_rows(
                    [[M[i, j] for j in csel] for i in rsel])
                g = gcd(g, sub.det())
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


class TestSmithNormalForm:
    def test_diag_2_3_forced(self):
        dec = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert dec.diagonal() == [1, 6]
        assert dec.verify()

    def test_zero_matrix(self):
        dec = smith_normal_form(IntMatrix.zero(2, 2))
        assert dec.diagonal() == [0, 0]
        assert dec.verify()

    def test_reduction_example(self):
        rows = [[2, 4], [6, 8]]
        dec = smith_normal_form(IntMatrix.from_rows(rows))
        # derived expectation from the exhaustive minors oracle
        assert minors_gcd_invariants(rows) == [2, 4]
        assert dec.diagonal() == [2, 4]
        assert dec.verify()

    @pytest.mark.parametrize("seed", range(12))
    def test_random_matches_minors_oracle(self, seed):
        rng = random.Random(seed)
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(IntMatrix.from_rows(rows))
        assert dec.verify()
        want = minors_gcd_invariants(rows)
        got = [d for d in dec.diagonal() if d != 0]
        assert got == want

    def test_deterministic(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        a = smith_normal_form(IntMatrix.from_rows(rows))
        b = smith_normal_form(IntMatrix.from_rows(rows))
        assert a.U == b.U and a.V == b.V and a.D == b.D


class TestSolveMod:
    def test_no_solution(self):
        assert solve_mod(IntMatrix.from_rows([[2]]), [1], 4) is None

    def test_identity_returns_rhs(self):
        for m in (2, 5, "Z"):
            x = solve_mod(IntMatrix.identity(3), [1, 2, 3], m)
            want = [v % m if m != "Z" else v for v in (1, 2, 3)]
            assert x == want

    def test_deterministic_among_solutions(self):
        # x in {1, 3}; the least Smith coordinate is returned
        assert solve_mod(IntMatrix.from_rows([[2]]), [2], 4) == [1]

    @pytest.mark.parametrize("seed", range(10))
    def test_nosolution_agrees_with_bruteforce(self, seed):
        rng = random.Random(100 + seed)
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        m = rng.choice([2, 3, 4, 6, 9])
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        b = [rng.randint(0, m - 1) for _ in range(r)]
        self._check_against_bruteforce(rows, b, m)

    @pytest.mark.parametrize("c,m,seed", [(6, 4, 0), (6, 2, 1), (4, 9, 2),
                                          (5, 6, 3), (6, 9, 4)])
    def test_bruteforce_domain_bound(self, c, m, seed):
        # the stated oracle domain: up to 6 unknowns, modulus up to 9
        rng = random.Random(700 + seed)
        r = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
        b = [rng.randint(0, m - 1) for _ in range(r)]
        self._check_against_bruteforce(rows, b, m)

    @staticmethod
    def _check_against_bruteforce(rows, b, m):
        r, c = len(rows), len(rows[0])
        x = solve_mod(IntMatrix.from_rows(rows), b, m)
        brute = None
        for cand in product(range(m), repeat=c):
            if all(sum(rows[i][j] * cand[j] for j in range(c)) % m
                   == b[i] % m for i in range(r)):
                brute = cand
                break
        assert (x is None) == (brute is None)
        if x is not None:
            assert all(sum(rows[i][j] * x[j] for j in range(c)) % m
                       == b[i] % m for i in range(r))


class TestCokernelInvariants:
    def test_examples(self):
        assert cokernel_invariants(IntMatrix.from_rows([[2]]), "Z") == [2]
        assert cokernel_invariants(IntMatrix.identity(2), "Z") == []
        assert cokernel_invariants(
            IntMatrix.from_rows([[2, 0], [0, 3]]), "Z") == [6]

    def test_zero_map_gives_free(self):
        assert cokernel_invariants(IntMatrix.zero(2, 1), "Z") == [0, 0]

    def test_mod_m(self):
        assert cokernel_invariants(IntMatrix.from_rows([[2]]), 4) == [2]
        assert cokernel_invariants(IntMatrix.zero(1, 1), 4) == [4]

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_invariance(self, seed):
        rng = random.Random(50 + seed)
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        m = rng.choice(["Z", 2, 6])
        base = cokernel_invariants(IntMatrix.from_rows(rows), m)
        rng.shuffle(rows)
        cols = list(range(c))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert cokernel_invariants(IntMatrix.from_rows(shuffled), m) == base


class TestSparseFactorization:
    @pytest.mark.parametrize("seed", range(60))
    def test_against_dense(self, seed):
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        m = rng.choice([0, 0, 2, 3, 4, 6, 8, 9, 12])
        coo = ([], [], [])
        for i in range(nr):
            for j in range(nc):
                if rng.random() < 0.35:
                    v = rng.randint(-3, 3)
                    if v:
                        coo[0].append(i)
                        coo[1].append(j)
                        coo[2].append(v)
        dense = [[0] * nc for _ in range(nr)]
        for i, j, v in zip(*coo):
            dense[i][j] += v
        f = SparseFactorization(nr, nc, coo, m=m)
        assert sorted(f.coker_invariants()) == sorted(
            cokernel_invariants(IntMatrix.from_rows(dense), m if m else "Z"))
        # solvability matches the dense reference on an arbitrary rhs
        b = [rng.randint(-4, 4) for _ in range(nr)]
        xs = f.solve(b)
        xd = solve_mod(IntMatrix.from_rows(dense), b, m if m else "Z")
        assert (xs is None) == (xd is None)
        if m == 0:
            assert f.solvable_over_q(b) == dense_solvable_over_q(dense, b)
        # kernel vectors annihilate
        for k in f.kernel_basis():
            out = [sum(dense[i][j] * k[j] for j in range(nc))
                   for i in range(nr)]
            assert all((v % m if m else v) == 0 for v in out)
        # image vectors have vanishing cokernel coordinates
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        img = [sum(dense[i][j] * x0[j] for j in range(nc))
               for i in range(nr)]
        if m:
            img = [v % m for v in img]
        vals, _mods = f.coords(img)
        assert all(v == 0 for v in vals)

    @pytest.mark.parametrize("dense, b, over_z, over_q", [
        ([[2]], [1], False, True),            # 2x = 1
        ([[1], [1]], [0, 1], False, False),   # x = 0 and x = 1
        ([[1, 1], [2, 2]], [1, 2], True, True),
        ([[0, 0]], [3], False, False),        # zero row
        ([[2, 4], [6, 8]], [1, 1], False, True),
    ])
    def test_rational_reading(self, dense, b, over_z, over_q):
        nr, nc = len(dense), len(dense[0])
        coo = ([i for i in range(nr) for j in range(nc)],
               [j for i in range(nr) for j in range(nc)],
               [dense[i][j] for i in range(nr) for j in range(nc)])
        f = SparseFactorization(nr, nc, coo, m=0)
        assert (f.solve(b) is not None) == over_z
        assert dense_solvable_over_q(dense, b) == over_q
        assert f.solvable_over_q(b) == over_q
        with pytest.raises(ValueError):
            SparseFactorization(nr, nc, coo, m=3).solvable_over_q(b)

    @pytest.mark.parametrize("m", [0, 5])
    def test_failed_self_check_raises(self, monkeypatch, m):
        f = SparseFactorization(3, 3, ([0, 1, 2], [0, 1, 2], [2, 6, 1]), m=m)
        b = [2, 6, 1]
        assert f.solve(b) is not None
        good = f.matvec

        def corrupt(x):
            out = good(x)
            out[1] += 1
            return out

        monkeypatch.setattr(f, "matvec", corrupt)
        with pytest.raises(InternalCheckFailed):
            f.solve(b)

    def test_torsion_reps(self):
        # coker = Z/2 + Z/6: reps must be independent non-images
        dense = [[2, 0, 0], [0, 6, 0], [0, 0, 1]]
        coo = ([0, 1, 2], [0, 1, 2], [2, 6, 1])
        f = SparseFactorization(3, 3, coo, m=0)
        reps = f.torsion_reps()
        assert sorted(d for d, _ in reps) == [2, 6]
        for d, w in reps:
            assert f.solve([d * v for v in w]) is not None
            assert f.solve(w) is None

    def test_determinism(self):
        coo = ([0, 0, 1, 2], [0, 1, 1, 0], [1, -1, 2, 3])
        f1 = SparseFactorization(3, 2, coo, m=0)
        f2 = SparseFactorization(3, 2, coo, m=0)
        assert f1.piv_cols == f2.piv_cols
        assert f1.piv_rows == f2.piv_rows
        assert [list(x) for x in f1.log[1:3]] == \
            [list(x) for x in f2.log[1:3]]


class TestLargeModulus:
    """Moduli past the int64 range of the replay and matvec kernels used to
    overflow silently: matvec came back wrong and solve rejected image
    vectors.  The results must match python-int arithmetic exactly."""

    M = 2**40 + 15

    @pytest.fixture(scope="class")
    def fact(self):
        from cohomkit.groups import builtin_group
        from cohomkit.resolutions import bar_cochains
        return bar_cochains(builtin_group("s3")).fact(3, self.M)

    def test_matvec_matches_python_ints(self, fact):
        rng = random.Random(11)
        x = [rng.randrange(self.M) for _ in range(fact.ncols)]
        want = []
        for r in range(fact.nrows):
            lo, hi = fact._indptr[r], fact._indptr[r + 1]
            want.append(sum(int(fact._data[k]) * x[fact._indices[k]]
                            for k in range(lo, hi)) % self.M)
        assert fact.matvec(x) == want

    def test_solve_image_vector(self, fact):
        rng = random.Random(12)
        for _ in range(3):
            x = [rng.randrange(self.M) for _ in range(fact.ncols)]
            b = fact.matvec(x)
            y = fact.solve(b)
            assert y is not None
            assert fact.matvec(y) == b
            assert fact.in_image(b)

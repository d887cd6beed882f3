import hashlib
import json
import random
import re
import tracemalloc
from itertools import product
from math import gcd

import numpy as np
import pytest

from cohomkit import kernels
from cohomkit.exact.dense import (SmithDecomposition, normalize_modulus,
                                  smith_normal_form)
from cohomkit.errors import InternalCheckFailed
from cohomkit.exact.modp import nullspace_modp, rank_modp, solve_modp
from cohomkit.exact import sparse
from cohomkit.exact.sparse import SparseFactorization, coo_to_csr
from cohomkit.fibrewise import augmentation_ideal
from cohomkit.groups import FiniteGroup, cyclic, quaternion_8, symmetric_3
from cohomkit.resolutions import BarCochains, bar_cochains
from helpers import field_free_resolution, full_fact, reduce_mod
from oracles import (cokernel_invariants, det, echelon_modp, identity,
                     matmul, smith_kernel, smith_solve, solve_mod,
                     unimodular_inverse, verify_smith, zero)


def dense_solvable_over_q(dense, b):
    """Dense SNF oracle: rank A == rank [A | b]."""
    aug = [row + [v] for row, v in zip(dense, b)]
    return smith_normal_form(dense).rank() == smith_normal_form(aug).rank()


def factor_dense(dense):
    """SparseFactorization of a dense list-of-rows matrix."""
    nr, nc = len(dense), len(dense[0])
    coo = ([i for i in range(nr) for j in range(nc)],
           [j for i in range(nr) for j in range(nc)],
           [dense[i][j] for i in range(nr) for j in range(nc)])
    return SparseFactorization(nr, nc, coo_to_csr(nr, nc, *coo))


def factorization_digest(f):
    """sha256 of a whole factorization: the log with its batches, the
    pivots, the echelon and residual indices and the frozen pivot rows,
    in the pool view they were once stored in."""
    aa, qq, sources, lengths, rounds = f.log
    # the per-batch view the log once stored, so the pinned digests stay
    # the same: each batch, the run of one source within a round, as
    # (start, end, source, max|q|, is NEG), and each op's type (0 for
    # row[a] -= q * row[b], 2 for a NEG) and source row
    ends = np.cumsum(lengths).tolist()
    neg = np.zeros(len(aa), dtype=bool)
    for s, e, _growth, is_neg in rounds:
        neg[s:e] = is_neg
    batches, types, bb = [], [], []
    for s, e, src in zip([0] + ends, ends, sources.tolist()):
        batches.append((s, e, src, max(abs(int(q)) for q in qq[s:e]),
                        bool(neg[s])))
        types += [2 if neg[s] else 0] * (e - s)
        bb += [src] * (e - s)
    # the pool: each frozen row as its pivot entry pv, then its other
    # entries w, the ops of the frozen-row log that target the row's pivot
    # column, in order, each with the multiplier -pv w
    ta, tq, tsources, tlengths, _rounds = f.pivot_log
    rest = {}
    for t, c, q in zip(ta.tolist(), np.repeat(tsources, tlengths).tolist(),
                       tq.tolist()):
        rest.setdefault(t, []).append((c, q))
    starts, lens, cols, vals = [], [], [], []
    for pc, pv in zip(f.piv_cols.tolist(), f.piv_vals.tolist()):
        row = [(pc, pv)] + [(c, -pv * q) for c, q in rest.get(pc, [])]
        starts.append(len(cols))
        lens.append(len(row))
        cols += [c for c, _ in row]
        vals += [int(v) for _, v in row]
    parts = [types, aa.tolist(), bb,
             [int(q) for q in qq], [list(b) for b in batches],
             f.piv_rows, f.piv_cols.tolist(), f.piv_vals.tolist(),
             f.echelon_rows, f.res_cols, f.zero_rows, starts, lens, cols,
             vals]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def minors_gcd_invariants(rows):
    """Independent oracle: invariant factors from determinantal divisors
    (gcd of all k x k minors), feasible for tiny matrices."""
    M = np.array(rows, dtype=object)
    nr, nc = M.shape
    n = min(nr, nc)
    prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        from itertools import combinations

        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                g = gcd(g, det(M[np.ix_(rsel, csel)]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


class TestSmithNormalForm:
    def test_diag_2_3_forced(self):
        dec = smith_normal_form([[2, 0], [0, 3]])
        assert dec.diagonal() == [1, 6]
        assert verify_smith(dec)

    def test_zero_matrix(self):
        dec = smith_normal_form(zero(2, 2))
        assert dec.diagonal() == [0, 0]
        assert verify_smith(dec)

    def test_reduction_example(self):
        rows = [[2, 4], [6, 8]]
        dec = smith_normal_form(rows)
        # derived expectation from the exhaustive minors oracle
        assert minors_gcd_invariants(rows) == [2, 4]
        assert dec.diagonal() == [2, 4]
        assert verify_smith(dec)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_matches_minors_oracle(self, seed):
        rng = random.Random(seed)
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(rows)
        assert verify_smith(dec)
        want = minors_gcd_invariants(rows)
        got = [d for d in dec.diagonal() if d != 0]
        assert got == want

    def test_deterministic(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        a = smith_normal_form(rows)
        b = smith_normal_form(rows)
        assert all(np.array_equal(x, y) for x, y in
                   [(a.U, b.U), (a.V, b.V), (a.D, b.D)])


class TestSolveMod:
    def test_no_solution(self):
        assert solve_mod([[2]], [1], 4) is None

    def test_identity_returns_rhs(self):
        for m in (2, 5, "Z"):
            x = solve_mod(identity(3), [1, 2, 3], m)
            want = [v % m if m != "Z" else v for v in (1, 2, 3)]
            assert x == want

    def test_deterministic_among_solutions(self):
        # x in {1, 3}; the least Smith coordinate is returned
        assert solve_mod([[2]], [2], 4) == [1]

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

    def test_failed_self_check_raises(self):
        one = identity(1)
        dec = SmithDecomposition(U=one, D=one, V=one,
                                 source=np.array([[2]], dtype=object))
        with pytest.raises(InternalCheckFailed):
            smith_solve(dec, [1])

    @staticmethod
    def _check_against_bruteforce(rows, b, m):
        r, c = len(rows), len(rows[0])
        x = smith_solve(smith_normal_form(rows), b, m)
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


class TestSmithKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_is_a_basis_of_ker(self, seed):
        rng = random.Random(300 + seed)
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        A = np.array(rows, dtype=object)
        dec = smith_normal_form(A)
        ker = smith_kernel(dec)
        assert len(ker) == c - dec.rank()
        for k in ker:
            assert (A @ np.array(k, dtype=object)).tolist() == [0] * r
        if ker:
            # saturated: the columns span a direct summand of Z^c
            K = np.array(ker, dtype=object).T
            assert smith_normal_form(K).diagonal() == [1] * len(ker)


class TestUnimodularInverse:
    """The oracles' inverse of a unimodular matrix, which their reference
    realization of a module presentation uses."""

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (6, 3),
                                         (10, 4), (16, 5)])
    def test_random_products_of_elementary_matrices(self, n, seed):
        rng = random.Random(900 + seed)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            op = rng.randrange(3)
            if op == 0 and i != j:
                k = rng.choice([-2, -1, 1, 2])
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            elif op == 1:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] = [-a for a in rows[i]]
        inv = unimodular_inverse(rows)
        assert np.array_equal(matmul(rows, inv), identity(n))
        assert np.array_equal(matmul(inv, rows), identity(n))

    @pytest.mark.parametrize("rows", [[[2]], [[1, 2], [2, 4]], [[0]]])
    def test_rejects_non_unimodular(self, rows):
        with pytest.raises(ValueError):
            unimodular_inverse(rows)


class TestCokerBasis:
    """``coker_basis`` on random relation matrices over Z and mod 2, 3 and
    4, against the dense oracles."""

    @pytest.mark.parametrize("m, seed", [(0, 0), (0, 1), (0, 2), (2, 3),
                                         (2, 4), (3, 5), (3, 6), (4, 7),
                                         (4, 8)])
    def test_adapted_basis(self, m, seed):
        """The basis is unimodular; coords(b_i, m) is e_i wherever o_i != 1;
        and the gcd(o_i, m) b_i span the relations plus m Z^g."""
        rng = random.Random(1100 + seed)
        g, k = rng.randint(1, 7), rng.randint(0, 7)
        cols = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 4, 6])
                 for _ in range(g)] for _ in range(k)]
        if k >= 2:  # a dependent column
            cols.append([a - 2 * b for a, b in zip(cols[0], cols[1])])
        f = SparseFactorization.from_columns(cols, g)
        basis = f.coker_basis()
        assert len(basis) == g
        B = np.array([b for _, b in basis], dtype=object).T
        assert abs(det(B)) == 1
        for i, (o, b) in enumerate(basis):
            if o != 1:
                vals, mods = f.coords(b, m)
                assert vals == [int(j == i) % d if d else int(j == i)
                                for j, d in enumerate(mods)], i
        span = [[gcd(o, m) * v for v in b] for o, b in basis if gcd(o, m)]
        A = np.array(cols, dtype=object).reshape(len(cols), g).T
        S = np.array(span, dtype=object).reshape(len(span), g).T
        assert cokernel_invariants(S, "Z") == cokernel_invariants(A, m)
        for c in span:
            assert solve_mod(A, c, m) is not None

    def test_orders_follow_the_phases(self):
        """Unit pivots give order 1, the echelon block its Smith diagonal,
        untouched rows order 0; basis vectors come in that order of
        coords, unit pivots last."""
        f = factor_dense([[1, 0], [0, 2], [0, 0], [0, 4]])
        assert [o for o, _ in f.coker_basis()] == [2, 0, 0, 1]
        assert f.coker_invariants() == [2, 0, 0]


class TestModpZeroColumns:
    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_zero_columns(self, t):
        A = np.zeros((t, 0), dtype=np.int64)
        assert solve_modp(A, [0] * t, 5).shape == (0,)
        assert nullspace_modp(A, 5) == []
        if t:
            assert solve_modp(A, [0] * (t - 1) + [2], 5) is None


def _random_modp_matrix(rng, p, rows, cols, rank, zero_rows=0.0):
    """Integer matrix of rank at most ``rank`` mod p: a product of random
    factors plus random multiples of p, so that its rank over Z usually
    exceeds its rank mod p.  Each row is a multiple of p with probability
    ``zero_rows``."""
    def rand(r, c, lo, hi):
        return np.array([[rng.randrange(lo, hi) for _ in range(c)]
                         for _ in range(r)], dtype=np.int64).reshape(r, c)

    A = rand(rows, rank, 0, p) @ rand(rank, cols, 0, p) \
        + p * rand(rows, cols, -2, 3)
    for i in range(rows):
        if rng.random() < zero_rows:
            A[i] = p * rand(1, cols, -2, 3)
    return A


class TestModpAgainstEchelon:
    """rank_modp, nullspace_modp and solve_modp read off the sparse
    factorization, against the row echelon oracle."""

    @staticmethod
    def _check(A, p, rng):
        rows, cols = A.shape
        rank = len(echelon_modp(A, p)[1])
        assert rank_modp(A, p) == rank
        ker = nullspace_modp(A, p)
        assert len(ker) == cols - rank
        for v in ker:
            assert v.dtype == np.int64 and ((0 <= v) & (v < p)).all()
            assert not ((A @ v) % p).any()
        if ker:
            assert len(echelon_modp(np.stack(ker), p)[1]) == len(ker)
        # one right-hand side in the image, one arbitrary
        y = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        for b in ((A @ y) % p,
                  np.array([rng.randrange(p) for _ in range(rows)],
                           dtype=np.int64)):
            aug = np.concatenate([A.reshape(rows, cols),
                                  b.reshape(rows, 1)], axis=1)
            solvable = cols not in echelon_modp(aug, p)[1]
            x = solve_modp(A, b, p)
            assert (x is not None) == solvable
            if x is not None:
                assert x.dtype == np.int64 and x.shape == (cols,)
                assert ((0 <= x) & (x < p)).all()
                assert not ((A @ x - b) % p).any()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("seed", range(8))
    def test_random(self, p, seed):
        rng = random.Random(1000 * p + seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        self._check(_random_modp_matrix(rng, p, rows, cols, rank), p, rng)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(4, 0), (1, 0), (0, 3), (0, 1)])
    def test_empty_shapes(self, p, shape):
        self._check(np.zeros(shape, dtype=np.int64), p, random.Random(p))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_tall_mostly_zero_rows(self, p, cols):
        rng = random.Random(50 * p + cols)
        A = _random_modp_matrix(rng, p, 300, cols, cols, zero_rows=0.95)
        self._check(A, p, rng)

    @pytest.mark.parametrize("p", [2, 3])
    def test_s3_resolution_differential(self, p):
        """d_2 (150x750) of the F_pS_3 resolution of the augmentation
        ideal: large, sparse, and far from full rank."""
        M = reduce_mod(augmentation_ideal(symmetric_3()), p)
        A = np.asarray(field_free_resolution(M, 2).diffs[1], dtype=np.int64)
        assert A.shape == (150, 750)
        self._check(A, p, random.Random(p))

    def test_rows_zero_mod_p_need_a_zero_rhs(self):
        A = np.array([[3, 6], [1, 2], [0, 9]], dtype=np.int64)
        assert rank_modp(A, 3) == 1
        x = solve_modp(A, [0, 1, 0], 3)
        assert ((A @ x) % 3).tolist() == [0, 1, 0]
        assert solve_modp(A, [1, 1, 0], 3) is None


class TestSmithKernelModM:
    """smith_kernel(dec, m) spans {x : A x = 0 (mod m)}."""

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_against_bruteforce(self, m, seed):
        rng = random.Random(60 * m + seed)
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        A = np.array(rows, dtype=object)
        gens = smith_kernel(smith_normal_form(A), m)
        brute = {x for x in product(range(m), repeat=c)
                 if not (A @ np.array(x, dtype=object) % m).any()}
        for g in gens:
            assert not (A @ np.array(g, dtype=object) % m).any()
        span = {(0,) * c}
        for g in gens:
            span = {tuple((a + k * b) % m for a, b in zip(x, g))
                    for x in span for k in range(m)}
        assert span == brute
        # a Z-basis of the lattice: as many generators as columns
        assert len(gens) == c

    def test_zero_modulus_is_the_integer_kernel(self):
        dec = smith_normal_form([[2, 4, 6], [0, 3, 3]])
        assert (smith_kernel(dec, 0) == smith_kernel(dec, "Z")
                == smith_kernel(dec))
        assert len(smith_kernel(dec)) == 1


@pytest.mark.parametrize("arg, m", [
    ("Z", 0), ("z", 0), (None, 0), (0, 0), (4, 4), ("4", 4), ("Z/4", 4),
    (" z/12 ", 12)])
def test_normalize_modulus(arg, m):
    assert normalize_modulus(arg) == m


@pytest.mark.parametrize("arg", [1, -3, "Z/1", "Q", "Z/"])
def test_normalize_modulus_rejects(arg):
    with pytest.raises(ValueError):
        normalize_modulus(arg)


class TestCokernelInvariants:
    def test_examples(self):
        assert cokernel_invariants([[2]], "Z") == [2]
        assert cokernel_invariants(identity(2), "Z") == []
        assert cokernel_invariants(
            [[2, 0], [0, 3]], "Z") == [6]

    def test_zero_map_gives_free(self):
        assert cokernel_invariants(zero(2, 1), "Z") == [0, 0]

    def test_mod_m(self):
        assert cokernel_invariants([[2]], 4) == [2]
        assert cokernel_invariants(zero(1, 1), 4) == [4]

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_invariance(self, seed):
        rng = random.Random(50 + seed)
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        m = rng.choice(["Z", 2, 6])
        base = cokernel_invariants(rows, m)
        rng.shuffle(rows)
        cols = list(range(c))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert cokernel_invariants(shuffled, m) == base


class TestSparseFactorization:
    @pytest.mark.parametrize("seed", range(60))
    def test_against_dense(self, seed):
        """One factorization over Z answers over Z and mod every m exactly
        as the dense reference does."""
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
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
        f = SparseFactorization(nr, nc, coo_to_csr(nr, nc, *coo))
        b = [rng.randint(-4, 4) for _ in range(nr)]
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        img = [sum(dense[i][j] * x0[j] for j in range(nc))
               for i in range(nr)]
        assert f.solvable_over_q(b) == dense_solvable_over_q(dense, b)
        for m in (0, 2, 3, 4, 6, 8, 9, 12):
            assert sorted(f.coker_invariants(m)) == sorted(
                cokernel_invariants(dense, m if m else "Z")), m
            # solvability matches the dense reference on an arbitrary rhs
            xs = f.solve(b, m)
            xd = solve_mod(dense, b, m if m else "Z")
            assert (xs is None) == (xd is None), m
            # kernel vectors annihilate
            for k in f.kernel_basis(m):
                out = [sum(dense[i][j] * k[j] for j in range(nc))
                       for i in range(nr)]
                assert all((v % m if m else v) == 0 for v in out), m
            # image vectors have vanishing cokernel coordinates
            vals, _mods = f.coords([v % m for v in img] if m else img, m)
            assert all(v == 0 for v in vals), m

    @pytest.mark.parametrize("seed", range(20))
    def test_block_queries_equal_columns(self, seed):
        """coords, solve and in_image on a block, the columns of one array,
        give the list of the answers of its columns one by one, over Z and
        mod m: on images, on arbitrary vectors (some not solvable) and on
        an all-zero column."""
        rng = random.Random(700 + seed)
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        dense = [[rng.randint(-3, 3) if rng.random() < 0.35 else 0
                  for _ in range(nc)] for _ in range(nr)]
        f = factor_dense(dense)
        cols = [[0] * nr]
        for _ in range(5):
            x0 = [rng.randint(-3, 3) for _ in range(nc)]
            cols.append([sum(a * x for a, x in zip(row, x0))
                         for row in dense])
            cols.append([rng.randint(-4, 4) for _ in range(nr)])
        block = np.array(cols, dtype=np.int64).T
        for m in (0, 2, 3, 4, 6, 9):
            bm = block % m if m else block
            for query in ("coords", "solve", "in_image"):
                got = getattr(f, query)(bm, m)
                assert got == [getattr(f, query)(col.tolist(), m)
                               for col in bm.T], (query, m)
        assert f.solvable_over_q(block) == [
            f.solvable_over_q(col.tolist()) for col in block.T]

    @pytest.mark.parametrize("seed", range(24))
    def test_smith_reads_match_the_oracle(self, seed):
        """solve and kernel_basis read the echelon block's Smith form by
        array products, for a whole block at once; on the residual columns
        they give, column by column, what the oracle's one-coordinate-at-a-
        time smith_solve and smith_kernel give, over Z and mod m up to
        either side of 2^63.  The matrices have few +-1 entries, so phase 2
        leaves an echelon block, often with fewer rows than columns."""
        rng = random.Random(2800 + seed)
        nr, nc = rng.randint(2, 7), rng.randint(2, 8)
        dense = [[rng.choice([0, 0, 0, 1, -2, 2, 3, -3, 4, 6])
                  for _ in range(nc)] for _ in range(nr)]
        f = factor_dense(dense)
        assert f.echelon_rows
        cols = [[0] * nr, [rng.randint(-9, 9) for _ in range(nr)]]
        for _ in range(3):
            x0 = [rng.randint(-3, 3) for _ in range(nc)]
            cols.append([sum(a * x for a, x in zip(row, x0))
                         for row in dense])
            cols.append([rng.randint(-9, 9) for _ in range(nr)])
        self._check_smith_reads(f, cols)

    def test_bar_smith_reads_match_the_oracle(self, groups):
        """The same on the whole bar D_4 of s3 and of c6, whose echelon
        blocks are 2 x 6 and 2 x 5 with U != I: on the torsion
        representatives w, on 6 w, on coboundaries and on arbitrary
        vectors."""
        for name in ("s3", "c6"):
            f = full_fact(groups[name], 4)
            assert len(f.echelon_rows) == 2
            bc = bar_cochains(groups[name])
            rng = random.Random(name)
            cols = [w for _, w in f.torsion_reps()]
            cols += [[6 * v for v in cols[0]]]
            cols += [bc.matvec(4, [rng.randint(-2, 2)
                                   for _ in range(bc.rank(3))])
                     for _ in range(3)]
            cols += [[rng.randint(-2, 2) for _ in range(bc.rank(4))]
                     for _ in range(2)]
            self._check_smith_reads(f, cols)

    @staticmethod
    def _check_smith_reads(f, cols):
        for m in (0, 2, 3, 4, 9, 2**61 - 1, 2**64 + 13):
            bm = [[v % m for v in c] if m else c for c in cols]
            xs = f.solve(np.array(bm, dtype=object).T, m)
            for b, x in zip(bm, xs):
                z = (kernels.apply_oplog_mod(b, f.log, m) if m
                     else kernels.apply_oplog_int(b, f.log))
                want = smith_solve(f.esnf, [z[r] for r in f.echelon_rows], m)
                if any(z[r] for r in f.zero_rows):
                    want = None
                assert (x is None) == (want is None), (m, b)
                if x is not None:
                    assert [x[j] for j in f.res_cols] == want, (m, b)
            gens = [[v % m for v in g] if m else g
                    for g in smith_kernel(f.esnf, m)]
            gens = [g for g in gens if any(g)]
            got = [[k[j] for j in f.res_cols]
                   for k in f.kernel_basis(m)[:len(gens)]]
            assert got == gens, m

    def test_solvable_over_q_on_a_block(self):
        """One answer per column, as in_image gives, for two columns and
        for three: column 0 has no rational solution, column 1 an integral
        one and column 2 only a rational one."""
        f = SparseFactorization.from_columns([[1, 2, 3], [0, 2, 4]], 3)
        block = np.array([[1, 0, 1], [0, 2, 3], [0, 4, 5]])
        assert not dense_solvable_over_q([[1, 0], [2, 2], [3, 4]], [1, 0, 0])
        assert f.in_image(block) == [False, True, False]
        assert f.solvable_over_q(block) == [False, True, True]
        assert f.solvable_over_q(block[:, :2]) == [False, True]

    def test_bar_block_queries_equal_columns(self, groups):
        """The same on bar differentials, cleared and whole: cocycles, the
        torsion representatives and coboundaries, over Z and mod 2, 3, 4."""
        for name, n in (("klein4", 3), ("s3", 3), ("c6", 2)):
            bc = bar_cochains(groups[name])
            rng = random.Random(name)
            reps = [w for _, w in bc.fact(n).torsion_reps()]
            cols = reps + [bc.matvec(n, [rng.randint(-2, 2)
                                         for _ in range(bc.rank(n - 1))])
                           for _ in range(3)]
            cols += [[rng.randint(-2, 2) for _ in range(bc.rank(n))]]
            block = np.array(cols, dtype=np.int64).T
            for f in (bc.fact(n), full_fact(groups[name], n)):
                for m in (0, 2, 3, 4):
                    bm = block % m if m else block
                    for query in ("coords", "solve", "in_image"):
                        assert getattr(f, query)(bm, m) == [
                            getattr(f, query)(col.tolist(), m)
                            for col in bm.T], (name, query, m)

    @pytest.mark.parametrize("dense, b, over_z, over_q", [
        ([[2]], [1], False, True),            # 2x = 1
        ([[1], [1]], [0, 1], False, False),   # x = 0 and x = 1
        ([[1, 1], [2, 2]], [1, 2], True, True),
        ([[0, 0]], [3], False, False),        # zero row
        ([[2, 4], [6, 8]], [1, 1], False, True),
    ])
    def test_rational_reading(self, dense, b, over_z, over_q):
        f = factor_dense(dense)
        assert (f.solve(b) is not None) == over_z
        assert dense_solvable_over_q(dense, b) == over_q
        assert f.solvable_over_q(b) == over_q

    @pytest.mark.parametrize("m", [0, 5])
    def test_failed_self_check_raises(self, monkeypatch, m):
        f = SparseFactorization(
            3, 3, coo_to_csr(3, 3, [0, 1, 2], [0, 1, 2], [2, 6, 1]))
        b = [2, 6, 1]
        assert f.solve(b, m) is not None
        good = f.matvec

        def corrupt(x, m=0):
            out = good(x, m)
            out[1] += 1
            return out

        monkeypatch.setattr(f, "matvec", corrupt)
        with pytest.raises(InternalCheckFailed):
            f.solve(b, m)
        # a block fails the check as its columns would
        with pytest.raises(InternalCheckFailed):
            f.solve(np.array([b, [0, 0, 0]]).T, m)

    def test_torsion_reps(self):
        # coker = Z/2 + Z/6: reps must be independent non-images
        dense = [[2, 0, 0], [0, 6, 0], [0, 0, 1]]
        coo = ([0, 1, 2], [0, 1, 2], [2, 6, 1])
        f = SparseFactorization(3, 3, coo_to_csr(3, 3, *coo))
        reps = f.torsion_reps()
        assert sorted(d for d, _ in reps) == [2, 6]
        for d, w in reps:
            assert f.solve([d * v for v in w]) is not None
            assert f.solve(w) is None

    # the ids are the names these pins have had since they were first taken
    @pytest.mark.parametrize("name, digest", [
        pytest.param("s3", "1c34e4abcf6e91b77392d476795f59aa15811239ef16f79a36c19744b5453012",
                     id="s3-7d002f06424e1e44b06975b9ed3e8f7019be6700d16310c0e0ab0e4c046c8a3b"),
        pytest.param("c6", "f818970006a2eb409948592096735e46ddae7603446f654546cafc59060e6255",
                     id="c6-2a5f6a7229323ef4d6e0ef86938b0f73812f45045021917556dd59ead0d938b4"),
    ])
    def test_torsion_reps_pinned(self, groups, name, digest):
        """Torsion representatives of D_4 over Z, whose echelon block has
        U != I, pinned by digest."""
        f = full_fact(groups[name], 4)
        assert not np.array_equal(f.esnf.U, identity(len(f.esnf.U)))
        reps = [[d, [int(v) for v in w]] for d, w in f.torsion_reps()]
        assert [d for d, _ in reps] == [6]
        got = hashlib.sha256(json.dumps(reps).encode()).hexdigest()
        assert got == digest
        for d, w in reps:
            assert f.solve([d * v for v in w]) is not None
            assert f.solve(w) is None

    # the ids are the names these pins have had since they were first taken
    @pytest.mark.parametrize("name, n, digest", [
        pytest.param("s3", 3, "410c451dccf3d807914b43513696ec2a2f4ea6c493f5f2a06da1c9d8925533d9",
                     id="s3-3-71c51c3d08fe45e217dc1bd0296b4d4ce3634e2d5bee61392c148b6dfe8ebd21"),
        pytest.param("s3", 4, "af52b113b8681a67c34f254bf8ebd1ac45cd1baaf74447441cc3e1d78b461aea",
                     id="s3-4-03df035dab8ee978619a4aaa26c3abf4d05b4316c889a13831bc3794dc69e815"),
        pytest.param("s3", 5, "317ce75093cb01be5f3c573bdcee4b7af7e86c1f6a54bf77874ffa09e75273ec",
                     id="s3-5-a454ab055b9f2d288fd0b5305f8ef95eb95d51e8661764f54bb9ac2a3fd154ae"),
        pytest.param("q8", 3, "74baceb2ff66f4aa87a94cc63c608b4b8eccd169f614a589506d08d39c0649df",
                     id="q8-3-81e2d0bcc9b053c7107eb3570e8f005748c3cc18c51bdf3ec1c4ad53d5c603fe"),
        pytest.param("q8", 4, "2b1e4239f0be93bf648d9b1c0c87af0fff6a13c1dad29c6cdc0481c5143e31fe",
                     id="q8-4-f341ed0f2a85170da6bd737e94f653c69120b53bbe9feed0a5b739b79e1c251b"),
        pytest.param("q8", 5, "39e2689b1175aebe9c76b008da1b3e26469c7338f615d2e1574450bb2171dc0b",
                     id="q8-5-1c2e94d6459438564f1a70f40f7c56be9c3be827c2ff957a885ffae69199b14b"),
        pytest.param("klein4", 3, "0ff67f19ee11b1fd1dbd1115edcb005443c26bfa6f2c812e5411e160f9e0a8c6",
                     id="klein4-3-0a54892b900b3a82769977981692f0da290e701ed597c6a7a622b51ce159a803"),
        pytest.param("klein4", 4, "c9b57f34eb2a219d7a587fdf553b5237838f3b799daf6f3b12bfefc119ef98f0",
                     id="klein4-4-36f6ea809dc5f1081b397c951f6f1354468f65ca630be768550fa45f86cc1bda"),
        pytest.param("klein4", 5, "e7022d452aa7fbc726df2b0e2d7dc2befdc69aa78c2c14dbc04f0086948ed6d8",
                     id="klein4-5-58cf6fefed3f49bd1b5d97f90c65156ca535f0b0235133ca47823148e4c78ad2"),
        pytest.param("c6", 3, "226ae01f4ff4be9a2a6a357af8e804ffa1731c54064844035502e183da6605ae",
                     id="c6-3-30cb08b4bb078d9e2327f4ce11441a059c11866e32d0771632f6c3c547141201"),
        pytest.param("c6", 4, "3384978374996be6132a53c30ca2646be76e3bc6fb191676b207752e41aac252",
                     id="c6-4-f51a0825f2e149ef2a0788c918db067c108df97ac1c4c7d620042a104bd9895e"),
        pytest.param("c6", 5, "304d13a796a1c95f803265265a293aa7dd5d4d3d13632e29108cc58b6f500e2b",
                     id="c6-5-d46343d808140bfaec3fc717d1b4f7a91137f7913502a06e4a5b868fe34ae7f8"),
        pytest.param("s3", 6, "34c766738d0743a06cd6e18493418b537966e833212e78a3044213d7e76a954a",
                     id="s3-6-e50ee323274bc4115c3b7096486c0d04459ee3552e8ff6ca872efefe8cb632ef"),
    ])
    def test_factorization_pinned(self, groups, name, n, digest):
        """The whole factorization of bar D_n, pinned by digest.  Bookkeeping
        changes to the elimination must leave the pivot order and every
        logged operation as they are."""
        f = full_fact(groups[name], n)
        assert factorization_digest(f) == digest

    # the ids are the names these pins have had since they were first taken
    @pytest.mark.parametrize("name, n, digest", [
        pytest.param("s3", 3, "3e48f0902d2aa50282b3476be367ae5715497b01957ff1fe7b7c9e4c39c3c1ad",
                     id="s3-3-feb6630fc31706e1a2cd8b96a739dd13f1b28b32c47d2450d8f9e601fcfc13dd"),
        pytest.param("s3", 4, "7da07f24c12a658d5df992755f954cc11ee2967b1768b6ecb3dd0effa6fb17e4",
                     id="s3-4-888940ff04f7b9ec889562bebbe37ac4a80a04bd765c463f1eab676d3f7288b4"),
        pytest.param("s3", 5, "90d243f6f9f712885aa5107b4608821b6e3f401842dcfc80c3e5f0f10dc83870",
                     id="s3-5-48851a859ccd6056bb0e4fc2f8ecc7d0a3149e8b81a917bf832c25b1bf425c7d"),
        pytest.param("s3", 6, "9bad2a2406603b3db1fb49c9fbf7d0180d5da1f2b5ac3741ab1d9646c53481e1",
                     id="s3-6-bea2090f89d835a66ca24af403b5c214d1e1c0660bfd3a9e85f2b61fe8d9b145"),
        pytest.param("q8", 3, "ab37f33d71827b5216aa70556989f348aa0ae5dbbd869cbee756ea0c326a50c5",
                     id="q8-3-edf2cfefde24b6fd25343ee99780a806d0e2641020c81c4b5560a9b476154db9"),
        pytest.param("q8", 4, "418b5b929bff63c7818d44b736695ba0cb81c2a6e28b1ed672678a9d7db9d095",
                     id="q8-4-35bef07d262a8856b94d9b68d0979a15a61ca96a605a2b732ff9f19975e78b2e"),
        pytest.param("q8", 5, "6b2c79f5916428f7c587931250c4bc2538dd9e6e296190791393e62d41da937e",
                     id="q8-5-f785194b943fdf36f4818200872e6f7c0eacaf1256c00c7aa9ff4bdd958faefe"),
    ])
    def test_cleared_tower_pinned(self, groups, name, n, digest):
        """The factorizations that BarCochains keeps, of D_n without the
        columns of D_{n-1}'s +-1 pivot rows, pinned by digest."""
        f = bar_cochains(groups[name]).fact(n)
        assert factorization_digest(f) == digest

    # the ids are the names these pins have had since they were first taken
    @pytest.mark.parametrize("dense, pivots, digest", [
        # column 0 has no +-1 entry in the first round; the pivot on column 1
        # turns its 3 into a 1, and the second round takes it
        pytest.param(
            [[2, 1], [3, 1]], [(0, 1, 1), (1, 0, 1)],
            "518fac45e5b398a287eb9671c5849fda2865825ff367bd62ea46a9546a64af77",
            id="dense0-pivots0-518fac45e5b398a287eb9671c5849fda2865825ff367bd62ea46a9546a64af77"),
        # the pivot on column 0 cancels row 1 in column 1, and retiring
        # row 0 empties column 1, so no later round has a candidate there
        pytest.param(
            [[1, 1, 0], [1, 1, 1], [0, 0, 2], [0, 0, 3]],
            [(0, 0, 1), (1, 2, 1)],
            "e874b38534f9f3444a376f00ac30efc40d80eeab2038426c7cbc4c6ee9e3873f",
            id="dense1-pivots1-e874b38534f9f3444a376f00ac30efc40d80eeab2038426c7cbc4c6ee9e3873f"),
        # in the first round row 1 gains a fill entry in column 1 and row 2
        # loses its entry there; the second takes the cheapest candidate,
        # row 2's lone entry in column 3, and row 1's unit in column 1
        # conflicts with it (row 1 holds column 3), so it waits a round
        pytest.param(
            [[1, 1, 0, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 2, 2, 2],
             [0, 0, 2, 2]], [(0, 0, 1), (2, 3, 1), (1, 1, -1)],
            "8a4a0b225ed9d3f5a36a9dc3df47acf01e01f02ec683c12c68d481cfc9202016",
            id="dense2-pivots2-e848e6e8f89d69431344ff7285c31e72662e9b7bf6abf205b69da59047bea4e5"),
        # column 1 has length 1, so its pivot logs no batch; retiring its
        # row empties column 0
        pytest.param(
            [[2, -1, 0], [0, 0, 2]], [(0, 1, -1)],
            "347122d741c4233f69f76e6442e7da0cb6b13be182eebe222d60d6d9174a4c35",
            id="dense3-pivots3-347122d741c4233f69f76e6442e7da0cb6b13be182eebe222d60d6d9174a4c35"),
        # one round takes all four pivots, and row 3 meets them all: its
        # fill in column 3, -2 + 2 - 2, sums three of them, and column 3,
        # with no unit left, goes to phase 2
        pytest.param(
            [[1, 0, 0, 2, 0], [0, 1, 0, 2, 0], [0, 0, 1, 2, 0],
             [1, -1, 1, 0, 1], [0, 0, 0, 2, 0], [0, 0, 0, 2, 0],
             [0, 0, 0, 0, 1]], [(0, 0, 1), (1, 1, 1), (2, 2, 1), (6, 4, 1)],
            "f873f3f3b7f3dee6b02748440f1a4c2d623bbdfff4227d28bb355b0e23efdc10",
            id="dense4-pivots4-f873f3f3b7f3dee6b02748440f1a4c2d623bbdfff4227d28bb355b0e23efdc10"),
        # column 0 has no unit; one round takes the pivots on columns 1 and
        # 2, row 1 meets both and cancels to zero, and row 2 gains the fill
        # -2 in column 0, which phase 2 takes
        pytest.param(
            [[2, 1, 0], [2, 1, 1], [0, 1, 1], [0, 0, 1]],
            [(0, 1, 1), (3, 2, 1)],
            "4839b13945c82b0eeb66b51690405f83591d8720e1136779e3427b2ce2ce862e",
            id="dense5-pivots5-5dcc650eeca0a035a7c175d907aa4d88aa412be95b863d78b2fc816c2169afdc"),
        # the candidates (2, 1) and (1, 2) conflict, and (2, 1) loses to
        # (0, 0): a candidate is compared with every candidate it conflicts
        # with, accepted or not, so the first round takes (0, 0) alone
        pytest.param(
            [[1, 1, 0], [0, 1, 1], [0, 1, 0], [0, 2, 0]],
            [(0, 0, 1), (2, 1, 1), (1, 2, 1)],
            "6968c88aaa514c5d8da200d2cad26903d009215d9a0cf9f845ae5cf24434d83c",
            id="dense6-pivots6-348d493a6aece101eae26336ede89e34f141393f9d97bd84cd2aa10ed9eb981b"),
    ])
    def test_unit_pivot_edge_cases_pinned(self, dense, pivots, digest):
        """Small matrices that reach the corner cases of the +-1-pivot
        rounds, pinned by pivot order and digest."""
        f = factor_dense(dense)
        assert list(zip(f.piv_rows, f.piv_cols, f.piv_vals)) == pivots
        assert factorization_digest(f) == digest

    def test_determinism(self):
        coo = ([0, 0, 1, 2], [0, 1, 1, 0], [1, -1, 2, 3])
        f1 = SparseFactorization(3, 2, coo_to_csr(3, 2, *coo))
        f2 = SparseFactorization(3, 2, coo_to_csr(3, 2, *coo))
        assert np.array_equal(f1.piv_cols, f2.piv_cols)
        assert f1.piv_rows == f2.piv_rows
        assert all(np.array_equal(a, b) for a, b in zip(f1.log[:4],
                                                         f2.log[:4]))
        assert f1.log[4] == f2.log[4]

    def test_multiplier_past_int64_after_small_ones(self):
        """Phase 2 logs a multiplier of 2, then one of 2^70, so the log's
        multipliers are python ints; a replay over Z of a small vector
        used to die on the int64 update of the first batch."""
        f = SparseFactorization.from_columns([[2, 4, 0], [0, 3, 3 * 2**70]],
                                             3)
        assert f.log[1].tolist() == [2, 2**70]
        assert f.coker_invariants() == [6, 0]
        b = [2, 7, 3 * 2**70]  # the sum of the columns
        assert f.in_image(b) and f.solve(b) is not None
        assert not f.in_image([1, 0, 0])

    @pytest.mark.parametrize("top", [2**61, 2**62 - 4])
    def test_phase_2_crosses_int64(self, top):
        """With no +-1 entry, phase 2 starts on an int64 block; its second
        step leaves 3 * top, past 2^62, so the block moves to python ints
        mid-elimination (3 * (2^62 - 4) does not fit int64).  The answers
        over Z and mod m agree with the dense oracles."""
        cols = [[2, 3], [top, 0]]
        f = SparseFactorization.from_columns(cols, 2)
        assert not f.piv_rows and f.log[1].tolist() == [1, 2]
        assert f.esnf.source.tolist() == [[1, -top], [0, 3 * top]]
        if top == 2**61:
            assert f.coker_invariants() == [6917529027641081856]
            assert f.coker_invariants(3) == [3]
            assert f.coker_invariants(2**61 - 1) == []
            assert f.solve([2**61 + 2, 3]) == [1, 1]
        A = np.array(cols, dtype=object).T
        for m in (0, 3, 2**61 - 1, 2**64 + 13):
            assert f.coker_invariants(m) == cokernel_invariants(A, m or "Z")
            for b in ([top + 2, 3], [1, 0], [0, 3 * top], [5, 7]):
                solvable = solve_mod(A, b, m or "Z") is not None
                assert (f.solve(b, m) is not None) == solvable, (m, b)
                assert f.in_image(b, m) == solvable, (m, b)


    @pytest.mark.parametrize("m", [0, 5, 2**64 + 13])
    def test_coords_of_untouched_rows(self, groups, m):
        """The coordinates on rows that no pivot reaches are the replayed
        vector there (mod m), python ints, in ascending row order."""
        f = bar_cochains(groups["s3"]).fact(3)
        assert len(f.zero_rows) > 50
        rng = random.Random(m)
        # large entries, and small nonnegative ones: replayed mod m >= 2^63,
        # these fit int64 while m does not
        unit = [0] * f.nrows
        unit[f.zero_rows[3]] = 1
        for vec in ([rng.randrange(-(2**65), 2**65) for _ in range(f.nrows)],
                    [0] * f.nrows, unit):
            z = (kernels.apply_oplog_mod(vec, f.log, m) if m
                 else kernels.apply_oplog_int(vec, f.log))
            vals, mods = f.coords(vec, m)
            k = len(vals) - len(f.zero_rows)
            want = [int(z[r]) % m if m else int(z[r]) for r in f.zero_rows]
            assert vals[k:] == want
            assert all(type(v) is int for v in vals)
            assert mods[k:] == [m] * len(f.zero_rows)
        assert f.in_image([0] * f.nrows, m)
        assert not f.in_image(unit, m)

    @pytest.mark.parametrize("query, length", [
        ("in_image", 4), ("in_image", 2), ("coords", 4),
        ("solvable_over_q", 4), ("solve", 4), ("solve", 2),
        ("matvec", 3), ("matvec", 1),
    ])
    @pytest.mark.parametrize("m", [0, 5])
    def test_rejects_wrong_length_vector(self, query, length, m):
        """Queries on a 3x2 matrix take vectors of length 3 (matvec: 2);
        any other length is a usage error, not a silent answer."""
        f = factor_dense([[1, 0], [0, 1], [1, 1]])
        vec = [0] * (length - 1) + [7]
        args = (vec,) if query == "solvable_over_q" else (vec, m)
        with pytest.raises(ValueError, match="length"):
            getattr(f, query)(*args)

    @pytest.mark.parametrize("cols", [[[1, 0], [0, 1]], [[2, 0], [0, 3]]])
    @pytest.mark.parametrize("m", [-3, 1, "Z", None])
    def test_rejects_an_invalid_modulus(self, cols, m):
        """A query takes m = 0 or an integer m >= 2 and refuses any other
        m by name, on a matrix of +-1 pivots and on one with echelon rows
        alike."""
        f = SparseFactorization.from_columns(cols, 2)
        calls = [lambda: f.solve([3, 4], m), lambda: f.coords([3, 4], m),
                 lambda: f.in_image([3, 4], m),
                 lambda: f.coker_invariants(m), lambda: f.kernel_basis(m)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"modulus {m!r}")):
                call()

    @pytest.mark.parametrize("query", ["in_image", "coords", "solve",
                                       "solvable_over_q", "matvec"])
    def test_rejects_wrong_length_block(self, query):
        f = factor_dense([[1, 0], [0, 1], [1, 1]])
        block = np.zeros((3 if query == "matvec" else 2, 4), dtype=np.int64)
        args = (block,) if query == "solvable_over_q" else (block, 5)
        with pytest.raises(ValueError, match="length"):
            getattr(f, query)(*args)

    @pytest.mark.parametrize("csr", [
        ([0, 1], [-1, 0], [1, 1]),          # a COO triple: indptr too short
        ([0, 1, 2], [0, 2], [1, 1]),        # column 2 of 2
        ([0, 2, 2], [1, 0], [1, 1]),        # columns descend in row 0
        ([0, 2, 2], [1, 1], [1, 1]),        # a repeated position
        ([0, 1, 2], [0, 1], [1, 0]),        # a stored zero
        ([0, 2, 1], [0, 1], [1, 1]),        # indptr descends
    ])
    def test_rejects_malformed_csr(self, csr):
        with pytest.raises(ValueError):
            SparseFactorization(2, 2, csr)

    def test_holds_the_callers_arrays(self, groups, monkeypatch):
        """A bar differential is held once: its factorization keeps the
        very arrays that BarCochains.csr built for it."""
        built = []
        build = BarCochains.csr

        def spy(bc, n, cleared=()):
            built.append(build(bc, n, cleared))
            return built[-1]

        bc = BarCochains(groups["s3"])
        bc.fact(2)  # D_3 is factored cleared by D_2's pivots
        monkeypatch.setattr(BarCochains, "csr", spy)
        f = bc.fact(3)
        [(indptr, indices, data)] = built
        assert f._indptr is indptr
        assert f._indices is indices
        assert f._data is data


def round_spy(monkeypatch):
    """Spy on phase 1: per round, the live entries as a set of (row,
    column) and the round's pivots as (rows, columns)."""
    rounds = []
    pick = sparse._round_pivots

    def spy(row, col, unit, nrows, ncols):
        pr, pc = pick(row, col, unit, nrows, ncols)
        rounds.append((set(zip(row.tolist(), col.tolist())), pr.tolist(),
                       pc.tolist()))
        return pr, pc

    monkeypatch.setattr(sparse, "_round_pivots", spy)
    return rounds


def random_sparse(seed):
    """A seeded sparse matrix, as a dense list of rows, of 10-40 rows and
    6-30 columns: mostly +-1 entries, so that rounds take several pivots,
    and some entries of 2, 3 or -5 that phase 2 meets."""
    rng = random.Random(seed)
    nr, nc = rng.randint(10, 40), rng.randint(6, 30)
    density = rng.choice([0.08, 0.15, 0.3])
    return [[rng.choice([1, -1, 1, -1, 2, 3, -5]) if rng.random() < density
             else 0 for _ in range(nc)] for _ in range(nr)]


class TestRounds:
    """Phase 1 takes its +-1 pivots in rounds of independent pivots."""

    def test_round_pivots_are_independent(self, groups, monkeypatch):
        """In every round no pivot row holds another pivot's column, on a
        bar differential and on random matrices; and rounds take many
        pivots at once."""
        rounds = round_spy(monkeypatch)
        full_fact(groups["s3"], 5)
        for seed in range(20):
            factor_dense(random_sparse(seed))
        for entries, pr, pc in rounds:
            assert len(set(pr)) == len(set(pc)) == len(pr) > 0
            for r, c in zip(pr, pc):
                assert (r, c) in entries
                assert not any((r, c2) in entries for c2 in pc if c2 != c)
        assert max(len(pr) for _, pr, _ in rounds) > 50

    @pytest.mark.parametrize("seed", range(30))
    def test_random_matrices_against_oracles(self, seed):
        """Invariant factors over Z and mod m are the dense oracle's, and
        solve finds a preimage of an image vector."""
        dense = random_sparse(seed)
        nr, nc = len(dense), len(dense[0])
        f = factor_dense(dense)
        rng = random.Random(1000 + seed)
        x0 = [rng.randint(-3, 3) for _ in range(nc)]
        img = [sum(a * x for a, x in zip(row, x0)) for row in dense]
        for m in (0, 2, 3, 4, 6, 9):
            assert sorted(f.coker_invariants(m)) == sorted(
                cokernel_invariants(dense, m if m else "Z")), m
            b = [v % m for v in img] if m else img
            x = f.solve(b, m)
            got = [sum(a * v for a, v in zip(row, x)) for row in dense]
            assert [v % m for v in got] == b if m else got == b

    def test_row_meeting_pivots_near_int64(self, monkeypatch):
        """Row 4 meets all four pivots of the first round, each with its
        entry w = 2^61 - 1 in column 4, so that column's entry of row 4
        becomes -w - 4 w, past int64, although max|val| max|q| + max|val|
        = 2 w stays below 2^62: the bound counts the pivots a row meets.
        (Two pivots cannot pass int64 under that bound.)  The round runs on
        python ints, and the answers are the dense oracle's."""
        w = 2**61 - 1
        dense = [[1, 0, 0, 0, w], [0, 1, 0, 0, w], [0, 0, 1, 0, w],
                 [0, 0, 0, 1, w], [1, 1, 1, 1, -w], [0, 0, 0, 0, 2]]
        rounds = round_spy(monkeypatch)
        f = factor_dense(dense)
        assert f._data.dtype == np.int64
        assert rounds[0][1:] == ([0, 1, 2, 3], [0, 1, 2, 3])
        for m in (0, 2, 3, 2**64 + 13):
            assert sorted(f.coker_invariants(m)) == sorted(
                cokernel_invariants(dense, m if m else "Z")), m
        b = [sum(row) for row in dense]
        x = f.solve(b)
        assert [sum(a * v for a, v in zip(row, x)) for row in dense] == b

    @pytest.mark.parametrize("relabel, digest", [
        (None, "9bfd1757560229e2b0c62836886d14399247402d298304f4ef325375c7f95477"),
        ([0, 4, 1, 5, 2, 3],
         "72617d33517bedb4f80718363e72a881a98396670b8e7b63bc6c608dd410de0d"),
    ], ids=["klein4", "s3-relabelled"])
    def test_bar_differential_pinned(self, groups, relabel, digest):
        """klein4 D_6, and S_3 D_6 with its elements relabelled by a fixed
        permutation, which permutes the rows and columns of the matrix."""
        if relabel is None:
            G = groups["klein4"]
        else:
            t = groups["s3"].table
            table = [[0] * len(t) for _ in t]
            for a, row in enumerate(t):
                for b, ab in enumerate(row):
                    table[relabel[a]][relabel[b]] = relabel[ab]
            G = FiniteGroup(table, label="s3r")
        assert factorization_digest(full_fact(G, 6)) == digest

    def test_q8_d5_memory(self):
        """Factoring cleared q8 D_5 traces at most 8 MB: 11.1-11.4 MB with
        row dicts and a dense tail, 8.5-8.7 MB in rounds that held their
        arrays over the live entries through the merge, 6.1 MB in rounds
        that free them first."""
        bar = BarCochains(quaternion_8())
        csr = bar.csr(5, bar.fact(4).piv_rows)
        tracemalloc.start()
        try:
            f = SparseFactorization(bar.rank(5), bar.rank(4), csr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cleared tower's pinned q8 D_5
        assert factorization_digest(f) == (
            "6b2c79f5916428f7c587931250c4bc2538dd9e6e296190791393e62d41da937e")
        assert peak <= 8 << 20


class TestSelfChecks:
    """A factorization checks itself: Freivalds' check of the log against
    the stored rows, and, in the bar complex, the rank and exponent that
    theory gives.  A corrupted factorization raises InternalCheckFailed."""

    @pytest.fixture
    def f(self, groups):
        f = full_fact(groups["s3"], 4)  # with batches, frozen rows, an echelon
        assert f.echelon_rows and len(f.log[1]) and len(f.pivot_log[1])
        f._check_rows()
        return f

    def test_a_log_multiplier(self, f):
        f.log[1][len(f.log[1]) // 2] += 1
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    def test_a_logged_source(self, f):
        """One batch of a phase-1 round takes its ops from another row."""
        sources, lengths, rounds = f.log[2:]
        assert rounds[0][1] > lengths[0]  # the first round has more batches
        sources[0] = (sources[0] + 1) % f.nrows
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    def test_a_replay_that_skips_a_round(self, f, monkeypatch):
        """The check runs the replay that queries run: a replay that drops
        one phase-1 round fails it."""
        replay = kernels.apply_oplog_mod
        rounds = f.log[4]
        skip = max(range(len(rounds)), key=lambda i: rounds[i][1]
                   - rounds[i][0])  # the largest round, one of phase 1

        def skipping(vec, log, m, reverse=False):
            aa, qq, sources, lengths, rounds = log
            return replay(vec, (aa, qq, sources, lengths,
                                rounds[:skip] + rounds[skip + 1:]), m,
                          reverse)

        monkeypatch.setattr(kernels, "apply_oplog_mod", skipping)
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    def test_a_pool_entry(self, f):
        """A multiplier of the frozen pivot rows, which the check reads by
        back-substitution."""
        f.pivot_log[1][len(f.pivot_log[1]) // 2] += 1
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    def test_a_pivot_sign(self, f):
        i = len(f.piv_vals) // 2
        f.piv_vals[i] = -f.piv_vals[i]
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    def test_an_echelon_entry(self, f):
        E = f.esnf.source
        E[tuple(np.argwhere(E)[0])] += 1
        with pytest.raises(InternalCheckFailed):
            f._check_rows()

    @pytest.mark.parametrize("m", [0, 2])
    def test_a_kernel_generator(self, f, m):
        """kernel_basis checks A K = 0 (mod m) on its generators: an entry
        of the echelon block's V off by one fails it."""
        assert f.kernel_basis(m)
        f.esnf.V[0, -1] += 1
        with pytest.raises(InternalCheckFailed, match="kernel"):
            f.kernel_basis(m)

    def test_rank_and_exponent(self, groups):
        """fact(n) checks rank D_{n-1} + rank D_n = (|G| - 1)^{n-1} and that
        |G| kills coker D_n; the factorization of another degree, or of
        another group, fails them."""
        bar = BarCochains(groups["s3"])
        f3, f4 = bar.fact(3), bar.fact(4)
        bar._check_fact(4, f4, f3)
        with pytest.raises(InternalCheckFailed, match="rank"):
            bar._check_fact(4, f4, f4)
        bar7 = BarCochains(cyclic(7))
        with pytest.raises(InternalCheckFailed, match="divide"):
            bar._check_fact(2, bar7.fact(2), None)


class TestFromColumns:
    @staticmethod
    def entry_loop(cols, nrows, m):
        """The CSR triple of the per-entry loop that from_columns once ran:
        each nonzero symmetric residue, column by column."""
        ri, ci, vi = [], [], []
        for j, v in enumerate(cols):
            for i, x in enumerate(v):
                r = x % m if m else x
                r -= m if m and r > m // 2 else 0
                if r:
                    ri.append(i)
                    ci.append(j)
                    vi.append(r)
        return coo_to_csr(nrows, len(cols), ri, ci, vi)

    @pytest.mark.parametrize("m", [0, 2, 5, 2**40 + 15])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_entry_loop(self, m, seed):
        """Even seeds draw int64 entries, odd ones entries from 2^63 up."""
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 12), rng.randint(0, 6)
        pool = [0, 0, 0, 1, -1, 2, -3, 7, 2**40 + 14, -(2**40) - 8, 2**62]
        if seed % 2:
            pool += [2**63, -(2**63) - 1, 2**70 + 3]
        cols = [[rng.choice(pool) for _ in range(nrows)]
                for _ in range(ncols)]
        want = self.entry_loop(cols, nrows, m)
        # the columns as lists, and as the rows of one 2-D array
        arr = np.array(cols, dtype=object if seed % 2 else np.int64)
        for given in (cols, arr.reshape(ncols, nrows)):
            f = SparseFactorization.from_columns(given, nrows, m)
            for got, exp in zip((f._indptr, f._indices, f._data), want):
                assert got.dtype == exp.dtype
                assert got.tolist() == exp.tolist()

    @pytest.mark.parametrize("m", [0, 5, 2**64 + 13])
    def test_least_int64(self, m):
        """-2^63 fits int64, but its magnitude does not."""
        cols = [[-(2**63), 1, 0], [0, 5, -1]]
        f = SparseFactorization.from_columns(cols, 3, m)
        for got, exp in zip((f._indptr, f._indices, f._data),
                            self.entry_loop(cols, 3, m)):
            assert got.dtype == exp.dtype
            assert got.tolist() == exp.tolist()


class TestCooToCsr:
    def test_sums_duplicates(self, groups):
        # d(g, g) on C_2 hits (g) through face 0 and the last face, and
        # the inner face g g = 1 vanishes in the normalized resolution
        assert [a.tolist() for a in bar_cochains(groups["c2"]).csr(2)] == \
            [[0, 1], [0], [2]]
        indptr, indices, data = coo_to_csr(2, 3, [1, 0, 1, 1],
                                           [2, 1, 0, 2], [3, 4, 5, -1])
        assert indptr.tolist() == [0, 1, 3]
        assert indices.tolist() == [1, 0, 2]
        assert data.tolist() == [4, 5, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dict_summing(self, seed):
        """Against the per-entry loop: sum each position in a dict, drop
        zeros, read rows in order with their columns sorted."""
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        n = rng.randint(0, 30)
        coo = ([rng.randrange(nr) for _ in range(n)],
               [rng.randrange(nc) for _ in range(n)],
               [rng.choice([-2, -1, 0, 1, 2, 2**70]) for _ in range(n)])
        summed = {}
        for r, c, v in zip(*coo):
            summed[r, c] = summed.get((r, c), 0) + v
        want = sorted((rc, v) for rc, v in summed.items() if v)
        indptr, indices, data = coo_to_csr(nr, nc, *coo)
        got = [((r, int(indices[k])), int(data[k])) for r in range(nr)
               for k in range(indptr[r], indptr[r + 1])]
        assert got == want

    def test_drops_zeros_and_cancellations(self):
        indptr, indices, data = coo_to_csr(3, 3, [0, 0, 1, 2, 2],
                                           [1, 1, 2, 0, 2],
                                           [1, -1, 0, 5, 0])
        assert indptr.tolist() == [0, 0, 0, 1]
        assert indices.tolist() == [0]
        assert data.tolist() == [5]

    def test_keeps_large_entries_exact(self):
        big = 2**63
        _, indices, data = coo_to_csr(1, 3, [0, 0, 0, 0, 0],
                                      [2, 0, 2, 1, 1],
                                      [big, 7, big, 2**62, 2**62])
        assert indices.tolist() == [0, 1, 2]
        assert data.tolist() == [7, 2**63, 2**64]
        # entries that fit int64 but whose sum does not
        assert coo_to_csr(1, 1, [0, 0], [0, 0], [2**62, 2**62])[2].tolist() \
            == [2**63]
        # entries that fit stay int64
        assert coo_to_csr(1, 1, [0], [0], [2**62])[2].dtype == np.int64

    def test_empty_triple(self):
        indptr, indices, data = coo_to_csr(3, 2, [], [], [])
        assert indptr.tolist() == [0, 0, 0, 0]
        assert len(indices) == len(data) == 0
        f = SparseFactorization(3, 2, (indptr, indices, data))
        assert f.coker_invariants() == [0, 0, 0]
        assert f.kernel_basis() == [[1, 0], [0, 1]]
        assert f.matvec([4, 5]) == [0, 0, 0]

    @pytest.mark.parametrize("ri, ci", [
        ([0, 1], [-1, 0]),   # once read as the last column
        ([0, 1], [5, 0]),    # once an IndexError deep in back-substitution
        ([-1, 1], [0, 0]),
        ([0, 2], [0, 0]),
    ])
    def test_rejects_out_of_range_indices(self, ri, ci):
        with pytest.raises(ValueError, match="out of range"):
            coo_to_csr(2, 2, ri, ci, [1, 1])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            coo_to_csr(2, 2, [0, 1], [0], [1, 1])


class TestLargeModulus:
    """Moduli past the int64 range of the replay and matvec kernels used to
    overflow silently: matvec came back wrong and solve rejected image
    vectors.  The results must match python-int arithmetic exactly."""

    M = 2**40 + 15

    @pytest.fixture(scope="class")
    def fact(self):
        from cohomkit.groups import builtin_group
        from cohomkit.resolutions import bar_cochains
        return bar_cochains(builtin_group("s3")).fact(3)

    def test_matvec_matches_python_ints(self, fact):
        rng = random.Random(11)
        x = [rng.randrange(self.M) for _ in range(fact.ncols)]
        want = []
        for r in range(fact.nrows):
            lo, hi = fact._indptr[r], fact._indptr[r + 1]
            want.append(sum(int(fact._data[k]) * x[fact._indices[k]]
                            for k in range(lo, hi)) % self.M)
        assert fact.matvec(x, self.M) == want

    def test_solve_image_vector(self, fact):
        rng = random.Random(12)
        for _ in range(3):
            x = [rng.randrange(self.M) for _ in range(fact.ncols)]
            b = fact.matvec(x, self.M)
            y = fact.solve(b, self.M)
            assert y is not None
            assert fact.matvec(y, self.M) == b
            assert fact.in_image(b, self.M)

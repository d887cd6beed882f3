import json
from math import inf

import numpy as np
import pytest

from cohomkit import cli, fibrewise
from cohomkit.cohomology import cohomology_group
from cohomkit.errors import InvalidModule, NotBaseFree, NotPrime
from cohomkit.exact.dense import smith_normal_form
from cohomkit.exact import sparse
from cohomkit.exact.sparse import SparseFactorization, coo_to_csr
from cohomkit.fibrewise import (FGModule, GModule, _free_cover_data,
                                _splitting_system, augmentation_ideal,
                                dualising_check, fibre_projectivity_test,
                                gproj_test, integral_projectivity_test,
                                koszul_selfdual_check,
                                module_from_presentation,
                                proj_dim_via_fibres,
                                rational_projectivity_test, regular_module,
                                trivial_module)
from cohomkit.groups import cyclic, quaternion_8, symmetric_3
from helpers import ext_group, reduce_mod
from oracles import (det, echelon_modp, matmul, realize_presentation,
                     solve_mod, subquotient_invariants)


class TestProjectivity:
    def test_free_module_projective(self, groups):
        M = reduce_mod(regular_module(groups["c2"]), 2)
        r = fibre_projectivity_test(M)
        assert r.projective and r.splitting is not None

    def test_trivial_F2_over_F2C2_not_projective(self, groups):
        M = reduce_mod(trivial_module(groups["c2"]), 2)
        assert not fibre_projectivity_test(M).projective

    def test_trivial_F3_over_F3C2_projective(self, groups):
        M = reduce_mod(trivial_module(groups["c2"]), 3)
        assert fibre_projectivity_test(M).projective

    def test_splitting_witness_verifies(self, groups):
        """The returned sigma satisfies P sigma = id and equivariance."""
        G = groups["c3"]
        M = reduce_mod(regular_module(G), 2)
        r = fibre_projectivity_test(M)
        assert r.projective
        assert all(0 <= v < 2 for row in r.splitting for v in row)
        assert_splitting(G, M.action, r.splitting, 2)

    @pytest.mark.parametrize("name", ["c2", "c3", "c6"])
    def test_integral_splitting_witness_verifies(self, groups, name):
        """The integral sigma of ZG splits the free cover exactly over Z."""
        G = groups[name]
        M = regular_module(G)
        r = integral_projectivity_test(M)
        assert r.projective
        assert_splitting(G, M.action, r.splitting, 0)


def assert_splitting(G, action, sigma, p):
    """P sigma = I and sigma rho_M(g) = rho_F(g) sigma for every g, over Z
    (p = 0) or mod p; F = (ZG)^dim with g e_{j,h} = e_{j,gh}."""
    n, dim = G.order, action.shape[1]
    red = (lambda A: A % p) if p else (lambda A: A)
    S = np.array(sigma, dtype=object)
    P = np.array(_free_cover_data(action), dtype=object)
    assert (red(P @ S) == np.eye(dim, dtype=np.int64)).all()
    for g in range(n):
        F = np.zeros((dim * n, dim * n), dtype=object)
        for j in range(dim):
            for h in range(n):
                F[j * n + G.table[g][h], j * n + h] = 1
        rho = np.array(action[g], dtype=object)
        assert (red(S @ rho - F @ S) == 0).all(), g


def _dense_splitting_system(G, action):
    nrows, ncols, (ri, ci, vi), b = _splitting_system(G, action)
    A = [[0] * ncols for _ in range(nrows)]
    for i, j, v in zip(ri.tolist(), ci.tolist(), vi.tolist()):
        A[i][j] += v
    return A, b.tolist()


def _check_against_dense_oracles(G, M, primes):
    """The sparse verdicts agree with dense SNF over Z and Q and with
    dense mod-p elimination on every fibre."""
    A, b = _dense_splitting_system(G, M.action)
    integral = solve_mod(A, b, "Z") is not None
    assert integral_projectivity_test(M).projective == integral
    rank = smith_normal_form(A).rank()
    rank_b = smith_normal_form([row + [v] for row, v in zip(A, b)]).rank()
    assert rational_projectivity_test(M) == (rank == rank_b)
    for p in primes:
        Mp = reduce_mod(M, p)
        Ap, bp = _dense_splitting_system(G, Mp.action)
        aug = [row + [v] for row, v in zip(Ap, bp)]
        assert fibre_projectivity_test(Mp).projective == \
            (len(Ap[0]) not in echelon_modp(aug, p)[1]), p


_MODULES = [regular_module, trivial_module, augmentation_ideal]


def _splitting_entry_loop(G, action):
    """The splitting system's COO triple and right-hand side, one entry at
    a time from the action's rows, as the package built it before it
    built the system by index arithmetic."""
    n, dim = G.order, len(action[0])
    P = [[action[g][i][j] for j in range(dim) for g in range(n)]
         for i in range(dim)]
    ri, ci, vi, rhs = [], [], [], []
    for i in range(dim):
        for j in range(dim):
            for t in range(dim * n):
                if P[i][t]:
                    ri.append(len(rhs))
                    ci.append(t * dim + j)
                    vi.append(P[i][t])
            rhs.append(int(i == j))
    for g in range(1, n):
        for r in range(dim * n):
            j0, h = divmod(r, n)
            src = j0 * n + G.table[G.inverse[g]][h]
            for c in range(dim):
                for t in range(dim):
                    if action[g][t][c]:
                        ri.append(len(rhs))
                        ci.append(r * dim + t)
                        vi.append(action[g][t][c])
                ri.append(len(rhs))
                ci.append(src * dim + c)
                vi.append(-1)
                rhs.append(0)
    return (ri, ci, vi), rhs


class TestSplittingSystem:
    @pytest.mark.parametrize("make", _MODULES)
    @pytest.mark.parametrize("name", ["c2", "c3", "c6", "s3", "klein4"])
    @pytest.mark.parametrize("p", [0, 3])
    def test_matches_the_entry_loop(self, groups, name, make, p):
        """The CSR triple and right-hand side are those of the entry loop,
        bit for bit, over Z and from the symmetric residues mod 3."""
        G = groups[name]
        M = make(G) if not p else reduce_mod(make(G), p)
        action = sparse.symmetric_residues(M.action, p)
        nrows, ncols, coo, rhs = _splitting_system(G, action)
        want_coo, want_rhs = _splitting_entry_loop(G, action.tolist())
        assert (nrows, ncols) == (len(want_rhs), M.rank ** 2 * G.order)
        assert rhs.tolist() == want_rhs
        got = coo_to_csr(nrows, ncols, *coo)
        want = coo_to_csr(nrows, ncols, *want_coo)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, want))


class TestSparseSplittingAgainstDense:
    @pytest.mark.parametrize("make", _MODULES)
    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "klein4"])
    def test_small_groups(self, groups, name, make):
        G = groups[name]
        _check_against_dense_oracles(G, make(G), (2, 3, 5))

    @pytest.mark.slow
    @pytest.mark.parametrize("make", _MODULES)
    @pytest.mark.parametrize("name", ["c6", "s3"])
    def test_order_six(self, groups, name, make):
        G = groups[name]
        _check_against_dense_oracles(G, make(G), (2, 3, 5))


class TestProjDimViaFibres:
    def test_free_module_sup_zero(self, groups):
        rep = proj_dim_via_fibres(regular_module(groups["c2"]),
                                  verify_rational=True)
        assert rep.supremum == 0

    def test_trivial_over_ZC2_infinite(self, groups):
        rep = proj_dim_via_fibres(trivial_module(groups["c2"]))
        assert rep.supremum == inf
        assert rep.fibres == {2: False}

    def test_trivial_over_ZC6_bad_at_2_and_3(self, groups):
        rep = proj_dim_via_fibres(trivial_module(groups["c6"]))
        assert rep.fibres == {2: False, 3: False}
        assert rep.supremum == inf

    @pytest.mark.parametrize("name", ["c2", "c3", "c6"])
    def test_lemma27_direct_equals_fibrewise(self, groups, name):
        """Projectivity over ZG (integral splitting) equals projectivity at
        every fibre, for ZG, Z, and the augmentation ideal."""
        G = groups[name]
        for M in (regular_module(G), trivial_module(G),
                  augmentation_ideal(G)):
            direct = integral_projectivity_test(M).projective
            rep = proj_dim_via_fibres(M, verify_rational=True)
            assert direct == all(rep.fibres.values()), (name, M.label)


class TestOneFactorizationPerLattice:
    @pytest.mark.parametrize("make", _MODULES)
    @pytest.mark.parametrize("name", ["c2", "c3", "c6", "s3", "klein4", "q8",
                                      "c8"])
    def test_fibre_parity(self, groups, name, make, monkeypatch):
        """proj_dim_via_fibres reads every fibre off one Z factorization of
        the lattice's splitting system; its verdicts match the splitting
        system of each reduced module M/pM."""
        G = groups[name]
        M = make(G)
        built = []

        class Counting(SparseFactorization):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(fibrewise, "SparseFactorization", Counting)
        rep = proj_dim_via_fibres(M, verify_rational=True)
        assert len(built) == 1
        assert rep.rational_projective
        assert rep.integral_projective == \
            integral_projectivity_test(M).projective
        fact, rhs = fibrewise._splitting_factorization(G, M.action)
        for p in (2, 3, 5, 7):
            want = fibre_projectivity_test(reduce_mod(M, p)).projective
            assert (fact.solve(rhs, p) is not None) == want, p
            if G.order % p == 0:
                assert rep.fibres[p] == want, p
            else:
                assert want, p  # Maschke: p does not divide |G|
        assert sorted(rep.fibres) == [p for p in (2, 3, 5, 7)
                                      if G.order % p == 0]

    def test_lemma27_suite_factors_each_module_once(self, monkeypatch):
        """verify-paper lemma2.7 reads the direct (integral) verdict and
        every fibre of a module off one factorization: 9 modules, 9
        builds."""
        built = []

        class Counting(SparseFactorization):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(fibrewise, "SparseFactorization", Counting)
        body, ok = cli.suite_lemma27()
        assert ok and len(body["results"]) == 9
        assert len(built) == 9

    def test_fp_system_residual_stays_small(self, groups, monkeypatch):
        """An F_p system enters the Z factorization with symmetric residues:
        p - 1 becomes the unit -1, so aug(Q8) mod 5 leaves a residual block
        of at most 16 columns, where residues in [0, 5) leave 43.  (One
        pivot at a time, least column length first, left 12.)"""
        built = []

        class Keeping(SparseFactorization):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(fibrewise, "SparseFactorization", Keeping)
        M = reduce_mod(augmentation_ideal(groups["q8"]), 5)
        assert fibre_projectivity_test(M).projective
        assert len(built) == 1
        assert len(built[0].res_cols) <= 16


class TestGProj:
    def test_trivial_Z_is_gproj(self, groups):
        M = FGModule(groups["c2"], "Z", 0, 1, [], {1: [[1]]})
        assert gproj_test(M)["gorenstein_projective"]

    def test_torsion_not_gproj(self, groups):
        M = FGModule(groups["c2"], "Z", 0, 1, [[2]], {1: [[1]]})
        assert not gproj_test(M)["gorenstein_projective"]

    def test_invalid_module_rejected(self, groups):
        M = FGModule(groups["c2"], "Z", 0, 1, [], {1: [[2]]})
        with pytest.raises(InvalidModule):
            gproj_test(M)

    def test_regular_presentation_gproj(self, groups):
        G = groups["c2"]
        M = FGModule(G, "Z", 0, 2, [], {1: [[0, 1], [1, 0]]})
        assert gproj_test(M)["gorenstein_projective"]

    @pytest.mark.parametrize("relations, action, invariants", [
        ([], [[0, 1], [1, 0]], [0, 0]),       # no relations: Z^2
        ([[1, -1]], [[0, 1], [1, 0]], [0]),   # Z^2 / (e0 - e1)
        ([[2, 0]], [[1, 0], [0, 1]], [2, 0]),  # Z/2 + Z
    ])
    def test_invariants(self, groups, relations, action, invariants):
        M = FGModule(groups["c2"], "Z", 0, 2, relations, {1: action})
        assert gproj_test(M)["invariants"] == invariants


class TestPresentations:
    def test_lattice_from_presentation_with_relations(self, groups):
        # Z^2 / (e0 - e1) with the swap action: a rank-1 trivial module
        G = groups["c2"]
        M = FGModule(G, "Z", 0, 2, [[1, -1]], {1: [[0, 1], [1, 0]]})
        lat = module_from_presentation(M)
        assert lat.rank == 1
        assert lat.action[1].tolist() == [[1]]

    def test_torsion_presentation_rejected_for_lattice(self, groups):
        M = FGModule(groups["c2"], "Z", 0, 1, [[2]], {1: [[1]]})
        with pytest.raises(NotBaseFree):
            module_from_presentation(M)

    def test_unstable_relations_rejected(self, groups):
        G = groups["c2"]
        # relation e0 alone is not stable under the swap action
        M = FGModule(G, "Z", 0, 2, [[1, 0]], {1: [[0, 1], [1, 0]]})
        with pytest.raises((InvalidModule, NotBaseFree)):
            module_from_presentation(M)

    def test_invalid_action_rejected(self, groups):
        G = groups["c2"]
        M = FGModule(G, "Z", 0, 1, [], {1: [[2]]})  # 2 squared != 1
        with pytest.raises(InvalidModule):
            M.full_action()
        with pytest.raises(InvalidModule):  # one entry for two generators
            FGModule(G, "Z", 0, 2, [[1]], {1: [[0, 1], [1, 0]]})
        with pytest.raises(InvalidModule):  # a 1 x 2 action matrix
            FGModule(G, "Z", 0, 2, [], {1: [[0, 1]]})
        with pytest.raises(InvalidModule):  # no element 5 in C_2
            FGModule(G, "Z", 0, 1, [], {5: [[1]]})

    @pytest.mark.parametrize("corner, valid", [(-1, True), (1, False)])
    def test_action_past_int64(self, groups, corner, valid):
        """g acting by [[1, 2^70], [0, corner]] squares to the identity iff
        corner = -1: the table check is exact past int64, as a GModule and
        through full_action."""
        G = groups["c2"]
        mat = [[1, 2**70], [0, corner]]
        M = FGModule(G, "Z", 0, 2, [], {1: mat})
        if valid:
            assert GModule(G, [[[1, 0], [0, 1]], mat]).rank == 2
            assert M.full_action()[1].tolist() == mat
            return
        with pytest.raises(InvalidModule, match="violates the table"):
            GModule(G, [[[1, 0], [0, 1]], mat])
        with pytest.raises(InvalidModule, match="violates the table"):
            M.full_action()

    def test_fp_presentation(self, groups):
        G = groups["c2"]
        M = FGModule(G, "Fp", 2, 2, [[1, 1]], {1: [[0, 1], [1, 0]]})
        fp = module_from_presentation(M)
        assert fp.rank == 1

    @pytest.mark.parametrize("name, p, relations, dim, projective", [
        # 2 e0 vanishes mod 2: F_2^2 / (e0 + e1), the trivial module
        ("c2", 2, [[2, 0], [1, 1]], 1, False),
        # 3 e0 vanishes mod 3: the regular module F_3 C3, free
        ("c3", 3, [[3, 0, 0]], 3, True),
        # e0 - e1 and e1 - e2 mod 3 (written 1, 2): the trivial module
        ("c3", 3, [[1, 2, 0], [0, 1, 2]], 1, False),
        # p does not divide |G|: every module is projective
        ("c2", 5, [[1, 1], [5, 0]], 1, True),
    ])
    def test_fp_presentation_relations_mod_p(self, groups, name, p,
                                             relations, dim, projective):
        """The quotient is taken mod p: relations that vanish or become
        dependent mod p cut out fewer dimensions than over Z."""
        G = groups[name]
        n = G.order
        shift = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
        M = FGModule(G, "Fp", p, n, relations, {1: shift})
        fp = module_from_presentation(M)
        assert fp.rank == dim
        assert fibre_projectivity_test(fp).projective == projective

    def test_fp_table_checked_up_to_relations(self, groups):
        """An F_p presentation gets the relation slack of a Z one: g^2 acts
        as e0 -> e0 + 2 e1, which is the identity modulo the relation e1,
        so this is the trivial F_3 C_2-module (projective: 3 does not divide
        2)."""
        M = FGModule(groups["c2"], "Fp", 3, 2, [[0, 1]],
                     {1: [[1, 0], [1, 1]]})
        fp = module_from_presentation(M)
        assert (fp.rank, fp.p, fp.action.tolist()) == (1, 3, [[[1]], [[1]]])
        assert fibre_projectivity_test(fp).projective

    def test_fp_unstable_relations_rejected(self, groups):
        # g e1 = e0 + 2 e1 lies outside span(e1) + 3 Z^2
        M = FGModule(groups["c2"], "Fp", 3, 2, [[0, 1]],
                     {1: [[1, 1], [0, 2]]})
        with pytest.raises(InvalidModule):
            module_from_presentation(M)

    @pytest.mark.parametrize("p", [4, 1, -3])
    def test_non_prime_fp_rejected(self, groups, p):
        G = groups["c2"]
        with pytest.raises(NotPrime):
            FGModule(G, "Fp", p, 1, [], {1: [[1]]})
        with pytest.raises(NotPrime):
            reduce_mod(trivial_module(G), p)

    @pytest.mark.parametrize("name, p, k, relations", [
        ("c2", 0, 2, [[1, -1]]),           # the trivial lattice
        ("c2", 0, 2, []),                  # the regular lattice
        ("c3", 0, 3, [[1, 1, 1]]),         # ZC_3 modulo its norm
        ("c4", 0, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]),  # g acts with order 4
        ("c4", 0, 4, [[2, 0, 2, 0], [1, 1, 1, 1], [0, 2, 0, 2],
                      [1, 0, 1, 0], [0, 1, 0, 1]]),  # dependent relations
        ("c2", 2, 2, [[2, 0], [1, 1]]),
        ("c3", 3, 3, [[1, 2, 0], [0, 1, 2]]),
        ("c6", 3, 3, [[1, 1, 1]]),         # C_6 acting through C_3
        ("c4", 2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]),
    ])
    def test_realization_conjugate_to_dense_reference(self, groups, name, p,
                                                      k, relations):
        """The realized action, on the cokernel basis b_i of order m, is
        conjugate to the dense Smith-form realization on the coordinates
        (U x)_i of order m: P = (those rows of U) (the b_i) is invertible
        over Z or F_p and P R(g) = S(g) P for every g.  The generator of
        the cyclic group permutes the k generators cyclically."""
        G = groups[name]
        shift = [[int(i == (j + 1) % k) for j in range(k)] for i in range(k)]
        M = FGModule(G, "Fp" if p else "Z", p, k, relations, {1: shift})
        m = M.modulus
        R = module_from_presentation(M).action
        full = M.full_action()
        S, proj = realize_presentation(
            k, relations, [full[a] for a in range(G.order)], m)
        cols = [b for (_, b), o in zip(M.coker_basis, M.orders()) if o == m]
        assert len(cols) == len(proj) > 0
        P = matmul(proj, np.array(cols, dtype=object).T)
        d = det(P)
        assert d % m if m else abs(d) == 1
        for a in range(G.order):
            diff = matmul(P, R[a]) - matmul(S[a], P)
            assert not (diff % m if m else diff).any(), a

    def test_module_json_roundtrip(self, groups, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "base": "Z", "generators": 2, "relations": [[1, -1]],
            "action": {"1": [[0, 1], [1, 0]]}}))
        M = FGModule.from_json_file(path, groups["c2"])
        assert module_from_presentation(M).rank == 1


class TestDualising:
    @pytest.mark.parametrize("name", ["c2", "c3", "s3", "q8"])
    def test_witness_found_and_verified(self, groups, name):
        G = groups[name]
        w = dualising_check(G)
        assert abs(w.determinant) == 1
        assert w.verify(G)

    @pytest.mark.parametrize("name", ["c3", "s3", "q8"])
    def test_broken_witness_fails(self, groups, name):
        """A witness with two columns swapped is still a permutation but no
        longer commutes with the actions; one with an entry 2 is no
        permutation."""
        G = groups[name]
        w = dualising_check(G)
        w.matrix[:, [0, 1]] = w.matrix[:, [1, 0]]
        assert not w.verify(G)
        w = dualising_check(G)
        w.matrix[w.matrix.nonzero()[0][0], w.matrix.nonzero()[1][0]] = 2
        assert not w.verify(G)

    def test_c2_standard_form(self, groups):
        w = dualising_check(groups["c2"])
        assert abs(det(w.matrix)) == 1


# Ext^i_{ZG}(M, N) for i = 0, 1, ..., as computed by the dense-SNF
# resolution that preceded the sparse tower.  "Z/p" is the presentation
# Z/(p) with the trivial action.
_EXT_PINS = {
    "c2": {
        ("Z/2", "ZG"): [[], [2], []],
        ("Z/2", "Z"): [[], [2], [2]],
        ("ZG", "ZG"): [[0, 0], [], []],
        ("ZG", "Z"): [[0], [], []],
        ("ZG", "aug"): [[0], [], []],
        ("Z", "ZG"): [[0], [], []],
        ("Z", "Z"): [[0], [], [2]],
        ("Z", "aug"): [[], [2], []],
        ("aug", "ZG"): [[0], [], []],
        ("aug", "Z"): [[], [2], []],
        ("aug", "aug"): [[0], [], [2]],
    },
    "c3": {
        ("Z/3", "ZG"): [[], [3], []],
        ("Z/3", "Z"): [[], [3], [3]],
        ("ZG", "ZG"): [[0, 0, 0], [], []],
        ("ZG", "Z"): [[0], [], []],
        ("ZG", "aug"): [[0, 0], [], []],
        ("Z", "ZG"): [[0], [], []],
        ("Z", "Z"): [[0], [], [3]],
        ("Z", "aug"): [[], [3], []],
        ("aug", "ZG"): [[0, 0], [], []],
        ("aug", "Z"): [[], [3], []],
        ("aug", "aug"): [[0, 0], [], [3]],
    },
    "c4": {
        ("Z/2", "ZG"): [[], [2]],
        ("Z/2", "Z"): [[], [2]],
        ("ZG", "ZG"): [[0, 0, 0, 0], []],
        ("ZG", "Z"): [[0], []],
        ("ZG", "aug"): [[0, 0, 0], []],
        ("Z", "ZG"): [[0], []],
        ("Z", "Z"): [[0], []],
        ("Z", "aug"): [[], [4]],
        ("aug", "ZG"): [[0, 0, 0], []],
        ("aug", "Z"): [[], [4]],
        ("aug", "aug"): [[0, 0, 0], []],
    },
    "klein4": {
        ("Z/2", "ZG"): [[], [2]],
        ("Z/2", "Z"): [[], [2]],
        ("ZG", "ZG"): [[0, 0, 0, 0], []],
        ("ZG", "Z"): [[0], []],
        ("ZG", "aug"): [[0, 0, 0], []],
        ("Z", "ZG"): [[0], []],
        ("Z", "Z"): [[0], []],
        ("Z", "aug"): [[], [4]],
        ("aug", "ZG"): [[0, 0, 0], []],
        ("aug", "Z"): [[], [2, 2]],
        ("aug", "aug"): [[0, 0, 0], []],
    },
}


class TestExtGroups:
    @pytest.mark.parametrize("name", sorted(_EXT_PINS))
    def test_pinned_values(self, groups, name):
        G = groups[name]
        mods = {"ZG": regular_module(G), "Z": trivial_module(G),
                "aug": augmentation_ideal(G)}
        for (src, dst), want in _EXT_PINS[name].items():
            M = mods.get(src) or FGModule(
                G, "Z", 0, 1, [[int(src[2:])]],
                {g: [[1]] for g in range(1, G.order)})
            got = [ext_group(M, mods[dst], i) for i in range(len(want))]
            assert got == want, (name, src, dst)

    def test_ext0_of_free_is_the_module(self, groups):
        G = groups["c2"]
        ZG = regular_module(G)
        assert ext_group(ZG, ZG, 0) == [0, 0]

    def test_ext2_of_trivial_is_H2(self, groups):
        G = groups["c2"]
        Z = trivial_module(G)
        got = ext_group(Z, Z, 2)
        want = sorted(cohomology_group(G, "Z", 2).invariant_factors)
        assert sorted(got) == want == [2]

    def test_coinduced_vanishing_with_periodic_oracle(self, groups):
        """Ext^i(Z, ZG) = 0 for i = 1, 2 over ZC_2, cross-checked against
        the periodic resolution."""
        G = groups["c2"]
        Z = trivial_module(G)
        ZG = regular_module(G)
        assert ext_group(Z, ZG, 1) == []
        assert ext_group(Z, ZG, 2) == []
        # periodic oracle: complex ZG --(g-1)--> ZG --(1+g)--> ZG, the
        # matrices of left multiplication on the basis (1, g)
        gm1 = np.array([[-1, 1], [1, -1]], dtype=object)
        norm = np.array([[1, 1], [1, 1]], dtype=object)
        # Hom(ZG, ZG) = ZG with induced maps the same matrices
        assert subquotient_invariants(norm, gm1, "Z") == []   # Ext^1
        assert subquotient_invariants(gm1, norm, "Z") == []   # Ext^2

    @pytest.mark.parametrize("name", ["c2", "c3"])
    def test_prop34_shadow(self, groups, name):
        """Ext^i(M, ZG) = 0 for i = 2, 3 (injective dimension 1), with a
        nonvanishing Ext^1 control from a torsion module."""
        G = groups[name]
        ZG = regular_module(G)
        p = G.order
        mods = [regular_module(G), trivial_module(G), augmentation_ideal(G)]
        for M in mods:
            for i in (2, 3):
                assert ext_group(M, ZG, i) == [], (name, M.label, i)
        tors = FGModule(G, "Z", 0, 1, [[p]],
                        {g: [[1]] for g in range(1, G.order)})
        assert ext_group(tors, ZG, 1) == [p]

    def test_ext1_aug_trivial_nonzero(self, groups):
        G = groups["c2"]
        assert ext_group(augmentation_ideal(G), trivial_module(G), 1) == [2]


class TestKoszul:
    def test_single_element(self):
        rep = koszul_selfdual_check([2])
        assert rep.passed
        assert rep.h0_invariants == (2,)

    def test_two_elements(self):
        rep = koszul_selfdual_check([2, 3])
        assert rep.passed

    def test_three_elements(self):
        rep = koszul_selfdual_check([2, 3, 5])
        assert rep.passed

    def test_h0_of_prime(self):
        assert koszul_selfdual_check([7]).h0_invariants == (7,)

    @pytest.mark.parametrize("elements,h0", [
        ((0, 0), (0,)), ((-4, 6), (2,)), ((4, 6, 10), (2,)), ((2, 3), ()),
        ((0, 6), (6,)), ((-3,), (3,))])
    def test_h0_zero_and_negative_entries(self, elements, h0):
        """H_0 = Z / (a_1, ..., a_d): Z itself (a free summand, 0) when
        every a_i is 0, else Z / gcd, whatever the signs."""
        assert koszul_selfdual_check(elements).h0_invariants == h0

    @pytest.mark.parametrize("elements, signs", [
        ((2**70, 3), (1, 1, -1)), ((2**62, 2**62, 5), (1, 1, -1, -1))])
    def test_entries_past_int64(self, elements, signs):
        """The differentials and the squares they enter are exact past
        int64: the same signs as for small entries, and H_0 = Z / gcd = 0."""
        rep = koszul_selfdual_check(elements)
        assert (rep.passed, rep.shift_signs, rep.h0_invariants) == \
            (True, signs, ())

    def test_complex_squares_to_zero(self):
        from cohomkit.fibrewise import koszul_complex_matrices

        mats, _ = koszul_complex_matrices([2, 3, 5])
        for k in range(2, 4):
            prod = mats[k - 1] @ mats[k]
            assert all(v == 0 for v in prod.ravel())

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            koszul_selfdual_check([1, 2, 3, 4, 5])

import random
import tracemalloc

import numpy as np
import pytest

from cohomkit.abelian import factorize
from cohomkit.cohomology import (bockstein_delta, cohomology_group,
                                 cohomology_system)
from cohomkit.config import GROUP_CACHE_SIZE
from cohomkit.errors import SizeCapExceeded
from cohomkit.exact.sparse import coo_to_csr
from cohomkit.fibrewise import (GModule, augmentation_ideal, regular_module,
                                trivial_module)
from cohomkit.fiso import pth_power_preimage
from cohomkit.groups import (BUILTIN_GROUPS, builtin_group, cyclic,
                             symmetric_3)
from cohomkit.resolutions import BarCochains, bar_cochains
from helpers import field_free_resolution, full_fact, reduce_mod
from oracles import (CochainComplex, bar_csr_by_coo, bar_resolution,
                     echelon_modp, periodic_resolution_cyclic,
                     subquotient_invariants, verify_complex, zero)

# (group, p) pairs whose trivial and augmentation modules are resolved over
# F_pG; p divides |G| in each, so neither module is projective
_FIELD_CASES = [("c3", 3), ("klein4", 2), ("s3", 2), ("s3", 3)]


def _field_modules(groups, base):
    """(module, p) for ``base`` and for the trivial and augmentation modules
    of every ``_FIELD_CASES`` pair."""
    out = [base]
    for name, p in _FIELD_CASES:
        G = groups[name]
        out += [(reduce_mod(make(G), p), p)
                for make in (trivial_module, augmentation_ideal)]
    return out


class TestBarResolution:
    def test_c2_ranks_all_one(self):
        res = bar_resolution(cyclic(2), 3)
        assert res.ranks == [1, 1, 1, 1]

    def test_s3_ranks(self):
        res = bar_resolution(symmetric_3(), 3)
        assert res.ranks == [1, 5, 25, 125]

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_dd_zero_and_exactness(self, order):
        res = bar_resolution(cyclic(order), 4)
        rep = verify_complex(res)
        assert rep["pass"], rep

    def test_s3_complex_verifies(self):
        rep = verify_complex(bar_resolution(symmetric_3(), 3))
        assert rep["pass"], rep

    def test_degree0_homology_is_Z(self):
        # exactness report at degree 0 means ker(augmentation) = im(d_1)
        rep = verify_complex(bar_resolution(cyclic(2), 4))
        assert rep["exact"][0]

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("COHOMKIT_SIZE_CAP", "100")
        with pytest.raises(SizeCapExceeded):
            bar_resolution(symmetric_3(), 4)


class TestPeriodicResolution:
    def test_dd_zero_via_norm(self):
        res = periodic_resolution_cyclic(2, 5)
        rep = verify_complex(res)
        assert all(rep["dd_zero"].values())

    def test_exact_in_positive_degrees(self):
        rep = verify_complex(periodic_resolution_cyclic(2, 6))
        assert rep["pass"], rep

    def test_corrupted_differential_detected(self):
        res = periodic_resolution_cyclic(3, 4)
        res.zg_diffs[2] = res.zg_diffs[2][:-1]  # drop one norm term
        rep = verify_complex(res)
        assert not rep["pass"]
        assert not (rep["dd_zero"].get(2, True) and rep["dd_zero"].get(3, True))

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("m", ["Z", 2, 3, 4])
    def test_cross_oracle_low_degrees(self, order, m, groups):
        """Bar cohomology equals periodic-resolution cohomology (small
        degrees here; the full range is acceptance criterion 1)."""
        G = groups[f"c{order}"]
        per = periodic_resolution_cyclic(order, 6)
        for n in range(0, 4):
            got = list(cohomology_group(G, m, n).invariant_factors)
            d_in = per.dual_differential(n) if n >= 1 else zero(1, 1)
            d_out = per.dual_differential(n + 1)
            want = subquotient_invariants(d_in, d_out, m)
            assert sorted(got) == sorted(want), (order, m, n)


class TestFieldFreeResolution:
    def test_free_module_has_length_zero(self):
        M = reduce_mod(regular_module(cyclic(2)), 2)
        assert field_free_resolution(M, 3).length == 0

    def test_trivial_module_over_F2C2(self):
        M = reduce_mod(trivial_module(cyclic(2)), 2)
        res = field_free_resolution(M, 4)
        assert res.free_ranks == [1, 1, 1, 1, 1]
        # every differential is multiplication by (g - 1) = (g + 1) mod 2
        for mat in res.diffs:
            assert np.asarray(mat).tolist() == [[1, 1], [1, 1]]

    def test_zero_module_empty_resolution(self):
        M = GModule(cyclic(2), np.zeros((2, 0, 0), dtype=np.int64), 2)
        assert field_free_resolution(M, 3).length == 0

    def test_differentials_compose_to_zero(self, groups):
        base = (reduce_mod(trivial_module(cyclic(3)), 3), 3)
        for M, p in _field_modules(groups, base):
            res = field_free_resolution(M, 3)
            assert len(res.diffs) == 3, M.label
            pairs = [(np.asarray(res.cover), res.diffs[0])]
            pairs += zip(res.diffs, res.diffs[1:])
            for a, b in pairs:
                prod = (np.asarray(a, dtype=np.int64) @
                        np.asarray(b, dtype=np.int64)) % p
                assert not prod.any(), (M.group.label, M.label)

    def test_cover_surjective_resolution_exact(self, groups):
        # rank of each differential + next equals the free dimension, and
        # the cover F_0 -> M is onto
        base = (reduce_mod(trivial_module(cyclic(2)), 2), 2)
        for M, p in _field_modules(groups, base):
            res = field_free_resolution(M, 4 if M.group.order == 2 else 3)
            n = M.group.order
            dims = [n * r for r in res.free_ranks]
            ranks = [len(echelon_modp(A, p)[1])
                     for A in [res.cover] + res.diffs]
            assert ranks[0] == M.rank
            for t in range(len(res.diffs)):
                assert ranks[t] + ranks[t + 1] == dims[t], \
                    (M.group.label, M.label, t)


class TestBarCochains:
    @pytest.mark.parametrize("vec", [[1, 0, 5, 7, 9], [1]])
    def test_matvec_rejects_wrong_length(self, vec):
        """C^1 of C3 has rank 2; a longer vector used to be read in part
        and a shorter one died with an IndexError."""
        with pytest.raises(ValueError):
            bar_cochains(cyclic(3)).matvec(2, vec)

    def test_negative_degree_rejected(self):
        """(|G| - 1)^n is a float for n < 0; it used to fail later as a
        TypeError."""
        bc = bar_cochains(cyclic(3))
        assert bc.rank(0) == 1
        with pytest.raises(ValueError, match="negative degree"):
            bc.rank(-1)

    def test_matvec_matches_dense_dual(self, groups):
        """In every degree with at most 700 cells, D_n applied by shape,
        before and after D_n is factored, equals the dense dual
        differential, on random vectors, the zero vector, vectors just
        under or at the int64 bound (n+1) * max|w| < 2^62 of the face sum
        ("bound") and vectors past it ("large"); and on (rank, 1) and
        (rank, 3) blocks, in int64 and, with a column past the bound, in
        python ints.  On the trivial group (q = 0) every D_n, n >= 1,
        lands in the zero space."""
        rng = np.random.default_rng(7)
        for name in ("c2", "c3", "klein4", "s3", "q8"):
            G = groups[name]
            top = max(n for n in range(1, 9) if (G.order - 1) ** n <= 700)
            res = bar_resolution(G, top)
            for n in range(1, top + 1):
                dual = res.dual_differential(n)
                w = rng.integers(-5, 6, res.ranks[n - 1])
                vectors = {"random": w.tolist(), "zero": [0] * len(w),
                           "bound": (np.sign(w) * (2**62 // (n + 1))).tolist(),
                           "large": [v * 2**62 + 1 for v in w.tolist()]}
                for kind, v in vectors.items():
                    want = (dual @ np.array(v, dtype=object)).tolist()
                    bc = BarCochains(G)
                    assert bc.matvec(n, v) == want, (name, n, kind)
                    assert not bc._facts
                    bc.fact(n)
                    assert bc.matvec(n, v) == want, (name, n, kind)
                w3 = rng.integers(-5, 6, (len(w), 3))
                past = np.column_stack([w3[:, :2], (w | 1) * 2**61])
                blocks = {np.int64: (w[:, None], w3), object: (past,)}
                for dtype, cases in blocks.items():
                    for blk in cases:
                        got = BarCochains(G).matvec(n, blk)
                        assert got.dtype == dtype, (name, n, blk.shape)
                        assert got.tolist() == (dual @ blk.astype(object)
                                                ).tolist()
        bc = BarCochains(cyclic(1))
        for n in range(1, 4):
            assert bc.matvec(n, [3] * bc.rank(n - 1)) == []
            assert bc.matvec(n, np.ones((bc.rank(n - 1), 3), dtype=np.int64)
                             ).shape == (0, 3)

    def test_csr_matches_dense_dual(self):
        """On every built-in group, in every degree with at most 700
        cells, the CSR triple of D_n without random cleared columns equals
        the canonical CSR of the dense dual differential with those
        columns dropped, with int64 data."""
        rng = random.Random(11)
        for name in sorted(BUILTIN_GROUPS):
            G = builtin_group(name)
            top = max(n for n in range(1, 9) if (G.order - 1) ** n <= 700)
            res = bar_resolution(G, top)
            bc = BarCochains(G)
            for n in range(1, top + 1):
                cleared = rng.sample(range(bc.rank(n - 1)),
                                     rng.randint(0, bc.rank(n - 1)))
                A = res.dual_differential(n).astype(np.int64)
                A[:, cleared] = 0
                ri, ci = np.nonzero(A)
                want = coo_to_csr(bc.rank(n), bc.rank(n - 1), ri, ci,
                                  A[ri, ci])
                got = bc.csr(n, cleared)
                assert got[2].dtype == np.int64, (name, n)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), \
                        (name, n)

    def test_matvec_traces_no_per_cell_index_arrays(self, groups):
        """Under tracemalloc, D_7 of s3 and D_6 of q8 applied to a vector
        trace at most 4 * 8 * rank(n) bytes: the result, its list, and
        gathers of rank(n) / q entries, but no index array per cell and
        face."""
        rng = np.random.default_rng(3)
        for name, n in (("s3", 7), ("q8", 6)):
            bc = bar_cochains(groups[name])
            v = rng.integers(-3, 4, bc.rank(n - 1))
            bc.matvec(n, v)  # imports and first-call allocations
            tracemalloc.start()
            try:
                bc.matvec(n, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * bc.rank(n), (name, peak)

    def test_dual_differentials_compose_to_zero(self):
        G = symmetric_3()
        bc = bar_cochains(G)
        rng = np.random.default_rng(1)
        v = rng.integers(-2, 3, bc.rank(2)).tolist()
        assert not any(bc.matvec(4, bc.matvec(3, v)))

    def test_csr_matches_coo_oracle(self):
        """On every built-in group, in every degree with at most 20,000
        rows, the CSR triple built row by row equals the one built as a
        COO triple and sorted as a whole (``oracles.bar_csr_by_coo``), in
        dtype, shape and values, uncleared and cleared by the pivot rows of
        D_{n-1}.  c2 and c3 have cells with two equal faces, which sum to
        0 or +-2."""
        for name in sorted(BUILTIN_GROUPS):
            bc = BarCochains(builtin_group(name))
            for n in range(1, 16):
                if bc.rank(n) > 20000:
                    break
                for cleared in ((), bc.fact(n - 1).piv_rows if n > 1 else ()):
                    got = bc.csr(n, cleared)
                    want = bar_csr_by_coo(bc, n, cleared)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.shape == b.shape \
                            and np.array_equal(a, b), (name, n, len(cleared))
        # c2's one cell reads column 0 by faces 0 and n, and its other
        # faces are degenerate: the signs sum to 2 in even degrees and
        # cancel in odd ones
        c2 = BarCochains(builtin_group("c2"))
        assert [c2.csr(n)[2].tolist() for n in range(1, 5)] == [[], [2], [],
                                                                [2]]
        assert 2 in BarCochains(builtin_group("c3")).csr(4)[2]

    def test_csr_traces_one_table(self):
        """Under tracemalloc, the CSR triple of q8 D_5 (16,807 rows, 6
        faces each) traces at most 6.5 MB, the triple itself included:
        built from a COO triple lexsorted as a whole it traced 9.8 MB, and
        row by row 3.2 MB: one int64 table of the faces' columns and one of
        their signs."""
        bc = BarCochains(builtin_group("q8"))
        bc.csr(4)  # imports and first-call allocations
        tracemalloc.start()
        try:
            bc.csr(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20, peak


class TestCsrBuilds:
    def test_csr_only_for_factored_degrees(self, monkeypatch):
        """Cocycle checks apply D_{n+1} from its faces: a CSR is built only
        for a degree that is factored, once, and never again after."""
        built, applied = [], []
        build, apply = BarCochains.csr, BarCochains.matvec

        def csr(bc, n, cleared=()):
            built.append(n)
            return build(bc, n, cleared)

        def matvec(bc, n, vec):
            applied.append((n, n in bc._facts))
            return apply(bc, n, vec)

        monkeypatch.setattr(BarCochains, "csr", csr)
        monkeypatch.setattr(BarCochains, "matvec", matvec)
        G = builtin_group("s3")  # a fresh group: its caches start empty
        sys = cohomology_system(G)
        sys.integral_basis(2)
        x = cohomology_group(G, 2, 1).basis[0]
        assert sys.verify_cocycle(x)
        bockstein_delta(1, x)
        assert sys.mod_coords(1, 2, x.vector) == [1]
        pth_power_preimage(1, x)
        assert sorted(built) == sorted(set(built))
        assert set(built) == set(sys.bc._facts)
        assert (3, False) in applied


# the clearing agreement runs in every degree up to 7 whose D_n has at most
# this many rows
_CLEARED_CELLS = 3200


class TestClearing:
    """BarCochains.fact(n) factors D_n without the columns P of D_{n-1}'s
    +-1 pivot rows; it must answer every image question as the whole D_n
    does."""

    @pytest.mark.parametrize("name", BUILTIN_GROUPS)
    def test_cleared_agrees_with_full(self, groups, name):
        G = groups[name]
        bc = bar_cochains(G)
        rng = random.Random(name)
        degrees = [n for n in range(1, 8) if bc.rank(n) <= _CLEARED_CELLS]
        cleared_any = False
        for n in degrees:
            full = full_fact(G, n)
            f = bc.fact(n)
            P = bc.fact(n - 1).piv_rows if n >= 2 else []
            cleared_any |= bool(P)
            assert not set(f._indices.tolist()) & set(P)
            x = [rng.randint(-2, 2) for _ in range(bc.rank(n - 1))]
            image = bc.matvec(n, x)
            bumped = image[:]
            bumped[rng.randrange(len(bumped))] += 1
            vectors = [image, bumped,
                       [rng.randint(-3, 3) for _ in range(bc.rank(n))]]
            for m in (0, 2, 3, 4, 6):
                where = (name, n, m)
                assert f.coker_invariants(m) == full.coker_invariants(m), where
                for v in vectors:
                    assert f.in_image(v, m) == full.in_image(v, m), where
                assert f.in_image(image, m), where
                y = f.solve(image, m)
                assert not any(y[j] for j in P), where
                assert [(a - b) % m if m else a - b for a, b in
                        zip(bc.matvec(n, y), image)] == [0] * len(image), where
            reps = f.torsion_reps()
            assert [d for d, _ in reps] == [d for d, _ in full.torsion_reps()]
            for d, w in reps:
                assert not any(bc.matvec(n + 1, w)), (name, n)
                assert full.in_image([d * v for v in w])
                for p in factorize(d):
                    assert not full.in_image([d // p * v for v in w])
        assert cleared_any or G.order == 2


class TestCochainComplex:
    def test_periodic_cochain_complex(self):
        cc = CochainComplex(periodic_resolution_cyclic(3, 5), 0)
        assert cc.verify_dd_zero()
        assert cc.cohomology_invariants(2) == [3]
        assert cc.cohomology_invariants(1) == []
        cc2 = CochainComplex(periodic_resolution_cyclic(2, 5), 2)
        assert cc2.verify_dd_zero()
        assert cc2.cohomology_invariants(3) == [2]

    def test_bar_cochain_complex_small(self):
        cc = CochainComplex(bar_resolution(cyclic(2), 4), 0)
        assert cc.verify_dd_zero()
        assert cc.cohomology_invariants(2) == [2]


class TestGroupCaches:
    def test_caches_are_bounded(self):
        """builtin_group returns a fresh group on every call; the per-group
        caches keep at most GROUP_CACHE_SIZE of them."""
        for _ in range(GROUP_CACHE_SIZE + 1):
            G = builtin_group("c2")
            sys = cohomology_system(G)
            assert cohomology_system(G) is sys
            assert bar_cochains(G) is sys.bc
            assert cohomology_system.cache_info().currsize <= GROUP_CACHE_SIZE
            assert bar_cochains.cache_info().currsize <= GROUP_CACHE_SIZE

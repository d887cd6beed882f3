"""The numpy kernels against plain python-int reference loops.

The references below, and ``oracles.backsub`` for back-substitution, apply
one op at a time with python integers, so they are exact by construction; the kernels must agree with them bit for bit,
over Z and mod m, on both sides of every int64/object-dtype boundary.
"""

import random

import numpy as np
import pytest

from cohomkit import kernels
from cohomkit.groups import builtin_group
from cohomkit.exact.sparse import coo_to_csr
from cohomkit.resolutions import BarCochains, bar_cochains
import oracles
from oracles import bar_resolution

# -- python-int references ----------------------------------------------------


def ref_replay(vec, log, m=0, reverse=False):
    aa, qq, sources, lengths, rounds = log
    src = np.repeat(sources, lengths).tolist()
    neg = [False] * len(src)
    for s, e, _growth, is_neg in rounds:
        neg[s:e] = [is_neg] * (e - s)
    ops = list(zip(aa.tolist(), src, neg, np.asarray(qq).tolist()))
    v = [int(x) % m if m else int(x) for x in vec]
    for a, b, neg, q in (reversed(ops) if reverse else ops):
        if neg:
            v[a] = -v[a]
        elif reverse:
            v[a] = v[a] + q * v[b]
        else:
            v[a] = v[a] - q * v[b]
        if m:
            v[a] %= m
    return v


def ref_matvec(indptr, indices, data, vec, m=0):
    out = []
    for r in range(len(indptr) - 1):
        acc = sum(int(data[k]) * int(vec[indices[k]])
                  for k in range(indptr[r], indptr[r + 1]))
        out.append(acc % m if m else acc)
    return out


# -- logs with the engine's invariants ----------------------------------------


def random_batches(rng, n, nbatches, maxq=5, m=0):
    """Rounds (targets, source, multipliers) as the elimination emits them:
    one source row and distinct targets, never the source, or a run of
    batches (targets, (sources, lengths), multipliers) as phase 1 passes a
    round, whose batches all reach one common target and never one of the
    run's sources; over Z some rounds are NEGs."""
    def multipliers(count):
        return [rng.randrange(1, m) if m else
                rng.choice([q for q in range(-maxq, maxq + 1) if q])
                for _ in range(count)]

    batches = []
    for _ in range(nbatches):
        if n >= 6 and rng.random() < 0.25:
            srcs = rng.sample(range(n), rng.randint(2, 3))
            others = [r for r in range(n) if r not in srcs]
            common = rng.choice(others)
            targets, lens = [], []
            for _ in srcs:
                rest = rng.sample([r for r in others if r != common],
                                  rng.randint(0, min(3, len(others) - 1)))
                targets += sorted([common] + rest)
                lens.append(len(rest) + 1)
            batches.append((np.array(targets), (np.array(srcs),
                                                np.array(lens)),
                            multipliers(len(targets))))
            continue
        src = rng.randrange(n)
        if not m and rng.random() < 0.1:
            batches.append(([src], src, None))
            continue
        others = [r for r in range(n) if r != src]
        targets = rng.sample(others, rng.randint(1, min(6, len(others))))
        batches.append((targets, src, multipliers(len(targets))))
    return batches


def random_log(rng, n, nbatches, maxq=5, m=0):
    return kernels.make_log(random_batches(rng, n, nbatches, maxq, m))


def check_rounds(log):
    """The invariants the round replay relies on: the rounds tile the log
    and no batch crosses a round; a batch's targets are distinct; no target
    of a round is one of its sources; a NEG is a round of one op; and the
    stored growth is k * max|q|, k the most ops that one target takes in
    the round."""
    aa, qq, sources, lengths, rounds = log
    src = np.repeat(sources, lengths)
    assert len(aa) == len(qq) == len(src)
    assert [r[0] for r in rounds] == [0] + [r[1] for r in rounds[:-1]]
    assert (rounds[-1][1] if rounds else 0) == len(aa)
    ends = set(np.cumsum(lengths).tolist())
    assert {e for _, e, _, _ in rounds} <= ends
    for s, e in zip([0] + sorted(ends), sorted(ends)):
        assert len(set(aa[s:e].tolist())) == e - s
    for s, e, growth, neg in rounds:
        assert s < e
        targets = aa[s:e].tolist()
        k = max(targets.count(t) for t in targets)
        assert growth == k * max(abs(int(q)) for q in qq[s:e])
        if neg:
            assert targets == src[s:e].tolist() and e - s == 1
            assert qq[s] == 0
        else:
            assert not set(targets) & set(src[s:e].tolist())


@pytest.mark.parametrize("m", [8, 9, 2**61 - 1, 2**64 + 13])
def test_residues(m):
    """Canonical residues, int64 when m fits: an int64 array already in
    [0, m) comes back as an equal copy, and every other entry is reduced,
    m itself and negative entries included."""
    for vec in ([0, 1, m - 1], [0, m - 1, m], [-1, 5, -m]):
        v = np.array(vec, dtype=np.int64 if m < 2**62 else object)
        got = kernels.residues(v, m)
        assert got.tolist() == [x % m for x in vec] and got is not v
        assert got.dtype == (np.int64 if m < 2**63 else object)


# -- replay --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_oplog_mod_parity(seed):
    rng = random.Random(seed)
    n, m = 40, 9
    log = random_log(rng, n, 60, m=m)
    check_rounds(log)
    vec = [rng.randrange(-20, 20) for _ in range(n)]
    fwd = kernels.apply_oplog_mod(vec, log, m)
    assert fwd == ref_replay(vec, log, m)
    assert kernels.apply_oplog_mod(vec, log, m, reverse=True) == \
        ref_replay(vec, log, m, reverse=True)
    assert kernels.apply_oplog_mod(fwd, log, m, reverse=True) == \
        [x % m for x in vec]
    # a power of two, whose residues are taken by a mask
    m = 8
    log = random_log(rng, n, 60, m=m)
    fwd = kernels.apply_oplog_mod(vec, log, m)
    assert fwd == ref_replay(vec, log, m)
    assert kernels.apply_oplog_mod(fwd, log, m, reverse=True) == \
        [x % m for x in vec]


@pytest.mark.parametrize("seed", range(5))
def test_oplog_int_parity_and_inverse(seed):
    rng = random.Random(100 + seed)
    n = 30
    log = random_log(rng, n, 40, maxq=3)
    check_rounds(log)
    vec = [rng.randint(-5, 5) for _ in range(n)]
    fwd = kernels.apply_oplog_int(vec, log)
    assert fwd == ref_replay(vec, log)
    assert kernels.apply_oplog_int(vec, log, reverse=True) == \
        ref_replay(vec, log, reverse=True)
    # the reverse replay is the exact inverse of the forward replay
    assert kernels.apply_oplog_int(fwd, log, reverse=True) == vec


def test_empty_log():
    log = kernels.make_log([])
    assert [len(x) for x in log] == [0] * 5
    assert kernels.apply_oplog_int([3, -4], log) == [3, -4]
    assert kernels.apply_oplog_mod([3, -4], log, 5, reverse=True) == [3, 1]


def doubling_log(nbatches):
    """Batches that add twice row 0 to row 1, then twice row 1 to row 0,
    and so on (q = -2), each also subtracting twice its source from row 2
    (q = 2): the entries grow geometrically, so the Z bound crosses 2^62
    mid-replay."""
    batches = []
    for k in range(nbatches):
        src, dst = (0, 1) if k % 2 == 0 else (1, 0)
        batches.append(([dst, 2], src, [-2, 2]))
    return kernels.make_log(batches)


def test_int_overflow_falls_back_exactly():
    log = doubling_log(120)
    vec = [3, 1, 0]
    fwd = kernels.apply_oplog_int(vec, log)
    want = ref_replay(vec, log)
    assert max(abs(x) for x in want) > 2**100  # far past int64
    assert fwd == want
    assert kernels.apply_oplog_int(fwd, log, reverse=True) == vec


def test_int_replay_huge_input_and_multiplier():
    rng = random.Random(7)
    batches = random_batches(rng, 12, 20, maxq=4)
    big = kernels.make_log([(t, src, q and [x * 2**70 for x in q])
                            for t, src, q in batches])
    log = kernels.make_log(batches)  # make_log empties the list it packs
    assert big[1].dtype == object
    vec = [rng.randint(-9, 9) * 2**65 for _ in range(12)]
    for lg in (log, big):
        assert kernels.apply_oplog_int(vec, lg) == ref_replay(vec, lg)


@pytest.mark.parametrize("m, q", [(2, 2), (9, 9)])
def test_mod_round_of_multiples_of_m_past_int64(m, q):
    """A round runs unreduced and leaves v[1] = -q, a nonzero multiple of
    m; the next round's multiplier is past int64.  Its bound sends v to
    residues, and the round's sources are then 0 mod m, so the round does
    nothing mod m and is skipped without casting its multiplier."""
    log = kernels.make_log([([1], 0, [q]), ([2], 1, [2**70])])
    check_rounds(log)
    assert log[1].dtype == object
    for vec in ([1, 0, 0], [1, 0, 5]):
        for rev in (False, True):
            assert kernels.apply_oplog_mod(vec, log, m, reverse=rev) == \
                ref_replay(vec, log, m, reverse=rev)
            block = np.array([vec, vec[::-1]]).T
            assert block_list(kernels.apply_oplog_mod(
                block, log, m, reverse=rev)) == by_columns(
                kernels.apply_oplog_mod, block, log, m, reverse=rev)


@pytest.mark.parametrize("m", [2**61 - 1, 2**62 + 1, 2**64 + 13])
def test_mod_replay_past_int64_keeps_residues(m):
    """Mod an m whose residues' products pass 2^62, the doubling log moves
    v to object dtype early, where each round reduces its sources and its
    multipliers, and the replay agrees with the reference."""
    log = doubling_log(120)
    vec = [3, 1, m - 1]
    for rev in (False, True):
        assert kernels.apply_oplog_mod(vec, log, m, reverse=rev) == \
            ref_replay(vec, log, m, reverse=rev)
    fwd = kernels.apply_oplog_mod(vec, log, m)
    assert kernels.apply_oplog_mod(fwd, log, m, reverse=True) == vec


def test_multiplicity_alone_crosses_int64():
    """One round in which eight sources, each 2^60, all reach one target
    with q = -1: max|v| + max|x| max|q| is 2^61, below 2^62, and only the
    multiplicity k = 8 in the stored growth takes the bound past it.  The
    target's sum, 9 * 2^60, is past int64, and mod an m near 2^60 the
    residues' sum is too.  The replay agrees with the reference, over Z and
    mod m, forward and reverse."""
    srcs = np.arange(1, 9)
    log = kernels.make_log([(np.zeros(8, dtype=np.int64),
                             (srcs, np.ones(8, dtype=np.int64)), [-1] * 8)])
    check_rounds(log)
    assert log[4] == [(0, 8, 8, False)]
    vec = [2**60] * 9
    fwd = kernels.apply_oplog_int(vec, log)
    assert fwd[0] == 9 * 2**60 and fwd == ref_replay(vec, log)
    for rev in (False, True):
        assert kernels.apply_oplog_int(vec, log, reverse=rev) == \
            ref_replay(vec, log, reverse=rev)
        for m in (2**60 + 3, 2**61 - 1):
            assert kernels.apply_oplog_mod(vec, log, m, reverse=rev) == \
                ref_replay(vec, log, m, reverse=rev)
    assert kernels.apply_oplog_int(fwd, log, reverse=True) == vec


def test_make_log_mixed_batches():
    """One log from every kind of batch the elimination emits: lists (the
    dict loop, phase 2), int8 arrays (the dense block), a NEG, and a
    multiplier past 2^63.  It is packed as given, a round per batch, and
    replays like the python-int reference over Z and mod m, forward and
    reverse.  Batches passed as one run pack to the same ops, one round."""
    batches = [([2, 3], 0, [2, -1]),
               (np.array([2, 3, 4], dtype=np.int64), 1,
                np.array([-1, 1, 127], dtype=np.int8)),
               ([4], 4, None),
               ([0, 1], 3, [2**64 + 5, -3]),
               ([2], 0, [-(2**63)])]
    given = list(batches)
    log = kernels.make_log(given)
    assert given == []  # make_log empties the list it packs
    check_rounds(log)
    assert log[0].tolist() == [2, 3, 2, 3, 4, 4, 0, 1, 2]
    assert log[1].dtype == object
    assert log[1].tolist() == [2, -1, -1, 1, 127, 0, 2**64 + 5, -3, -(2**63)]
    assert log[2].tolist() == [0, 1, 4, 3, 0]
    assert log[3].tolist() == [2, 3, 1, 2, 1]
    assert log[4] == [(0, 2, 2, False), (2, 5, 127, False), (5, 6, 0, True),
                      (6, 8, 2**64 + 5, False), (8, 9, 2**63, False)]
    # the first two batches as one run, as phase 1 passes a round: the
    # same ops in one round, where rows 2 and 3 take two ops each
    run = (np.array([2, 3, 2, 3, 4]), (np.array([0, 1]), np.array([2, 3])),
           np.array([2, -1, -1, 1, 127]))
    packed = kernels.make_log([run] + batches[2:])
    check_rounds(packed)
    assert packed[4] == [(0, 5, 2 * 127, False)] + log[4][2:]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(packed[:4], log[:4]))
    vec = [3, -1, 4, 1, -5]
    for rev in (False, True):
        for lg in (log, packed):
            assert kernels.apply_oplog_int(vec, lg, reverse=rev) == \
                ref_replay(vec, log, reverse=rev)
            for m in (2, 9, 2**64 + 13):
                assert kernels.apply_oplog_mod(vec, lg, m, reverse=rev) == \
                    ref_replay(vec, log, m, reverse=rev)
    assert kernels.apply_oplog_int(kernels.apply_oplog_int(vec, log), log,
                                   reverse=True) == vec


@pytest.mark.parametrize("m", [
    3037000500,        # largest m with (m-1)^2 + (m-1) < 2^63: int64
    3037000501,        # just past the boundary: object dtype
    2**40 + 15,
    2**40,             # a power of two, reduced by a mask
    2**64 + 13,        # residues themselves exceed int64
    2**64,
])
def test_modulus_boundary(m):
    assert ((m - 1) ** 2 + (m - 1) < 2**63) == (m == 3037000500)
    rng = random.Random(m % 1000)
    log = random_log(rng, 20, 30, m=m)
    vec = [rng.randrange(m) for _ in range(20)]
    for rev in (False, True):
        assert kernels.apply_oplog_mod(vec, log, m, reverse=rev) == \
            ref_replay(vec, log, m, reverse=rev)
    indptr, indices, data = random_csr(rng, 15, 20, vals=[m - 1, 1, m - 2])
    assert kernels.csr_matvec_mod(indptr, indices, data, vec, m) == \
        ref_matvec(indptr, indices, data, vec, m)


# -- matvec --------------------------------------------------------------------


def random_csr(rng, nrows, ncols, vals=(-1, 1, 2)):
    indptr, indices, data = [0], [], []
    for _ in range(nrows):
        cols = sorted(rng.sample(range(ncols), rng.randint(0, 5)))
        indices.extend(cols)
        data.extend(rng.choice(vals) for _ in cols)
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64), kernels.int_array(data))


@pytest.mark.parametrize("seed", range(3))
def test_csr_matvec_parity(seed):
    rng = random.Random(200 + seed)
    indptr, indices, data = random_csr(rng, 25, 18)
    vec = [rng.randint(-6, 6) for _ in range(18)]
    assert kernels.csr_matvec_int(indptr, indices, data, vec) == \
        ref_matvec(indptr, indices, data, vec)
    assert kernels.csr_matvec_mod(indptr, indices, data, vec, 7) == \
        ref_matvec(indptr, indices, data, vec, 7)
    # past the int64 bound the product switches to python ints
    huge = [v * 2**61 for v in vec]
    assert kernels.csr_matvec_int(indptr, indices, data, huge) == \
        ref_matvec(indptr, indices, data, huge)


def test_csr_matvec_empty_rows_and_matrix():
    indptr = np.array([0, 0, 2, 2], dtype=np.int64)
    indices = np.array([0, 1], dtype=np.int64)
    data = np.array([2, -1], dtype=np.int64)
    assert kernels.csr_matvec_int(indptr, indices, data, [5, 3]) == [0, 7, 0]
    empty = np.zeros(0, dtype=np.int64)
    assert kernels.csr_matvec_mod(np.zeros(3, dtype=np.int64), empty, empty,
                                  [1], 5) == [0, 0]


# -- back-substitution ---------------------------------------------------------


def frozen_rows(rng, npiv, ncols, entry):
    """A triangular system as phase 1 freezes it: pivot t, +-1, in column
    t, the pivots in four rounds of consecutive columns, each row holding
    other entries, ``entry(rng)`` each, only in non-pivot columns and in
    the pivot columns of later rounds.  Returns the rows as the
    reference's pool (starts, lens, cols, vals), each pivot entry first,
    the pivot signs, and the rows as the engine's log: per round, an op
    x[t] -= -pv w x[c] for each entry w in column c of row t."""
    cuts = sorted(rng.sample(range(1, npiv), 3))
    starts, lens, cols, vals, runs = [], [], [], [], []
    for lo, hi in zip([0] + cuts, cuts + [npiv]):
        tt, ss, qq = [], [], []
        for t in range(lo, hi):
            pv = rng.choice([1, -1])
            later = sorted(rng.sample(range(hi, ncols), rng.randint(0, 3)))
            w = [entry(rng) for _ in later]
            starts.append(len(cols))
            lens.append(1 + len(later))
            cols += [t] + later
            vals += [pv] + w
            tt += [t] * len(later)
            ss += later
            qq += [-pv * v for v in w]
        if tt:
            runs.append((tt, (ss, [1] * len(ss)), qq))
    pivsign = [vals[s] for s in starts]
    return (starts, lens, cols, vals), pivsign, kernels.make_log(runs)


def small(rng):
    return rng.randint(-3, 3) or 1


def large(rng):
    """Entries near 2^40: a chain of two rows takes the solution past 2^62
    from small right-hand sides."""
    return rng.choice([1, -1]) * rng.randint(2**40, 2**41)


@pytest.mark.parametrize("seed", range(3))
def test_backsub_parity(seed):
    """Back-substitution replays the frozen rows' log in reverse and agrees
    with the per-entry reference over Z and mod m, pivots of both signs,
    also where the solution crosses 2^62 mid-solve (``large``): over Z,
    mod 2^61 - 1, whose residues times the multipliers pass 2^62 at once,
    and mod 2^64 + 13, past int64 from the start."""
    for entry in (small, large):
        backsub_parity(random.Random(300 + seed), entry)


def backsub_parity(rng, entry):
    npiv, ncols = 12, 16
    pool, pivsign, log = frozen_rows(rng, npiv, ncols, entry)
    check_rounds(log)
    rhs = [rng.randint(-5, 5) for _ in range(npiv)]
    x0 = [0] * npiv + [rng.randint(-2, 2) for _ in range(ncols - npiv)]

    def row_sums(x, m=0):
        starts, lens, cols, vals = pool
        out = [sum(vals[k] * x[cols[k]] for k in range(s, s + n))
               for s, n in zip(starts, lens)]
        return [v % m for v in out] if m else out

    pivcol = list(range(npiv))
    xi = kernels.backsub_mod(log, pivcol, pivsign, rhs, x0, 0)
    assert xi == oracles.backsub(pool, pivcol, pivsign, rhs, x0)
    assert xi[npiv:] == x0[npiv:]
    assert row_sums(xi) == rhs  # each pivot row equation holds over Z
    if entry is large:
        assert max(map(abs, xi)) >= 2**62
    for m in (9, 2**40 + 15, 2**61 - 1, 2**64 + 13):
        # the +-1 pivots are their own inverses mod m
        xm = kernels.backsub_mod(log, pivcol, pivsign, rhs, x0, m)
        assert xm == [v % m for v in xi]
        assert xm == oracles.backsub(pool, pivcol, pivsign, rhs, x0, m)
        assert row_sums(xm, m) == [r % m for r in rhs]


# -- real factorizations -------------------------------------------------------


@pytest.mark.parametrize("group,n,m", [("s3", 5, 0), ("s3", 5, 2),
                                       ("q8", 4, 0), ("q8", 4, 2)])
def test_factorization_batches_are_well_formed(group, n, m):
    """The Z log and the frozen rows' log of a real factorization are well
    batched, and the Z log replays exactly; with m set, its replay mod m
    (which reduces the multipliers itself) equals its replay over Z
    reduced mod m, for m = 2, 9 and one modulus past the int64 bound."""
    f = bar_cochains(builtin_group(group)).fact(n)
    check_rounds(f.log)
    check_rounds(f.pivot_log)
    # back-substitution's order: no frozen row holds the pivot column of a
    # row of its own round or of an earlier one
    aa, _, sources, lengths, rounds = f.pivot_log
    src, solved = np.repeat(sources, lengths), set()
    for s, e, _, _ in rounds:
        solved |= set(aa[s:e].tolist())
        assert not solved & set(src[s:e].tolist())
    rng = random.Random(n)
    vec = [rng.randint(-2, 2) for _ in range(f.nrows)]
    for rev in (False, True):
        want = kernels.apply_oplog_int(vec, f.log, reverse=rev)
        if not m:
            assert want == ref_replay(vec, f.log, reverse=rev)
            continue
        for mod in (2, 9, 2**40 + 15):
            assert kernels.apply_oplog_mod(vec, f.log, mod, reverse=rev) == \
                [x % mod for x in want], mod


@pytest.mark.parametrize("vals, dtype", [
    ([], np.int64),
    ([3, -7, 2**63 - 1, -(2**63) + 1], np.int64),
    ([True, 2], np.int64),
    ([1, 2**63], object),
    ([1, -(2**63) - 1], object),
    ([1, -(2**63)], object),  # fits int64, but its magnitude does not
    ([np.uint64(2**63)], object),
    ([2**70, -5], object),
    (np.array([-(2**63), 5]), object),
    (np.array([2**63, 5], dtype=np.uint64), object),
    (np.array([2**63 - 1, 5], dtype=np.uint64), np.int64),
    (np.zeros((2, 0, 0), dtype=object), np.int64),
    (np.zeros((2, 0, 3), dtype=np.uint8), np.int64),
])
def test_int_array_dtype(vals, dtype):
    """int64 exactly when every |entry| < 2^63, else python ints; an array
    keeps its shape, axes of length 0 included."""
    got = kernels.int_array(vals)
    assert got.dtype == dtype
    assert got.shape == np.shape(vals)
    flat = got.ravel().tolist()
    assert flat == [int(v) for v in np.asarray(vals, dtype=object).ravel()]
    assert all(type(v) is int for v in flat)


@pytest.mark.parametrize("as_array", [False, True])
def test_minus_two_to_the_63_is_exact(as_array):
    """-2^63 fits int64 but its magnitude does not: an int64 array holding
    it is widened like a list, so the bounds that read max|entry| hold.  The
    bar matvec is checked unfactored (the face rule) and factored (the
    factorization's CSR) against the dense dual differential."""
    def seq(vals):
        return np.array(vals, dtype=np.int64) if as_array else vals

    low = -(2**63)
    csr = coo_to_csr(1, 1, [0, 0], [0, 0], seq([low, low]))
    assert [a.tolist() for a in csr] == [[0, 1], [0], [2 * low]]
    assert kernels.csr_matvec_int(np.array([0, 1]), np.array([0]),
                                  np.array([2]), seq([low])) == [2 * low]
    G = builtin_group("c3")
    want = (bar_resolution(G, 2).dual_differential(2)
            @ np.array([low, 0], dtype=object)).tolist()
    for factored in (False, True):
        bc = BarCochains(G)
        if factored:
            bc.fact(2)
        assert bc.matvec(2, seq([low, 0])) == want


# -- blocks --------------------------------------------------------------------
# A block, the columns of an (n, k) array, answers as its columns do one by
# one; the int64/object choice is made once for the whole block.


def by_columns(kernel, block, *args, **kwargs):
    """``kernel`` on each column of ``block``, stacked back as columns."""
    return np.array([kernel(col, *args, **kwargs) for col in block.T],
                    dtype=object).T.tolist()


def block_list(result):
    assert isinstance(result, np.ndarray) and result.ndim == 2
    return result.tolist()


@pytest.mark.parametrize("seed", range(3))
def test_replay_block_equals_columns(seed):
    rng = random.Random(400 + seed)
    n = 25
    log = random_log(rng, n, 50, maxq=4)
    block = np.array([[rng.randint(-6, 6) for _ in range(4)]
                      for _ in range(n)], dtype=np.int64)
    for rev in (False, True):
        assert block_list(kernels.apply_oplog_int(block, log, reverse=rev)) \
            == by_columns(kernels.apply_oplog_int, block, log, reverse=rev)
        for m in (2, 9, 2**64 + 13):
            assert block_list(kernels.apply_oplog_mod(
                block, log, m, reverse=rev)) == by_columns(
                    kernels.apply_oplog_mod, block, log, m, reverse=rev)
    # a block of one column replays as that column
    one = block[:, :1]
    assert block_list(kernels.apply_oplog_int(one, log)) == \
        [[x] for x in kernels.apply_oplog_int(one[:, 0], log)]


def test_replay_block_one_column_crosses_int64():
    """Only column 1 grows past 2^62 mid-replay; the whole block moves to
    python ints there, and every column stays exact."""
    log = doubling_log(120)
    block = np.array([[0, 3, 0], [0, 1, 0], [5, 0, -2]], dtype=np.int64)
    fwd = kernels.apply_oplog_int(block, log)
    assert fwd.dtype == object
    assert fwd.tolist() == by_columns(kernels.apply_oplog_int, block, log)
    assert max(abs(x) for x in fwd[:, 1]) > 2**100
    assert fwd[:, 0].tolist() == [0, 0, 5] and fwd[:, 2].tolist() == [0, 0, -2]
    back = kernels.apply_oplog_int(fwd, log, reverse=True)
    assert back.tolist() == block.tolist()


def test_csr_matvec_block_across_int64():
    rng = random.Random(500)
    indptr, indices, data = random_csr(rng, 25, 18)
    block = np.array([[rng.randint(-6, 6) for _ in range(3)]
                      for _ in range(18)], dtype=np.int64)
    for m in (0, 7):
        def matvec(vec):
            if m:
                return kernels.csr_matvec_mod(indptr, indices, data, vec, m)
            return kernels.csr_matvec_int(indptr, indices, data, vec)
        assert block_list(matvec(block)) == by_columns(matvec, block)
    # one column past the int64 bound makes the whole product python ints
    wide = block.astype(object)
    wide[:, 1] *= 2**61
    got = kernels.csr_matvec_int(indptr, indices, data, wide)
    assert got.dtype == object
    assert got.T.tolist() == [ref_matvec(indptr, indices, data, col)
                              for col in wide.T.tolist()]


@pytest.mark.parametrize("scale", [1, 2**29, 2**30, 2**61, 2**70])
@pytest.mark.parametrize("m", [0, 7, 2**64 + 13])
def test_matmul_exact_across_int64(scale, m):
    """A batch of products in python ints: int64 below the bound
    s * max|a| * max|b| < 2^62, object past it, and an int64 result
    whenever its entries fit."""
    rng = random.Random(scale % 997 + m % 89)
    a = [[scale * rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    b = [[[scale * rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
         for _ in range(2)]
    want = [[[sum(a[i][k] * bk[k][j] for k in range(4)) for j in range(5)]
             for i in range(3)] for bk in b]
    if m:
        want = [[[v % m for v in row] for row in mat] for mat in want]
    got = kernels.matmul(a, b, m)
    assert got.tolist() == want
    fits = all(abs(v) < 2**63 for mat in want for row in mat for v in row)
    assert got.dtype == (np.int64 if fits else object)


def test_backsub_block_equals_columns():
    rng = random.Random(600)
    npiv, ncols = 8, 12
    for entry in (small, large):
        pool, pivsign, log = frozen_rows(rng, npiv, ncols, entry)
        rhs = np.array([[rng.randint(-5, 5) for _ in range(3)]
                        for _ in range(npiv)], dtype=np.int64)
        x0 = np.array([[0] * 3] * npiv + [[rng.randint(-2, 2)
                                           for _ in range(3)]
                                          for _ in range(ncols - npiv)])
        pivcol = list(range(npiv))
        # powers of two reduce by a mask, on both sides of int64; inputs
        # already reduced are not divided again
        for m in (0, 8, 9, 2**61 - 1, 2**64, 2**64 + 13):
            want = [oracles.backsub(pool, pivcol, pivsign, r, x, m)
                    for r, x in zip(rhs.T, x0.T)]
            ins = [(rhs, x0)]
            if m:
                ins.append((kernels.residues(rhs, m), kernels.residues(x0, m)))
            for r, x in ins:
                got = kernels.backsub_mod(log, pivcol, pivsign, r, x, m)
                assert block_list(got) == \
                    np.array(want, dtype=object).T.tolist(), (entry, m)

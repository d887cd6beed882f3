"""Sparse echelon factorization of integer matrices over Z, queried over Z
or Z/m.

Bar-resolution cochain differentials are very sparse (at most deg+2 entries
of +-1 per row), and every cohomology computation reduces to questions about
one of them: invariant factors of the cokernel, membership in the image,
torsion representatives, kernels.  This module factors such a matrix once
and answers all of those queries cheaply afterwards.  The relations of a
module presentation go through the same factorization, which also gives a
basis of the ambient lattice adapted to the cokernel.

Matrices come in one format, CSR.  :func:`coo_to_csr` sorts, sums and packs
entries given by position into it; the bar differentials are built in it
row by row (:meth:`cohomkit.resolutions.BarCochains.csr`).  A
factorization keeps the CSR arrays it was given, uncopied, for its
matvec, so a matrix built for it (a bar differential) is held once.

The factorization runs in three logged phases, all over Z:

1. +-1-pivot sparse elimination, in rounds.  The live entries are sorted
   arrays of positions and values, read once off the CSR.  Each round
   picks, in every column with a +-1 entry, the shortest row holding one,
   keys the candidates by Markowitz cost, then by column, and accepts the
   candidates that beat every candidate they conflict with (Luby's rule),
   so that no accepted pivot row holds another accepted pivot's column.
   The round then eliminates all its pivot columns in one vectorised
   sparse update, A_N -= Q A_S, in int64 while a bound allows and in
   python ints past it (T. Davis and P.-C. Yew, SIAM J. Matrix Anal.
   Appl. 11, 1990; M. Luby, SIAM J. Comput. 15, 1986);
2. integer row echelon (gcd steps) on one dense block, the rows and
   columns that phase 1 left, scattered from its arrays: one numpy update
   a step, in int64 while a bound allows and in python ints past it;
3. dense Smith normal form (exact, python ints) on the small echelon block.

One constant, ``_FILL_CAP``, bounds the engine's memory: a phase-1 round
whose live entries would pass it, or a phase-2 block (live rows x
residual columns) of more entries, is refused with SizeCapExceeded.

Row operations from phases 1-2 are recorded in a log of rounds, one per
phase-1 round and one per Euclid batch, each a run of (targets, source,
multipliers) batches whose ops commute, with its growth k * max|q|.  One
loop, :func:`cohomkit.kernels.apply_oplog_int` and ``apply_oplog_mod``,
replays it over any vector or block, a round at a time, for every query
and for the self-check alike.  The batches of a phase-1 round touch no
pivot row of that round, so they commute; they are logged in ascending
pivot column, and the frozen pivot rows, ordered by round and then by
column, form a triangular block with the +-1 pivots on its diagonal.
They are kept as a second log, ``pivot_log``, a round per phase-1 round,
and back-substitution (:func:`cohomkit.kernels.backsub_mod`) replays it
in reverse through the same loop, a level of the triangular solve a
round.
Phase 3 keeps only the Smith transforms U and V of the small block, the
0 x 0 decomposition when phase 2 leaves no echelon row, since the cokernel
basis and the torsion representatives read the columns of U^-1 off
E V = U^-1 D.  Phase 3 is the one place in the package where the dense
Smith form runs, and it is read only by :func:`cohomkit.kernels.matmul`,
for every query and for the self-check, a whole block of vectors at once:
the coordinates of the echelon rows z_E are C = U z_E, reduced by d; a
solution is V[:, :r] Y with D Y = C; a kernel is read off the columns of V.
No column operation is ever applied to the ambient space, so cokernel
coordinates of a vector are read off directly after replaying the log, and
cokernel basis vectors are lifted by one reverse replay of a block.

Every query takes a modulus m, 0 for Z or an integer m >= 2 (any other m is
refused), and starts from one forward read: the vector or block replayed
once through the log.  The logged row operations are unimodular over Z, so
they stay invertible mod every m: a mod-m query replays the same log mod m,
reads the echelon block through its Smith form and gcd(d, m), and
back-substitutes mod m through the +-1 pivots, which are their own
inverses.  One factorization thus answers the questions over Z, over Q (the
free cokernel coordinates) and over every Z/m.

All arithmetic is exact: python integers over Z, or numpy integers of a
width that a bound on the entries shows to be safe; canonical residues over
Z/m.  Pivoting is deterministic, so factorizations (and everything derived
from them) are reproducible.  Every factorization checks itself once, by
Freivalds' test of the logs against the stored rows, and every solution
and kernel by one matvec; each raises InternalCheckFailed if it fails.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .. import kernels
from ..errors import InternalCheckFailed, SizeCapExceeded
from .dense import smith_normal_form


def symmetric_residues(v: np.ndarray, m: int) -> np.ndarray:
    """The entries of the integer array ``v`` as symmetric residues mod m
    (|v| <= m/2), in python ints when m is past int64; v itself for
    m = 0."""
    if not m:
        return v
    v = (v.astype(object) if m >= 1 << 63 else v) % m
    v[v > m // 2] -= m
    return v


def _check_range(idx: np.ndarray, bound: int, what: str):
    if len(idx) and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"{what} index out of range [0, {bound})")


def _check_length(vec, n: int):
    if len(vec) != n:
        raise ValueError(f"vector of length {len(vec)} where {n} expected")


def _check_modulus(m):
    if not (isinstance(m, (int, np.integer)) and (m == 0 or m >= 2)):
        raise ValueError(f"modulus {m!r} where 0 (over Z) or an integer "
                         f">= 2 expected")


def _answer(answers: list, block: bool):
    """A query's answers, a list with one per column of a block, or the
    one answer of a vector."""
    return answers if block else answers[0]


def coo_to_csr(nrows: int, ncols: int, ri, ci, vi):
    """The canonical CSR triple (indptr, indices, data) of the
    ``nrows`` x ``ncols`` matrix with entries ``vi`` at (``ri``, ``ci``).

    Duplicate positions are summed, entries that are or sum to zero are
    dropped, and columns ascend within each row.  ``data`` is int64 when
    every entry fits, else an object array of python ints.  An index
    outside the matrix raises ValueError."""
    ri = np.asarray(ri, dtype=np.int64)
    ci = np.asarray(ci, dtype=np.int64)
    vi = kernels.int_array(vi)
    if not len(ri) == len(ci) == len(vi):
        raise ValueError("COO triple of unequal lengths")
    _check_range(ri, nrows, "row")
    _check_range(ci, ncols, "column")
    order = np.lexsort((ci, ri))
    ri, ci, vi = ri[order], ci[order], vi[order]
    first = np.ones(len(ri), dtype=bool)
    first[1:] = (ri[1:] != ri[:-1]) | (ci[1:] != ci[:-1])
    starts = np.flatnonzero(first)
    if vi.dtype != object and kernels.max_abs(vi) * len(vi) >= 1 << 63:
        vi = vi.astype(object)  # a sum of duplicates could overflow int64
    sums = np.add.reduceat(vi, starts) if len(vi) else vi
    keep = sums != 0
    rows = ri[starts][keep]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return indptr, ci[starts][keep], kernels.int_array(sums[keep])


def _check_csr(nrows, ncols, indptr, indices, data) -> np.ndarray:
    """The positions row * ncols + column of the entries of (indptr,
    indices, data), which phase 1 starts from; ValueError unless it is a
    canonical CSR matrix with ``nrows`` rows and ``ncols`` columns."""
    lens = np.diff(indptr)
    if (len(indptr) != nrows + 1 or indptr[0] != 0 or (lens < 0).any()
            or not indptr[-1] == len(indices) == len(data)):
        raise ValueError(f"malformed CSR matrix with {nrows} rows")
    _check_range(indices, ncols, "column")
    key = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    key *= ncols
    key += indices
    if (key[1:] <= key[:-1]).any() or (data == 0).any():
        raise ValueError("CSR columns must ascend within each row, "
                         "with no stored zeros")
    return key


# Phase 1 refuses a round that would leave more live entries than this, and
# phase 2 a block of more entries.  A live entry takes 16 bytes, its position
# and an int64 value.  While a round picks its pivots it also holds five
# int64 arrays over the live entries (row, column, |value| and the indices
# of their pivots), which it frees before the merge; the merge holds the
# next live entries with their sort order and one sorted copy.  So a round
# takes about 7 words a live entry at most, and the cap keeps phase 1 to a
# few GB; a block entry takes 8 bytes in int64.  Cleared
# q8 D_6 peaks at 583 thousand live entries and s3 D_7 at 393 thousand; the
# largest phase-2 block of the bar complexes is q8 D_6's, 36,322 x 2.
_FILL_CAP = 1 << 26
# the Freivalds check of a factorization runs mod this prime, so that a
# residue times a residue, plus a residue, stays in int64, and reads its
# vector off the powers of a primitive root mod it
_CHECK_PRIME = (1 << 31) - 1
_CHECK_ROOT = 16807
_LIMIT = 1 << 62  # int64 arithmetic is safe while every bound stays below
_NONE = np.iinfo(np.int64).max  # the key of no candidate


def _segments(starts, lens):
    """The indices of the concatenated ranges [start, start + len)."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lens, lens) + np.arange(total)


def _check_vector(n: int) -> np.ndarray:
    """x_i = _CHECK_ROOT^(i + 1) mod _CHECK_PRIME for i < n, the minimal
    standard generator of Park and Miller, each doubling of the prefix one
    multiplication.  A nonzero row d with small entries has d x = 0 only
    if the root is a zero of the polynomial sum d_i t^(i + 1) mod the
    prime; numpy.random would cost each process 15 ms and 6 MB to
    import."""
    x = np.empty(n, dtype=np.int64)
    x[:1] = _CHECK_ROOT
    step, power = 1, _CHECK_ROOT  # power = root^step
    while step < n:
        x[step:2 * step] = x[:min(step, n - step)] * power % _CHECK_PRIME
        step *= 2
        power = power * power % _CHECK_PRIME
    return x


def _by_pivot(at: np.ndarray, k: int) -> np.ndarray:
    """The stable order that groups entries by their pivot's index ``at``
    among ``k``: a radix sort when the indices fit 16 bits."""
    return np.argsort(at.astype(np.uint16) if k <= 1 << 16 else at,
                      kind="stable")


def _round_pivots(row, col, unit, nrows, ncols):
    """A round's pivots, (rows, columns) with the columns ascending, among
    the live entries at (``row``, ``col``), sorted by position, whose
    +-1 entries are at ``unit``.

    Each column with a +-1 entry has a candidate: the shortest row with a
    +-1 entry there, then the lowest, keyed by its Markowitz cost (column
    length - 1)(row length - 1), then by column.  A candidate is accepted
    when its key is less than that of every other candidate it conflicts
    with, (r, c) and (r', c') conflicting when A[r, c'] or A[r', c] is
    nonzero (Luby's rule).  So the least candidate is accepted, and no
    accepted pivot row holds another accepted pivot's column."""
    rowlen = np.bincount(row, minlength=nrows)
    collen = np.bincount(col, minlength=ncols)
    least = np.full(ncols, _NONE)
    ur = row[unit]
    np.minimum.at(least, col[unit], rowlen[ur] * nrows + ur)
    cc = np.flatnonzero(least != _NONE)
    cr = least[cc] % nrows
    ckey = (collen[cc] - 1) * (rowlen[cr] - 1) * ncols + cc
    # the least key of the candidates in an entry's column and of those in
    # its row, over the entries that join a candidate row to a candidate
    # column; each candidate's own pivot entry is one of them
    colkey = np.full(ncols, _NONE)
    colkey[cc] = ckey
    rowkey = np.full(nrows, _NONE)
    np.minimum.at(rowkey, cr, ckey)
    join = np.flatnonzero((colkey[col] != _NONE) & (rowkey[row] != _NONE))
    jr, jc = row[join], col[join]
    by_row = np.full(nrows, _NONE)
    np.minimum.at(by_row, jr, colkey[jc])
    by_col = np.full(ncols, _NONE)
    np.minimum.at(by_col, jc, rowkey[jr])
    ok = (by_row[cr] == ckey) & (by_col[cc] == ckey)
    return cr[ok], cc[ok]


def _pivot_rounds(nrows, ncols, key, val):
    """Phase 1: the +-1 pivots, taken in rounds of independent pivots.

    The live entries are two arrays sorted by position: ``key``, row *
    ncols + column, as :func:`_check_csr` returns it for the CSR, and
    ``val``.  Each round

    - takes a set of independent pivots by :func:`_round_pivots`: no pivot
      row holds another pivot's column, so no pivot row changes during the
      round;
    - eliminates the pivot columns at once, A_N -= Q A_S for the pivot rows
      S and the other rows N: the entries of the pivot columns, joined with
      the pivot rows, give the fill, which is merged into the live entries
      by one stable sort and summed.  The pivot rows retire.  The round's
      arrays over all the live entries are freed before the merge builds
      the next ones.

    A round runs in int64 when the bound max|val| + k max|q| max|w| stays
    below 2^62, where a target row holds at most k of the round's pivot
    columns, q are the multipliers and w the pivot rows' other entries;
    else on python ints.

    Returns the pivots as (rows, columns, values) lists in pivot order, by
    round and then by column; the log's rounds, one run of batches
    (targets, source, multipliers) for each round with targets, a batch
    per pivot in the same order (see :func:`kernels.make_log`); the frozen
    pivot rows' rounds, one run for each round whose rows have an entry
    off the pivot, an op per such entry w, in pivot order and then by
    column: x[pivot column] -= -pv w x[column], which back-substitution
    replays in reverse; and the live entries left, the arrays (key, val),
    for phase 2.
    """
    pivots = ([], [], [])
    batches: list[tuple] = []  # one run of batches a round
    frozen: list[tuple] = []  # one run a round, of the frozen pivot rows
    while True:
        row, col = np.divmod(key, ncols)
        size = np.abs(val)
        unit = np.flatnonzero(size == 1)
        if not len(unit):
            break
        pr, pc = _round_pivots(row, col, unit, nrows, ncols)
        del unit
        k = len(pc)

        at_col = np.full(ncols, -1)
        at_col[pc] = np.arange(k)
        at_row = np.full(nrows, -1)
        at_row[pr] = np.arange(k)
        kc, kr = at_col[col], at_row[row]
        del at_col, at_row
        in_c, in_r = kc >= 0, kr >= 0
        piv = np.flatnonzero(in_c & in_r)
        pv = np.zeros(k, dtype=np.int64)
        pv[kc[piv]] = val[piv]
        # the pivot rows' other entries, by pivot, and the target entries,
        # the pivot columns' other entries, by row
        off = np.flatnonzero(in_r & ~in_c)
        off = off[_by_pivot(kr[off], k)]
        ko, ocol, w = kr[off], col[off], val[off]
        tgt = np.flatnonzero(in_c & ~in_r)
        kt, trow, vt = kc[tgt], row[tgt], val[tgt]
        bound = int(size.max())
        if len(tgt) and len(off):
            bound += (int(np.bincount(trow).max()) * int(size[tgt].max())
                      * int(size[off].max()))
        # the entries that stay, those in no pivot row or column
        stay = ~(in_c | in_r)
        key, val = key[stay], val[stay]
        del row, col, size, kc, kr, in_c, in_r, piv, off, tgt, stay
        wide = bound >= _LIMIT
        if wide != (val.dtype == object):
            val, w, vt = (a.astype(object if wide else np.int64)
                          for a in (val, w, vt))
        q = vt * pv[kt]  # pv is +-1
        del vt

        # the fill, -q w for each target entry and each entry of its pivot
        # row, merged with the entries that stay and summed by position.
        # The stable sort finds them in runs: the entries that stay, and
        # each target entry's share, by row and then by column.
        plen = np.bincount(ko, minlength=k)
        nf = plen[kt]
        src = _segments((np.cumsum(plen) - plen)[kt], nf)
        key = np.concatenate([key, np.repeat(trow * ncols, nf) + ocol[src]])
        val = np.concatenate([val, np.repeat(-q, nf) * w[src]])
        del nf, src
        order = np.argsort(key, kind="stable")
        key = key[order]
        val = val[order]
        del order
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)
        key = key[first]
        val = np.add.reduceat(val, first) if len(val) else val
        del first
        nz = val != 0
        live = np.count_nonzero(nz)
        if live > _FILL_CAP:
            raise SizeCapExceeded(
                f"phase 1 would hold {live:,} live entries, past the cap of "
                f"{_FILL_CAP:,}")
        key, val = key[nz], val[nz]
        del nz

        for acc, part in zip(pivots, (pr, pc, pv)):
            acc += part.tolist()
        # one batch per pivot with targets, the targets ascending, passed
        # to the log as one run
        if len(kt):
            order = _by_pivot(kt, k)
            tlen = np.bincount(kt, minlength=k)
            has = np.flatnonzero(tlen)
            batches.append((trow[order], (pr[has], tlen[has]), q[order]))
        # the frozen pivot rows, a batch per entry off the pivot
        if len(ko):
            frozen.append((pc[ko], (ocol, np.ones(len(ko), np.int64)),
                           -pv[ko] * w))

    return pivots, batches, frozen, (key, val)


def _euclid_echelon(ncols, key, val, batches):
    """Phase 2: Euclidean row echelon on the live entries that phase 1
    left, at positions ``key`` (row * ncols + column, ascending) with
    values ``val``, as one dense (live rows x residual columns) block, its
    ops appended to ``batches``.  A block of more than _FILL_CAP entries is
    refused.

    Column by column, each step takes as its source the row with the least
    nonzero |entry| in the column, then the lowest row, and subtracts q
    times it from every other row holding the column, in (|entry|, row)
    order, with q = entry // source entry (nonzero, since no |entry| is
    less than the source's).  Once one row holds the column, it is negated
    if its entry is negative, a NEG, and leaves the block as the next
    echelon row, with the rows that became zero.  The block is int64 while
    max|target rows| + max|q| max|source row| stays below 2^62, else
    python ints.

    Returns the echelon rows, in order, their rows of the block as an
    object array, and the residual columns."""
    row = key // ncols
    live, at_row = np.unique(row, return_inverse=True)
    res_cols, at_col = np.unique(key - row * ncols, return_inverse=True)
    if len(live) * len(res_cols) > _FILL_CAP:
        raise SizeCapExceeded(
            f"phase 2 would hold a {len(live):,} x {len(res_cols):,} block, "
            f"past the cap of {_FILL_CAP:,} entries")
    val = kernels.int_array(val)
    block = np.zeros((len(live), len(res_cols)), dtype=val.dtype)
    block[at_row, at_col] = val
    echelon_rows, echelon = [], []
    for j in range(len(res_cols)):
        holders = np.flatnonzero(block[:, j])
        while len(holders) > 1:
            holders = holders[np.argsort(np.abs(block[holders, j]),
                                         kind="stable")]
            a, t = holders[0], holders[1:]
            q = block[t, j] // block[a, j]
            if block.dtype != object and (
                    kernels.max_abs(block[t]) + kernels.max_abs(q)
                    * kernels.max_abs(block[a]) >= _LIMIT):
                block, q = block.astype(object), q.astype(object)
            block[t] -= q[:, None] * block[a]
            batches.append((live[t], live[a], q))
            holders = np.flatnonzero(block[:, j])
        stay = (block != 0).any(axis=1)
        if len(holders):
            a = holders[0]
            if block[a, j] < 0:
                batches.append(([live[a]], live[a], None))
                block[a] = -block[a]
            echelon_rows.append(int(live[a]))
            echelon.append(block[a].tolist())
            stay[a] = False
        block, live = block[stay], live[stay]
    echelon = np.array(echelon, dtype=object).reshape(len(echelon_rows),
                                                      len(res_cols))
    return echelon_rows, echelon, res_cols.tolist()


class SparseFactorization:
    """Logged echelon factorization of a sparse integer matrix over Z."""

    def __init__(self, nrows: int, ncols: int, csr):
        """``csr`` is a canonical CSR triple (indptr, indices, data), as
        :func:`coo_to_csr` and ``BarCochains.csr`` return it: ascending
        columns within each row and no stored zeros.  The factorization
        keeps these arrays, uncopied, for :meth:`matvec`, so a caller that
        caches the matrix holds it once."""
        indptr, indices, data = csr
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if not isinstance(data, np.ndarray):
            data = kernels.int_array(data)
        self.nrows = nrows
        self.ncols = ncols
        self._indptr = indptr
        self._indices = indices
        self._data = data
        # phase 1 starts from the entries' positions that the check forms,
        # passed on and not held, so that its first round frees them
        self._eliminate(*_pivot_rounds(
            nrows, ncols, _check_csr(nrows, ncols, indptr, indices, data),
            data))
        self._check_rows()

    @classmethod
    def from_columns(cls, cols, nrows: int, m: int = 0):
        """Factorization of the ``nrows``-row matrix with the given columns.
        Mod m its entries enter as symmetric residues, so that m - 1 is the
        unit -1 and stays an elimination pivot; for m = 0 they enter as
        they are, python ints of any size.  Each column holds ``nrows``
        integers."""
        try:
            A = np.array(cols, dtype=np.int64)
        except OverflowError:  # an entry past int64: python ints
            A = np.array(cols, dtype=object)
        A = symmetric_residues(A.reshape(len(cols), nrows), m)
        ci, ri = np.nonzero(A)
        return cls(nrows, len(cols),
                   coo_to_csr(nrows, len(cols), ri, ci, A[ci, ri]))

    # -- construction ------------------------------------------------------

    def _eliminate(self, pivots, batches, frozen, left):
        # phase 1 took the +-1 pivots, in rounds.  The row-operation log
        # holds one round per elimination round, its batches passed as one
        # run (see kernels.make_log), and the pivot rows are frozen for
        # back-substitution in a log of their own, a round per round.
        piv_rows, piv_cols, piv_vals = pivots
        self.pivot_log = kernels.make_log(frozen)
        # phase 2: Euclidean row echelon on the block of the leftover rows
        echelon_rows, E, res_cols = _euclid_echelon(self.ncols, *left,
                                                    batches)

        self.log = kernels.make_log(batches)

        self.piv_rows = piv_rows
        # the columns and signs as arrays, which back-substitution scatters
        self.piv_cols = np.array(piv_cols, dtype=np.int64)
        self.piv_vals = np.array(piv_vals, dtype=np.int64)
        self.echelon_rows = echelon_rows
        self.res_cols = res_cols
        # a boolean mask: np.setdiff1d imports numpy.ma on its first call
        free = np.ones(self.nrows, dtype=bool)
        free[piv_rows + echelon_rows] = False
        self.zero_rows = np.flatnonzero(free).tolist()

        # phase 3: dense SNF of the echelon block
        self.esnf = smith_normal_form(E)

    def _check_rows(self):
        """Freivalds' check of the factorization: the log L takes A to the
        stored rows R, the frozen pivot rows R_P, the echelon rows and zero
        elsewhere, so L(A x) = R x for every x.  It is checked mod
        _CHECK_PRIME for the one vector of :func:`_check_vector`, with the
        replay and the back-substitution that every query runs.  The pivots
        are +-1, so back-substitution through R_P is a bijection, and it
        gives x back from v_P = (L(A x))_P iff R_P x = v_P.
        InternalCheckFailed if the check fails."""
        p = _CHECK_PRIME
        x = _check_vector(self.ncols)[:, None]  # a block, so arrays return
        v = self._read(self.matvec(x, p), p)[0].T
        want = np.zeros_like(v)
        want[self.piv_rows] = v[self.piv_rows]
        want[self.echelon_rows] = kernels.matmul(self.esnf.source,
                                                 x[self.res_cols], p)
        if ((v != want).any()
                or (self._backsub(v[self.piv_rows], x, p) != x).any()):
            raise InternalCheckFailed(
                "sparse factorization: the replayed log does not take the "
                "matrix to its stored rows")

    # -- queries -----------------------------------------------------------
    # Every query takes the modulus m: 0 answers over Z, m >= 2 over Z/m.
    # Each takes one vector or a block, an (n, k) array of k vectors as its
    # columns: a block replays the log, back-substitutes and multiplies once
    # for all its columns, and a query returns the list of the k answers
    # that the columns give one by one.

    def _read(self, vec, m=0):
        """The one forward read of every query and of the self-check:
        ``vec``, a vector or a block, replayed once through the log (mod m),
        as an array with one row per vector, and whether ``vec`` was a
        block."""
        _check_modulus(m)
        _check_length(vec, self.nrows)
        z = kernels.int_array(
            kernels.apply_oplog_mod(vec, self.log, m) if m
            else kernels.apply_oplog_int(vec, self.log))
        return (z.T if z.ndim == 2 else z[None]), z.ndim == 2

    def _backsub(self, rhs, x, m=0):
        """Fill the pivot columns of ``x``, a vector or a block, through the
        frozen pivot rows; the pivots are +-1, so they are their own
        inverses mod every m."""
        return kernels.backsub_mod(self.pivot_log, self.piv_cols,
                                   self.piv_vals, rhs, x, m)

    def _echelon_diag(self, m=0):
        """Diagonal of the echelon block SNF, reduced against m.  Phase 2
        leaves the block with full row rank, so it has a d_j, nonzero, for
        every echelon row."""
        diag = self.esnf.diagonal()
        return [gcd(d, m) for d in diag] if m else diag

    def coker_invariants(self, m=0) -> list[int]:
        """Invariant factors of coker over Z (0 = free) or Z/m."""
        _check_modulus(m)
        out = [d for d in self._echelon_diag(m) if d > 1]
        nfree = len(self.zero_rows)
        if m:
            out += [m] * nfree
            out.sort()
        else:
            out += [0] * nfree
        return out

    def _coords(self, zt, m):
        """The cokernel coordinates of the read rows ``zt``, one row per
        vector: U turns the echelon rows' values into coordinates, each
        reduced by its d_j (mod m), and the untouched rows follow."""
        ech = (kernels.matmul(zt[:, self.echelon_rows], self.esnf.U.T)
               % kernels.int_array(self._echelon_diag(m)))
        return np.concatenate([ech, zt[:, self.zero_rows]], axis=1)

    def coords(self, vec, m=0):
        """Cokernel coordinates of ``vec``: (values, moduli) in canonical
        order (echelon coordinates, then untouched rows ascending).

        Modulus 0 means a free Z summand; over Z/m free summands have
        modulus m.  Unit-pivot coordinates are omitted (always zero in the
        cokernel)."""
        zt, block = self._read(vec, m)
        mods = self._echelon_diag(m) + [m] * len(self.zero_rows)
        return _answer([(v, list(mods))
                        for v in self._coords(zt, m).tolist()], block)

    def solvable_over_q(self, vec):
        """Whether A x = vec has a rational solution: every free cokernel
        coordinate of vec over Z, one on each row that no pivot reaches,
        is 0."""
        zt, block = self._read(vec)
        return _answer((zt[:, self.zero_rows] == 0).all(axis=1).tolist(),
                       block)

    def in_image(self, vec, m=0):
        zt, block = self._read(vec, m)
        return _answer((self._coords(zt, m) == 0).all(axis=1).tolist(),
                       block)

    def solve(self, b, m=0):
        """Some x with A x = b (over Z, or mod m with residues), or None when
        b is not in the image.  An x that fails A x = b raises
        InternalCheckFailed.

        On the residual columns x = V[:, :r] Y, where D Y = C = U z_E for
        the replayed echelon rows z_E: over Z, Y = C / d; mod m, with
        g = gcd(d, m), Y = (C / g) (d / g)^-1 mod (m / g), the least such
        residue.  b is in the image iff g divides C (g = d over Z) and the
        replayed b is zero on every row that no pivot reaches."""
        zt, block = self._read(b, m)
        diag, g = self.esnf.diagonal(), self._echelon_diag(m)
        C = kernels.matmul(self.esnf.U, zt[:, self.echelon_rows].T)
        gcol = kernels.int_array(g)[:, None]
        ok = ((C % gcol == 0).all(axis=0)
              & (zt[:, self.zero_rows] == 0).all(axis=1))
        k = len(ok)
        if not ok.any():
            return _answer([None] * k, block)
        Y = C // gcol
        if m:
            mg = [m // gi for gi in g]
            inv = [pow(d // gi, -1, mgi) for d, gi, mgi in zip(diag, g, mg)]
            Y = (kernels.matmul(np.diag(kernels.int_array(inv)), Y)
                 % kernels.int_array(mg)[:, None])
        x_res = kernels.matmul(self.esnf.V[:, :len(diag)], Y, m)
        x = np.zeros((self.ncols, k), dtype=x_res.dtype)
        x[self.res_cols] = x_res
        x = self._backsub(zt[:, self.piv_rows].T, x, m)
        b = kernels.residues(b, m) if m else kernels.int_array(b)
        wrong = (kernels.int_array(self.matvec(x, m))
                 != b.reshape(self.nrows, k)).any(axis=0)
        if (wrong & ok).any():
            raise InternalCheckFailed(
                "sparse solve: A x != b after back-substitution")
        return _answer([col if good else None for col, good in
                        zip(x.T.tolist(), ok.tolist())], block)

    def matvec(self, x, m=0):
        _check_length(x, self.ncols)
        if m:
            return kernels.csr_matvec_mod(self._indptr, self._indices,
                                          self._data, x, m)
        return kernels.csr_matvec_int(self._indptr, self._indices,
                                      self._data, x)

    def _echelon_lifts(self, js):
        """Columns j of U^-1 for the echelon block, for j in ``js``, as the
        columns of an (nrows, len(js)) block on the echelon rows, before
        the log carries them back: U E V = D, so column j is
        (E V)[:, j] / d_j."""
        diag = kernels.int_array(self.esnf.diagonal())[js]
        out = np.zeros((self.nrows, len(js)), dtype=object)
        out[self.echelon_rows] = kernels.matmul(self.esnf.source,
                                                self.esnf.V[:, js]) // diag
        return out

    def torsion_reps(self):
        """Representatives for the nonunit torsion of the cokernel over Z:
        list of (invariant factor, vector) pairs."""
        diag = self.esnf.diagonal()
        js = [j for j, d in enumerate(diag) if d > 1]
        lifts = kernels.apply_oplog_int(self._echelon_lifts(js), self.log,
                                        reverse=True)
        return [(diag[j], b) for j, b in zip(js, lifts.T.tolist())]

    def coker_basis(self):
        """A Z-basis b_1, ..., b_nrows of Z^nrows with an order o_i each, as
        (o_i, b_i) pairs, such that the gcd(o_i, m) b_i span the image plus
        m Z^nrows for every m (m = 0 over Z).

        The basis follows :meth:`coords`, so coords(b_i, m) is e_i, reduced
        by the moduli, whenever o_i != 1: the echelon coordinates (o = d_j,
        b = column j of U^-1), the untouched rows (o = 0), then the
        unit-pivot rows (o = 1).  Every d_j is nonzero: phase 2 leaves the
        echelon block in row echelon form, so it has full row rank.  All
        of them are lifted by one reverse replay of a block."""
        diag = self.esnf.diagonal()
        unit = self.zero_rows + self.piv_rows
        block = np.zeros((self.nrows, len(diag) + len(unit)), dtype=object)
        block[:, :len(diag)] = self._echelon_lifts(range(len(diag)))
        block[unit, len(diag) + np.arange(len(unit))] = 1
        orders = diag + [0] * len(self.zero_rows) + [1] * len(self.piv_rows)
        return list(zip(orders, kernels.apply_oplog_int(
            block, self.log, reverse=True).T.tolist()))

    def kernel_basis(self, m=0):
        """Generators of ker(A) over Z or Z/m (torsion directions included):
        the echelon block's kernel on the residual columns, read off V, then
        a unit vector on each column that is neither a pivot nor a residual
        column, all completed through the frozen pivot rows by one
        back-substitution of a block.  Generators that fail A K = 0 raise
        InternalCheckFailed.

        The block's kernel is a Z-basis of {y : E y = 0 (mod m)}: the
        columns of V past the rank r, after (m / gcd(d_j, m)) V_j for j < r
        when m > 0, which vanishes mod m when the gcd is 1 and is dropped."""
        _check_modulus(m)
        r = len(self.echelon_rows)
        gens = self.esnf.V[:, r:]
        if m:
            mult = [m // g for g in self._echelon_diag(m)]
            gens = np.concatenate([self.esnf.V[:, :r] * mult, gens],
                                  axis=1) % m
        gens = kernels.int_array(gens)
        free = np.ones(self.ncols, dtype=bool)
        free[self.piv_cols] = free[self.res_cols] = False
        free = np.flatnonzero(free)
        x = np.zeros((self.ncols, gens.shape[1] + len(free)), dtype=gens.dtype)
        x[self.res_cols, :gens.shape[1]] = gens
        x[free, gens.shape[1] + np.arange(len(free))] = 1
        x = x[:, x.any(axis=0)]
        rhs = np.zeros((len(self.piv_rows), x.shape[1]), dtype=np.int64)
        x = self._backsub(rhs, x, m)
        if kernels.int_array(self.matvec(x, m)).any():
            raise InternalCheckFailed(
                "sparse kernel: A K != 0 after back-substitution")
        return x.T.tolist()

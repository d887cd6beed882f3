"""Sparse echelon factorization of integer matrices over Z, queried over Z
or Z/m.

Bar-resolution cochain differentials are very sparse (at most deg+2 entries
of +-1 per row), and every cohomology computation reduces to questions about
one of them: invariant factors of the cokernel, membership in the image,
torsion representatives, kernels.  This module factors such a matrix once
and answers all of those queries cheaply afterwards.  The relations of a
module presentation go through the same factorization, which also gives a
basis of the ambient lattice adapted to the cokernel.

Matrices come in one format, CSR, and :func:`coo_to_csr` is the one place
where entries given by position are sorted, summed and packed into it.  A
factorization keeps the CSR arrays it was given, uncopied, for its
matvec, so a matrix built for it (a bar differential) is held once.

The factorization runs in three logged phases, all over Z:

1. +-1-pivot sparse elimination.  The pivot column is the one of least
   length, then least index, among the columns that have a +-1 entry; a
   column found without one is blocked and waits until its content
   changes.  The pivot row is the shortest row with a +-1 entry in that
   column, then the lowest index.  Least-length columns keep fill-in low
   on face-map matrices.  Rows start as dicts, one update per entry; once
   the live rows fill in (the next pivot is large, the live rows hold
   many entries, and a dense block of the live rows x live columns takes
   no more memory than the dicts), the phase moves them into one 2-D
   numpy array, in the narrowest integer dtype that its entries allow, and
   finishes there with the same pivot rule, one vectorised update per
   pivot, so the log is the same;
2. integer row echelon on the leftover rows (gcd steps);
3. dense Smith normal form (exact, python ints) on the small echelon block.

Row operations from phases 1-2 are recorded in a log, one (targets, source,
multipliers) batch per pivot or Euclid round, that can be replayed over any
vector (the hot kernels in :mod:`cohomkit.kernels`);
phase 3 keeps only the Smith transforms U and V of the small block, since
the cokernel basis and the torsion representatives read the columns of
U^-1 off E V = U^-1 D.  Phase 3 is the one place in the package where the
dense Smith form runs.  No column operation is ever applied to the ambient
space, so cokernel coordinates of a vector are read off directly after
replaying the log, and a cokernel basis vector is lifted by replaying the
log in reverse.

Every query takes a modulus m (0 for Z).  The logged row operations are
unimodular over Z, so they stay invertible mod every m: a mod-m query
replays the same log mod m, reads the echelon block through its Smith form
and gcd(d, m), and back-substitutes mod m through the +-1 pivots, which are
their own inverses.  One factorization thus answers the questions over Z,
over Q (the free cokernel coordinates) and over every Z/m.

All arithmetic is exact: python integers over Z, or numpy integers of a
width that a bound on the entries shows to be safe; canonical residues over
Z/m.  Pivoting is deterministic, so factorizations (and everything derived
from them) are reproducible.
"""

from __future__ import annotations

from itertools import chain, islice
from math import gcd, inf

import numpy as np

from .. import kernels
from ..errors import InternalCheckFailed, SizeCapExceeded
from .dense import IntMatrix, smith_normal_form

_RESIDUAL_DIM_CAP = 2048
_RESIDUAL_ENTRY_CAP = 4_000_000


def symmetric_residue(v: int, m: int) -> int:
    """v as a symmetric residue mod m (|v| <= m/2); v itself for m = 0."""
    if not m:
        return v
    v %= m
    return v - m if v > m // 2 else v


def _check_range(idx: np.ndarray, bound: int, what: str):
    if len(idx) and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"{what} index out of range [0, {bound})")


def _check_length(vec, n: int):
    if len(vec) != n:
        raise ValueError(f"vector of length {len(vec)} where {n} expected")


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


def _check_csr(nrows, ncols, indptr, indices, data):
    """ValueError unless (indptr, indices, data) is a canonical CSR matrix
    with ``nrows`` rows and ``ncols`` columns."""
    lens = np.diff(indptr)
    if (len(indptr) != nrows + 1 or indptr[0] != 0 or (lens < 0).any()
            or not indptr[-1] == len(indices) == len(data)):
        raise ValueError(f"malformed CSR matrix with {nrows} rows")
    _check_range(indices, ncols, "column")
    rows = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    if (np.diff(rows * ncols + indices) <= 0).any() or (data == 0).any():
        raise ValueError("CSR columns must ascend within each row, "
                         "with no stored zeros")


# Phase 1 moves from dict rows to one dense block of the live rows x live
# columns once both of these hold; the figures are from a 2-vCPU VM with
# python 3.11 and numpy 2.4.
# - work: the cheapest pivot, the next one, updates at least
#   _DENSE_MIN_WORK entries, (column length - 1) x (pivot row length - 1),
#   and the live block holds at least _DENSE_MIN_ENTRIES entries.  A dense
#   pivot costs ~150 us of numpy calls whatever its size, and building and
#   taking apart the block ~60 ns per entry plus ~1 ms, which only enough
#   remaining pivots repay.  Bar differentials that switched with at most
#   7,325 live entries (klein4 D_5 and D_6, s3 D_4, c6 D_4) ran 3-19%
#   slower dense; those with 22,875 or more (q8 D_4 and D_5, s3 D_5, c6 D_5,
#   klein4 D_7) ran 29-70% faster.  With the entry floor, work floors of
#   128 and 256 tied for the least total time on those and s3 D_6 (1.77 s,
#   against 1.80 s at 0 and at 512 and 1.91 s at 1024).
# - memory: the block, in the narrowest dtype its entry bound allows, takes
#   at most _DICT_ENTRY_BYTES per live entry.  Dropping the row dicts and
#   the column index freed 118-127 bytes per live entry when each column
#   kept a set of rows (tracemalloc; s3 D_6 at pivots 1500-2400, q8 D_5 at
#   300-600), and 86-87 with row lists and shared column keys (s3 D_6 and
#   q8 D_5 at the switch).  112 stays: at 86, q8 D_6 switched later and its
#   peak RSS rose from 351 to 388 MB, since the freed heap of the dicts
#   stays resident under the block.
_DENSE_MIN_WORK = 256
_DENSE_MIN_ENTRIES = 1 << 14
_DICT_ENTRY_BYTES = 112
# a compaction copies the block in this many column chunks, so a chunk is
# a fixed share of the block: a chunk of fixed bytes, say 4 MB, would hold
# the whole 3.4 MB block of s3 D_6 (the certify workload) and save nothing
_COMPACT_CHUNKS = 16
# the block dtypes, narrowest first, with the largest entry each holds
_BLOCK_LIMITS = {np.dtype(t): int(np.iinfo(t).max)
                 for t in (np.int8, np.int16, np.int32, np.int64)}
_BLOCK_LIMITS[np.dtype(object)] = inf


def _block_dtype(bound: int) -> np.dtype:
    """The first of int8/16/32/64 that holds bound + bound^2, the most one
    update v - q w can reach when |v|, |q|, |w| <= bound; else object
    (python ints)."""
    return next(dt for dt, top in _BLOCK_LIMITS.items()
                if bound + bound * bound <= top)


def _compact(B, live_c, live_r, dtype):
    """``B[np.ix_(live_c, live_r)].astype(dtype)``, copied into one
    preallocated block of ``dtype`` in _COMPACT_CHUNKS chunks of columns, so
    that only ``B``, the new block and one chunk are live at once.  A chunk
    is taken from ``B`` and then cut to the live rows: ``np.ix_`` held
    twice as much again for the same chunk."""
    out = np.empty((len(live_c), len(live_r)), dtype=dtype)
    step = max(1, -(-len(live_c) // _COMPACT_CHUNKS))
    for s in range(0, len(live_c), step):
        out[s:s + step] = B[live_c[s:s + step]][:, live_r]
    return out


def _dense_unit_pivots(rows, col_len, blocked, bound):
    """Finish the +-1 pivots of phase 1 on one dense block.

    ``rows``, ``col_len`` (the length of every live column) and ``blocked``
    are the dict loop's state and ``bound`` is the largest |entry|.  The
    live rows leave ``rows`` for the block, ``col_len`` is emptied, and the
    rows still nonzero at the end return to ``rows`` for phase 2.  Pivots
    follow the dict loop's rule: least length, then least index, among the
    unblocked columns; the unit entry of the shortest row, then the lowest
    row; ops in ascending target order, a batch only when the column has
    more than one entry.  So the log, pivots and frozen rows are the ones
    the dict loop would give.

    Once half the block's rows or columns are spent, or an entry outgrows
    its dtype, the block is compacted to its live rows and columns and
    widened if need be, by :func:`_compact`: only the old and the new block
    are live then, not also a full-size index copy of the old one.

    Returns one (row, column, value, pool columns, pool values, targets,
    multipliers) per pivot, in pivot order: the pivot, its frozen row
    without the pivot entry as python ints, and its ops
    ``row[t] -= q * row[pivot row]`` as two arrays.
    """
    rid = sorted(r for r, d in rows.items() if d)
    cid = np.array(sorted(col_len), dtype=np.int64)
    lens = [len(rows[r]) for r in rid]
    nnz = sum(lens)
    dtype = _block_dtype(bound)
    flat = np.fromiter(chain.from_iterable(rows[r] for r in rid), np.int64,
                       nnz)
    vals = chain.from_iterable(rows[r].values() for r in rid)
    vals = (np.array(list(vals), dtype=object) if dtype == object
            else np.fromiter(vals, dtype, nnz))
    at_col = np.searchsorted(cid, flat)
    is_blocked = np.zeros(len(cid), dtype=bool)
    is_blocked[np.searchsorted(cid, sorted(blocked))] = True
    for r in rid:
        del rows[r]
    col_len.clear()
    # B[j, i] is the entry in block row i, column j: each pivot scans one
    # column, so columns are contiguous
    B = np.zeros((len(cid), len(rid)), dtype=dtype)
    B[at_col, np.repeat(np.arange(len(rid)), lens)] = vals
    collen = np.bincount(at_col, minlength=len(cid))
    rid = np.array(rid, dtype=np.int64)
    rowlen = np.array(lens, dtype=np.int64)
    del flat, vals, at_col

    steps = []
    while True:
        if bound + bound * bound > _BLOCK_LIMITS[B.dtype]:
            dtype = _block_dtype(bound)
        if (dtype != B.dtype or 2 * np.count_nonzero(rowlen) < len(rid)
                or 2 * np.count_nonzero(collen) < len(cid)):
            # drop the spent rows and columns, and widen the dtype if the
            # entry bound asks for it
            live_r, live_c = np.flatnonzero(rowlen), np.flatnonzero(collen)
            B = _compact(B, live_c, live_r, dtype)
            rid, rowlen = rid[live_r], rowlen[live_r]
            cid, collen, is_blocked = (cid[live_c], collen[live_c],
                                       is_blocked[live_c])
        selectable = ~is_blocked & (collen > 0)
        if not selectable.any():
            break  # every column left is empty or waits for a unit
        j = int(np.where(selectable, collen, len(rid) + 1).argmin())
        col = B[j]
        nz = np.flatnonzero(col)
        units = nz[np.abs(col[nz]) == 1]
        if not len(units):
            is_blocked[j] = True  # no unit pivot available here for now
            continue
        i = int(units[rowlen[units].argmin()])
        pv = int(col[i])
        pcols = np.flatnonzero(B[:, i])
        pcols = pcols[pcols != j]
        w = B[pcols, i]
        targets = nz[nz != i]
        q = col[targets] * pv  # pv is +-1
        if len(targets) and len(pcols):
            ix = np.ix_(pcols, targets)
            sub = B[ix]
            was_c = np.count_nonzero(sub, axis=1)
            was_r = np.count_nonzero(sub, axis=0)
            sub -= np.outer(w, q)
            B[ix] = sub
            collen[pcols] += np.count_nonzero(sub, axis=1) - was_c
            rowlen[targets] += np.count_nonzero(sub, axis=0) - was_r
            bound = max(bound, kernels.max_abs(sub))
        # retire the pivot column and row; the row's columns are unblocked
        col[nz] = 0
        rowlen[nz] -= 1
        collen[j] = 0
        B[pcols, i] = 0
        collen[pcols] -= 1
        rowlen[i] = 0
        is_blocked[pcols] = False
        steps.append((int(rid[i]), int(cid[j]), pv, cid[pcols].tolist(),
                      w.tolist(), rid[targets], q))
    live = np.flatnonzero(rowlen)
    at, jj = np.nonzero(B[:, live].T)  # by row, then by column
    cols, vals = cid[jj].tolist(), B[jj, live[at]].tolist()
    ends = np.cumsum(rowlen[live]).tolist()
    for r, s, e in zip(rid[live].tolist(), [0] + ends, ends):
        rows[r] = dict(zip(cols[s:e], vals[s:e]))
    return steps


def _unit_pivots(rows):
    """Phase 1: the +-1 pivots, in pivot order, each as one (row, column,
    value, pool columns, pool values, targets, multipliers), as
    :func:`_dense_unit_pivots` gives them.

    ``rows`` maps each row to the dict of its nonzero entries.  A pivot
    row is left empty, and the rows still nonzero at the end are left for
    phase 2.  The loop runs on the dicts until the live rows fill in, then
    hands its state to :func:`_dense_unit_pivots`."""
    # imported here so that importing the package loads no module for it
    from heapq import heapify, heappop, heappush

    # The column index.  col_len[c] is the number of live rows with an
    # entry in column c, and col_rows[c] lists every row that had one since
    # the column was last chosen, so it may hold rows that have since lost
    # the entry, retired pivot rows and a row more than once: a fill
    # appends the row, and a cancellation, or the pivot row retiring, only
    # lowers col_len[c].  The rows of a column are read only when it is
    # chosen, as the listed rows that still hold an entry there.  The heap
    # holds (length, column) for every selectable column, so its top is the
    # next pivot column; an entry of a blocked column (no +-1 entry), or
    # whose length is no longer col_len[c], is stale and skipped when it
    # comes up.  A blocked column waits until its content changes.  Only
    # the columns of the pivot row change during a pivot, and no column is
    # chosen until it ends, so each of them is re-filed once per pivot, by
    # its final length, after the pivot row retires.  A column that empties
    # leaves the index: fill only reaches the columns of a pivot row, so it
    # never gains an entry again.  nnz counts the live entries, for the
    # switch to a dense block.
    col_rows: dict[int, list] = {}
    for r, d in rows.items():
        for c in d:
            col_rows.setdefault(c, []).append(r)
    col_len = {c: len(rs) for c, rs in col_rows.items()}
    heap = [(n, c) for c, n in col_len.items()]
    heapify(heap)
    blocked: set = set()
    nnz = sum(col_len.values())
    # for the switch to a dense block: the itemsize that the entry bound of
    # the last look at the entries asked for
    itemsize = 1
    pivots = 0
    while heap:
        length, pc = heap[0]
        if pc in blocked or col_len.get(pc) != length:
            heappop(heap)  # stale
            continue
        rset = sorted({r for r in col_rows[pc] if pc in rows[r]})
        # choose the +-1 entry with shortest row, lowest index
        best = None
        for r in rset:
            if rows[r][pc] in (1, -1):
                key = (len(rows[r]), r)
                if best is None or key < best[0]:
                    best = (key, r)
        if (best is not None
                and (length - 1) * (best[0][0] - 1) >= _DENSE_MIN_WORK):
            # rows that are not pivot rows bound the live rows
            cells = (len(rows) - pivots) * len(col_len)
            budget = _DICT_ENTRY_BYTES * nnz
            if nnz >= _DENSE_MIN_ENTRIES and cells * itemsize <= budget:
                # the block would fit at the last look's width: look at the
                # entries again, and switch if it fits at theirs
                bound = max(max(map(abs, d.values()))
                            for d in rows.values() if d)
                itemsize = _block_dtype(bound).itemsize
                if cells * itemsize <= budget:
                    # finish on a dense block, with the row lists and the
                    # heap freed first.  Its batches stay arrays: as python
                    # lists they cost the certify workload 4.8% more CPU
                    # and 6.5 MB more peak RSS (perfbench, four alternating
                    # pairs: 1.92 against 1.83 s, 131.3 against 124.8 MB,
                    # 2-vCPU VM)
                    del col_rows, heap
                    yield from _dense_unit_pivots(rows, col_len, blocked,
                                                  bound)
                    return
        heappop(heap)
        if best is None:
            # no unit pivot available here for now; keep only the rows that
            # hold an entry
            blocked.add(pc)
            col_rows[pc] = rset
            continue
        pr = best[1]
        prow = rows[pr]
        pv = prow.pop(pc)
        pcs = sorted(prow)
        ws = [prow[c2] for c2 in pcs]
        # the lengths and the list lengths of the pivot row's columns
        olds = [col_len[c2] for c2 in pcs]
        listed = [len(col_rows[c2]) for c2 in pcs]
        pcols = [(c2, w, col_rows[c2].append) for c2, w in zip(pcs, ws)]
        targets, qs, lost = [], [], []
        for r in rset:
            if r == pr:
                continue
            row = rows[r]
            q = row.pop(pc) * pv  # pv is +-1
            targets.append(r)
            qs.append(q)
            for c2, w, add in pcols:
                qw = q * w
                v = row.get(c2)
                if v is None:
                    # fill: q and w are both nonzero
                    row[c2] = -qw
                    add(r)
                elif v == qw:
                    del row[c2]
                    lost.append(c2)
                else:
                    row[c2] = v - qw
        # retire the pivot column and row, then re-file the pivot row's
        # columns: each gained its fills and lost its cancellations and the
        # pivot row's entry
        nnz -= length
        del col_rows[pc], col_len[pc]
        for c2 in lost:
            col_len[c2] -= 1
        for c2, old, n in zip(pcs, olds, listed):
            new = col_len[c2] = col_len[c2] + len(col_rows[c2]) - n - 1
            nnz += new - old
            if c2 in blocked:
                blocked.discard(c2)
            elif new == old:
                continue
            if new:
                heappush(heap, (new, c2))
            else:
                del col_rows[c2], col_len[c2]
        rows[pr] = {}
        pivots += 1
        yield pr, pc, pv, pcs, ws, targets, qs


def _euclid_echelon(rows, batches):
    """Phase 2: Euclidean row echelon on the rows that phase 1 left
    nonzero, in place, with its ops appended to ``batches``.  Returns the
    echelon rows, in order, and the residual columns."""
    live = [r for r, d in rows.items() if d]
    res_cols = sorted({c for r in live for c in rows[r]})
    if res_cols:
        if (len(live) * len(res_cols) > _RESIDUAL_ENTRY_CAP
                and len(res_cols) > _RESIDUAL_DIM_CAP):
            raise SizeCapExceeded(
                f"residual block {len(live)}x{len(res_cols)} "
                "after unit-pivot elimination is too large")
    echelon_rows: list[int] = []
    live_set = set(live)
    for c in res_cols:
        holders = sorted(r for r in live_set if c in rows[r])
        while len(holders) > 1:
            holders.sort(key=lambda r: (abs(rows[r][c]), r))
            a = holders[0]
            targets, qs = [], []
            for b in holders[1:]:
                q = rows[b][c] // rows[a][c]
                if q:
                    targets.append(b)
                    qs.append(q)
                    rb, ra = rows[b], rows[a]
                    for c2, w in list(ra.items()):
                        nv = rb.get(c2, 0) - q * w
                        if nv:
                            rb[c2] = nv
                        elif c2 in rb:
                            del rb[c2]
            if targets:
                batches.append((targets, a, qs))
            holders = [r for r in holders if c in rows[r]]
        for r in list(live_set):
            if not rows[r]:
                live_set.discard(r)
        if holders:
            r = holders[0]
            if rows[r][c] < 0:
                batches.append(([r], r, None))
                rows[r] = {c2: -w for c2, w in rows[r].items()}
            echelon_rows.append(r)
            live_set.discard(r)
    return echelon_rows, res_cols


class SparseFactorization:
    """Logged echelon factorization of a sparse integer matrix over Z."""

    def __init__(self, nrows: int, ncols: int, csr):
        """``csr`` is a canonical CSR triple (indptr, indices, data), as
        :func:`coo_to_csr` returns it: ascending columns within each row and
        no stored zeros.  The factorization keeps these arrays, uncopied,
        for :meth:`matvec`, so a caller that caches the matrix holds it
        once."""
        indptr, indices, data = csr
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if not isinstance(data, np.ndarray):
            data = kernels.int_array(data)
        _check_csr(nrows, ncols, indptr, indices, data)
        self.nrows = nrows
        self.ncols = ncols
        self._indptr = indptr
        self._indices = indices
        self._data = data
        # one row dict per nonempty row, each read off one pass over the
        # entries; the elimination only reaches them, and what they are
        # read from is freed before it starts.  The rows share one python
        # int per column as their keys, not one per entry.
        cols = np.arange(ncols).astype(object)[indices].tolist()
        entries = zip(cols, data.tolist())
        lens = np.diff(indptr)
        live = np.flatnonzero(lens)
        rows = {r: dict(islice(entries, n))
                for r, n in zip(live.tolist(), lens[live].tolist())}
        del cols, entries, lens, live
        self._eliminate(rows)

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
        A = A.reshape(len(cols), nrows)
        if m:
            A = (A.astype(object) if m >= 1 << 63 else A) % m
            A[A > m // 2] -= m
        ci, ri = np.nonzero(A)
        return cls(nrows, len(cols),
                   coo_to_csr(nrows, len(cols), ri, ci, A[ci, ri]))

    # -- construction ------------------------------------------------------

    def _eliminate(self, rows):
        # the row-operation log, one (targets, source, multipliers) per
        # batch (see kernels.make_log)
        batches: list[tuple] = []
        piv_rows: list[int] = []
        piv_cols: list[int] = []
        piv_vals: list[int] = []
        # pivot rows frozen for back-substitution, pivot entry first
        starts: list[int] = []
        cols_pool: list[int] = []
        vals_pool: list[int] = []
        # phase 1: the +-1 pivots, on the row dicts, then on a dense block
        for pr, pc, pv, pcs, ws, targets, qs in _unit_pivots(rows):
            if len(targets):
                batches.append((targets, pr, qs))
            piv_rows.append(pr)
            piv_cols.append(pc)
            piv_vals.append(pv)
            starts.append(len(cols_pool))
            cols_pool.append(pc)
            cols_pool += pcs
            vals_pool.append(pv)
            vals_pool += ws
        self._pool_starts = np.array(starts, dtype=np.int64)
        self._pool_lens = np.diff(self._pool_starts, append=len(cols_pool))
        self._pool_cols = np.array(cols_pool, dtype=np.int64)
        self._pool_vals = kernels.int_array(vals_pool)
        # phase 2: Euclidean row echelon on the leftover rows
        echelon_rows, res_cols = _euclid_echelon(rows, batches)

        self.log = kernels.make_log(batches)

        self.piv_rows = piv_rows
        self.piv_cols = piv_cols
        self.piv_vals = piv_vals
        self.echelon_rows = echelon_rows
        self.res_cols = res_cols
        # a boolean mask: np.setdiff1d imports numpy.ma on its first call
        free = np.ones(self.nrows, dtype=bool)
        free[piv_rows + echelon_rows] = False
        self.zero_rows = np.flatnonzero(free).tolist()

        # phase 3: dense SNF of the echelon block
        E = [[rows[r].get(c, 0) for c in res_cols] for r in echelon_rows]
        if echelon_rows:
            self.esnf = smith_normal_form(IntMatrix.from_rows(E))
        else:
            self.esnf = None

    # -- queries -----------------------------------------------------------
    # Every query takes the modulus m: 0 answers over Z, m >= 2 over Z/m.
    # Each takes one vector or a block, an (n, k) array of k vectors as its
    # columns: a block replays the log, back-substitutes and multiplies once
    # for all its columns, and a query returns the list of the k answers
    # that the columns give one by one.

    def _replay(self, vec, m=0, reverse=False):
        _check_length(vec, self.nrows)
        if m:
            return kernels.apply_oplog_mod(vec, self.log, m, reverse=reverse)
        return kernels.apply_oplog_int(vec, self.log, reverse=reverse)

    def _backsub(self, rhs, x, m=0):
        """Fill the pivot columns of ``x`` through the frozen pivot rows; the
        pivots are +-1, so they are their own inverses mod every m."""
        if not self.piv_rows:
            return x
        rows = (self._pool_starts, self._pool_lens, self._pool_cols,
                self._pool_vals)
        return kernels.backsub_mod(rows, self.piv_cols, self.piv_vals, rhs, x,
                                   m)

    def _echelon_diag(self, m=0):
        """Diagonal of the echelon block SNF, reduced against m."""
        if self.esnf is None:
            return []
        diag = self.esnf.diagonal()
        if m:
            return [gcd(d, m) if d else 0 for d in diag]
        return diag

    def coker_invariants(self, m=0) -> list[int]:
        """Invariant factors of coker over Z (0 = free) or Z/m."""
        out = [d for d in self._echelon_diag(m) if d > 1]
        nfree = len(self.zero_rows)
        if m:
            out += [m] * nfree
            out.sort()
        else:
            out += [0] * nfree
        return out

    def coords(self, vec, m=0):
        """Cokernel coordinates of ``vec``: (values, moduli) in canonical
        order (echelon coordinates, then untouched rows ascending).

        Modulus 0 means a free Z summand; over Z/m free summands have
        modulus m.  Unit-pivot coordinates are omitted (always zero in the
        cokernel)."""
        z = kernels.int_array(self._replay(vec, m))
        diag = self._echelon_diag(m)
        mods = [(diag[j] if j < len(diag) else 0) or m
                for j in range(len(self.echelon_rows))]
        mods += [m] * len(self.zero_rows)
        # one row per vector; the replay gives canonical residues mod m
        zt = z.T if z.ndim == 2 else z[None]
        ech = zt[:, self.echelon_rows].tolist()
        free = zt[:, self.zero_rows].tolist()
        out = []
        for sub, vals in zip(ech, free):
            w = self.esnf.U.mul_vec(sub) if sub else []
            out.append(([x % d if d else x for x, d in zip(w, mods)] + vals,
                        list(mods)))
        return out if z.ndim == 2 else out[0]

    def solvable_over_q(self, vec) -> bool:
        """Whether A x = vec has a rational solution: every free cokernel
        coordinate of vec over Z is 0."""
        vals, mods = self.coords(vec)
        return all(v == 0 for v, d in zip(vals, mods) if d == 0)

    def in_image(self, vec, m=0):
        answers = self.coords(vec, m)
        if isinstance(answers, list):  # a block's, one pair per column
            return [all(v == 0 for v in vals) for vals, _ in answers]
        return all(v == 0 for v in answers[0])

    def solve(self, b, m=0):
        """Some x with A x = b (over Z, or mod m with residues), or None when
        b is not in the image.  An x that fails A x = b raises
        InternalCheckFailed."""
        z = kernels.int_array(self._replay(b, m))
        block = z.ndim == 2
        zt = z.T if block else z[None]
        # None where b is nonzero on a row that no pivot reaches
        ok = ~zt[:, self.zero_rows].any(axis=1)
        x = np.zeros((self.ncols, len(ok)), dtype=object)
        if self.echelon_rows:
            ech = zt[:, self.echelon_rows].tolist()
            for c in np.flatnonzero(ok).tolist():
                xr = self.esnf.solve(ech[c], m)
                if xr is None:
                    ok[c] = False
                else:
                    x[self.res_cols, c] = xr
        k = len(ok)
        if not ok.any():
            return [None] * k if block else None
        x = np.array(self._backsub(z[self.piv_rows], x if block else x[:, 0],
                                   m), dtype=object)
        b = kernels.residues(b, m) if m else kernels.int_array(b)
        wrong = kernels.int_array(self.matvec(x, m)) != b
        if (wrong.reshape(self.nrows, k).any(axis=0) & ok).any():
            raise InternalCheckFailed(
                "sparse solve: A x != b after back-substitution")
        out = [col if good else None for col, good in
               zip(x.reshape(self.ncols, k).T.tolist(), ok.tolist())]
        return out if block else out[0]

    def matvec(self, x, m=0):
        _check_length(x, self.ncols)
        if m:
            return kernels.csr_matvec_mod(self._indptr, self._indices,
                                          self._data, x, m)
        return kernels.csr_matvec_int(self._indptr, self._indices,
                                      self._data, x)

    def _echelon_lift(self, j, d):
        """Column j of U^-1 for the echelon block, on the echelon rows and
        carried back through the log: U E V = D, so it is (E V)[:, j] / d,
        d = d_j."""
        E, V = self.esnf.source, self.esnf.V
        ev = E.mul_vec([V[i, j] for i in range(V.rows)])
        vec = [0] * self.nrows
        for r, x in zip(self.echelon_rows, ev):
            vec[r] = x // d
        return self._replay(vec, reverse=True)

    def torsion_reps(self):
        """Representatives for the nonunit torsion of the cokernel over Z:
        list of (invariant factor, vector) pairs."""
        if self.esnf is None:
            return []
        return [(d, self._echelon_lift(j, d))
                for j, d in enumerate(self.esnf.diagonal()) if d > 1]

    def coker_basis(self):
        """A Z-basis b_1, ..., b_nrows of Z^nrows with an order o_i each, as
        (o_i, b_i) pairs, such that the gcd(o_i, m) b_i span the image plus
        m Z^nrows for every m (m = 0 over Z).

        The basis follows :meth:`coords`, so coords(b_i, m) is e_i, reduced
        by the moduli, whenever o_i != 1: the echelon coordinates (o = d_j, b = column j of U^-1),
        the untouched rows (o = 0), then the unit-pivot rows (o = 1).  Every
        d_j is nonzero: phase 2 leaves the echelon block in row echelon
        form, so it has full row rank."""
        diag = self.esnf.diagonal() if self.esnf is not None else []
        out = [(d, self._echelon_lift(j, d)) for j, d in enumerate(diag)]
        for o, rows in ((0, self.zero_rows), (1, self.piv_rows)):
            for r in rows:
                e = [0] * self.nrows
                e[r] = 1
                out.append((o, self._replay(e, reverse=True)))
        return out

    def kernel_basis(self, m=0):
        """Generators of ker(A) over Z or Z/m (torsion directions included)."""
        gens = []
        if self.esnf is not None:
            for xr in self.esnf.kernel(m):
                x = [0] * self.ncols
                for c, v in zip(self.res_cols, xr):
                    x[c] = v % m if m else v
                if any(x):  # (m / gcd(d, m)) V_j vanishes mod m when gcd is 1
                    gens.append(self._backsub([0] * len(self.piv_rows), x, m))
        # remaining non-pivot columns: free directions, completed through
        # the frozen pivot rows (they may still carry entries there)
        seen = set(self.piv_cols) | set(self.res_cols)
        for c in range(self.ncols):
            if c not in seen:
                x = [0] * self.ncols
                x[c] = 1
                gens.append(self._backsub([0] * len(self.piv_rows), x, m))
        return gens

"""Hot numeric kernels: op-log replay, back-substitution, CSR matvec and
the dense product.

The sparse factorizations in :mod:`cohomkit.exact.sparse` are built once per
(group, degree), over Z, but queried hundreds of times, over Z and mod m:
every cohomology-class equality, coboundary test and witness verification
replays an elementary row-operation log over a dense vector, multiplies by a
CSR differential, or back-substitutes through frozen pivot rows.

Every kernel takes one vector, of shape (n,), or a block of k vectors as
the columns of an (n, k) array, and a block answers exactly as its
columns would one by one.  A replay, a back-substitution or a matvec
makes one pass over the log or the matrix for the whole block.  A vector
comes back as a list of python ints, a block as an (n, k) array, int64 or
object (python ints): a list of n rows would cost more than the kernel.

Each kernel has one numpy implementation, and every result is exact.  A
call decides from a bound, before it computes, whether int64 arithmetic is
safe; where it is not, it works on object arrays of python ints.  Each
bound is taken over the whole block, so a block is int64 or object as one:

- replay, over Z or mod m, one loop for both: a running bound M on
  max|v|.  It starts at max|input|, and before each round
  M += max|v[sources]| * growth, the round's stored k * max|q|.  Over Z
  the round runs in int64 while M < 2^62, and once it would not, v moves
  to object dtype for the rest of the replay.  Mod m, v is reduced to
  residues instead (M = m - 1), a round whose sources are then all 0 is
  skipped, the round's multipliers are reduced if the bound still
  reaches 2^62, with k * max|q mod m| in the growth, and only then does
  v move to object dtype.  There, and from the start when m >= 2^63,
  each round reduces its gathered sources mod m, and its multipliers when
  its growth reaches m, so |v| grows by at most about k m^2 a round, not
  geometrically as over Z; v is reduced once more at the end;
- matvec: int64 iff max|x| * sum|data| < 2^62, which bounds every partial
  sum of the segmented sum;
- dense product ``matmul(a, b, m)``, the product of every dense matrix of
  the package outside the Smith form itself (module actions, Koszul and
  ring-map matrices, and the sparse engine's echelon block and its Smith
  transforms): int64 iff s * max|a| * max|b| < 2^62 for the inner length
  s, and the result, reduced mod m when m is given, is int64 when its
  entries fit and object otherwise, as ``int_array`` makes it;
- back-substitution: the replay's bound, since it is a reverse replay
  (see below).

The log is made of rounds, from recording to replay.  A batch is the ops
of one source row on distinct targets, none of them the source; a round is
a run of batches in which no target is one of the sources, so its ops
commute: every phase-1 elimination round is one, each phase-2 (Euclid)
batch is one, and a NEG, ``v[r] = -v[r]``, is a round of its own.  Each
round stores its growth k * max|q|, for the most ops k that one target
takes in it.  The frozen pivot rows are a second log of rounds, one a
phase-1 round: an op for each entry w off the pivot pv of a row, with
the row's pivot column as its target, w's column as its source and
-pv w as its multiplier.  No row holds a pivot column of its own round
or of an earlier one, so back-substitution is that log replayed in
reverse, later rounds first: the rounds are the levels of a
level-scheduled triangular solve (E. Anderson and Y. Saad, Int. J. High
Speed Computing 1, 1989).  The one replay loop, ``_replay``, which every
query, back-substitution and the factorization's self-check run, makes
one vectorised update a round, ``v[targets] -= q * v[sources]`` summed
per target, on a vector or on each column of a block in turn, forward or
in reverse (``+=``, the rounds in reverse order, a NEG its own inverse),
and skips a round whose sources are all zero.
"""

from __future__ import annotations

import numpy as np

_I64 = 1 << 63    # entries of magnitude below this fit in int64
_LIMIT = 1 << 62  # int64 arithmetic is safe while every bound stays below


def backend() -> str:
    """Name of the kernel implementation (there is one)."""
    return "numpy"


def int_array(seq) -> np.ndarray:
    """``seq`` as a new int64 array when every entry fits, else as an object
    array of python ints.  An entry of -2^63 fits int64 but its magnitude
    does not, so it also makes the array object, from a list or an array
    alike: no int64 array this returns holds -2^63.  Unsigned arrays are
    read as python ints, since a cast would wrap entries past 2^63.  A
    sequence of equal-length rows gives a 2-D array, a block."""
    if isinstance(seq, np.ndarray) and seq.dtype.kind in "biO":
        try:
            arr = seq.astype(np.int64)
        except OverflowError:  # an object entry past the int64 range
            arr = _to_int(seq)
    else:
        vals = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        try:
            arr = np.array(vals, dtype=np.int64)
        except OverflowError:  # an entry past the int64 range
            arr = _to_int(np.array(vals, dtype=object))
        if isinstance(seq, np.ndarray):  # tolist() loses an axis of length 0
            arr = arr.reshape(seq.shape)
    if arr.size and arr.min() == -_I64:
        return arr.astype(object)
    return arr


# entrywise int(): numpy integers in an object array become python ints
_to_int = np.frompyfunc(int, 1, 1)


def residues(vec, m: int) -> np.ndarray:
    """Canonical residues of ``vec`` mod m: int64 when m fits, else object.
    An int64 ``vec`` already in [0, m) is copied, not divided."""
    v = int_array(vec)
    if m >= _I64:
        return v.astype(object) % m
    if v.dtype != object and (not v.size or 0 <= v.min() and v.max() < m):
        return v  # int_array made it a new array
    return _reduce(v, m).astype(np.int64)


def _reduce(v: np.ndarray, m: int) -> np.ndarray:
    """``v`` mod m, canonical: a mask when m is a power of two, exact for
    negative entries too in two's complement and much cheaper than an int64
    division, else ``%``."""
    return v & (m - 1) if m & (m - 1) == 0 else v % m


def max_abs(v: np.ndarray) -> int:
    """Largest |entry| of ``v``, a vector or a block, 0 when it is empty.
    Exact for object arrays and for int64 arrays without -2^63, whose
    |entry| wraps to -2^63; ``int_array`` returns no such array."""
    return int(np.abs(v).max()) if v.size else 0


def make_log(batches: list) -> tuple:
    """Pack a row-operation log for replay: ``(targets, multipliers,
    sources, lengths, rounds)``.

    ``batches`` lists the log's rounds in order, each as (targets, source,
    multipliers): the ops ``row[t] -= q * row[source]``, one per target t
    and multiplier q, with one or more distinct targets, none of them the
    source.  ``([r], r, None)`` is a NEG, ``row[r] = -row[r]``.  A run of
    batches may come as one round whose source is a pair (sources,
    lengths) of arrays, batch i taking the next lengths[i] targets and
    multipliers from sources[i]: phase 1 passes each of its rounds so.  No
    target of a run may be one of its sources, so its ops commute, but a
    target may take ops from several sources.  Targets and multipliers are
    lists or integer arrays; the multipliers are integers of any size.

    The targets and the multipliers of all rounds are copied into arrays
    sized once, a NEG's multiplier as 0, and the sources and lengths of all
    batches too: int64, the multipliers object (python ints) when one of
    them is past int64 or is -2^63, as :func:`int_array` makes them.  The
    list is emptied as it is packed, each round released once it is
    copied, so the caller's rounds and the packed log are not held at
    once.  It is packed from its last round back: the rounds recorded last
    are the memory that the allocator returns to the system soonest (a
    fresh process factoring q8 D_6, whose log holds 1,750,472 ops, peaked
    at about 110 MB against 130 MB packing from the first round, on a
    2-vCPU Linux VM).  Each round is
    stored as (start, end, growth, is NEG) over the ops, its growth
    k * max|q| for the most ops k that any one target takes in it.
    """
    def run_of(src, t):
        return src if isinstance(src, tuple) else ([src], [len(t)])

    e = sum(len(t) for t, _, _ in batches)  # the ops
    c = sum(len(run_of(src, t)[0]) for t, src, _ in batches)  # the batches
    aa, qq = (np.empty(e, dtype=np.int64) for _ in range(2))
    sources, lengths = (np.empty(c, dtype=np.int64) for _ in range(2))
    rounds = []
    while batches:
        t, src, q = batches.pop()
        srcs, lens = run_of(src, t)
        s, b = e - len(t), c - len(srcs)
        aa[s:e], sources[b:c], lengths[b:c] = t, srcs, lens
        try:
            qq[s:e] = 0 if q is None else q
        except OverflowError:  # a multiplier past the int64 range
            qq = qq.astype(object)
            qq[s:e] = q
        k = int(np.bincount(aa[s:e]).max()) if isinstance(src, tuple) else 1
        part = qq[s:e]  # its max|q| in python ints, exact at -2^63 too
        rounds.append((s, e, k * max(int(part.max()), -int(part.min())),
                       q is None))
        e, c = s, b
    rounds.reverse()
    if qq.dtype == object or qq.size and qq.min() == -_I64:
        qq = int_array(qq)
    return aa, qq, sources, lengths, rounds


def output(v: np.ndarray):
    """A kernel's result, or a cochain map's: a vector as a list of python
    ints, a block as the array itself."""
    return v.tolist() if v.ndim == 1 else v


def _replay(v: np.ndarray, log, m: int, reverse: bool) -> np.ndarray:
    """The one replay of a log on ``v``, a vector or a block, over Z when
    m = 0 and mod m on residues otherwise: one update a round, in int64
    while the running bound allows it (see above)."""
    aa, qq, sources, lengths, rounds = log
    # each round's batches, by one search of the rounds' bounds among the
    # batches' first ops: a round's sources are expanded only when it is
    # replayed
    spans = np.searchsorted(np.cumsum(lengths) - lengths,
                            [r[:2] for r in rounds]).tolist()
    shape = v.shape
    # one row per column of a block, a vector as one row: numpy's .at
    # scatters fastest on one contiguous axis
    v = np.ascontiguousarray(np.atleast_2d(v.T))
    wide = v.dtype == object
    bound = max_abs(v)  # |v| <= bound while v is int64
    step = np.add.at if reverse else np.subtract.at
    pairs = list(zip(rounds, spans))
    for (s, e, grow, neg), (b, c) in (reversed(pairs) if reverse else pairs):
        t = aa[s:e]
        x = v[:, np.repeat(sources[b:c], lengths[b:c])]
        if not x.any():
            continue
        if neg:
            v[:, t] = -x
            continue
        q = qq[s:e]
        if wide:
            if m:  # sources and multipliers mod m: |v| grows additively
                x %= m
                if grow >= m:
                    q = residues(q, m)
        else:
            top = bound + max_abs(x) * grow
            if m and top >= _LIMIT:  # residues again, then the multipliers
                v %= m
                x %= m
                if not x.any():  # the round adds multiples of m
                    continue
                top = m - 1 + max_abs(x) * grow
                if top >= _LIMIT:
                    k = grow and grow // max_abs(q)  # grow is k max|q|
                    q = residues(q, m)
                    top = m - 1 + max_abs(x) * k * max_abs(q)
            if top >= _LIMIT:
                v, x, wide = v.astype(object), x.astype(object), True
            else:
                bound = top
                # x != 0, so |q| <= grow <= top < 2^62
                q = q.astype(np.int64, copy=False)
        for row, d in zip(v, q * x):
            step(row, t, d)
    if m:
        v = _reduce(v, m)
    return v.T.reshape(shape)


def apply_oplog_int(vec, log, reverse: bool = False):
    """Replay a row-operation log over Z on a vector or an (n, k) block.
    Exact; returns python ints."""
    return output(_replay(int_array(vec), log, 0, reverse))


def apply_oplog_mod(vec, log, m: int, reverse: bool = False):
    """Replay a row-operation log modulo m on a vector or an (n, k) block;
    returns canonical residues."""
    return output(_replay(residues(vec, m), log, m, reverse))


def backsub_mod(log, pivcol, pivsign, rhs, x, m: int):
    """Back-substitute through frozen +-1 pivot rows, over Z/m, or over Z
    when m == 0: ``x[pivcol] = pivsign * rhs``, then one reverse replay of
    ``log``, the rows' other entries as a log of rounds (the pivots are
    their own inverses mod every m).  ``x`` is prefilled on the non-pivot
    columns.  ``rhs`` and ``x`` are vectors, or blocks with one column per
    system.  Exact; returns python ints, as a replay does."""
    x, rhs = (residues(a, m) if m else int_array(a) for a in (x, rhs))
    sign = np.asarray(pivsign, dtype=np.int64).reshape(
        (-1,) + (1,) * (rhs.ndim - 1))
    head = sign * rhs  # |head| < m, reduced by the replay with the rest
    if head.dtype == object:
        x = x.astype(object)
    x[np.asarray(pivcol, dtype=np.int64)] = head
    return output(_replay(x, log, m, reverse=True))


def backsub_int(log, pivcol, pivsign, rhs, x):
    """Back-substitute over Z (pivots are +-1). Exact; returns python ints."""
    return backsub_mod(log, pivcol, pivsign, rhs, x, 0)


def _abs_sum(data: np.ndarray) -> int:
    a = np.abs(data)
    if data.dtype != object and max_abs(a) * len(a) < _LIMIT:
        return int(a.sum())
    return sum(a.tolist())


def _csr_matvec(indptr, indices, data, x: np.ndarray) -> np.ndarray:
    """Gather and segmented sum, of a vector or of the columns of a block:
    int64 when max|x| * sum|data| < 2^62."""
    wide = (data.dtype == object or x.dtype == object
            or max_abs(x) * _abs_sum(data) >= _LIMIT)
    gathered = x[indices]
    if x.ndim == 2:
        data = data[:, None]
    if wide:
        prod = data.astype(object) * gathered.astype(object)
    else:
        prod = data * gathered
    acc = np.zeros((len(prod) + 1,) + prod.shape[1:], dtype=prod.dtype)
    np.cumsum(prod, axis=0, out=acc[1:])
    return acc[indptr[1:]] - acc[indptr[:-1]]


def matmul(a, b, m: int = 0) -> np.ndarray:
    """Exact product ``a @ b`` of integer arrays, batched over leading axes
    as ``np.matmul`` is, and reduced mod m when m; see the bound above."""
    a, b = int_array(a), int_array(b)
    if (a.dtype == object or b.dtype == object
            or a.shape[-1] * max_abs(a) * max_abs(b) >= _LIMIT):
        a, b = a.astype(object), b.astype(object)
    return residues(a @ b, m) if m else int_array(a @ b)


def csr_matvec_int(indptr, indices, data, vec):
    """Exact integer CSR matrix-vector (or matrix-block) product; returns
    python ints."""
    return output(_csr_matvec(indptr, indices, data, int_array(vec)))


def csr_matvec_mod(indptr, indices, data, vec, m: int):
    """CSR matrix-vector (or matrix-block) product mod m; returns canonical
    residues."""
    return output(_reduce(_csr_matvec(indptr, indices, data,
                                      residues(vec, m)), m))


# The benchmark's layer table (perfbench/layers.py) also binds these names.
_apply_oplog_int_pure = apply_oplog_int
_apply_oplog_mod_pure = apply_oplog_mod
_backsub_int_pure = backsub_int
_backsub_mod_pure = backsub_mod

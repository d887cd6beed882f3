"""Hot numeric kernels: op-log replay, back-substitution, CSR matvec and
the dense product.

The sparse factorizations in :mod:`cohomkit.exact.sparse` are built once per
(group, degree), over Z, but queried hundreds of times, over Z and mod m:
every cohomology-class equality, coboundary test and witness verification
replays an elementary row-operation log over a dense vector, multiplies by a
CSR differential, or back-substitutes through frozen pivot rows.

Every kernel takes one vector, of shape (n,), or a block of k vectors as
the columns of an (n, k) array, and a block answers exactly as its
columns would one by one.  A replay or a matvec makes one pass over the
log or the matrix for the whole block; the shape decides per batch only
what the test of the source entry costs, so a 1-D call pays nothing for
the second axis, and a one-column block replays as its column.  A vector
comes back as a list of python ints, a block as an (n, k) array, int64 or
object (python ints): a list of n rows would cost more than the kernel.

Each kernel has one numpy implementation, and every result is exact.  A
call decides from a bound, before it computes, whether int64 arithmetic is
safe; where it is not, it works on object arrays of python ints.  Each
bound is taken over the whole block, so a block is int64 or object as one:

- replay mod m: the multipliers of the Z log are reduced mod m once per
  call, then int64 iff (m-1)^2 + (m-1) < 2^63 (a residue plus a residue
  times a multiplier);
- replay over Z: a running bound M on max|v|.  It starts at max|input|,
  and before each batch M += max|v[src]| * max|q| of the batch.  While
  M < 2^62 the batch runs in int64; once it is not, v and q move to object
  dtype for the rest of the replay (from the start when a multiplier is
  past int64);
- matvec: int64 iff max|x| * sum|data| < 2^62, which bounds every partial
  sum of the segmented sum;
- dense product ``matmul(a, b, m)``, the one product of the package's
  dense matrices outside the sparse engine (module actions, Koszul and
  ring-map matrices): int64 iff s * max|a| * max|b| < 2^62 for the inner
  length s, and the result, reduced mod m when m is given, is int64 when
  its entries fit and object otherwise, as ``int_array`` makes it;
- back-substitution is a sequential loop over python ints, one column of
  a block after the other.

The log is made of batches, from recording to replay: every elimination
phase emits (targets, source, multipliers), with distinct targets, none of
them the source, so a batch is one vectorised update
``v[targets] -= q * v[source]``; a NEG, ``v[r] = -v[r]``, is a batch of
its own.
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
    if isinstance(seq, np.ndarray) and seq.dtype.kind in "bi":
        arr = seq.astype(np.int64)
    else:
        vals = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        try:
            arr = np.array(vals, dtype=np.int64)
        except OverflowError:  # an entry past the int64 range
            return _to_int(np.array(vals, dtype=object))
    if arr.size and arr.min() == -_I64:
        return arr.astype(object)
    return arr


# entrywise int(): numpy integers in an object array become python ints
_to_int = np.frompyfunc(int, 1, 1)


def residues(vec, m: int) -> np.ndarray:
    """Canonical residues of ``vec`` mod m: int64 when m fits, else object."""
    v = int_array(vec)
    if m >= _I64:
        return v.astype(object) % m
    return (v % m).astype(np.int64)


def max_abs(v: np.ndarray) -> int:
    """Largest |entry| of ``v``, a vector or a block, 0 when it is empty.
    Exact for object arrays and for int64 arrays without -2^63, whose
    |entry| wraps to -2^63; ``int_array`` returns no such array."""
    return int(np.abs(v).max()) if v.size else 0


def make_log(batches) -> tuple:
    """Pack a row-operation log for replay: ``(targets, multipliers,
    batches)``.

    ``batches`` lists the log's batches in order, each as (targets, source,
    multipliers): the ops ``row[t] -= q * row[source]``, one per target t
    and multiplier q, with one or more distinct targets, none of them the
    source.  ``([r], r, None)`` is a NEG, ``row[r] = -row[r]``.  A run of
    batches may come as one entry whose source is a pair (sources,
    lengths) of arrays, batch i taking the next lengths[i] targets and
    multipliers from sources[i]: phase 1 passes each round so.  Targets
    and multipliers are lists or integer arrays; the multipliers are
    integers of any size, and a replay mod m reduces them itself.  The
    targets and the multipliers of all batches are concatenated once, a
    NEG's multiplier as 0, and each batch is stored as (start, end, source,
    max |q|, is NEG).
    """
    srcs, lens = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for t, src, _ in batches:
        run = isinstance(src, tuple)
        srcs.append(np.asarray(src[0] if run else [src], dtype=np.int64))
        lens.append(np.asarray(src[1] if run else [len(t)], dtype=np.int64))
    lens = np.concatenate(lens)
    ends = np.cumsum(lens)
    starts = ends - lens
    neg = np.repeat([q is None for _, _, q in batches],
                    [len(s) for s in srcs[1:]]).astype(bool)
    targets = np.concatenate([np.zeros(0, dtype=np.int64)] +
                             [np.asarray(t, dtype=np.int64)
                              for t, _, _ in batches])
    qs = [[0] if q is None else q for _, _, q in batches]
    try:
        qq = np.concatenate([np.zeros(0, dtype=np.int64)] +
                            [np.asarray(q, dtype=np.int64) for q in qs])
    except OverflowError:  # a multiplier past the int64 range
        qq = np.concatenate([np.zeros(0, dtype=object)] +
                            [np.asarray(q, dtype=object) for q in qs])
    qq = int_array(qq)
    qmax = (np.maximum.reduceat(np.abs(qq), starts).tolist() if len(starts)
            else [])
    return (targets, qq,
            list(zip(starts.tolist(), ends.tolist(),
                     np.concatenate(srcs).tolist(), qmax, neg.tolist())))


def output(v: np.ndarray):
    """A kernel's result, or a cochain map's: a vector as a list of python
    ints, a block as the array itself."""
    return v.tolist() if v.ndim == 1 else v


def _columns(v: np.ndarray):
    """``v`` for a replay, and its shape: a block of one column replays as
    that column, since a 2-D step costs several 1-D ones."""
    return (v[:, 0] if v.ndim == 2 and v.shape[1] == 1 else v), v.shape


def apply_oplog_int(vec, log, reverse: bool = False):
    """Replay a row-operation log over Z on a vector or an (n, k) block.
    Exact; returns python ints."""
    aa, qq, batches = log
    v, shape = _columns(int_array(vec))
    block = v.ndim == 2
    bound = max_abs(v)
    # an int64 v cannot take products with multipliers past int64
    wide = bound >= _LIMIT or qq.dtype == object
    if wide:
        v, qq = v.astype(object), qq.astype(object)
    if block:
        qq = qq[:, None]  # a multiplier scales a whole row of the block
    for s, e, src, qmax, neg in (reversed(batches) if reverse else batches):
        x = v[src]
        if not (x.any() if block else x):
            continue
        if neg:
            v[src] = -x
            continue
        if not wide:
            bound += (max_abs(x) if block else abs(int(x))) * qmax
            if bound >= _LIMIT:
                wide = True
                v, qq = v.astype(object), qq.astype(object)
                x = v[src]
        v[aa[s:e]] -= qq[s:e] * (-x if reverse else x)
    return output(v.reshape(shape))


def apply_oplog_mod(vec, log, m: int, reverse: bool = False):
    """Replay a row-operation log modulo m on a vector or an (n, k) block;
    returns canonical residues."""
    aa, qq, batches = log
    v, shape = _columns(residues(vec, m))
    block = v.ndim == 2
    qq = residues(qq, m)
    if (m - 1) ** 2 + (m - 1) >= _I64:
        v, qq = v.astype(object), qq.astype(object)
    if block:
        qq = qq[:, None]
    for s, e, src, _qmax, neg in (reversed(batches) if reverse else batches):
        x = v[src]
        if not (x.any() if block else x):
            continue
        if neg:
            v[src] = (-x) % m
        else:
            a = aa[s:e]
            v[a] = (v[a] - qq[s:e] * (-x if reverse else x)) % m
    return output(v.reshape(shape))


def backsub_mod(rows, pivcol, pivinv, rhs, x, m: int):
    """Back-substitute through frozen pivot rows in reverse pivot order;
    over Z/m, or over Z when m == 0 (pivots are then +-1 and ``pivinv``
    holds their signs).  Exact; returns python ints.

    ``rows`` is the CSR pool (starts, lens, cols, vals) with the pivot entry
    stored first in each row; ``x`` is prefilled on non-pivot columns.
    ``rhs`` and ``x`` are vectors, or blocks with one column per system,
    solved one column after the other: per pool entry, python-int
    arithmetic costs less than any numpy call for the few columns of a
    solve.
    """
    starts, lens, cols, vals = (np.asarray(a).tolist() for a in rows)
    pivcol = np.asarray(pivcol).tolist()
    pivinv = np.asarray(pivinv).tolist()
    x, rhs = int_array(x), int_array(rhs)
    block = x.ndim == 2
    out = []
    for xc, bc in (zip(x.T, rhs.reshape(len(rhs), x.shape[1]).T) if block
                   else [(x, rhs)]):
        xc, bc = xc.tolist(), bc.tolist()
        if m:
            xc = [v % m for v in xc]
        for t in range(len(starts) - 1, -1, -1):
            s = starts[t]
            acc = bc[t]
            for k in range(s + 1, s + lens[t]):  # entry s is the pivot
                acc -= vals[k] * xc[cols[k]]
            xc[pivcol[t]] = acc * pivinv[t] % m if m else acc * pivinv[t]
        out.append(xc)
    if not block:
        return out[0]
    return np.array(out, dtype=object).reshape(x.shape[::-1]).T


def backsub_int(rows, pivcol, pivsign, rhs, x):
    """Back-substitute over Z (pivots are +-1). Exact; returns python ints."""
    return backsub_mod(rows, pivcol, pivsign, rhs, x, 0)


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
    return output(_csr_matvec(indptr, indices, data, residues(vec, m)) % m)


# The benchmark's layer table (perfbench/layers.py) also binds these names.
_apply_oplog_int_pure = apply_oplog_int
_apply_oplog_mod_pure = apply_oplog_mod
_backsub_int_pure = backsub_int
_backsub_mod_pure = backsub_mod

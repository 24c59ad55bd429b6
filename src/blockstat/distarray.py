"""Block-distributed dense N-dimensional arrays.

An array of global shape ``(d0, ..., dk)`` is split along its last dimension
into contiguous per-rank blocks of near-equal width: the first
``dk mod size`` ranks hold ``ceil(dk / size)`` columns, the rest hold
``floor(dk / size)``.  Empty blocks are allowed when there are more ranks
than columns.  Each rank stores its block as a column-major numpy array.

Elementwise work (:func:`map_broadcast`) never communicates: distributed
operands must share the destination's partition, replicated operands
broadcast against it.  Reductions and scans combine local numpy folds with
the deterministic ascending-rank collectives from :mod:`blockstat.comm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import _CODE_DTYPES, _DTYPE_CODES, ReduceOp


class DistributionError(ValueError):
    """Operand distribution is incompatible with the requested operation."""


class BroadcastError(ValueError):
    """Operand shapes cannot broadcast against the destination."""


@dataclass(frozen=True)
class Partition:
    """Block boundaries of a global extent across ranks."""

    extent: int
    nranks: int
    boundaries: tuple

    def lo(self, rank):
        return self.boundaries[rank]

    def hi(self, rank):
        return self.boundaries[rank + 1]

    def width(self, rank):
        return self.boundaries[rank + 1] - self.boundaries[rank]

    def counts(self):
        b = self.boundaries
        return tuple(b[r + 1] - b[r] for r in range(self.nranks))


def partition_of(extent, nranks):
    """Even block partition: first ``extent % nranks`` ranks get one extra."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    if nranks < 1:
        raise ValueError("need at least one rank")
    base, rem = divmod(extent, nranks)
    boundaries = [0]
    for r in range(nranks):
        boundaries.append(boundaries[-1] + base + (1 if r < rem else 0))
    return Partition(extent, nranks, tuple(boundaries))


class DistArray:
    """One rank's block of an array distributed along the last dimension."""

    def __init__(self, comm, shape, dtype, local=None):
        shape = tuple(int(s) for s in shape)
        if not shape:
            raise ValueError("scalars cannot be distributed; use shape (1,)")
        self.comm = comm
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.partition = partition_of(shape[-1], comm.size)
        width = self.partition.width(comm.rank)
        local_shape = shape[:-1] + (width,)
        if local is None:
            local = np.empty(local_shape, dtype=self.dtype, order="F")
        elif local.shape != local_shape or local.dtype != self.dtype:
            raise DistributionError(
                f"local block has shape {local.shape} {local.dtype}, "
                f"expected {local_shape} {self.dtype}"
            )
        self.local = local

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def lo(self):
        """First global index along the split dimension owned by this rank."""
        return self.partition.lo(self.comm.rank)

    @property
    def hi(self):
        return self.partition.hi(self.comm.rank)

    def fill(self, value):
        self.local[...] = value

    def __repr__(self):
        return (f"<DistArray shape={self.shape} dtype={self.dtype} "
                f"rank={self.comm.rank}/{self.comm.size} local={self.local.shape}>")


class TransposedView:
    """Lazy transpose of a 2-D DistArray: a row-split, row-major matrix."""

    def __init__(self, parent):
        if not isinstance(parent, DistArray) or parent.ndim != 2:
            raise TypeError("TransposedView wraps a 2-D DistArray")
        self.parent = parent

    @property
    def shape(self):
        return (self.parent.shape[1], self.parent.shape[0])

    @property
    def dtype(self):
        return self.parent.dtype

    @property
    def comm(self):
        return self.parent.comm

    @property
    def partition(self):
        return self.parent.partition

    def __repr__(self):
        return f"<TransposedView shape={self.shape} of {self.parent!r}>"


def transpose(a):
    """Zero-copy logical transpose of a 2-D distributed matrix."""
    if isinstance(a, TransposedView):
        return a.parent
    if isinstance(a, DistArray) and a.ndim == 2:
        return TransposedView(a)
    raise TypeError("transpose expects a 2-D DistArray or a TransposedView")


def empty(shape, comm, dtype=np.float64):
    """Uninitialized distributed array."""
    return DistArray(comm, shape, dtype)


def zeros(shape, comm, dtype=np.float64):
    a = DistArray(comm, shape, dtype)
    a.local[...] = 0
    return a


def fill(a, value):
    a.fill(value)


def _rows(shape):
    out = 1
    for s in shape[:-1]:
        out *= s
    return out


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


def _draw(gen, n, dist, dtype):
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError("random fill requires a float dtype")
    if dist == "uniform01":
        return gen.random(n, dtype=dtype)
    if dist == "standard_normal":
        return gen.standard_normal(n, dtype=dtype)
    raise ValueError(f"unknown distribution {dist!r}")


def rand_fill(a, seed=None, common_init=False, dist="uniform01"):
    """Fill with random values.

    With ``common_init=True`` the whole array is generated on rank 0
    (seeded with ``seed`` when given) and scattered, so the global content
    does not depend on the number of ranks.  Otherwise every rank fills its
    own block from a stream seeded with ``seed + rank`` (or fresh entropy
    when ``seed`` is None).
    """
    comm = a.comm
    if common_init:
        rows = _rows(a.shape)
        if comm.rank == 0:
            vals = _draw(_generator(seed), rows * a.shape[-1], dist, a.dtype)
        else:
            vals = None
        recv = np.empty(a.local.size, dtype=a.dtype)
        counts = [rows * w for w in a.partition.counts()]
        comm.scatterv(vals, recv, counts)
        a.local[...] = recv.reshape(a.local.shape, order="F")
    else:
        gen = _generator(None if seed is None else seed + comm.rank)
        vals = _draw(gen, a.local.size, dist, a.dtype)
        a.local[...] = vals.reshape(a.local.shape, order="F")


def distribute(data, comm):
    """Distribute a dense array residing on rank 0 over all ranks.

    Other ranks pass ``None`` or an empty placeholder; rank 0's shape and
    dtype are announced, then blocks are scattered in column-major chunks
    along the last dimension.
    """
    if comm.rank == 0:
        data = np.asarray(data)
        if data.dtype not in _DTYPE_CODES:
            raise DistributionError(f"cannot distribute dtype {data.dtype}; "
                                    "use float32/float64/int64")
        head = np.array([data.ndim, _DTYPE_CODES[data.dtype]], dtype=np.int64)
    else:
        head = np.zeros(2, dtype=np.int64)
    comm.broadcast(head)
    ndim, code = int(head[0]), int(head[1])
    ext = np.array(data.shape, dtype=np.int64) if comm.rank == 0 else np.zeros(ndim, np.int64)
    comm.broadcast(ext)
    shape = tuple(int(e) for e in ext)
    dtype = _CODE_DTYPES[code]
    if comm.rank != 0 and data is not None:
        placeholder = np.asarray(data)
        if placeholder.size and placeholder.shape != shape:
            raise DistributionError(
                f"placeholder shape {placeholder.shape} disagrees with announced {shape}"
            )
        if placeholder.dtype != dtype:
            raise DistributionError(
                f"placeholder dtype {placeholder.dtype} disagrees with announced {dtype}"
            )
    out = DistArray(comm, shape, dtype)
    rows = _rows(shape)
    counts = [rows * w for w in out.partition.counts()]
    send = np.ravel(data, order="F") if comm.rank == 0 else None
    recv = np.empty(out.local.size, dtype=dtype)
    comm.scatterv(send, recv, counts)
    out.local[...] = recv.reshape(out.local.shape, order="F")
    return out


def gather_full(a):
    """Dense copy of the whole array, identical on every rank."""
    rows = _rows(a.shape)
    counts = [rows * w for w in a.partition.counts()]
    recv = np.empty(sum(counts), dtype=a.dtype)
    a.comm.allgatherv(np.ravel(a.local, order="F"), recv, counts)
    return recv.reshape(a.shape, order="F")


def map_broadcast(dest, fn, *args, allow_full_replicated=False):
    """Elementwise ``dest = fn(*args)`` with numpy-style broadcasting.

    Operands may be DistArrays (which must share ``dest``'s partition along
    the split dimension), replicated numpy arrays, or scalars.  A replicated
    operand may span the split dimension only with extent 1; a full-extent
    replicated operand is rejected unless ``allow_full_replicated=True``,
    because identical content across ranks cannot be verified locally.
    No communication is performed.
    """
    locals_ = []
    for arg in args:
        if isinstance(arg, DistArray):
            _check_global_broadcast(dest, arg.shape)
            if arg.shape[-1] == dest.shape[-1]:
                if arg.partition != dest.partition:
                    raise DistributionError("distributed operands must share the partition")
                locals_.append(arg.local)
            else:
                raise DistributionError(
                    "a distributed operand cannot broadcast along the split dimension; "
                    "pass a replicated array instead"
                )
        elif isinstance(arg, TransposedView):
            raise TypeError("transposed views are not elementwise operands; copy them first")
        elif np.ndim(arg) == 0:
            locals_.append(arg)
        else:
            arr = np.asarray(arg)
            _check_global_broadcast(dest, arr.shape)
            if arr.shape[-1] == 1:
                locals_.append(arr)
            else:  # compat check leaves only the full-extent case
                if not allow_full_replicated:
                    raise DistributionError(
                        "replicated operand spans the full split dimension; "
                        "pass allow_full_replicated=True if its content is identical on all ranks"
                    )
                locals_.append(arr[..., dest.lo:dest.hi])
    dest.local[...] = fn(*locals_)


def _check_global_broadcast(dest, shape):
    try:
        out = np.broadcast_shapes(dest.shape, shape)
    except ValueError:
        raise BroadcastError(f"shape {shape} does not broadcast with {dest.shape}") from None
    if out != dest.shape:
        raise BroadcastError(f"operand shape {shape} exceeds destination {dest.shape}")


def _reduce_neutral(op, dtype):
    if op is ReduceOp.SUM:
        return dtype.type(0)
    if op is ReduceOp.PROD:
        return dtype.type(1)
    big = np.inf if dtype.kind == "f" else np.iinfo(dtype).max
    small = -np.inf if dtype.kind == "f" else np.iinfo(dtype).min
    return dtype.type(small) if op is ReduceOp.MAX else dtype.type(big)


_LOCAL_FOLD = {
    ReduceOp.SUM: np.sum,
    ReduceOp.PROD: np.prod,
    ReduceOp.MAX: np.max,
    ReduceOp.MIN: np.min,
}


def reduce_all(a, op=ReduceOp.SUM, transform=None):
    """Scalar fold over all global elements of ``transform(a)``."""
    total = _rows(a.shape) * a.shape[-1]
    if total == 0 and op in (ReduceOp.MAX, ReduceOp.MIN):
        raise ValueError("max/min reduction over an empty array")
    local = a.local if transform is None else transform(a.local)
    local = np.asarray(local)
    if local.size:
        part = _LOCAL_FOLD[op](local)
    else:
        part = _reduce_neutral(op, np.asarray(local).dtype)
    buf = np.array([part])
    a.comm.allreduce(buf, op)
    return buf[0].item()


def reduce_dims(a, axis):
    """Directional sums of a 2-D distributed matrix.

    ``axis=0`` collapses rows into a 1 x n distributed row (no
    communication); ``axis=1`` collapses columns into a replicated (m, 1)
    array; ``axis=(0, 1)`` gives a 1 x 1 distributed result.
    """
    if a.ndim != 2:
        raise ValueError("reduce_dims expects a 2-D array")
    if axis == 0 or axis == (0,):
        out = DistArray(a.comm, (1, a.shape[1]), a.dtype)
    elif axis == 1 or axis == (1,):
        out = np.empty((a.shape[0], 1), dtype=a.dtype)
    elif axis == (0, 1):
        out = DistArray(a.comm, (1, 1), a.dtype)
    else:
        raise ValueError(f"invalid axis {axis!r}")
    reduce_into(out, a)
    return out


def reduce_into(dest, a):
    """Directional sum of ``a`` into ``dest``, dispatched on dest's shape.

    A 1 x n distributed dest receives column sums; a replicated (m, 1)
    array receives row sums; a 1 x 1 dest (of either kind) receives the
    full sum.
    """
    if a.ndim != 2:
        raise ValueError("reduce_into expects a 2-D source")
    m, n = a.shape
    if isinstance(dest, DistArray):
        if dest.shape == (1, n):
            np.sum(a.local, axis=0, keepdims=True, out=dest.local)
            return
        if dest.shape == (1, 1):
            dest.local[...] = reduce_all(a, ReduceOp.SUM)
            return
        raise DistributionError(f"dest shape {dest.shape} is not a collapse of {a.shape}")
    dest = np.asarray(dest)
    if dest.shape == (m, 1):
        if a.local.size:
            np.sum(a.local, axis=1, keepdims=True, out=dest)
        else:
            dest[...] = 0
        a.comm.allreduce(dest, ReduceOp.SUM)
        return
    if dest.shape == (1, 1):
        dest[...] = reduce_all(a, ReduceOp.SUM)
        return
    raise DistributionError(f"dest shape {dest.shape} is not a collapse of {a.shape}")


def scan(dest, a, axis=0, op="sum"):
    """Running cumulative sum/product along one dimension into ``dest``.

    Along the split dimension each rank accumulates locally and then adds
    the exclusive prefix of the preceding ranks' totals, so global order is
    respected.
    """
    if not isinstance(dest, DistArray) or dest.shape != a.shape or dest.dtype != a.dtype:
        raise DistributionError("scan needs a destination of identical shape and dtype")
    if dest.partition != a.partition:
        raise DistributionError("scan needs a destination with the same partition")
    if op not in ("sum", "prod"):
        raise ValueError(f"scan op must be 'sum' or 'prod', got {op!r}")
    axis = axis + a.ndim if axis < 0 else axis
    if not 0 <= axis < a.ndim:
        raise ValueError(f"axis {axis} out of range")
    cum = np.cumsum if op == "sum" else np.cumprod
    if axis != a.ndim - 1:
        cum(a.local, axis=axis, out=dest.local)
        return
    cum(a.local, axis=axis, out=dest.local)
    rows = _rows(a.shape)
    fold = np.sum if op == "sum" else np.prod
    if a.ndim > 1:
        totals = np.ravel(fold(a.local, axis=-1), order="F").astype(a.dtype, copy=False)
    else:
        totals = np.array([fold(a.local)], dtype=a.dtype)
    gathered = np.empty(rows * a.comm.size, dtype=a.dtype)
    a.comm.allgatherv(totals, gathered, [rows] * a.comm.size)
    blocks = gathered.reshape((rows, a.comm.size), order="F")
    if a.comm.rank == 0:
        return
    offset = blocks[:, 0].copy()
    for r in range(1, a.comm.rank):
        if op == "sum":
            offset += blocks[:, r]
        else:
            offset *= blocks[:, r]
    shaped = offset.reshape(a.shape[:-1] + (1,), order="F") if a.ndim > 1 else offset[0]
    if op == "sum":
        dest.local += shaped
    else:
        dest.local *= shaped

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
import math

import numpy as np

from .comm import _CODE_DTYPES, _DTYPE_CODES, _REDUCE_UFUNC, ReduceOp


_MAX_NDIM = 64  # numpy's limit on the number of dimensions


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


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


_DRAWS = {"uniform01": "random", "standard_normal": "standard_normal"}  # Generator methods


def rand_fill(a, seed=None, common_init=False, dist="uniform01"):
    """Fill with random values.

    With ``common_init=True`` the whole array is generated on rank 0
    (seeded with ``seed`` when given) and scattered, so the global content
    does not depend on the number of ranks.  Otherwise every rank fills its
    own block from a stream seeded with ``seed + rank`` (or fresh entropy
    when ``seed`` is None).  A non-float dtype, an unknown ``dist`` or, with
    ``common_init``, a bad seed raises on every rank before any collective.
    """
    if a.dtype not in (np.float32, np.float64):
        raise ValueError(f"random fill requires a float dtype, got {a.dtype}")
    if dist not in _DRAWS:
        raise ValueError(f"unknown distribution {dist!r}")
    comm = a.comm
    if common_init:
        rows = math.prod(a.shape[:-1])
        gen = _generator(seed)  # on every rank, so a bad seed raises on every rank
        if comm.rank == 0:
            vals = getattr(gen, _DRAWS[dist])(rows * a.shape[-1], dtype=a.dtype)
        else:
            vals = None
        counts = [rows * w for w in a.partition.counts()]
        comm.scatterv(vals, a.local, counts)
    else:
        gen = _generator(None if seed is None else seed + comm.rank)
        vals = getattr(gen, _DRAWS[dist])(a.local.size, dtype=a.dtype)
        a.local[...] = vals.reshape(a.local.shape, order="F")


def _announce(comm, describe, error, catch=()):
    """Every rank gets rank 0's ``describe() -> (dtype, shape)`` by one broadcast, or raises
    ``error`` if that raised ``error`` or one of ``catch``, or gave a dtype no collective has."""
    head = np.zeros(3 + _MAX_NDIM, dtype=np.int64)  # status, dtype code, ndim, extents
    message = f"rank 0 raised {error.__name__}"
    if comm.rank == 0:
        try:
            dtype, shape = describe()
            if dtype not in _DTYPE_CODES:
                raise error(f"cannot send dtype {dtype}; use float32/float64/int64")
            head[1:3 + len(shape)] = (_DTYPE_CODES[dtype], len(shape), *shape)
        except (error, *catch) as exc:
            head[0], message = 1, str(exc)
    comm.broadcast(head)
    if head[0]:
        raise error(message)
    return _CODE_DTYPES[int(head[1])], tuple(int(e) for e in head[3:3 + head[2]])


def _settle(comm, step, error, catch):
    """Run ``step()`` on every rank, then one MAX allreduce of a status: if it
    raised one of ``catch`` on any rank, every rank raises ``error``."""
    status = np.zeros(1, dtype=np.int64)
    message = f"another rank raised {error.__name__}"
    try:
        step()
    except catch as exc:
        status[0], message = 1, str(exc)
    comm.allreduce(status, ReduceOp.MAX)
    if status[0]:
        raise error(message)


def distribute(data, comm):
    """Distribute a dense array residing on rank 0 over all ranks.

    Other ranks pass ``None`` or an empty placeholder.  One broadcast announces
    rank 0's dtype and shape, or that numpy cannot convert its data or send its
    dtype; blocks are then scattered in column-major chunks along the last
    dimension.  A placeholder that disagrees raises on its own rank after the
    scatter, so none waits.
    """
    def describe():
        nonlocal data
        data = np.asarray(data)
        return data.dtype, data.shape

    dtype, shape = _announce(comm, describe, DistributionError, (ValueError,))
    out = DistArray(comm, shape, dtype)
    counts = [math.prod(shape[:-1]) * w for w in out.partition.counts()]
    send = np.ravel(data, order="F") if comm.rank == 0 else None
    comm.scatterv(send, out.local, counts)  # F-contiguous, so filled in place
    if comm.rank != 0 and data is not None:
        data = np.asarray(data)
        if (data.size and data.shape != shape) or data.dtype != dtype:
            raise DistributionError(f"placeholder {data.shape} {data.dtype} disagrees with "
                                    f"announced {shape} {dtype}")
    return out


def _gather(a, lo, hi, out):
    """Fill ``out`` on every rank with global columns [lo, hi) of ``a``, in
    column-major order, by one allgatherv (in place if ``out`` is F-contiguous)."""
    cuts = [min(max(b, lo), hi) for b in a.partition.boundaries]  # each rank's overlap
    r, rows = a.comm.rank, math.prod(a.shape[:-1])
    mine = a.local[..., cuts[r] - a.lo:cuts[r + 1] - a.lo]
    counts = [rows * (stop - start) for start, stop in zip(cuts, cuts[1:])]
    a.comm.allgatherv(np.ravel(mine, order="F"), out, counts)
    return out


def gather_full(a):
    """Dense copy of the whole array, identical on every rank."""
    return _gather(a, 0, a.shape[-1], np.empty(a.shape, dtype=a.dtype, order="F"))


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
    """What an empty block contributes to a max/min fold."""
    big = np.inf if dtype.kind == "f" else np.iinfo(dtype).max
    small = -np.inf if dtype.kind == "f" else np.iinfo(dtype).min
    return dtype.type(small) if op is ReduceOp.MAX else dtype.type(big)


def reduce_all(a, op=ReduceOp.SUM, transform=None):
    """Scalar fold over all global elements of ``transform(a)``."""
    total = math.prod(a.shape[:-1]) * a.shape[-1]
    if total == 0 and op in (ReduceOp.MAX, ReduceOp.MIN):
        raise ValueError("max/min reduction over an empty array")
    local = a.local if transform is None else transform(a.local)
    local = np.asarray(local)
    if local.size or op in (ReduceOp.SUM, ReduceOp.PROD):  # empty: the ufunc's identity
        part = _REDUCE_UFUNC[op].reduce(local, axis=None)
    else:
        part = _reduce_neutral(op, local.dtype)
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
    distributed = isinstance(dest, DistArray)
    target = dest.local if distributed else np.asarray(dest)
    shape = dest.shape if distributed else target.shape
    if distributed and shape == (1, n):
        np.sum(a.local, axis=0, keepdims=True, out=target)
    elif not distributed and shape == (m, 1):
        np.sum(a.local, axis=1, keepdims=True, out=target)  # zeros for an empty block
        a.comm.allreduce(target, ReduceOp.SUM)
    elif shape == (1, 1):
        target[...] = reduce_all(a, ReduceOp.SUM)
    else:
        raise DistributionError(f"dest shape {shape} is not a collapse of {a.shape}")


def scan(dest, a, axis=0, op="sum"):
    """Running cumulative sum/product along one dimension into ``dest``.

    Along the split dimension each rank r accumulates locally, then applies
    slot r of one allreduce of rows x p slots, into which it writes its
    totals at slots r + 1 .. p - 1 and an exact identity (-0.0 for a sum, 1
    for a product) elsewhere: slot r is the exclusive prefix, in rank order.
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
    ufunc = _REDUCE_UFUNC[ReduceOp[op.upper()]]
    ufunc.accumulate(a.local, axis=axis, out=dest.local)
    if axis != a.ndim - 1:
        return
    r, identity = a.comm.rank, -0.0 if op == "sum" else 1
    slots = np.full(a.shape[:-1] + (a.comm.size,), identity, dtype=a.dtype, order="F")
    slots[..., r + 1:] = ufunc.reduce(a.local, axis=-1, keepdims=True)
    a.comm.allreduce(slots, ReduceOp[op.upper()])
    ufunc(dest.local, slots[..., r:r + 1], out=dest.local)

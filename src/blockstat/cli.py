"""Command-line driver: data generation, solver runs, benchmark checks.

Subcommands
-----------
``gen``    write a random matrix to a ``.dsta`` file
``nmf``    factorize a matrix, both update rules available
``mds``    embed points (columns of the input) into few dimensions
``cox``    L1-regularized proportional-hazards fit
``bench``  run one matmul scenario or a scan against its dense oracle

Every command runs on all ranks of the configured backend.  Every rank opens
a matrix file itself and reads or writes only its own byte range, so ranks on
different hosts need the same path on a shared file system; rank 0 alone
checks or writes the header and writes the trace.  The backend comes from
``--backend`` unless the environment variable ``DISTSTAT_BACKEND`` is set,
which overrides the flag.  ``nmf``, ``mds`` and ``cox`` make one solver call;
the trace's ``elapsed_s`` is rank 0's ``iter_stats`` seconds since it began.

Matrix files are binary: magic ``DSTA``, one dtype byte (0=f32, 1=f64,
2=i64), the number of dimensions as a little-endian u64, one u64 extent per
dimension, then the payload as column-major little-endian scalars.

Exit codes: 0 success, 1 I/O or data error, 2 usage error, 3 collective
contract violation.
"""

from __future__ import annotations

import argparse
from functools import partial
import math
import os
import struct
import sys
import time

import numpy as np

from . import comm as _comm
from .comm import _CODE_DTYPES, _DTYPE_CODES, CollectiveContractError, CommError
from .distarray import _MAX_NDIM, DistArray, distribute, empty, gather_full, rand_fill, reduce_all
from .distarray import scan as _scan
from .distlinalg import SCENARIOS, matmul, pairwise_euclidean
from .solvers import (
    ConvergenceMonitor,
    DegenerateConfigError,
    NumericError,
    cox_fit,
    cox_init,
    mds_fit,
    mds_init,
    nmf_apg,
    nmf_init,
    nmf_multiplicative,
)
from .testing import materialize, scenario_operands

_MAGIC = b"DSTA"
_PRECISION = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


class FormatError(ValueError):
    """Matrix file violates the on-disk format."""


def _header(dtype, shape):
    """The bytes before the payload of a file holding ``shape`` scalars of ``dtype``."""
    return (_MAGIC + struct.pack("<BQ", _DTYPE_CODES[dtype], len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape))


def _block_io(path, a, header_len, write):
    """Write or read this rank's block of ``a`` at its byte range of the payload.

    The payload is column-major and ``a`` is split along its last dimension,
    so the block is one contiguous range starting ``rows * lo`` scalars in.
    """
    view = memoryview(a.local.reshape(-1, order="F")).cast("B")  # a view if F-contiguous
    offset = header_len + math.prod(a.shape[:-1]) * a.lo * a.dtype.itemsize
    fd = os.open(path, os.O_WRONLY if write else os.O_RDONLY)
    try:
        while view:
            n = os.pwrite(fd, view, offset) if write else os.preadv(fd, [view], offset)
            if n == 0:
                raise FormatError(f"payload ends {len(view)} bytes early")
            view, offset = view[n:], offset + n
    finally:
        os.close(fd)


def write_matrix(path, array):
    """Write a distributed array; a plain array is written as a one-rank world's.

    Rank 0 writes the header and sizes the file, then every rank writes its
    own block at its own byte range, so no rank holds another rank's block.
    A failure on any rank raises OSError on every rank.
    """
    if not isinstance(array, DistArray):
        data = np.asarray(array)
        array = DistArray(_comm.init("inproc:1")[0], data.shape, data.dtype, local=data)
    if array.dtype not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {array.dtype}")
    comm = array.comm
    head = _header(array.dtype, array.shape)
    status = np.zeros(1, dtype=np.int64)
    message = ""
    if comm.rank == 0:
        try:
            with open(path, "wb") as fh:
                fh.write(head)
                fh.truncate(len(head) + math.prod(array.shape) * array.dtype.itemsize)
        except OSError as exc:
            status[0], message = 1, str(exc)
    comm.broadcast(status)
    if not status[0]:
        try:
            _block_io(path, array, len(head), write=True)
        except (OSError, FormatError) as exc:
            status[0], message = 1, str(exc)
    comm.allreduce(status, _comm.ReduceOp.MAX)  # a failure on any rank raises on every rank
    if status[0]:
        raise OSError(message or f"another rank failed to write {path}")


def _read_header(fh):
    """Stored dtype and shape; a defective or short header raises FormatError."""
    magic = fh.read(4)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    try:
        (code,) = struct.unpack("<B", fh.read(1))
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code}")
        (ndim,) = struct.unpack("<Q", fh.read(8))
        if ndim > _MAX_NDIM:  # checked before the extents are read
            raise FormatError(f"header claims {ndim} dimensions, numpy allows {_MAX_NDIM}")
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    except struct.error as exc:
        raise FormatError(f"truncated header: {exc}") from None
    return _CODE_DTYPES[code], shape


def read_matrix(path, comm, dtype=None):
    """Read a matrix file into a DistArray. No implicit casts.

    Rank 0 checks the header and the payload size and broadcasts the status,
    dtype code and shape; every rank then reads its own block straight into
    its ``local``.  A failure on any rank raises FormatError on every rank.
    """
    head = np.zeros(3 + _MAX_NDIM, dtype=np.int64)  # status, dtype code, ndim, extents
    message = ""
    if comm.rank == 0:
        try:
            with open(path, "rb") as fh:
                stored, shape = _read_header(fh)
                if dtype is not None and stored != np.dtype(dtype):
                    raise FormatError(f"file holds {stored}, run expects {np.dtype(dtype)}")
                want = math.prod(shape) * stored.itemsize  # Python ints: no int64 wrap
                have = os.fstat(fh.fileno()).st_size - fh.tell()
                if have != want:
                    raise FormatError(f"payload is {have} bytes, expected {want}")
                if math.prod(e for e in shape if e) * stored.itemsize > np.iinfo(np.intp).max:
                    raise FormatError(f"extents {shape} exceed numpy's array size limit")
            head[1:3 + len(shape)] = (_DTYPE_CODES[stored], len(shape), *shape)
        except (OSError, FormatError) as exc:
            head[0], message = 1, str(exc)
    comm.broadcast(head)
    if head[0]:
        raise FormatError(message or "rank 0 failed to read the matrix file")
    ndim = int(head[2])
    out = DistArray(comm, head[3:3 + ndim], _CODE_DTYPES[int(head[1])])
    status = np.zeros(1, dtype=np.int64)
    try:
        _block_io(path, out, len(_header(out.dtype, out.shape)), write=False)
    except (OSError, FormatError) as exc:
        status[0], message = 1, str(exc)
    comm.allreduce(status, _comm.ReduceOp.MAX)  # a failure on any rank raises on every rank
    if status[0]:
        raise FormatError(message or "another rank failed to read its block")
    return out


def _write_trace(comm, path, state):
    if comm.rank == 0 and path:
        with open(path, "w") as fh:
            fh.write("iter,objective,elapsed_s\n")
            for it, (obj, stats) in enumerate(zip(state.trace, state.iter_stats)):
                fh.write(f"{it},{obj!r},{stats[0]:.6f}\n")


# -- commands -----------------------------------------------------------------


def _cmd_gen(comm, args):
    dtype = _PRECISION[args.precision]
    a = empty((args.rows, args.cols), comm, dtype)
    rand_fill(a, seed=args.seed, common_init=True, dist=args.dist)
    write_matrix(args.out, a)
    if comm.rank == 0:
        print(f"wrote {args.rows}x{args.cols} {args.precision} matrix to {args.out}")
    return 0


def _cmd_nmf(comm, args):
    x = read_matrix(args.input, comm, dtype=_PRECISION[args.precision])
    state = nmf_init(x, args.rank, seed=args.seed)
    algorithm = nmf_apg if args.algorithm == "apg" else nmf_multiplicative
    algorithm(state, args.iters)
    _write_trace(comm, args.trace, state)
    if args.out_vt:
        write_matrix(args.out_vt, state.Vt)
    if args.out_w:
        write_matrix(args.out_w, state.W)
    if comm.rank == 0 and state.trace:
        print(f"nmf({args.algorithm}) rank={args.rank} iters={len(state.trace)} "
              f"objective={state.trace[-1]:.6g}")
    return 0


def _cmd_mds(comm, args):
    x = read_matrix(args.input, comm, dtype=_PRECISION[args.precision])
    n = x.shape[1]
    y = empty((n, n), comm, x.dtype)
    pairwise_euclidean(y, x, chunk=args.chunk)
    state = mds_init(y, args.embed_dim, seed=args.seed, perturb=args.perturb)
    mds_fit(state, args.iters)
    _write_trace(comm, args.trace, state)
    if args.out:
        write_matrix(args.out, state.theta)
    if comm.rank == 0 and state.trace:
        print(f"mds q={args.embed_dim} iters={len(state.trace)} stress={state.trace[-1]:.6g}")
    return 0


def _synthetic_survival(m, seed, dtype):
    gen = np.random.Generator(np.random.Philox(0 if seed is None else seed + 1))
    y = np.arange(m, 0, -1, dtype=np.float64)  # distinct, nonincreasing
    delta = (gen.random(m) > 0.3).astype(dtype)
    return y, delta


def _read_vector(path, comm, dtype):
    vec = read_matrix(path, comm, dtype=dtype)
    return gather_full(vec).reshape(-1)


def _cmd_cox(comm, args):
    dtype = _PRECISION[args.precision]
    x = read_matrix(args.input, comm, dtype=dtype)
    m = x.shape[0]
    if args.time and args.events:
        y = _read_vector(args.time, comm, np.float64)
        delta = _read_vector(args.events, comm, dtype)
    else:
        y, delta = _synthetic_survival(m, args.seed, dtype)
    state = cox_init(x, y, delta, lam=args.lam, sigma=args.sigma, ties=args.ties)
    cox_fit(state, args.iters, monitor=ConvergenceMonitor() if args.monitor else None)
    _write_trace(comm, args.trace, state)
    if args.out:
        write_matrix(args.out, state.beta)
    nnz = reduce_all(state.beta, transform=np.count_nonzero)
    if comm.rank == 0 and state.trace:
        print(f"cox lambda={args.lam:g} iters={len(state.trace)} "
              f"objective={state.trace[-1]:.6g} nonzeros={nnz}")
    return 0


def _cmd_bench(comm, args):
    gen = np.random.Generator(np.random.Philox(args.seed or 0))
    if args.op == "matmul":
        row = args.scenario
        if row not in SCENARIOS:
            raise FormatError(f"unknown scenario {row!r}")
        vector = SCENARIOS[row][1] in ("dvec", "rvec") or SCENARIOS[row][2] in ("dvec", "rvec")
        a_dense = gen.random((args.rows, args.inner))
        b_dense = gen.random(args.inner) if vector else gen.random((args.inner, args.cols))
        c, a, b = scenario_operands(row, a_dense, b_dense, comm)
        label, want, op = f"matmul scenario {row}", a_dense @ b_dense, partial(matmul, c, a, b)
    else:
        data = gen.random((args.rows, args.cols))
        d = distribute(data if comm.rank == 0 else None, comm)
        c = empty(d.shape, comm, d.dtype)
        label, want = f"scan axis={args.axis}", np.cumsum(data, axis=args.axis)
        op = partial(_scan, c, d, axis=args.axis)
    t0 = time.perf_counter()
    op()
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(materialize(c).reshape(want.shape) - want)))
    if comm.rank == 0:
        print(f"{label}: max abs deviation {dev:.3e} ({elapsed * 1e3:.2f} ms)")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "nmf": _cmd_nmf,
    "mds": _cmd_mds,
    "cox": _cmd_cox,
    "bench": _cmd_bench,
}


def _add_common(sub):
    sub.add_argument("--backend", default="inproc:1",
                     help="inproc:<P> or tcp:host:port,...,rank=<r> "
                          "(DISTSTAT_BACKEND overrides)")
    sub.add_argument("--precision", choices=("f32", "f64"), default="f64")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--trace", default=None, help="CSV path for the objective trace")


def _build_parser():
    parser = argparse.ArgumentParser(prog="blockstat",
                                     description="distributed arrays and solvers")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random matrix file")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--cols", type=int, required=True)
    gen.add_argument("--dist", choices=("uniform01", "standard_normal"),
                     default="uniform01")
    gen.add_argument("--out", required=True)
    _add_common(gen)

    nmf = subs.add_parser("nmf", help="nonnegative matrix factorization")
    nmf.add_argument("--input", required=True)
    nmf.add_argument("--rank", type=int, required=True)
    nmf.add_argument("--iters", type=int, default=100)
    nmf.add_argument("--algorithm", choices=("multiplicative", "apg"),
                     default="multiplicative")
    nmf.add_argument("--out-vt", default=None)
    nmf.add_argument("--out-w", default=None)
    _add_common(nmf)

    mds = subs.add_parser("mds", help="multidimensional scaling of the input columns")
    mds.add_argument("--input", required=True)
    mds.add_argument("--embed-dim", type=int, required=True)
    mds.add_argument("--iters", type=int, default=100)
    mds.add_argument("--chunk", type=int, default=64)
    mds.add_argument("--perturb", action="store_true",
                     help="perturb coincident points instead of failing")
    mds.add_argument("--out", default=None)
    _add_common(mds)

    cox = subs.add_parser("cox", help="L1-regularized Cox regression")
    cox.add_argument("--input", required=True)
    cox.add_argument("--lambda", dest="lam", type=float, required=True)
    cox.add_argument("--iters", type=int, default=1000)
    cox.add_argument("--sigma", type=float, default=None,
                     help="step size (default 1 / (2 ||X||_2^2))")
    cox.add_argument("--time", default=None, help="observed-time vector file")
    cox.add_argument("--events", default=None, help="event-indicator vector file")
    cox.add_argument("--ties", choices=("none", "breslow"), default="none")
    cox.add_argument("--monitor", action="store_true",
                     help="stop early on the windowed relative-change rule")
    cox.add_argument("--out", default=None)
    _add_common(cox)

    bench = subs.add_parser("bench", help="oracle-checked micro benchmarks")
    bench.add_argument("--op", choices=("matmul", "scan"), default="matmul")
    bench.add_argument("--scenario", default="a")
    bench.add_argument("--rows", type=int, default=6)
    bench.add_argument("--inner", type=int, default=5)
    bench.add_argument("--cols", type=int, default=4)
    bench.add_argument("--axis", type=int, default=1)
    _add_common(bench)
    return parser


def run(argv=None):
    """Parse flags and execute the command on every rank; returns exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    backend = os.environ.get("DISTSTAT_BACKEND") or args.backend
    try:
        statuses = _comm.launch(backend, _COMMANDS[args.command], args)
        return max(statuses)
    except CollectiveContractError as exc:
        print(f"error: collective contract violation: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, CommError, DegenerateConfigError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Distributed linear algebra on 2-D block-distributed matrices.

Matrix operands come in five kinds:

* ``dist``  - column-split :class:`~blockstat.distarray.DistArray` (2-D)
* ``tdist`` - :class:`~blockstat.distarray.TransposedView`, a row-split matrix
* ``repl``  - replicated dense numpy matrix, identical on every rank
* ``dvec``  - distributed vector: a 1-D DistArray or the transpose of a
  ``1 x n`` distributed row
* ``rvec``  - replicated dense numpy vector

:func:`matmul` implements the seventeen admissible ``C = A @ B`` layout
combinations (scenarios ``a`` through ``q`` below), selected statically
from the kinds of ``C``, ``A`` and ``B``.  Where several output layouts
are possible for the same inputs, the caller's choice of ``C`` picks the
scenario.  Scenarios that need a replicated staging buffer accept an
optional preallocated ``tmp`` of the fixed shape listed; supplying it
never changes any output value.

====  =====  =====  =====  ============
row   A      B      C      tmp shape
====  =====  =====  =====  ============
a     dist   dist   dist   (p, q)
b     dist   tdist  dist   (p, r)
c     dist   tdist  tdist  (r, p)
d     dist   tdist  repl   --
e     dist   repl   repl   --
f     tdist  dist   dist   (q, p)
g     tdist  dist   tdist  (q, r)
h     tdist  tdist  tdist  (r, q)
i     tdist  repl   tdist  --
j     repl   dist   dist   --
k     repl   tdist  repl   --
l     dist   dvec   dvec   (p,)
m     dist   dvec   rvec   --
n     dist   rvec   rvec   --
o     tdist  dvec   dvec   (q,)
p     tdist  rvec   dvec   --
q     tdist  rvec   rvec   --
====  =====  =====  =====  ============

for ``A`` of global shape (p, q) and ``B`` of shape (q, r) (a length-q
vector in rows l-q).
"""

from __future__ import annotations

import numpy as np

from .comm import ReduceOp
from .distarray import DistArray, TransposedView

SCENARIOS = {
    "a": ("dist", "dist", "dist"),
    "b": ("dist", "tdist", "dist"),
    "c": ("dist", "tdist", "tdist"),
    "d": ("dist", "tdist", "repl"),
    "e": ("dist", "repl", "repl"),
    "f": ("tdist", "dist", "dist"),
    "g": ("tdist", "dist", "tdist"),
    "h": ("tdist", "tdist", "tdist"),
    "i": ("tdist", "repl", "tdist"),
    "j": ("repl", "dist", "dist"),
    "k": ("repl", "tdist", "repl"),
    "l": ("dist", "dvec", "dvec"),
    "m": ("dist", "dvec", "rvec"),
    "n": ("dist", "rvec", "rvec"),
    "o": ("tdist", "dvec", "dvec"),
    "p": ("tdist", "rvec", "dvec"),
    "q": ("tdist", "rvec", "rvec"),
}
_DISPATCH = {kinds: row for row, kinds in SCENARIOS.items()}


class ScenarioError(TypeError):
    """The (A, B, C) kind combination is not an admissible scenario."""


class ShapeError(ValueError):
    """Operand extents do not agree."""


def dot(a, b):
    """Sum of the elementwise product of two identically distributed arrays."""
    if not isinstance(a, DistArray) or not isinstance(b, DistArray):
        raise TypeError("dot expects two DistArrays")
    if a.shape != b.shape:
        raise ShapeError(f"dot shapes differ: {a.shape} vs {b.shape}")
    if a.partition != b.partition:
        raise ShapeError("dot operands must share the partition")
    part = float(np.dot(np.ravel(a.local, order="F"), np.ravel(b.local, order="F")))
    buf = np.array([part])
    a.comm.allreduce(buf, ReduceOp.SUM)
    return buf[0].item()


def _owned_diag(m):
    lo, hi = m.lo, m.hi
    return np.ascontiguousarray(np.diagonal(m.local[lo:hi, :]))


def diag_get(dest, m):
    """Copy the main diagonal of a square distributed matrix into ``dest``.

    A ``1 x n`` distributed dest stays distributed (no communication);
    a replicated dest of length n is assembled with an allgather of the
    locally owned diagonal entries.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"diagonal of a non-square matrix {m.shape}")
    n = m.shape[0]
    if isinstance(dest, DistArray):
        if dest.shape != (1, n) or dest.partition != m.partition:
            raise ShapeError(f"distributed dest must be 1 x {n} with the same partition")
        dest.local[0, :] = _owned_diag(m)
        return
    dest = np.asarray(dest)
    if dest.shape not in ((n,), (n, 1)):
        raise ShapeError(f"replicated dest must have length {n}")
    flat = np.empty(n, dtype=m.dtype)
    m.comm.allgatherv(_owned_diag(m), flat, m.partition.counts())
    dest[...] = flat.reshape(dest.shape)


def diag_fill(m, value):
    """Set the main diagonal of a square distributed matrix to ``value``."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"diagonal of a non-square matrix {m.shape}")
    w = m.hi - m.lo
    m.local[np.arange(m.lo, m.hi), np.arange(w)] = value


def _kind(x):
    if isinstance(x, DistArray):
        return "dist" if x.ndim == 2 else "dvec"
    if isinstance(x, TransposedView):
        return "tdist"
    arr = np.asarray(x)
    if arr.ndim == 2:
        return "repl"
    if arr.ndim == 1:
        return "rvec"
    raise ScenarioError(f"operand of unsupported kind: {type(x).__name__} ndim={arr.ndim}")


def _vec_like(x, kind):
    return kind in ("dvec", "rvec") or (kind == "tdist" and x.parent.shape[0] == 1)


def _as_dvec_local(x):
    """Local block of a distributed vector (1-D DistArray or 1 x n transpose)."""
    if isinstance(x, DistArray):
        return x.local
    return x.parent.local[0, :]


def _dvec_partition(x):
    return x.partition if isinstance(x, DistArray) else x.parent.partition


def _gather_into(dist, tmp):
    """Gather a column-split matrix into the replicated buffer ``tmp``."""
    rows = dist.shape[0]
    counts = [rows * w for w in dist.partition.counts()]
    flat = np.empty(dist.shape[0] * dist.shape[1], dtype=dist.dtype)
    dist.comm.allgatherv(np.ravel(dist.local, order="F"), flat, counts)
    tmp[...] = flat.reshape(dist.shape, order="F")
    return tmp


def _gather_vec_into(vec, tmp):
    local = _as_dvec_local(vec)
    part = _dvec_partition(vec)
    vec.comm.allgatherv(np.ascontiguousarray(local), tmp, part.counts())
    return tmp


def _tmp_buffer(tmp, shape, dtype, what):
    if tmp is None:
        return np.empty(shape, dtype=dtype, order="F")
    tmp = np.asarray(tmp)
    if tmp.shape != shape or tmp.dtype != np.dtype(dtype):
        raise ShapeError(f"tmp for scenario {what} must be {shape} {np.dtype(dtype)}, "
                         f"got {tmp.shape} {tmp.dtype}")
    return tmp


def _global_shape(x, kind):
    if kind in ("dist", "tdist", "repl"):
        return tuple(np.asarray(x).shape) if kind == "repl" else x.shape
    if kind == "dvec" and isinstance(x, TransposedView):
        return (x.parent.shape[1],)
    return np.asarray(x).shape if kind == "rvec" else x.shape


def matmul(c, a, b, tmp=None):
    """Distributed ``C = A @ B`` following the scenario table above.

    Raises :class:`ScenarioError` for inadmissible kind triples and
    :class:`ShapeError` when extents disagree.
    """
    ak, bk, ck = _kind(a), _kind(b), _kind(c)
    row = _DISPATCH.get((ak, bk, ck))
    if row is None and _vec_like(b, bk) and _vec_like(c, ck) and ak in ("dist", "tdist"):
        # The transpose of a 1 x n distributed row doubles as a column
        # vector; fall back to that reading when the raw kinds match no row.
        bk = "dvec" if bk == "tdist" else bk
        ck = "dvec" if ck == "tdist" else ck
        row = _DISPATCH.get((ak, bk, ck))
    if row is None:
        raise ScenarioError(
            f"no matmul scenario for (A={ak}, B={bk}, C={ck}); admissible rows: "
            + ", ".join(f"{r}:{k}" for r, k in sorted(SCENARIOS.items()))
        )
    ash, bsh, csh = _global_shape(a, ak), _global_shape(b, bk), _global_shape(c, ck)
    p, q = ash
    r = bsh[1] if len(bsh) == 2 else 1
    if bsh[0] != q:
        raise ShapeError(f"inner extents differ: A is {ash}, B is {bsh}")
    want_c = (p, r) if len(csh) == 2 else (p,)
    if csh != want_c:
        raise ShapeError(f"C has shape {csh}, expected {want_c}")
    _SCENARIO_IMPL[row](c, a, b, tmp, (p, q, r))
    return c


# -- matrix-matrix scenarios ------------------------------------------------


def _require_same_split(x, y, what):
    if x != y:
        raise ShapeError(f"{what} must share one partition, got {x} vs {y}")


def _scn_a(c, a, b, tmp, pqr):
    p, q, r = pqr
    tmp = _tmp_buffer(tmp, (p, q), a.dtype, "a")
    _gather_into(a, tmp)
    c.local[...] = tmp @ b.local


def _scn_b(c, a, b, tmp, pqr):
    p, q, r = pqr
    _require_same_split(a.partition, b.parent.partition, "A's columns and B's rows")
    tmp = _tmp_buffer(tmp, (p, r), a.dtype, "b")
    tmp[...] = a.local @ b.parent.local.T
    a.comm.allreduce(tmp, ReduceOp.SUM)
    c.local[...] = tmp[:, c.lo:c.hi]


def _scn_c(c, a, b, tmp, pqr):
    p, q, r = pqr
    _require_same_split(a.partition, b.parent.partition, "A's columns and B's rows")
    ct = c.parent
    tmp = _tmp_buffer(tmp, (r, p), a.dtype, "c")
    tmp[...] = (a.local @ b.parent.local.T).T
    a.comm.allreduce(tmp, ReduceOp.SUM)
    ct.local[...] = tmp[:, ct.lo:ct.hi]


def _scn_d(c, a, b, tmp, pqr):
    _require_same_split(a.partition, b.parent.partition, "A's columns and B's rows")
    c[...] = a.local @ b.parent.local.T
    a.comm.allreduce(c, ReduceOp.SUM)


def _scn_e(c, a, b, tmp, pqr):
    b = np.asarray(b)
    c[...] = a.local @ b[a.lo:a.hi, :]
    a.comm.allreduce(c, ReduceOp.SUM)


def _scn_f(c, a, b, tmp, pqr):
    p, q, r = pqr
    at = a.parent
    tmp = _tmp_buffer(tmp, (q, p), at.dtype, "f")
    _gather_into(at, tmp)
    c.local[...] = tmp.T @ b.local


def _scn_g(c, a, b, tmp, pqr):
    p, q, r = pqr
    at, ct = a.parent, c.parent
    _require_same_split(at.partition, ct.partition, "A's rows and C's rows")
    tmp = _tmp_buffer(tmp, (q, r), at.dtype, "g")
    _gather_into(b, tmp)
    ct.local[...] = tmp.T @ at.local


def _scn_h(c, a, b, tmp, pqr):
    p, q, r = pqr
    at, bt, ct = a.parent, b.parent, c.parent
    _require_same_split(at.partition, ct.partition, "A's rows and C's rows")
    tmp = _tmp_buffer(tmp, (r, q), at.dtype, "h")
    _gather_into(bt, tmp)
    ct.local[...] = tmp @ at.local


def _scn_i(c, a, b, tmp, pqr):
    at, ct = a.parent, c.parent
    _require_same_split(at.partition, ct.partition, "A's rows and C's rows")
    ct.local[...] = np.asarray(b).T @ at.local


def _scn_j(c, a, b, tmp, pqr):
    _require_same_split(b.partition, c.partition, "B's columns and C's columns")
    c.local[...] = np.asarray(a) @ b.local


def _scn_k(c, a, b, tmp, pqr):
    a = np.asarray(a)
    bt = b.parent
    c[...] = a[:, bt.lo:bt.hi] @ bt.local.T
    bt.comm.allreduce(c, ReduceOp.SUM)


# -- matrix-vector scenarios ------------------------------------------------


def _scn_l(c, a, b, tmp, pqr):
    p, q, r = pqr
    _require_same_split(a.partition, _dvec_partition(b), "A's columns and B")
    tmp = _tmp_buffer(tmp, (p,), a.dtype, "l")
    tmp[...] = a.local @ _as_dvec_local(b)
    a.comm.allreduce(tmp, ReduceOp.SUM)
    cpart = _dvec_partition(c)
    _as_dvec_local(c)[...] = tmp[cpart.lo(a.comm.rank):cpart.hi(a.comm.rank)]


def _scn_m(c, a, b, tmp, pqr):
    _require_same_split(a.partition, _dvec_partition(b), "A's columns and B")
    c[...] = a.local @ _as_dvec_local(b)
    a.comm.allreduce(c, ReduceOp.SUM)


def _scn_n(c, a, b, tmp, pqr):
    b = np.asarray(b)
    c[...] = a.local @ b[a.lo:a.hi]
    a.comm.allreduce(c, ReduceOp.SUM)


def _scn_o(c, a, b, tmp, pqr):
    p, q, r = pqr
    at = a.parent
    _require_same_split(at.partition, _dvec_partition(c), "A's rows and C")
    tmp = _tmp_buffer(tmp, (q,), at.dtype, "o")
    _gather_vec_into(b, tmp)
    _as_dvec_local(c)[...] = at.local.T @ tmp


def _scn_p(c, a, b, tmp, pqr):
    at = a.parent
    _require_same_split(at.partition, _dvec_partition(c), "A's rows and C")
    _as_dvec_local(c)[...] = at.local.T @ np.asarray(b)


def _scn_q(c, a, b, tmp, pqr):
    at = a.parent
    mine = at.local.T @ np.asarray(b)
    at.comm.allgatherv(np.ascontiguousarray(mine), c, at.partition.counts())


_SCENARIO_IMPL = {
    "a": _scn_a, "b": _scn_b, "c": _scn_c, "d": _scn_d, "e": _scn_e,
    "f": _scn_f, "g": _scn_g, "h": _scn_h, "i": _scn_i, "j": _scn_j,
    "k": _scn_k, "l": _scn_l, "m": _scn_m, "n": _scn_n, "o": _scn_o,
    "p": _scn_p, "q": _scn_q,
}


def opnorm(a, which="l2_power", tol=1e-6, maxiter=1000, seed=95376):
    """Matrix operator norm of a 2-D distributed matrix.

    ``l1`` and ``linf`` are exact (max column / row sum of absolute
    values).  ``l2_power`` estimates the largest singular value by power
    iteration on the normal matrix, stopping when the estimate's relative
    change drops below ``tol``.  ``l2_quick`` is the upper bound
    ``sqrt(l1 * linf)``.
    """
    if not isinstance(a, DistArray) or a.ndim != 2:
        raise TypeError("opnorm expects a 2-D DistArray")
    m, n = a.shape
    if m == 0 or n == 0:
        raise ShapeError("opnorm of an empty matrix")
    if which == "l1":
        local = np.abs(a.local).sum(axis=0).max() if a.local.size else -np.inf
        buf = np.array([float(local)])
        a.comm.allreduce(buf, ReduceOp.MAX)
        return buf[0].item()
    if which == "linf":
        rows = np.abs(a.local).sum(axis=1) if a.local.size else np.zeros(m)
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        a.comm.allreduce(rows, ReduceOp.SUM)
        return float(rows.max())
    if which == "l2_quick":
        return float(np.sqrt(opnorm(a, "l1") * opnorm(a, "linf")))
    if which != "l2_power":
        raise ValueError(f"unknown norm {which!r}")
    if tol <= 0 or maxiter < 1:
        raise ValueError("power iteration needs tol > 0 and maxiter >= 1")
    gen = np.random.Generator(np.random.Philox(seed))
    v = gen.random(n)
    v /= np.linalg.norm(v)
    u = np.empty(m, dtype=a.dtype)
    w = np.empty(n, dtype=a.dtype)
    estimate = 0.0
    previous = np.inf
    for _ in range(maxiter):
        matmul(u, a, v)                      # u = A v
        estimate = float(np.linalg.norm(u))  # Rayleigh estimate, ||v|| = 1
        if abs(estimate - previous) <= tol * max(estimate, np.finfo(float).tiny):
            break
        previous = estimate
        matmul(w, TransposedView(a), u)      # w = A^T A v
        norm_w = np.linalg.norm(w)
        if norm_w == 0:
            return 0.0
        v = w / norm_w
    return estimate


def _gather_columns(x, lo, hi):
    """Replicated copy of global columns [lo, hi) of a column-split matrix."""
    m = x.shape[0]
    counts = []
    for rank in range(x.comm.size):
        a = max(lo, x.partition.lo(rank))
        b = min(hi, x.partition.hi(rank))
        counts.append(m * max(0, b - a))
    a = max(lo, x.lo) - x.lo
    b = min(hi, x.hi) - x.lo
    mine = x.local[:, a:b] if b > a else x.local[:, :0]
    flat = np.empty(sum(counts), dtype=x.dtype)
    x.comm.allgatherv(np.ravel(mine, order="F"), flat, counts)
    return flat.reshape((m, hi - lo), order="F")


def pairwise_euclidean(y, x, chunk=64):
    """Pairwise Euclidean distances between the columns of ``x``.

    ``x`` holds one point per column ((m, n) distributed); ``y`` receives
    the n x n distance matrix with zero diagonal.  Points are brought in
    as replicated column chunks of at most ``chunk`` columns to bound peak
    memory; the result is identical for every chunk width.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("pairwise_euclidean expects 2-D arrays")
    n = x.shape[1]
    if y.shape != (n, n):
        raise ShapeError(f"distance matrix must be {n} x {n}, got {y.shape}")
    if chunk < 1:
        raise ValueError("chunk width must be >= 1")
    width = x.hi - x.lo
    diff = np.empty((x.shape[0], width), dtype=x.dtype, order="F") if width else None
    for c0 in range(0, n, chunk):
        c1 = min(c0 + chunk, n)
        cols = _gather_columns(x, c0, c1)
        if width == 0:
            continue
        for t in range(c1 - c0):
            np.subtract(x.local, cols[:, t:t + 1], out=diff)
            np.multiply(diff, diff, out=diff)
            y.local[c0 + t, :] = np.sqrt(diff.sum(axis=0))
    diag_fill(y, 0)

"""Distributed linear algebra on 2-D block-distributed matrices.

Matrix operands come in five kinds:

* ``dist``  - column-split :class:`~blockstat.distarray.DistArray` (2-D)
* ``tdist`` - :class:`~blockstat.distarray.TransposedView`, a row-split matrix
* ``repl``  - replicated dense numpy matrix, identical on every rank
* ``dvec``  - distributed vector: a 1-D DistArray or the transpose of a
  ``1 x n`` distributed row
* ``rvec``  - replicated dense numpy vector

:func:`matmul` implements the seventeen admissible ``C = A @ B`` layout
combinations, scenarios ``a`` through ``q`` of the table ``_ROWS`` below,
selected statically from the kinds of ``C``, ``A`` and ``B``.  Where several
output layouts are possible for the same inputs, the caller's choice of
``C`` picks the scenario.  Every row runs one of four communication
patterns, named in the table's last column.  Rows that replicate an operand
accept an optional preallocated staging buffer ``tmp`` of the shape
:func:`tmp_shape` gives; supplying it never changes any output value.
"""

from __future__ import annotations

import numpy as np

from .comm import ReduceOp
from .distarray import DistArray, TransposedView, _gather, reduce_all

# row: (A, B, C, how C is formed).  A is (p, q) and B is (q, r), or a
# length-q vector in rows l-q.  ``how`` is one of
#   local     - each rank multiplies its own blocks; no communication
#   reduce    - partial products over the split inner dimension, then an
#               allreduce (into C, or into ``tmp`` when C is distributed)
#   gather A, gather B - replicate that operand into ``tmp``, then a local
#               product
#   allgather - local product, then an allgather of C's blocks
_ROWS = {
    "a": ("dist", "dist", "dist", "gather A"),
    "b": ("dist", "tdist", "dist", "reduce"),
    "c": ("dist", "tdist", "tdist", "reduce"),
    "d": ("dist", "tdist", "repl", "reduce"),
    "e": ("dist", "repl", "repl", "reduce"),
    "f": ("tdist", "dist", "dist", "gather A"),
    "g": ("tdist", "dist", "tdist", "gather B"),
    "h": ("tdist", "tdist", "tdist", "gather B"),
    "i": ("tdist", "repl", "tdist", "local"),
    "j": ("repl", "dist", "dist", "local"),
    "k": ("repl", "tdist", "repl", "reduce"),
    "l": ("dist", "dvec", "dvec", "reduce"),
    "m": ("dist", "dvec", "rvec", "reduce"),
    "n": ("dist", "rvec", "rvec", "reduce"),
    "o": ("tdist", "dvec", "dvec", "gather B"),
    "p": ("tdist", "rvec", "dvec", "local"),
    "q": ("tdist", "rvec", "rvec", "allgather"),
}
SCENARIOS = {row: spec[:3] for row, spec in _ROWS.items()}
_DISPATCH = {kinds: row for row, kinds in SCENARIOS.items()}
_DISTRIBUTED = ("dist", "tdist", "dvec")


class ScenarioError(TypeError):
    """The (A, B, C) kind combination is not an admissible scenario."""


class ShapeError(ValueError):
    """Operand extents do not agree."""


def dot(a, b):
    """Float64 sum of the elementwise product of two identically distributed arrays."""
    if not isinstance(a, DistArray) or not isinstance(b, DistArray):
        raise TypeError("dot expects two DistArrays")
    if a.shape != b.shape:
        raise ShapeError(f"dot shapes differ: {a.shape} vs {b.shape}")
    if a.partition != b.partition:
        raise ShapeError("dot operands must share the partition")
    # An integer b is cast to float64, so np.dot forms integer products in float64.
    flat_b = np.ravel(b.local, order="F").astype(np.result_type(b.dtype, np.float32), copy=False)
    return reduce_all(a, ReduceOp.SUM, lambda x: float(np.dot(np.ravel(x, order="F"), flat_b)))


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
    m.comm.allgatherv(_owned_diag(m), dest, m.partition.counts())


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


def _view(x, kind):
    """``(global shape, this rank's block in global orientation, storing DistArray)``;
    a replicated ``x`` is its own block and has no storing DistArray."""
    if kind in ("repl", "rvec"):
        arr = np.asarray(x)
        return arr.shape, arr, None
    store = x.parent if isinstance(x, TransposedView) else x
    if kind == "dvec" and store is not x:  # the transpose of a 1 x n row
        return store.shape[1:], store.local[0], store
    return x.shape, store.local.T if kind == "tdist" else x.local, store


def _gather_into(store, kind, tmp):
    """Gather ``store`` into ``tmp`` (its stored shape); return it in global orientation."""
    _gather(store, 0, store.shape[-1], tmp)
    return tmp.T if kind == "tdist" else tmp


def tmp_shape(row, p, q, r):
    """Shape of scenario ``row``'s staging buffer for A (p, q) and B (q, r), or None.

    It is the stored shape of the operand the row replicates: A or B for
    ``gather A``/``gather B``, and C for a ``reduce`` into a distributed C.
    Vector rows take r = 1.
    """
    a, b, c, how = _ROWS[row]
    if how == "gather A":
        kind, shape = a, (p, q)
    elif how == "gather B":
        kind, shape = b, (q, r)
    elif how == "reduce" and c in _DISTRIBUTED:
        kind, shape = c, (p, r)
    else:
        return None
    if kind == "dvec":
        return shape[:1]
    return shape[::-1] if kind == "tdist" else shape


def _tmp_buffer(tmp, shape, dtype, what):
    if tmp is None:
        return np.empty(shape, dtype=dtype, order="F")
    tmp = np.asarray(tmp)
    if tmp.shape != shape or tmp.dtype != np.dtype(dtype):
        raise ShapeError(f"tmp for scenario {what} must be {shape} {np.dtype(dtype)}, "
                         f"got {tmp.shape} {tmp.dtype}")
    return tmp


def matmul(c, a, b, tmp=None):
    """Distributed ``C = A @ B`` following the scenario table ``_ROWS``.

    An operand that is the transpose of a ``1 x n`` distributed row is
    first read as ``tdist``; only when that kind triple matches no row is
    it read as ``dvec``.  So rows l and o with such a B and C resolve to
    rows c and h, and take their ``tmp`` of shape ``(1, p)`` and ``(1, q)``.

    Raises :class:`ScenarioError` for inadmissible kind triples and
    :class:`ShapeError` when extents disagree or distributed operands come
    from worlds of different sizes.
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
    (ash, x, astore), (bsh, y, bstore), (csh, out, cstore) = (
        _view(a, ak), _view(b, bk), _view(c, ck))
    p, q = ash
    r = bsh[1] if len(bsh) == 2 else 1
    if bsh[0] != q:
        raise ShapeError(f"inner extents differ: A is {ash}, B is {bsh}")
    want_c = (p, r) if len(csh) == 2 else (p,)
    if csh != want_c:
        raise ShapeError(f"C has shape {csh}, expected {want_c}")
    # Partitions depend only on the extent and the rank count, so operands
    # of agreeing extents are split alike unless their worlds differ in size.
    sizes = {v.comm.size for v in (astore, bstore, cstore) if v is not None}
    if len(sizes) > 1:
        raise ShapeError(f"distributed operands come from worlds of sizes {sorted(sizes)}")

    how = _ROWS[row][3]
    shape = tmp_shape(row, p, q, r)
    buf = None if shape is None else _tmp_buffer(tmp, shape, a.dtype, row)
    if how == "gather A":
        x = _gather_into(astore, ak, buf)
    elif how == "gather B":
        y = _gather_into(bstore, bk, buf)
    elif how == "allgather":
        a.comm.allgatherv(np.ascontiguousarray(x @ y), c, a.partition.counts())
        return c
    elif how == "reduce":
        if ak == "repl":
            x = x[:, bstore.lo:bstore.hi]
        elif bk in ("repl", "rvec"):
            y = y[a.lo:a.hi]
        target = out if cstore is None else buf
        # (x @ y).T, not y.T @ x.T: the two BLAS calls can round differently.
        target[...] = (x @ y).T if ck == "tdist" else x @ y
        (b.comm if ak == "repl" else a.comm).allreduce(target, ReduceOp.SUM)
        if cstore is not None:
            cstore.local[...] = target[..., cstore.lo:cstore.hi]
        return c
    if ck == "tdist":  # form the product in C's stored orientation
        x, y, out = y.T, x.T, out.T
    out[...] = x @ y
    return c


def opnorm(a, which="l2_power", tol=1e-6, maxiter=1000):
    """Matrix operator norm of a 2-D distributed matrix.

    ``l1`` and ``linf`` are exact (max column / row sum of absolute
    values).  ``l2_quick`` is the upper bound ``sqrt(l1 * linf)``.  An
    integer matrix is summed and multiplied in float64.

    ``l2_power`` estimates the largest singular value with the
    Lanczos-accelerated power method: Lanczos on ``A^T A`` from a fixed
    start vector, stopping when the estimate's relative change drops below the
    larger of ``tol`` and 8 eps, after ``maxiter`` steps, or once the Krylov
    space is exhausted.  The Lanczos vectors stay split like A's columns.  A
    step makes one allreduce of m + 1 values, ``A v`` and the squared norm of
    the last step's unscaled vector, so each beta, and so a breakdown, is seen
    one allreduce late.  The estimate is the square root of the largest
    eigenvalue of the Lanczos tridiagonal, the largest Rayleigh quotient
    over the Krylov space that holds every power iterate, so it is never
    below the power method's after as many steps and converges at about the
    square root of its rate (Kuczynski and Wozniakowski, SIAM J. Matrix
    Anal. Appl. 13, 1992).  Loss of orthogonality does not spoil the largest
    Ritz value (Paige, 1980), so there is no reorthogonalization.  Step k
    solves the k x k tridiagonal densely, small beside the two products for
    the few dozen steps Lanczos usually takes.  Every rank gets the same value.
    """
    if not isinstance(a, DistArray) or a.ndim != 2:
        raise TypeError("opnorm expects a 2-D DistArray")
    m, n = a.shape
    if m == 0 or n == 0:
        raise ShapeError("opnorm of an empty matrix")
    dt = np.result_type(a.dtype, np.float32)  # integer blocks are summed and multiplied in float64
    if which == "l1":
        return float(reduce_all(a, ReduceOp.MAX, lambda x: np.abs(x, dtype=dt).sum(axis=0)))
    if which == "linf":
        rows = np.abs(a.local, dtype=dt).sum(axis=1).astype(np.float64)
        a.comm.allreduce(rows, ReduceOp.SUM)
        return float(rows.max())
    if which == "l2_quick":
        return float(np.sqrt(opnorm(a, "l1") * opnorm(a, "linf")))
    if which != "l2_power":
        raise ValueError(f"unknown norm {which!r}")
    if not tol > 0 or maxiter < 1:  # a NaN tol fails too
        raise ValueError("l2_power needs tol > 0 and maxiter >= 1")
    tol = max(tol, 8 * np.finfo(dt).eps)  # below rounding, steps would differ by rank count
    # A fixed seed fixes the start vector, so every run and rank count agree.
    v = np.random.Generator(np.random.Philox(95376)).random(a.hi)[a.lo:].astype(dt)
    v_prev = np.zeros_like(v)
    reduced = np.empty(m + 1, dtype=dt)  # A v, then |v|^2 of the unscaled v: one allreduce
    u = reduced[:m]
    alphas, betas = [], []  # the tridiagonal's diagonal; the start's norm, then its off-diagonal
    estimate = np.inf
    for k in range(min(maxiter, n)):  # after n steps the Krylov space is all of R^n
        np.matmul(a.local, v, out=u)
        reduced[m] = v @ v
        a.comm.allreduce(reduced, ReduceOp.SUM)
        beta = float(np.sqrt(reduced[m]))
        # beta ~ 0: the Krylov space is invariant and its top Ritz value exact.
        # Rounding leaves beta up to 3.3 eps estimate^2 (eps of dt) for rank-1
        # A and 31 for rank 2, on any rank count: 64 sees both breakdowns.
        if k and beta <= 64 * np.finfo(dt).eps * estimate * estimate:
            break
        betas.append(beta)
        u /= beta
        v /= beta
        alphas.append(float(u @ u))  # v^T A^T A v, replicated, so every rank raises
        if not np.isfinite(alphas[-1]):
            raise ValueError("opnorm: the matrix holds nonfinite entries")
        tri = np.diag(alphas) + np.diag(betas[1:], 1) + np.diag(betas[1:], -1)
        previous, estimate = estimate, float(np.sqrt(max(np.linalg.eigvalsh(tri)[-1], 0.0)))
        if abs(estimate - previous) <= tol * estimate:
            break
        v_prev, v = v, a.local.T @ u - alphas[-1] * v - beta * v_prev
    return estimate


def _distances(a, b, out, work):
    """``out[i, j] = ||a[:, i] - b[:, j]||`` for points stored as columns.

    Squared coordinate differences are added in coordinate order, the first
    written straight into ``out``, so coincident points are exactly 0 apart
    (the Gram identity can leave a residue).  ``work`` is scratch of
    ``out``'s shape.
    """
    if not len(a):
        out[...] = 0
        return out
    np.subtract.outer(a[0], b[0], out=out)
    np.square(out, out=out)
    for k in range(1, len(a)):
        np.subtract.outer(a[k], b[k], out=work)
        np.square(work, out=work)
        out += work
    return np.sqrt(out, out=out)


def pairwise_euclidean(y, x, chunk=64):
    """Pairwise Euclidean distances between the columns of ``x``.

    ``x`` holds one point per column ((m, n) distributed); ``y`` receives
    the n x n distance matrix with zero diagonal.  Points are brought in
    as replicated chunks of at most ``chunk`` columns, through one buffer,
    to bound peak memory; the result is identical for every chunk width.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("pairwise_euclidean expects 2-D arrays")
    n = x.shape[1]
    if y.shape != (n, n):
        raise ShapeError(f"distance matrix must be {n} x {n}, got {y.shape}")
    if chunk < 1:
        raise ValueError("chunk width must be >= 1")
    cols = np.empty((x.shape[0], min(chunk, n)), dtype=x.dtype, order="F")
    work = np.empty((cols.shape[1], x.hi - x.lo), dtype=y.dtype, order="F")
    for c0 in range(0, n, chunk):
        c1 = min(c0 + chunk, n)
        _gather(x, c0, c1, cols[:, :c1 - c0])
        _distances(cols[:, :c1 - c0], x.local, y.local[c0:c1], work[:c1 - c0])
    diag_fill(y, 0)

"""Iterative statistical solvers built on the distributed array primitives.

Three solvers operate on column-split data without ever materializing a
dense copy:

* nonnegative matrix factorization (multiplicative updates and alternating
  projected gradient),
* multidimensional scaling by majorization-minimization (Guttman transforms),
* L1-regularized Cox proportional-hazards regression by proximal gradient,
  with the risk-set sums P delta formed on every rank by one reverse cumulative
  sum (:func:`pi_delta` is the distributed reference).

All solver state lives in per-rank dataclasses holding the distributed
operands plus preallocated workspaces; every reduction folds in ascending
rank order, so traces are reproducible and, with ``common_init`` data,
independent of the rank count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
import warnings

import numpy as np

from .comm import ReduceOp
from .distarray import (
    DistArray,
    empty,
    gather_full,
    map_broadcast,
    partition_of,
    rand_fill,
    reduce_all,
    transpose,
    zeros,
)
from .distlinalg import _distances, diag_get, dot, matmul, opnorm


class DegenerateConfigError(RuntimeError):
    """An embedding update hit coincident points (zero pairwise distance)."""


class NumericError(RuntimeError):
    """A solver produced nonfinite intermediate values."""


def soft_threshold(x, lam):
    """Shrink toward zero by ``lam``, zeroing the interval [-lam, lam]."""
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0)


@dataclass
class ConvergenceMonitor:
    """Windowed relative-change stopping rule over an objective trace."""

    window: int = 10
    rel_tol: float = 1e-5
    history: list = field(default_factory=list)


def converged(monitor, f_new):
    """Record ``f_new``; report convergence once the window-lagged relative
    change of the objective drops below ``rel_tol``."""
    h = monitor.history
    h.append(float(f_new))
    if len(h) <= monitor.window:
        return False
    return abs(h[-1] - h[-1 - monitor.window]) / (abs(h[-1]) + 1.0) < monitor.rel_tol


def _totals(comm):
    """``(now, seconds in collectives, collectives)`` so far on ``comm``."""
    ops = comm.stats().values()
    return time.perf_counter(), sum(c["seconds"] for c in ops), sum(c["calls"] for c in ops)


def _record(state, objective, comm, start):
    """Append ``objective`` to ``trace``, and ``_totals`` since ``start`` to ``iter_stats``."""
    state.trace.append(objective)
    state.iter_stats.append(tuple(b - a for a, b in zip(start, _totals(comm))))


# ---------------------------------------------------------------------------
# Nonnegative matrix factorization
# ---------------------------------------------------------------------------


@dataclass
class NmfState:
    """Factors (stored as Vt, W), the buffers of the two allreduces and two workspaces."""

    X: DistArray
    Vt: DistArray          # r x m, transpose of the left factor; local is a view of stage
    W: DistArray           # r x n
    stage: np.ndarray      # r x (2m + r) replicated [W X^t | all of Vt | W W^t]: one allreduce
    reduced: np.ndarray    # (r^2 + 1,) replicated W W^t, then <Vt X, W>: one allreduce
    WWt: np.ndarray        # r x r F-order view of reduced[:-1], kept current with W
    VtX: DistArray         # r x n
    VtV: np.ndarray        # r x r replicated, formed from all of Vt in stage
    work_m: np.ndarray     # r x m C-order: W X^t, then W W^t Vt (the Vt step's model)
    work_n: np.ndarray     # r x (hi - lo) C-order: Vt X, then Vt V W (the W step's model)
    X_sqnorm: float        # ||X||_F^2, the fixed term of the traced objective
    trace: list = field(default_factory=list)
    iter_stats: list = field(default_factory=list)  # per entry: (s, collective s, collectives)


_NMF_EPS = 1e-10  # keeps both update rules' denominators away from zero


def nmf_init(x, rank, seed=None):
    """Allocate NMF state with uniform(0, 1) factors generated at rank 0."""
    if x.ndim != 2 or rank < 1:
        raise ValueError("NMF expects a 2-D data matrix and a rank of at least 1")
    if reduce_all(x, ReduceOp.MIN) < 0:
        raise ValueError("NMF requires nonnegative data")
    with np.errstate(over="ignore"):  # an overflow reads inf and is rejected below
        x_sqnorm = dot(x, x)
    if not np.isfinite(x_sqnorm):  # replicated, so every rank raises
        raise ValueError("NMF requires finite data whose squared norm is finite")
    m, n = x.shape
    comm = x.comm
    dt = x.dtype
    stage = np.empty((rank, 2 * m + rank), dtype=dt, order="F")
    own = partition_of(m, comm.size)
    vt = DistArray(comm, (rank, m), dt, local=stage[:, m + own.lo(comm.rank):m + own.hi(comm.rank)])
    w = empty((rank, n), comm, dt)
    rand_fill(vt, seed=seed, common_init=True)
    rand_fill(w, seed=None if seed is None else seed + 1, common_init=True)
    reduced = np.empty(rank * rank + 1, dtype=dt)
    return NmfState(
        X=x, Vt=vt, W=w, stage=stage,
        reduced=reduced,
        WWt=reduced[:-1].reshape((rank, rank), order="F"),
        VtX=empty((rank, n), comm, dt),
        VtV=np.empty((rank, rank), dtype=dt, order="F"),
        work_m=np.empty((rank, m), dtype=dt),
        work_n=np.empty(w.local.shape, dtype=dt),
        X_sqnorm=x_sqnorm,
    )


def nmf_objective(x, vt, w):
    """Squared Frobenius norm of ``X - V W`` (V given transposed).

    Forms the m x n residual explicitly: the exact reference for the
    solvers' traced objective (see :func:`nmf_multiplicative`).
    """
    resid = empty(x.shape, x.comm, x.dtype)
    matmul(resid, transpose(vt), w)
    np.subtract(x.local, resid.local, out=resid.local)
    return dot(resid, resid)


def _multiplicative_step(f, data, model, gram):
    """Lee-Seung step ``f * data / (model + eps)``, in place."""
    np.add(model, _NMF_EPS, out=model)
    np.multiply(f, data, out=f)
    np.divide(f, model, out=f)


def _apg_step(f, data, model, gram):
    """Projected step of size ``1 / (2 ||gram||_F)`` along ``model - data``, in place."""
    step = 1.0 / (2.0 * float(np.sqrt(np.sum(gram ** 2))) + _NMF_EPS)
    np.subtract(model, data, out=model)
    np.multiply(model, step, out=model)
    np.subtract(f, model, out=model)
    np.maximum(0.0, model, out=f)


def _nmf_run(s, iters, update):
    """Step Vt, then W, by ``update(factor, data, model, gram)`` and trace each
    iterate; ``data`` is the product with X, ``model`` the product with the
    Gram matrix, which is scratch: the update overwrites it.  Two allreduces
    per iteration, both from the current W, so none per call: ``stage`` sums
    the partial W X^t and W W^t and assembles all of Vt from each rank's
    columns (``Vt.local`` is a view of them) and zeros (an exact sum), so
    every rank steps all of Vt; then ``reduced``."""
    comm, m = s.X.comm, s.Vt.shape[1]
    wxt, vt, wwt = s.stage[:, :m], s.stage[:, m:2 * m], s.stage[:, 2 * m:]
    X, W, lo, hi = s.X.local, s.W.local, s.Vt.lo, s.Vt.hi
    start = _totals(comm)
    for _ in range(iters):
        # r-row products go to C-order workspaces, numpy's own layout for them: BLAS can
        # round an F-order out differently
        np.copyto(wxt, np.matmul(W, X.T, out=s.work_m))
        vt[:, :lo], vt[:, hi:] = 0, 0
        np.matmul(W, W.T, out=wwt)
        comm.allreduce(s.stage, ReduceOp.SUM)
        update(vt, wxt, np.matmul(wwt, vt, out=s.work_m), wwt)
        np.copyto(s.VtX.local, np.matmul(vt, X, out=s.work_n))
        np.matmul(vt, vt.T, out=s.VtV)
        update(W, s.VtX.local, np.matmul(s.VtV, W, out=s.work_n), s.VtV)
        np.matmul(W, W.T, out=s.WWt)
        s.reduced[-1] = np.dot(np.ravel(s.VtX.local, order="F"), np.ravel(W, order="F"))
        comm.allreduce(s.reduced, ReduceOp.SUM)
        gram = float(np.dot(np.ravel(s.VtV, order="F"), s.reduced[:-1]))
        _record(s, max(s.X_sqnorm - 2.0 * s.reduced[-1].item() + gram, 0.0), comm, start)
    return s


def nmf_multiplicative(state, iters):
    """Multiplicative updates; the objective is nonincreasing.

    ``trace`` entry k is the objective at the iterate update k produced,
    ``||X||^2 - 2 <Vt X, W> + <Vt V, W W^t>`` from r-row products the update
    holds (no m x n work; :func:`nmf_objective` is exact), clamped at 0, as
    cancellation costs accuracy once it is far below ``||X||^2``.  ``X`` must
    not be modified after :func:`nmf_init`, which checks it and caches ``||X||^2``.
    """
    return _nmf_run(state, iters, _multiplicative_step)


def nmf_apg(state, iters):
    """Alternating projected gradient; the objective is nonincreasing.

    Each half-step moves a factor along half the gradient by
    ``1 / (2 ||G||_F)``, G the other factor's r x r Gram matrix, which is
    within the step ``1 / L`` (``L = 2 ||G||_2``) that cannot raise the
    objective (Lin, 2007).  The trace is recorded as in
    :func:`nmf_multiplicative`; as there, ``X`` must not be modified after
    :func:`nmf_init`.
    """
    return _nmf_run(state, iters, _apg_step)


# ---------------------------------------------------------------------------
# Multidimensional scaling
# ---------------------------------------------------------------------------


@dataclass
class MdsState:
    """Embedding (one point per column) plus this rank's next iterate."""

    Y: DistArray               # n x n target distances
    theta: DistArray           # q x n embedding
    theta_new: np.ndarray      # q x (hi - lo) Guttman transform of this rank's columns
    perturb: bool = False
    trace: list = field(default_factory=list)
    iter_stats: list = field(default_factory=list)


def mds_init(y, ndim, seed=None, perturb=False):
    """Allocate MDS state with a uniform embedding rescaled into (-1, 1)."""
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("MDS expects a square distance matrix")
    n = y.shape[0]
    if n < 2 or ndim < 1:
        raise ValueError("MDS needs at least two points and one embedding dimension")
    diag = np.empty(n, dtype=y.dtype)
    diag_get(diag, y)
    if np.any(diag != 0):
        raise ValueError("target distance matrix must have a zero diagonal")
    theta = empty((ndim, n), y.comm, y.dtype)
    rand_fill(theta, seed=seed, common_init=True)
    map_broadcast(theta, lambda t: 2.0 * t - 1.0, theta)
    return MdsState(Y=y, theta=theta, perturb=perturb,
                    theta_new=np.empty(theta.local.shape, dtype=y.dtype, order="F"))


_MDS_BLOCK = 128  # columns per block of a Guttman pass; 64-256 ran alike, wider slower


def _guttman_pass(theta, y, theta_new=None, perturb=False):
    """``[stress, off-diagonal zero distances]`` on every rank; with ``theta_new``,
    also the Guttman transform of this rank's columns of ``y`` (de Leeuw 1977).

    One allgatherv of ``theta``, then blocks of ``_MDS_BLOCK`` columns with two
    n x block workspaces, then one allreduce.  :func:`~blockstat.distlinalg._distances`
    puts coincident points exactly 0 apart.  Zero distances become 1e-10 with
    ``perturb``; without it the update stops.
    """
    full = gather_full(theta)
    n, width = y.shape[0], y.hi - y.lo
    dist = np.empty((n, min(_MDS_BLOCK, width)), dtype=y.dtype, order="F")
    work = np.empty_like(dist)
    part = np.zeros(2)
    for a in range(0, width, _MDS_BLOCK):
        b = min(a + _MDS_BLOCK, width)
        cols = slice(y.lo + a, y.lo + b)
        d, t, yb = dist[:, :b - a], work[:, :b - a], y.local[:, a:b]
        _distances(full, full[:, cols], d, t)
        np.subtract(yb, d, out=t)
        part[0] += np.dot(t.ravel("F"), t.ravel("F"))
        zeros = np.count_nonzero(d == 0.0) - (b - a)  # the diagonal is exactly 0
        part[1] += zeros
        if theta_new is None or (part[1] and not perturb):
            continue
        diag = (np.arange(cols.start, cols.stop), np.arange(b - a))
        d[diag] = np.inf
        if zeros:
            d[d == 0.0] = 1e-10
        np.divide(yb, d, out=t)                    # Z, with a zero diagonal
        zs = t.sum(axis=0)
        np.subtract(1.0, t, out=t)                 # W - Z, the unit weights less Z
        t[diag] = 0.0
        theta_new[:, a:b] = (full[:, cols] * (zs + n - 1.0) + full @ t) / (2.0 * (n - 1))
    y.comm.allreduce(part, ReduceOp.SUM)
    return part


def mds_stress(theta, y):
    """Weighted squared misfit between target and embedding distances."""
    return _guttman_pass(theta, y)[0].item()


def mds_fit(state, iters):
    """Majorization-minimization (Guttman transform) updates; stress is nonincreasing.

    The trace records the stress of the iterate entering each update.  An
    iteration gathers ``theta`` and makes one allreduce; coincident points
    without ``perturb`` raise :class:`DegenerateConfigError` on every rank
    before ``theta`` changes.
    """
    s = state
    start = _totals(s.Y.comm)
    for _ in range(iters):
        part = _guttman_pass(s.theta, s.Y, s.theta_new, s.perturb)
        _record(s, part[0].item(), s.Y.comm, start)
        if part[1] > 0 and not s.perturb:
            raise DegenerateConfigError("coincident embedding points; rerun with perturb=True")
        s.theta.local[...] = s.theta_new
    return s


# ---------------------------------------------------------------------------
# L1-regularized Cox proportional hazards
# ---------------------------------------------------------------------------


@dataclass
class CoxState:
    """Covariates, survival outcome and proximal-gradient workspaces."""

    X: DistArray           # m x n covariates, samples ordered by nonincreasing time
    delta: np.ndarray      # (m,) event indicators in {0, 1}
    beta: DistArray        # length-n distributed coefficients
    lam: float             # each step's soft threshold; the penalty weight is lam / sigma
    sigma: float           # step size
    reduced: np.ndarray    # (m + 1,) replicated X beta, then ||beta||_1: one allreduce
    Xbeta: np.ndarray      # (m,) view of reduced[:m]
    w: np.ndarray          # (m,) replicated risk weights exp(X beta)
    W: np.ndarray          # (m,) replicated cumulative risk sums
    pd: np.ndarray         # (m,) replicated P delta
    work: np.ndarray       # (m,) scratch for the log-likelihood terms and the P delta sums
    grad: DistArray        # length-n distributed gradient
    cuts: np.ndarray       # (m,) last index of each tied block (arange if no ties)
    starts: np.ndarray     # (m,) first index of each tied block (arange if no ties)
    tied: bool             # some observed times tie, so cuts and starts are not arange
    ties_buf: np.ndarray   # (m,) W[cuts], then t[starts], if tied; None otherwise
    trace: list = field(default_factory=list)
    iter_stats: list = field(default_factory=list)


def cox_init(x, y, delta, lam, sigma=None, ties="none"):
    """Allocate Cox state; the step size defaults to 1 / (2 ||X||_2^2).

    ``lam`` must be finite and >= 0, and ``sigma`` finite and > 0."""
    if x.ndim != 2:
        raise ValueError("Cox expects a 2-D covariate matrix")
    if x.dtype not in _EXP_CLAMP:
        raise ValueError(f"Cox expects a float32 or float64 covariate matrix, got {x.dtype}")
    m, n = x.shape
    y = np.asarray(y, dtype=np.float64)
    delta = np.asarray(delta, dtype=x.dtype)
    if y.shape != (m,) or delta.shape != (m,):
        raise ValueError("y and delta must have one entry per sample")
    if np.any(np.diff(y) > 0):
        raise ValueError("samples must be ordered by nonincreasing observed time")
    if not np.all((delta == 0) | (delta == 1)):
        raise ValueError("event indicators must be 0 or 1")
    if ties not in ("none", "breslow"):
        raise ValueError(f"unknown tie mode {ties!r}")
    if not 0 <= lam < np.inf:  # NaN fails both
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    same = y[1:] == y[:-1]
    tied = bool(same.any())
    if tied and ties == "none":
        raise ValueError("tied observed times need ties='breslow'")
    # each block's first index carried forward, its last carried back
    starts, cuts = np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)
    starts[1:][same], cuts[:-1][same] = 0, m
    np.maximum.accumulate(starts, out=starts)
    np.minimum.accumulate(cuts[::-1], out=cuts[::-1])
    if sigma is None:
        norm2 = opnorm(x, "l2_power")
        if norm2 == 0:
            raise ValueError("X is all zeros, so 1 / (2 ||X||_2^2) is no step size; "
                             "pass sigma (--sigma)")
        sigma = 1.0 / (2.0 * norm2 * norm2)
    if not 0 < sigma < np.inf:  # NaN fails both
        raise ValueError(f"step size must be finite and positive, got {sigma}")
    reduced = np.empty(m + 1, dtype=x.dtype)
    return CoxState(
        X=x, delta=delta,
        beta=zeros((n,), x.comm, x.dtype),
        lam=float(lam), sigma=float(sigma),
        reduced=reduced,
        Xbeta=reduced[:m],
        w=np.empty(m, dtype=x.dtype),
        W=np.empty(m, dtype=x.dtype),
        pd=np.empty(m, dtype=x.dtype),
        work=np.empty(m, dtype=x.dtype),
        grad=empty((n,), x.comm, x.dtype),
        cuts=cuts, starts=starts, tied=tied,
        ties_buf=np.empty(m, dtype=x.dtype) if tied else None,
    )


_EXP_CLAMP = {np.dtype(np.float64): 700.0, np.dtype(np.float32): 85.0}


def _forward(s):
    """One allreduce of ``reduced`` (X beta and ||beta||_1), then the risk
    weights w = exp(X beta) (overflow-clamped) and their cumulative sums W.

    Returns the risk sums ``W[cuts]``, ``W`` itself without ties.  One pass
    finds the largest entry of X beta: NaN raises, and above the clamp warns
    and clamps, after which every weight is finite.
    """
    np.matmul(s.X.local, s.beta.local, out=s.Xbeta)
    s.reduced[-1] = np.add.reduce(np.abs(s.beta.local))
    s.X.comm.allreduce(s.reduced, ReduceOp.SUM)
    clamp = _EXP_CLAMP[np.dtype(s.Xbeta.dtype)]
    top = s.Xbeta.max(initial=-np.inf)
    if np.isnan(top):
        raise NumericError("nonfinite risk weights; rescale X or lower sigma")
    if top > clamp:
        warnings.warn("linear predictor clamped before exponentiation", RuntimeWarning)
        np.minimum(s.Xbeta, clamp, out=s.w)
        np.exp(s.w, out=s.w)
    else:
        np.exp(s.Xbeta, out=s.w)
    np.cumsum(s.w, out=s.W)
    # mode="clip" because the default "raise" stages ``out`` in a temporary
    return np.take(s.W, s.cuts, out=s.ties_buf, mode="clip") if s.tied else s.W


def _cox_loglik(s, Wc):
    """Log partial likelihood from ``Xbeta`` and the risk sums ``Wc = W[cuts]``."""
    t = s.work
    np.log(Wc, out=t)
    np.subtract(s.Xbeta, t, out=t)
    np.multiply(s.delta, t, out=t)
    return float(np.sum(t))


def cox_partial_loglik(state):
    """Log partial likelihood at the state's coefficients."""
    return _cox_loglik(state, _forward(state))


def pi_delta(out, w, W, delta, lo, hi, comm, cuts=None):
    """Fused ``P @ delta`` where pi[i, j] = [y_i >= y_j] w_i / W_j.

    Each rank accumulates over its owned index range [lo, hi) of the risk
    sums, then the partial results are allreduce-summed; the m x m matrix is
    never materialized.  ``cuts`` extends risk sets over tied blocks.  The
    reference for :func:`cox_fit`, which forms P delta without communication.
    """
    m = len(delta)
    out[...] = 0
    if hi > lo:
        seg = np.arange(lo, hi) if cuts is None else cuts[lo:hi]
        contrib = delta[lo:hi] / W[seg]
        suffix = np.cumsum(contrib[::-1])[::-1]
        first = np.searchsorted(seg, np.arange(m), side="left")
        valid = first < (hi - lo)
        out[valid] = suffix[first[valid]]
        out *= w
    comm.allreduce(out, ReduceOp.SUM)
    return out


def cox_fit(state, iters, monitor=None, trace_every=1):
    """Proximal-gradient iterations for the L1-penalized partial likelihood.

    A step is ``beta <- S_lam(beta + sigma grad l(beta))``: ``lam`` is its soft
    threshold and ``lam / sigma`` the penalty weight.  Each iteration traces
    ``-l(beta) + (lam / sigma) ||beta||_1`` at the current iterate (the first
    entry belongs to the initial coefficients), checks the optional monitor,
    then steps.  Its one collective is an allreduce of ``reduced``: this rank's
    partial ``X beta`` and, in the last slot, its partial ``||beta||_1``, folded
    in the rank order :func:`matmul` and ``reduce_all`` use.  Every rank then
    forms ``t = delta - pd``, ``pd[i] = w[i] sum_{j >= starts[i]} delta[j] / W[cuts[j]]``
    (bitwise :func:`pi_delta` at p = 1), in replicated m-vectors.  The gradient
    is one local product X_r^T t written into ``grad.local``; the step writes ``beta.local``.
    """
    s = state
    sigma, lam, weight = s.sigma, s.lam, s.lam / s.sigma
    t = s.work
    start = _totals(s.X.comm)
    for it in range(iters):
        Wc = _forward(s)
        if trace_every and it % trace_every == 0:
            obj = -_cox_loglik(s, Wc) + weight * s.reduced[-1].item()
            _record(s, obj, s.X.comm, start)
            if monitor is not None and converged(monitor, obj):
                break
        np.divide(s.delta, Wc, out=t)
        r = t[::-1]
        np.cumsum(r, out=r)  # t[i] = sum_{j >= i} delta[j] / Wc[j], added from j = m - 1 down
        # with ties, Wc (held in ties_buf) is spent, so the buffer takes t[starts]
        block = np.take(t, s.starts, out=s.ties_buf, mode="clip") if s.tied else t
        np.multiply(block, s.w, out=s.pd)
        np.subtract(s.delta, s.pd, out=t)
        np.matmul(s.X.local.T, t, out=s.grad.local)
        s.beta.local[...] = soft_threshold(s.beta.local + sigma * s.grad.local, lam)
    return s

"""Iterative statistical solvers built on the distributed array primitives.

Three solvers operate on column-split data without ever materializing a
dense copy:

* nonnegative matrix factorization (multiplicative updates and alternating
  projected gradient),
* multidimensional scaling by majorization-minimization,
* L1-regularized Cox proportional-hazards regression by proximal gradient,
  with the risk-set sums P delta formed on every rank by one reverse cumulative
  sum (:func:`pi_delta` is the distributed reference).

All solver state lives in per-rank dataclasses holding the distributed
operands plus preallocated workspaces; every inter-rank interaction happens
inside the distarray/distlinalg calls, so traces are reproducible and, with
``common_init`` data, independent of the rank count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np

from .comm import ReduceOp
from .distarray import (
    DistArray,
    empty,
    map_broadcast,
    rand_fill,
    reduce_all,
    reduce_into,
    transpose,
    zeros,
)
from .distlinalg import diag_fill, diag_get, dot, matmul, opnorm


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


# ---------------------------------------------------------------------------
# Nonnegative matrix factorization
# ---------------------------------------------------------------------------


@dataclass
class NmfState:
    """Factors (stored as Vt, W) plus the preallocated update workspaces."""

    X: DistArray
    Vt: DistArray          # r x m, transpose of the left factor
    W: DistArray           # r x n
    WXt: DistArray         # r x m
    WWt: np.ndarray        # r x r replicated W W^t, kept current with W during a call
    WWtVt: DistArray       # r x m
    VtX: DistArray         # r x n
    VtV: np.ndarray        # r x r replicated
    VtVW: DistArray        # r x n
    tmp: np.ndarray        # r x m replicated matmul staging
    X_sqnorm: float        # ||X||_F^2, the fixed term of the traced objective
    trace: list = field(default_factory=list)


_NMF_EPS = 1e-10  # keeps both update rules' denominators away from zero


def nmf_init(x, rank, seed=None):
    """Allocate NMF state with uniform(0, 1) factors generated at rank 0."""
    if x.ndim != 2:
        raise ValueError("NMF expects a 2-D data matrix")
    if reduce_all(x, ReduceOp.MIN) < 0:
        raise ValueError("NMF requires nonnegative data")
    m, n = x.shape
    comm = x.comm
    dt = x.dtype
    vt = empty((rank, m), comm, dt)
    w = empty((rank, n), comm, dt)
    rand_fill(vt, seed=seed, common_init=True)
    rand_fill(w, seed=None if seed is None else seed + 1, common_init=True)
    return NmfState(
        X=x, Vt=vt, W=w,
        WXt=empty((rank, m), comm, dt),
        WWt=np.empty((rank, rank), dtype=dt, order="F"),
        WWtVt=empty((rank, m), comm, dt),
        VtX=empty((rank, n), comm, dt),
        VtV=np.empty((rank, rank), dtype=dt, order="F"),
        VtVW=empty((rank, n), comm, dt),
        tmp=np.empty((rank, m), dtype=dt, order="F"),
        X_sqnorm=dot(x, x),
    )


def nmf_objective(x, vt, w):
    """Squared Frobenius norm of ``X - V W`` (V given transposed).

    Forms the m x n residual explicitly: the exact reference for the
    solvers' traced objective (see :func:`_nmf_gram_objective`).
    """
    resid = empty(x.shape, x.comm, x.dtype)
    matmul(resid, transpose(vt), w)
    np.subtract(x.local, resid.local, out=resid.local)
    return dot(resid, resid)


def _nmf_gram_objective(s):
    """``||X - V W||_F^2`` as ``||X||^2 - 2 <Vt X, W> + <Vt V, W W^t>``.

    Uses only the r-row products the W-half of an update leaves in ``s``
    (``VtX``, ``VtV``, and ``WWt`` of the new ``W``): one scalar allreduce
    instead of an m x n product.  Cancellation costs relative accuracy once
    the objective is much smaller than ``||X||^2``; the value is clamped at 0.
    """
    cross = dot(s.VtX, s.W)
    gram = float(np.dot(np.ravel(s.VtV, order="F"), np.ravel(s.WWt, order="F")))
    return max(s.X_sqnorm - 2.0 * cross + gram, 0.0)


def _multiplicative_step(factor, data, model, gram):
    """Lee-Seung step ``factor * data / (model + eps)``."""
    map_broadcast(factor, lambda f, num, den: f * num / (den + _NMF_EPS),
                  factor, data, model)


def _apg_step(factor, data, model, gram):
    """Projected step of size ``1 / (2 ||gram||_F)`` along ``model - data``."""
    step = 1.0 / (2.0 * float(np.sqrt(np.sum(gram ** 2))) + _NMF_EPS)
    map_broadcast(factor, lambda f, mod, dat: np.maximum(0.0, f - step * (mod - dat)),
                  factor, model, data)


def _nmf_run(s, iters, update):
    """Step Vt, then W, by ``update(factor, data, model, gram)`` and trace each
    iterate; ``data`` is the product with X, ``model`` with the Gram matrix."""
    matmul(s.WWt, s.W, transpose(s.W))
    for _ in range(iters):
        matmul(s.WXt, s.W, transpose(s.X), tmp=s.tmp)
        matmul(s.WWtVt, s.WWt, s.Vt)
        update(s.Vt, s.WXt, s.WWtVt, s.WWt)
        matmul(s.VtX, s.Vt, s.X, tmp=s.tmp)
        matmul(s.VtV, s.Vt, transpose(s.Vt))
        matmul(s.VtVW, s.VtV, s.W)
        update(s.W, s.VtX, s.VtVW, s.VtV)
        matmul(s.WWt, s.W, transpose(s.W))
        s.trace.append(_nmf_gram_objective(s))
    return s


def nmf_multiplicative(state, iters):
    """Multiplicative updates; the objective is nonincreasing.

    ``trace`` entry k is the objective at the iterate update k produced,
    from the Gram identity of :func:`_nmf_gram_objective` (no m x n work;
    :func:`nmf_objective` is the exact alternative).  ``X`` must not be
    modified after :func:`nmf_init`, which checks it and caches ``||X||^2``.
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
    """Embedding (one point per column) plus the MM-update workspaces."""

    Y: DistArray               # n x n target distances
    theta: DistArray           # q x n embedding
    theta_distances: DistArray  # n x n, reused for dist -> Z -> (W - Z)
    theta_WmZ: DistArray       # q x n
    d_dist: DistArray          # 1 x n distributed diagonal / Z sums
    d_local: np.ndarray        # (n, 1) replicated diagonal
    tmp: np.ndarray           # q x n replicated matmul staging
    perturb: bool = False
    trace: list = field(default_factory=list)


def mds_init(y, ndim, seed=None, perturb=False):
    """Allocate MDS state with a uniform embedding rescaled into (-1, 1)."""
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("MDS expects a square distance matrix")
    n = y.shape[0]
    if n < 2:
        raise ValueError("MDS needs at least two points")
    comm = y.comm
    dt = y.dtype
    d_local = np.empty((n, 1), dtype=dt, order="F")
    diag_get(d_local, y)
    if np.any(d_local != 0):
        raise ValueError("target distance matrix must have a zero diagonal")
    theta = empty((ndim, n), comm, dt)
    rand_fill(theta, seed=seed, common_init=True)
    map_broadcast(theta, lambda t: 2.0 * t - 1.0, theta)
    return MdsState(
        Y=y, theta=theta,
        theta_distances=empty((n, n), comm, dt),
        theta_WmZ=empty((ndim, n), comm, dt),
        d_dist=empty((1, n), comm, dt),
        d_local=d_local,
        tmp=np.empty((ndim, n), dtype=dt, order="F"),
        perturb=perturb,
    )


def _embedding_distances(dist, theta, d_dist, d_local, tmp):
    """Pairwise embedding distances from the Gram matrix.

    The diagonal comes out exactly zero: the clamped quadratic form
    ``d_i + d_i - 2 g_ii`` cancels bitwise.
    """
    matmul(dist, transpose(theta), theta, tmp=tmp)
    diag_get(d_dist, dist)
    diag_get(d_local, dist)
    map_broadcast(dist, lambda g, dr, dc: np.sqrt(np.maximum(dr + dc - 2.0 * g, 0.0)),
                  dist, d_dist, d_local)


def mds_stress(theta, y):
    """Weighted squared misfit between target and embedding distances."""
    n = y.shape[0]
    dist = empty((n, n), y.comm, y.dtype)
    _embedding_distances(dist, theta, empty((1, n), y.comm, y.dtype),
                         np.empty((n, 1), dtype=y.dtype, order="F"), None)
    # zero diagonals on both sides: the unit weights drop out
    np.subtract(y.local, dist.local, out=dist.local)
    return dot(dist, dist)


def mds_fit(state, iters):
    """Majorization-minimization updates; stress is nonincreasing.

    The trace records the stress of the iterate entering each update (the
    distance matrix is already in hand there), fused with the coincident-
    point check into a single reduction.
    """
    s = state
    dist = s.theta_distances
    w_sums = float(s.Y.shape[0] - 1)  # sum of the unit weights per point
    for _ in range(iters):
        _embedding_distances(dist, s.theta, s.d_dist, s.d_local, s.tmp)
        d = s.Y.local - dist.local
        owned_diag = dist.hi - dist.lo
        fused = np.array([
            float(np.dot(np.ravel(d, order="F"), np.ravel(d, order="F"))),
            float((dist.local == 0.0).sum() - owned_diag),
        ])
        s.Y.comm.allreduce(fused, ReduceOp.SUM)
        stress, zero_pairs = fused
        s.trace.append(float(stress))
        diag_fill(dist, np.inf)
        if zero_pairs > 0:
            if not s.perturb:
                raise DegenerateConfigError(
                    "coincident embedding points; rerun with perturb=True"
                )
            map_broadcast(dist, lambda d_: np.where(d_ == 0.0, 1e-10, d_), dist)
        map_broadcast(dist, lambda d_, y: y / d_, dist, s.Y)     # Z
        reduce_into(s.d_dist, dist)                              # Z column sums
        map_broadcast(dist, lambda z: 1.0 - z, dist)             # W - Z
        diag_fill(dist, 0.0)
        matmul(s.theta_WmZ, s.theta, dist, tmp=s.tmp)
        w2 = 2.0 * w_sums
        map_broadcast(s.theta, lambda t, zs, twz: (t * (zs + w_sums) + twz) / w2,
                      s.theta, s.d_dist, s.theta_WmZ)
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
    lam: float
    sigma: float
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


def cox_init(x, y, delta, lam, sigma=None, ties="none"):
    """Allocate Cox state; the step size defaults to 1 / (2 ||X||_2^2)."""
    if x.ndim != 2:
        raise ValueError("Cox expects a 2-D covariate matrix")
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
    tied = bool(np.any(np.diff(y) == 0))
    if tied and ties == "none":
        raise ValueError("tied observed times need ties='breslow'")
    cuts = np.searchsorted(-y, -y, side="right").astype(np.int64) - 1  # arange if not tied
    if sigma is None:
        norm2 = opnorm(x, "l2_power")
        sigma = 1.0 / (2.0 * norm2 * norm2)
    if sigma <= 0:
        raise ValueError("step size must be positive")
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
        cuts=cuts,
        starts=np.searchsorted(cuts, np.arange(m), side="left"),
        tied=tied,
        ties_buf=np.empty(m, dtype=x.dtype) if tied else None,
    )


_EXP_CLAMP = {np.dtype(np.float64): 700.0, np.dtype(np.float32): 85.0}


def _risk_weights(state):
    """w = exp(X beta) (overflow-clamped) and its cumulative sums W.

    One pass finds the largest entry of X beta: NaN raises, and above the
    clamp warns and clamps, after which every weight is finite.
    """
    s = state
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


def _risk_sums(s):
    """``W[cuts]``, the risk sum of each sample's tied block; ``W`` itself without ties."""
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
    s = state
    matmul(s.Xbeta, s.X, s.beta)
    _risk_weights(s)
    return _cox_loglik(s, _risk_sums(s))


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

    Each iteration records the penalized objective at the current iterate
    (so the first trace entry belongs to the initial coefficients), checks
    the optional convergence monitor, then takes one soft-thresholded step.
    It makes one collective, an allreduce of ``reduced``: this rank's partial
    ``X beta`` and, in the last slot, its partial ``||beta||_1``, folded in
    the rank order :func:`matmul` and ``reduce_all`` use.  Every rank then forms
    ``pd[i] = w[i] * sum_{j >= starts[i]} delta[j] / W[cuts[j]]`` from its
    replicated copies (bitwise equal to :func:`pi_delta` at p = 1), writing
    every m-length intermediate into the state's preallocated vectors.
    """
    s = state
    sigma, lam = s.sigma, s.lam
    t = s.work
    for it in range(iters):
        np.matmul(s.X.local, s.beta.local, out=s.Xbeta)
        s.reduced[-1] = np.add.reduce(np.abs(s.beta.local))
        s.X.comm.allreduce(s.reduced, ReduceOp.SUM)
        _risk_weights(s)
        Wc = _risk_sums(s)
        if trace_every and it % trace_every == 0:
            obj = -_cox_loglik(s, Wc) + lam * s.reduced[-1].item()
            s.trace.append(obj)
            if monitor is not None and converged(monitor, obj):
                break
        np.divide(s.delta, Wc, out=t)
        r = t[::-1]
        np.cumsum(r, out=r)  # t[i] = sum_{j >= i} delta[j] / Wc[j], added from j = m - 1 down
        # with ties, Wc (held in ties_buf) is spent, so the buffer takes t[starts]
        block = np.take(t, s.starts, out=s.ties_buf, mode="clip") if s.tied else t
        np.multiply(block, s.w, out=s.pd)
        np.subtract(s.delta, s.pd, out=t)
        matmul(s.grad, transpose(s.X), t)
        map_broadcast(s.beta, lambda b, g: soft_threshold(b + sigma * g, lam),
                      s.beta, s.grad)
    return s

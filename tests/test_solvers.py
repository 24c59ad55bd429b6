"""Solver correctness: descent properties, fixed points, brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from blockstat.comm import run_inproc
from blockstat.distarray import distribute, empty, gather_full, partition_of, zeros
from blockstat.distlinalg import dot, pairwise_euclidean
from blockstat.solvers import (
    ConvergenceMonitor,
    DegenerateConfigError,
    NumericError,
    converged,
    cox_fit,
    cox_init,
    cox_partial_loglik,
    mds_fit,
    mds_init,
    mds_stress,
    nmf_apg,
    nmf_init,
    nmf_multiplicative,
    nmf_objective,
    pi_delta,
    soft_threshold,
)
from conftest import rng, run_socket


def _dist(comm, data):
    return distribute(np.asarray(data) if comm.rank == 0 else None, comm)


# -- soft threshold ------------------------------------------------------------


@pytest.mark.parametrize("x,lam,want", [
    (0.7, 0.5, 0.2),
    (-0.7, 0.5, -0.2),
    (0.3, 0.5, 0.0),
    (2.0, 0.0, 2.0),
])
def test_soft_threshold_values(x, lam, want):
    assert soft_threshold(x, lam) == pytest.approx(want)


def test_soft_threshold_properties():
    xs = rng(1).standard_normal(500)
    for lam in (0.0, 0.1, 1.0):
        out = soft_threshold(xs, lam)
        assert np.all(np.abs(out) <= np.maximum(np.abs(xs) - lam, 0.0) + 1e-15)
        moved = out != 0
        assert np.all(np.sign(out[moved]) == np.sign(xs[moved]))
    np.testing.assert_array_equal(soft_threshold(xs, 0.0), xs)


# -- convergence monitor ---------------------------------------------------------


def test_monitor_constant_sequence():
    mon = ConvergenceMonitor()
    fired = [converged(mon, 3.5) for _ in range(11)]
    assert fired[:10] == [False] * 10
    assert fired[10] is True


def test_monitor_needs_full_window():
    mon = ConvergenceMonitor()
    assert not any(converged(mon, 0.0) for _ in range(10))


def test_monitor_harmonic_sequence_fires_where_rule_says():
    # independent evaluation of the stopping inequality
    first = next(
        n for n in range(11, 3000)
        if abs(1 / n - 1 / (n - 10)) / (abs(1 / n) + 1.0) < 1e-5
    )
    mon = ConvergenceMonitor()
    fired_at = None
    for n in range(1, 3000):
        if converged(mon, 1.0 / n):
            fired_at = n
            break
    assert fired_at == first == 1005


# -- NMF -------------------------------------------------------------------------


def test_nmf_objective_examples():
    def fn(comm):
        vt = _dist(comm, np.array([[1.0, 2.0], [0.5, 1.0]]))  # r=2, m=2
        w = _dist(comm, np.array([[1.0, 0.0], [2.0, 1.0]]))
        x_exact = _dist(comm, gather_full(vt).T @ gather_full(w))
        zero_vt = zeros((2, 2), comm)
        zero_w = zeros((2, 2), comm)
        eye = _dist(comm, np.eye(2))
        return (nmf_objective(x_exact, vt, w), nmf_objective(eye, zero_vt, zero_w))

    for exact, against_zero in run_inproc(2, fn):
        assert exact == 0.0
        assert against_zero == 2.0


@pytest.mark.parametrize("p", [1, 2])
def test_nmf_objective_matches_dense(p):
    gen = rng(21)
    x = gen.random((4, 4))
    vt = gen.random((2, 4))
    w = gen.random((2, 4))
    want = float(((x - vt.T @ w) ** 2).sum())

    def fn(comm):
        return nmf_objective(_dist(comm, x), _dist(comm, vt), _dist(comm, w))

    for got in run_inproc(p, fn):
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_nmf_multiplicative_zero_data():
    def fn(comm):
        x = zeros((3, 3), comm)
        state = nmf_init(x, 2, seed=5)
        nmf_multiplicative(state, 1)
        return state.trace[-1], gather_full(state.Vt), gather_full(state.W)

    for obj, vt, w in run_inproc(2, fn):
        assert obj == 0.0
        np.testing.assert_array_equal(vt, np.zeros((2, 3)))
        np.testing.assert_array_equal(w, np.zeros((2, 3)))


def test_nmf_rejects_negative_data():
    def fn(comm):
        x = _dist(comm, np.array([[1.0, -0.5], [0.0, 2.0]]))
        nmf_init(x, 1)

    with pytest.raises(ValueError):
        run_inproc(2, fn)


@pytest.mark.parametrize("p", [1, 2])
def test_nmf_init_rejects_one_negative_entry(p):
    data = np.ones((3, 5))
    data[2, 4] = -1e-3  # last column: owned by the last rank at p = 2

    def fn(comm):
        nmf_init(_dist(comm, data), 2, seed=1)

    with pytest.raises(ValueError, match="nonnegative"):
        run_inproc(p, fn)


def _nmf_trace(comm, algorithm, seed, iters, rank):
    x = empty((8, 8), comm)
    from blockstat.distarray import rand_fill

    rand_fill(x, seed=seed, common_init=True)
    state = nmf_init(x, rank, seed=seed + 1)
    algorithm(state, iters)
    nonneg = (state.Vt.local >= 0).all() and (state.W.local >= 0).all()
    return np.asarray(state.trace), bool(nonneg)


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
def test_nmf_descent_and_nonnegativity(algorithm):
    for seed in (30, 31):
        (trace, nonneg), = [run_inproc(1, _nmf_trace, algorithm, seed, 50, 2)[0]]
        assert nonneg
        assert np.all(np.diff(trace) <= 1e-10)


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
def test_nmf_rank_count_independent_traces(algorithm):
    traces = {
        p: run_inproc(p, _nmf_trace, algorithm, 77, 30, 2)[0][0]
        for p in (1, 2, 4)
    }
    for p in (2, 4):
        np.testing.assert_allclose(traces[p], traces[1], rtol=1e-10)


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_nmf_trace_matches_exact_objective(algorithm, p):
    def fn(comm):
        from blockstat.distarray import rand_fill

        x = empty((9, 7), comm)  # uneven blocks at p = 2 and 4
        rand_fill(x, seed=60, common_init=True)
        state = nmf_init(x, 3, seed=61)
        exact = []
        for _ in range(20):
            algorithm(state, 1)
            exact.append(nmf_objective(state.X, state.Vt, state.W))
        return state.trace, exact

    for trace, exact in run_inproc(p, fn):
        assert len(trace) == 20
        np.testing.assert_allclose(trace, exact, rtol=1e-10)


def test_nmf_multiplicative_exact_factorization_trace_clamps_at_zero():
    gen = rng(30)
    vt_d = gen.integers(1, 4, size=(2, 5)).astype(np.float64)
    w_d = gen.integers(1, 4, size=(2, 6)).astype(np.float64)
    x_d = vt_d.T @ w_d  # eps in the update moves the factors off it by ~1e-12

    def fn(comm):
        state = nmf_init(_dist(comm, x_d), 2, seed=1)
        state.Vt.local[...] = _dist(comm, vt_d).local
        state.W.local[...] = _dist(comm, w_d).local
        raw, exact = [], []
        for _ in range(10):
            nmf_multiplicative(state, 1)
            # the solver's Gram identity, term for term, before clamping
            gram = np.dot(np.ravel(state.VtV, order="F"), np.ravel(state.WWt, order="F"))
            raw.append(state.X_sqnorm - 2.0 * dot(state.VtX, state.W) + float(gram))
            exact.append(nmf_objective(state.X, state.Vt, state.W))
        return state.trace, raw, exact, state.X_sqnorm

    for trace, raw, exact, x_sqnorm in run_inproc(2, fn):
        assert min(raw) < 0.0
        np.testing.assert_array_equal(trace, np.maximum(raw, 0.0))
        assert max(exact) < 1e-18
        assert max(trace) <= 8 * np.finfo(np.float64).eps * x_sqnorm


def test_nmf_apg_exact_factorization_is_fixed_point():
    gen = rng(33)
    vt_d = gen.integers(1, 4, size=(2, 5)).astype(np.float64)
    w_d = gen.integers(1, 4, size=(2, 6)).astype(np.float64)
    x_d = vt_d.T @ w_d  # small integers: all arithmetic below is exact

    def fn(comm):
        state = nmf_init(_dist(comm, x_d), 2, seed=1)
        state.Vt.local[...] = _dist(comm, vt_d).local
        state.W.local[...] = _dist(comm, w_d).local
        nmf_apg(state, 3)
        return gather_full(state.Vt), gather_full(state.W), state.trace

    for vt, w, trace in run_inproc(2, fn):
        np.testing.assert_array_equal(vt, vt_d)
        np.testing.assert_array_equal(w, w_d)
        assert trace == [0.0, 0.0, 0.0]


def test_nmf_apg_ends_near_multiplicative():
    def fn(comm, algorithm):
        from blockstat.distarray import rand_fill

        x = empty((200, 300), comm)
        rand_fill(x, seed=3, common_init=True)
        state = nmf_init(x, 5, seed=3)
        algorithm(state, 50)
        return state.trace[-1]

    apg = run_inproc(1, fn, nmf_apg)[0]
    multiplicative = run_inproc(1, fn, nmf_multiplicative)[0]
    assert apg <= 1.05 * multiplicative


def test_nmf_apg_step_sizes_positive_and_finite():
    def fn(comm):
        x = zeros((4, 4), comm)  # worst case: WWt becomes zero
        state = nmf_init(x, 2, seed=9)
        nmf_apg(state, 2)
        return state.trace

    for trace in run_inproc(2, fn):
        assert np.all(np.isfinite(trace))


# -- MDS -------------------------------------------------------------------------


def test_mds_stress_examples():
    def fn(comm):
        # two points at distance 1 in one dimension, target distance 2
        theta = _dist(comm, np.array([[0.0, 1.0]]))
        y = _dist(comm, np.array([[0.0, 2.0], [2.0, 0.0]]))
        two_side = mds_stress(theta, y)
        y_exact = _dist(comm, np.array([[0.0, 1.0], [1.0, 0.0]]))
        return two_side, mds_stress(theta, y_exact)

    for stress, exact in run_inproc(2, fn):
        assert stress == pytest.approx(2.0)
        assert exact == 0.0


@pytest.mark.parametrize("p", [1, 2])
def test_mds_stress_matches_bruteforce(p):
    gen = rng(41)
    theta_d = gen.standard_normal((2, 6))
    y_d = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            y_d[i, j] = np.linalg.norm(gen.standard_normal(2)) if i != j else 0.0
    y_d = (y_d + y_d.T) / 2
    want = 0.0
    for i in range(6):
        for j in range(6):
            if i != j:
                want += (y_d[i, j] - np.linalg.norm(theta_d[:, i] - theta_d[:, j])) ** 2

    def fn(comm):
        return mds_stress(_dist(comm, theta_d), _dist(comm, y_d))

    for got in run_inproc(p, fn):
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_mds_exact_embedding_is_fixed_point():
    # 3-4-5 right triangle: coordinates and all pairwise distances are exact
    pts = np.array([[0.0, 3.0, 3.0], [0.0, 0.0, 4.0]])
    y_d = np.array([[0.0, 3.0, 5.0], [3.0, 0.0, 4.0], [5.0, 4.0, 0.0]])

    def fn(comm):
        y = _dist(comm, y_d)
        state = mds_init(y, 2, seed=3)
        state.theta.local[...] = _dist(comm, pts).local
        mds_fit(state, 2)
        return gather_full(state.theta), state.trace

    for theta, trace in run_inproc(2, fn):
        np.testing.assert_array_equal(theta, pts)
        assert trace == [0.0, 0.0]


def _mds_trace(comm, seed, iters, ndim):
    x = empty((4, 10), comm)
    from blockstat.distarray import rand_fill

    rand_fill(x, seed=seed, common_init=True)
    y = empty((10, 10), comm)
    pairwise_euclidean(y, x)
    state = mds_init(y, ndim, seed=seed + 1)
    mds_fit(state, iters)
    return np.asarray(state.trace)


def test_mds_descent():
    for seed in (60, 61):
        trace = run_inproc(1, _mds_trace, seed, 100, 2)[0]
        assert np.all(np.diff(trace) <= 1e-10)


def test_mds_rank_count_independent():
    traces = {p: run_inproc(p, _mds_trace, 62, 40, 2)[0] for p in (1, 2)}
    np.testing.assert_allclose(traces[2], traces[1], rtol=1e-10)


def test_mds_coincident_points_raise_or_perturb():
    y_d = np.array([[0.0, 1.0], [1.0, 0.0]])
    coincident = np.array([[0.5, 0.5]])

    def fn(comm, perturb):
        state = mds_init(_dist(comm, y_d), 1, seed=3, perturb=perturb)
        state.theta.local[...] = _dist(comm, coincident).local
        mds_fit(state, 1)
        return state.trace[-1]

    with pytest.raises(DegenerateConfigError):
        run_inproc(2, fn, False)
    for stress in run_inproc(2, fn, True):
        assert np.isfinite(stress)


# -- Cox -------------------------------------------------------------------------


def _dense_cox(x, y, delta, beta):
    """Brute-force partial likelihood, risk matrix and gradient."""
    eta = x @ beta
    w = np.exp(eta)
    risk = y[:, None] >= y[None, :]  # [i, j] = 1(y_i >= y_j)
    big_w = (risk * w[:, None]).sum(axis=0)
    loglik = float(np.sum(delta * (eta - np.log(big_w))))
    p_mat = risk * w[:, None] / big_w[None, :]
    grad = x.T @ (delta - p_mat @ delta)
    return loglik, p_mat, grad


def _make_survival(gen, m, n, beta_true=None):
    x = gen.standard_normal((m, n))
    eta = x @ beta_true if beta_true is not None else np.zeros(m)
    times = gen.exponential(1.0 / np.exp(eta))
    delta = (gen.random(m) > 0.3).astype(np.float64)
    order = np.argsort(-times)
    return x[order], times[order], delta[order]


def test_cox_loglik_zero_beta():
    gen = rng(70)
    x_d, y_d, delta_d = _make_survival(gen, 8, 3)
    want = -float(np.sum(delta_d * np.log(np.arange(1, 9))))

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.01)
        return cox_partial_loglik(state)

    for got in run_inproc(2, fn):
        assert got == pytest.approx(want, rel=1e-12)


def test_cox_loglik_single_subject():
    def fn(comm):
        x = _dist(comm, np.array([[1.5, -2.0]]))
        state = cox_init(x, np.array([3.0]), np.array([1.0]), lam=0.0, sigma=0.01)
        state.beta.local[...] = _dist(comm, np.array([0.3, 0.7])).local
        return cox_partial_loglik(state)

    for got in run_inproc(2, fn):
        assert got == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_cox_loglik_matches_bruteforce(p):
    gen = rng(71)
    x_d, y_d, delta_d = _make_survival(gen, 6, 3)
    beta_d = gen.standard_normal(3) * 0.4
    want, _, _ = _dense_cox(x_d, y_d, delta_d, beta_d)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.01)
        state.beta.local[...] = _dist(comm, beta_d).local
        return cox_partial_loglik(state)

    for got in run_inproc(p, fn):
        assert got == pytest.approx(want, rel=1e-12)


def test_pi_delta_zero_events():
    def fn(comm):
        out = np.empty(4)
        w = np.ones(4)
        big_w = np.cumsum(w)
        lo, hi = [(0, 2), (2, 4)][comm.rank] if comm.size == 2 else (0, 4)
        pi_delta(out, w, big_w, np.zeros(4), lo, hi, comm)
        return out

    for out in run_inproc(2, fn):
        np.testing.assert_array_equal(out, np.zeros(4))


def test_pi_delta_two_subjects():
    def fn(comm):
        out = np.empty(2)
        w = np.ones(2)
        big_w = np.cumsum(w)
        lo = comm.rank
        pi_delta(out, w, big_w, np.ones(2), lo, lo + 1, comm)
        return out

    for out in run_inproc(2, fn):
        np.testing.assert_allclose(out, [1.5, 0.5], rtol=0, atol=0)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_pi_delta_matches_dense(p):
    gen = rng(72)
    x_d, y_d, delta_d = _make_survival(gen, 8, 2)
    beta_d = gen.standard_normal(2) * 0.3
    _, p_mat, _ = _dense_cox(x_d, y_d, delta_d, beta_d)
    want = p_mat @ delta_d

    def fn(comm):
        from blockstat.distarray import partition_of

        w = np.exp(x_d @ beta_d)
        big_w = np.cumsum(w)
        part = partition_of(8, comm.size)
        out = np.empty(8)
        pi_delta(out, w, big_w, delta_d, part.lo(comm.rank), part.hi(comm.rank), comm)
        return out

    for out in run_inproc(p, fn):
        np.testing.assert_allclose(out, want, atol=1e-12)


def test_pi_delta_breslow_ties_match_dense():
    gen = rng(73)
    x_d = gen.standard_normal((7, 2))
    y_d = np.array([9.0, 7.0, 7.0, 7.0, 4.0, 4.0, 1.0])
    delta_d = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    beta_d = np.array([0.2, -0.4])
    want_l, p_mat, _ = _dense_cox(x_d, y_d, delta_d, beta_d)
    want_pd = p_mat @ delta_d

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.01,
                         ties="breslow")
        state.beta.local[...] = _dist(comm, beta_d).local
        loglik = cox_partial_loglik(state)
        from blockstat.distarray import partition_of

        part = partition_of(7, comm.size)
        out = np.empty(7)
        pi_delta(out, state.w, state.W, delta_d,
                 part.lo(comm.rank), part.hi(comm.rank), comm, cuts=state.cuts)
        return loglik, out

    for loglik, out in run_inproc(3, fn):
        assert loglik == pytest.approx(want_l, rel=1e-12)
        np.testing.assert_allclose(out, want_pd, atol=1e-12)


def test_cox_fit_breslow_end_to_end():
    gen = rng(79)
    x_d = gen.standard_normal((9, 3))
    y_d = np.array([8.0, 8.0, 6.0, 5.0, 5.0, 5.0, 3.0, 2.0, 2.0])
    delta_d = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    beta_d = np.array([0.3, -0.2, 0.1])
    _, _, grad_want = _dense_cox(x_d, y_d, delta_d, beta_d)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.05,
                         ties="breslow")
        state.beta.local[...] = _dist(comm, beta_d).local
        cox_fit(state, 1, trace_every=0)
        return gather_full(state.grad), gather_full(state.beta)

    for grad, beta in run_inproc(3, fn):
        np.testing.assert_allclose(grad, grad_want, rtol=1e-10)
        np.testing.assert_allclose(beta, beta_d + 0.05 * grad_want, rtol=1e-10)


def test_cox_ties_rejected_without_breslow():
    def fn(comm):
        x = zeros((3, 2), comm)
        cox_init(x, np.array([2.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0]),
                 lam=0.0, sigma=0.1)

    with pytest.raises(ValueError):
        run_inproc(2, fn)


def test_cox_gradient_matches_finite_differences():
    gen = rng(74)
    x_d, y_d, delta_d = _make_survival(gen, 12, 4)
    beta_d = gen.standard_normal(4) * 0.2
    _, _, grad_want = _dense_cox(x_d, y_d, delta_d, beta_d)
    h = 1e-6
    fd = np.empty(4)
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        up, _, _ = _dense_cox(x_d, y_d, delta_d, beta_d + e)
        dn, _, _ = _dense_cox(x_d, y_d, delta_d, beta_d - e)
        fd[k] = (up - dn) / (2 * h)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.01)
        state.beta.local[...] = _dist(comm, beta_d).local
        cox_fit(state, 1, trace_every=0)  # one step computes the gradient
        return gather_full(state.grad)

    for grad in run_inproc(2, fn):
        np.testing.assert_allclose(grad, grad_want, rtol=1e-10)
        np.testing.assert_allclose(grad, fd, rtol=1e-5)


def test_cox_lambda_dominant_keeps_beta_zero():
    gen = rng(75)
    x_d, y_d, delta_d = _make_survival(gen, 10, 3)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e9, sigma=0.01)
        cox_fit(state, 5)
        return gather_full(state.beta)

    for beta in run_inproc(2, fn):
        np.testing.assert_array_equal(beta, np.zeros(3))


def test_cox_unpenalized_gradient_vanishes_at_optimum():
    gen = rng(76)
    beta_true = np.array([0.8, -0.6, 0.0, 0.0, 0.4])
    x_d, y_d, delta_d = _make_survival(gen, 20, 5, beta_true)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0)
        cox_fit(state, 800, trace_every=0)
        cox_fit(state, 1, trace_every=0)  # refresh gradient at the iterate
        return np.linalg.norm(gather_full(state.grad))

    for gnorm in run_inproc(2, fn):
        assert gnorm <= 1e-4


def test_cox_rank_count_independent_traces():
    gen = rng(77)
    x_d, y_d, delta_d = _make_survival(gen, 12, 4, np.array([0.5, 0.0, -0.5, 0.0]))

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e-3)
        cox_fit(state, 80)
        return np.asarray(state.trace), gather_full(state.beta)

    ref_trace, ref_beta = run_inproc(1, fn)[0]
    for p in (2, 4):
        got_trace, got_beta = run_inproc(p, fn)[0]
        np.testing.assert_allclose(got_trace, ref_trace, rtol=1e-10)
        np.testing.assert_allclose(got_beta, ref_beta, rtol=1e-10)


@pytest.mark.parametrize("ties", ["none", "breslow"])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_cox_fit_pd_matches_pi_delta(p, ties):
    gen = rng(80)
    x_d, y_d, delta_d = _make_survival(gen, 11, 3)
    if ties == "breslow":
        y_d = np.repeat(y_d[::2], 2)[:11]  # still nonincreasing, tied in pairs
    beta_d = gen.standard_normal(3) * 0.4

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=0.01, ties=ties)
        state.beta.local[...] = _dist(comm, beta_d).local
        cox_fit(state, 1, trace_every=0)
        part = partition_of(len(y_d), comm.size)
        ref = np.empty(len(y_d))
        pi_delta(ref, state.w, state.W, state.delta, part.lo(comm.rank),
                 part.hi(comm.rank), comm, cuts=state.cuts)
        return state.pd.copy(), ref

    for pd, ref in run_inproc(p, fn):
        if p == 1:
            np.testing.assert_array_equal(pd, ref)
        else:
            np.testing.assert_allclose(pd, ref, rtol=1e-12, atol=0)


def test_cox_tied_iteration_allocates_no_m_length_temporaries():
    m = 100_000
    gen = rng(82)
    x_d = gen.standard_normal((m, 3))
    y_d = np.repeat(np.arange(m // 2, 0, -1), 2).astype(np.float64)  # tied in pairs
    delta_d = (gen.random(m) > 0.3).astype(np.float64)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e-3, ties="breslow")
        cox_fit(state, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cox_fit(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (m * 8)

    (lengths,) = run_inproc(1, fn)
    assert lengths <= 1.2, lengths  # the allreduce deposit of X beta; no tie gathers


def test_cox_traces_identical_across_backends():
    gen = rng(81)
    x_d, y_d, delta_d = _make_survival(gen, 13, 5, np.array([0.6, 0.0, -0.4, 0.0, 0.2]))

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e-2)
        cox_fit(state, 30)
        return np.asarray(state.trace), gather_full(state.beta)

    inproc = run_inproc(2, fn)
    sock = run_socket(2, fn)
    for (trace_i, beta_i), (trace_s, beta_s) in zip(inproc, sock):
        assert len(trace_i) == 30
        np.testing.assert_array_equal(trace_s, trace_i)
        np.testing.assert_array_equal(beta_s, beta_i)


def test_cox_monitor_stops_early():
    gen = rng(78)
    x_d, y_d, delta_d = _make_survival(gen, 10, 2, np.array([0.5, -0.5]))

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.1)
        cox_fit(state, 10_000, monitor=ConvergenceMonitor())
        return len(state.trace)

    for steps in run_inproc(2, fn):
        assert steps < 10_000


def test_cox_overflow_clamps_with_warning():
    x_d = np.array([[400.0], [-400.0]])
    y_d = np.array([2.0, 1.0])
    delta_d = np.array([1.0, 1.0])

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.0, sigma=1e-9)
        state.beta.local[...] = _dist(comm, np.array([10.0])).local
        with pytest.warns(RuntimeWarning):
            val = cox_partial_loglik(state)
        return val

    for val in run_inproc(1, fn):
        assert np.isfinite(val)


def test_cox_nonfinite_input_raises():
    def fn(comm):
        x = _dist(comm, np.array([[np.nan], [0.0]]))
        state = cox_init(x, np.array([2.0, 1.0]), np.array([1.0, 1.0]),
                         lam=0.0, sigma=0.1)
        cox_partial_loglik(state)

    with pytest.raises(NumericError):
        run_inproc(1, fn)

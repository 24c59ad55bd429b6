"""Solver correctness: descent properties, fixed points, brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from blockstat import solvers
from blockstat.comm import ReduceOp, run_inproc
from blockstat.distarray import distribute, empty, gather_full, partition_of, reduce_all, zeros
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
from conftest import raises_on_every_rank, rng, run_socket


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
def test_nmf_init_rejects_rank_zero(p):
    def fn(comm):
        nmf_init(_dist(comm, np.ones((3, 4))), 0, seed=1)

    with pytest.raises(ValueError, match="rank"):
        run_inproc(p, fn)


@pytest.mark.parametrize("p", [1, 2])
def test_nmf_init_rejects_one_negative_entry(p):
    data = np.ones((3, 5))
    data[2, 4] = -1e-3  # last column: owned by the last rank at p = 2

    def fn(comm):
        nmf_init(_dist(comm, data), 2, seed=1)

    with pytest.raises(ValueError, match="nonnegative"):
        run_inproc(p, fn)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("backend,p", [("inproc", 1), ("inproc", 2), ("socket", 2)])
def test_nmf_init_rejects_nonfinite_data_on_every_rank(value, backend, p):
    data = np.ones((6, 5))
    data[4, 3] = value  # owned by the last rank at p = 2

    def fn(comm):
        with pytest.raises(ValueError, match="finite"):
            nmf_init(_dist(comm, data), 3, seed=1)
        return True

    runner = run_inproc if backend == "inproc" else run_socket
    assert runner(p, fn) == [True] * p


def _nmf_restarts(comm, algorithm, k):
    """One call of ``k`` iterations, then from the same start ``k`` calls of
    one and one call of ``k`` again; each run's trace, Vt and W."""
    state = nmf_init(_dist(comm, rng(100).random((9, 7))), 3, seed=2)
    vt0, w0 = state.Vt.local.copy(), state.W.local.copy()
    runs = []
    for calls in ([k], [1] * k, [k]):
        state.Vt.local[...], state.W.local[...] = vt0, w0  # as Problem.reset() does
        state.trace.clear()
        for iters in calls:
            algorithm(state, iters)
        runs.append([np.asarray(state.trace), gather_full(state.Vt), gather_full(state.W)])
    return runs


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
@pytest.mark.parametrize("backend,p", [("inproc", 1), ("inproc", 2), ("inproc", 3),
                                       ("socket", 2)])
def test_nmf_calls_keep_no_state_between_them(algorithm, backend, p):
    runner = run_inproc if backend == "inproc" else run_socket
    for first, split, again in runner(p, _nmf_restarts, algorithm, 5):
        assert len(first[0]) == 5
        for a, b, c in zip(first, split, again):
            assert a.tobytes() == b.tobytes() == c.tobytes()


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


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_nmf_float32_trace_descends_near_exact_objective(algorithm, p):
    # the cross term <Vt X, W> is summed across ranks in float32
    def fn(comm):
        from blockstat.distarray import rand_fill

        x = empty((40, 30), comm, np.float32)
        rand_fill(x, seed=62, common_init=True)
        state = nmf_init(x, 4, seed=63)
        exact = []
        for _ in range(50):
            algorithm(state, 1)
            exact.append(nmf_objective(state.X, state.Vt, state.W))
        return state.trace, exact, state.X_sqnorm

    for trace, exact, x_sqnorm in run_inproc(p, fn):
        assert len(trace) == 50
        assert np.all(np.diff(trace) <= 0.0)
        bound = 8 * np.finfo(np.float32).eps * x_sqnorm
        assert np.max(np.abs(np.subtract(trace, exact))) <= bound


def test_nmf_multiplicative_exact_factorization_trace_clamps_at_zero():
    gen = rng(32)
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


def test_mds_makes_one_gather_and_one_allreduce():
    ops = ("broadcast", "allreduce", "allgatherv", "scatterv", "barrier")

    def fn(comm):
        y = empty((7, 7), comm)
        pairwise_euclidean(y, _dist(comm, rng(90).standard_normal((3, 7))))
        state = mds_init(y, 2, seed=4)
        calls = []

        def counted(op, method):
            def call(*args, **kwargs):
                calls.append(op)
                return method(*args, **kwargs)
            return call

        for op in ops:
            setattr(comm, op, counted(op, getattr(comm, op)))
        mds_fit(state, 1)
        fit_calls, calls[:] = list(calls), []
        mds_stress(state.theta, y)
        return fit_calls, calls

    for fit_calls, stress_calls in run_inproc(3, fn):
        assert fit_calls == stress_calls == ["allgatherv", "allreduce"]


def test_mds_iteration_allocates_no_n_by_n_temporaries():
    n = 2000

    def fn(comm):
        y = empty((n, n), comm)
        pairwise_euclidean(y, _dist(comm, rng(91).standard_normal((3, n))))
        state = mds_init(y, 2, seed=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mds_fit(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (n * n * 8)

    (squares,) = run_inproc(1, fn)
    assert squares < 0.25, squares


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


_TIMES = np.array([4.0, 3.0, 2.0, 1.0])
_EVENTS = np.array([1.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("build,match", [
    (lambda c: cox_init(zeros((4,), c), _TIMES, _EVENTS, lam=0.1), "2-D"),
    (lambda c: cox_init(zeros((4, 2), c), _TIMES[:3], _EVENTS, lam=0.1), "one entry"),
    (lambda c: cox_init(zeros((4, 2), c), _TIMES, _EVENTS[:3], lam=0.1), "one entry"),
    (lambda c: cox_init(zeros((4, 2), c), _TIMES[::-1], _EVENTS, lam=0.1), "nonincreasing"),
    (lambda c: cox_init(zeros((4, 2), c), _TIMES, 2 * _EVENTS, lam=0.1), "0 or 1"),
    (lambda c: cox_init(zeros((4, 2), c), _TIMES, _EVENTS, lam=0.1, ties="efron"),
     "unknown tie mode"),
    (lambda c: mds_init(zeros((3, 4), c), 2), "square"),
    (lambda c: mds_init(zeros((1, 1), c), 2), "two points"),
    (lambda c: mds_init(zeros((3, 3), c), 0), "one embedding dimension"),
    (lambda c: mds_init(_dist(c, np.ones((3, 3))), 2), "zero diagonal"),
], ids=["cox-1d", "cox-times-length", "cox-events-length", "cox-increasing-times",
        "cox-events-not-binary", "cox-ties", "mds-not-square", "mds-one-point", "mds-q-0",
        "mds-diagonal"])
def test_solver_init_rejects_bad_input_on_every_rank(build, match):
    raises_on_every_rank(2, build, ValueError, match)


def test_cox_ties_rejected_without_breslow():
    def fn(comm):
        x = zeros((3, 2), comm)
        cox_init(x, np.array([2.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0]),
                 lam=0.0, sigma=0.1)

    with pytest.raises(ValueError):
        run_inproc(2, fn)


@pytest.mark.parametrize("lam,sigma,match", [
    (-1.0, None, "lambda"), (np.inf, None, "lambda"), (np.nan, 0.1, "lambda"),
    (0.1, np.nan, "step size"), (0.1, np.inf, "step size"), (0.1, -1.0, "step size"),
])
def test_cox_init_rejects_bad_lambda_or_sigma_on_every_rank_before_any_collective(
        lam, sigma, match):
    x_d, y_d, delta_d = _make_survival(rng(78), 8, 3)

    def fn(comm):
        x = _dist(comm, x_d)
        before = comm.stats()
        with pytest.raises(ValueError, match=match):
            cox_init(x, y_d, delta_d, lam=lam, sigma=sigma)
        return comm.stats() == before

    assert run_inproc(3, fn) == [True] * 3


def test_cox_init_rejects_an_integer_x_on_every_rank_before_any_collective(world_runner):
    moved = []

    def build(comm):
        x = _dist(comm, np.arange(8, dtype=np.int64).reshape(4, 2))
        before = comm.stats()
        try:
            cox_init(x, _TIMES, _EVENTS, lam=0.1)
        finally:
            moved.append(comm.stats() != before)

    raises_on_every_rank(2, build, ValueError, "float32 or float64", runner=world_runner)
    assert moved == [False, False]


def test_cox_default_step_on_all_zero_x_raises_on_every_rank():
    def fn(comm):
        with pytest.raises(ValueError, match="--sigma"):
            cox_init(zeros((6, 3), comm), np.arange(6.0, 0.0, -1.0), np.ones(6), lam=0.1)
        return True

    assert run_inproc(3, fn) == [True] * 3


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
    assert lengths <= 1.2, lengths  # loose: about 0.01 m-lengths now, and no tie gathers


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg],
                         ids=["multiplicative", "apg"])
def test_nmf_iteration_allocates_no_factor_sized_temporaries(algorithm):
    m, n, r = 3000, 600, 20
    x_d = rng(83).random((m, n))

    def fn(comm):
        state = nmf_init(_dist(comm, x_d), r, seed=1)
        algorithm(state, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            algorithm(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (r * m * 8)

    (lengths,) = run_inproc(1, fn)
    # about 0.26 and 0.13 r x m lengths of numpy iterator buffers; a fresh
    # product or update temporary would add 1 each
    assert lengths <= 0.5, lengths


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


def _cox_five_steps(comm, x_d, y_d, delta_d):
    state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e-2)
    cox_fit(state, 5)
    return np.asarray(state.trace), gather_full(state.beta)


def test_cox_iterations_call_neither_matmul_nor_map_broadcast(world_runner, monkeypatch):
    # the gradient and the step work on the local blocks, so the dispatching
    # primitives can refuse every call and the iterates stay bitwise the same
    x_d, y_d, delta_d = _make_survival(rng(84), 13, 5, np.array([0.6, 0.0, -0.4, 0.0, 0.2]))
    want = world_runner(2, _cox_five_steps, x_d, y_d, delta_d)

    def refuse(*args, **kwargs):
        raise AssertionError("a Cox iteration called a dispatching primitive")

    monkeypatch.setattr(solvers, "matmul", refuse)
    monkeypatch.setattr(solvers, "map_broadcast", refuse)
    got = world_runner(2, _cox_five_steps, x_d, y_d, delta_d)
    for (trace, beta), (trace_want, beta_want) in zip(got, want):
        assert len(trace) == 5 and np.any(beta != 0)
        np.testing.assert_array_equal(trace, trace_want)
        np.testing.assert_array_equal(beta, beta_want)


def _lasso_state(comm):
    """demos/05_cox_lasso.py's data and its lambda_max = sigma ||grad l(0)||_inf."""
    beta_true = np.zeros(40)
    beta_true[:4] = [0.9, -0.8, 0.7, -0.6]
    x_d, y_d, delta_d = _make_survival(rng(13), 120, 40, beta_true)
    state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e300)
    cox_fit(state, 1, trace_every=0)  # the gradient at beta = 0; beta stays 0
    return state, state.sigma * reduce_all(state.grad, ReduceOp.MAX, transform=np.abs)


@pytest.mark.parametrize("p", [1, 2])
def test_cox_warm_started_trace_is_nonincreasing(p):
    # the trace is the objective the soft-thresholded step minimizes, so it
    # falls from any start, not only from beta = 0
    def fn(comm):
        state, lam_max = _lasso_state(comm)
        state.lam = 0.0
        cox_fit(state, 500, trace_every=0)
        state.lam = 0.02 * lam_max
        cox_fit(state, 50)
        return np.asarray(state.trace)

    trace = run_inproc(p, fn)[0]
    assert len(trace) == 50
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))


@pytest.mark.parametrize("p", [1, 2])
def test_cox_traced_penalty_weight_is_the_gradient_on_the_support(p):
    # at a fixed point of beta <- S_lam(beta + sigma grad), |grad_j| = lam / sigma
    # wherever beta_j != 0: the weight that the trace puts on ||beta||_1
    def fn(comm):
        state, lam_max = _lasso_state(comm)
        state.lam = 0.1 * lam_max
        cox_fit(state, 2000, trace_every=0)
        loglik = cox_partial_loglik(state)
        l1 = reduce_all(state.beta, transform=np.abs)
        beta = gather_full(state.beta)
        cox_fit(state, 1)  # traces the objective at beta, and forms the gradient there
        weight = (state.trace[-1] + loglik) / l1
        return weight, np.abs(gather_full(state.grad))[beta != 0], state.lam / state.sigma

    weight, grad, lam_over_sigma = run_inproc(p, fn)[0]
    assert 0 < len(grad) < 40
    np.testing.assert_allclose(grad, weight, rtol=1e-6)
    assert weight == pytest.approx(lam_over_sigma, rel=1e-12)


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


# -- per-iteration records --------------------------------------------------------


def _check_records(state):
    """One iter_stats entry per trace entry; clocks that only move forward, with
    the seconds in collectives inside the elapsed seconds."""
    assert len(state.iter_stats) == len(state.trace)
    for seconds, in_collectives, calls in state.iter_stats:
        assert 0.0 <= in_collectives <= seconds + 1e-9 and isinstance(calls, int)
    assert np.all(np.diff([s for s, _, _ in state.iter_stats]) >= 0)
    return [calls for _, _, calls in state.iter_stats]


def _records(comm, solver):
    gen = rng(96)
    if solver in ("multiplicative", "apg"):
        state = nmf_init(_dist(comm, gen.random((6, 7))), 2, seed=1)
        fit = nmf_apg if solver == "apg" else nmf_multiplicative
        fit(state, 4)
        first = _check_records(state)
        state.trace.clear()
        state.iter_stats.clear()
        fit(state, 3)
        return first, _check_records(state)
    if solver == "mds":
        y = empty((7, 7), comm)
        pairwise_euclidean(y, _dist(comm, gen.standard_normal((3, 7))))
        state = mds_init(y, 2, seed=4)
        mds_fit(state, 4)
    else:
        x_d, y_d, delta_d = _make_survival(gen, 9, 3)
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.01)
        cox_fit(state, 4)
    return (_check_records(state),)


@pytest.mark.parametrize("solver,want", [
    ("multiplicative", ([2, 4, 6, 8], [2, 4, 6])),  # 2 per iteration, none per call
    ("apg", ([2, 4, 6, 8], [2, 4, 6])),
    ("mds", ([2, 4, 6, 8],)),
    ("cox", ([1, 2, 3, 4],)),
])
@pytest.mark.parametrize("backend", ["inproc", "socket"])
def test_iter_stats_count_collectives_from_the_call_start(solver, want, backend):
    runner = run_inproc if backend == "inproc" else run_socket
    for calls in runner(2, _records, solver):
        assert calls == want


def _nmf_op_split(comm, algorithm, iters):
    state = nmf_init(_dist(comm, rng(99).random((6, 7))), 2, seed=1)
    before = comm.stats()
    algorithm(state, iters)
    after = comm.stats()
    return {op: (after[op]["calls"] - before[op]["calls"],
                 after[op]["bytes"] - before[op]["bytes"]) for op in after}


@pytest.mark.parametrize("algorithm", [nmf_multiplicative, nmf_apg])
@pytest.mark.parametrize("backend", ["inproc", "socket"])
def test_nmf_call_makes_two_allreduces_per_iteration(algorithm, backend):
    # m = 6, n = 7, r = 2: per iteration an allreduce of r (2m + r) (W Xt, all
    # of Vt, W Wt) and one of r^2 + 1 (W Wt and <Vt X, W>); nothing per call
    runner = run_inproc if backend == "inproc" else run_socket
    m, r, iters = 6, 2, 3
    for split in runner(2, _nmf_op_split, algorithm, iters):
        assert split == {
            "broadcast": (0, 0),
            "allreduce": (2 * iters, 8 * iters * (2 * r * m + 2 * r * r + 1)),
            "allgatherv": (0, 0),
            "scatterv": (0, 0),
            "barrier": (0, 0),
        }


@pytest.mark.parametrize("trace_every,want", [(0, []), (1, list(range(1, 11))),
                                              (3, [1, 4, 7, 10])])
def test_cox_trace_every_thins_iter_stats_with_the_trace(trace_every, want):
    x_d, y_d, delta_d = _make_survival(rng(97), 9, 3)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=0.01)
        cox_fit(state, 10, trace_every=trace_every)
        return _check_records(state)

    for calls in run_inproc(2, fn):
        assert calls == want


def test_cox_monitor_stop_keeps_one_record_per_entry():
    # lambda 1e9 keeps beta at 0, so the default window of 10 fires on entry 11
    x_d, y_d, delta_d = _make_survival(rng(98), 9, 3)

    def fn(comm):
        state = cox_init(_dist(comm, x_d), y_d, delta_d, lam=1e9)
        cox_fit(state, 1000, monitor=ConvergenceMonitor())
        return _check_records(state)

    for calls in run_inproc(2, fn):
        assert calls == list(range(1, 12))

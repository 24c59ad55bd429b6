"""Distributed linear algebra vs dense oracles."""

import tracemalloc

import numpy as np
import pytest

from blockstat.comm import init, run_inproc
from blockstat.distarray import TransposedView, distribute, empty, gather_full, transpose, zeros
from blockstat.distlinalg import (
    SCENARIOS,
    ScenarioError,
    ShapeError,
    diag_fill,
    diag_get,
    dot,
    matmul,
    opnorm,
    pairwise_euclidean,
)
from blockstat.testing import materialize, scenario_operands, tmp_shape
from conftest import raises_on_every_rank, rng, run_socket, three_way_zeros


def _dist(comm, data):
    return distribute(np.asarray(data) if comm.rank == 0 else None, comm)


# -- dot ---------------------------------------------------------------------


def test_dot_examples():
    def fn(comm):
        a = _dist(comm, [1.0, 2.0, 3.0])
        b = _dist(comm, [1.0, 2.0, 3.0])
        u = _dist(comm, [1.0, 0.0])
        v = _dist(comm, [0.0, 1.0])
        return dot(a, b), dot(u, v)

    for s, z in run_inproc(3, fn):
        assert s == 14.0 and z == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dot_matches_dense(p):
    gen = rng(52)
    a = gen.random((3, 5))
    b = gen.random((3, 5))

    def fn(comm):
        return dot(_dist(comm, a), _dist(comm, b))

    want = float(np.vdot(a, b))
    for got in run_inproc(p, fn):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_dot_shape_mismatch():
    def fn(comm):
        dot(_dist(comm, np.ones(3)), _dist(comm, np.ones(4)))

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


@pytest.mark.parametrize("p", [1, 2])
def test_dot_forms_int64_products_in_float64(p):
    # 2**62 * 2 overflows int64; the true sum 2**64 is exact in float64.
    def fn(comm):
        return dot(_dist(comm, np.array([2**62, 2**62])), _dist(comm, np.array([2, 2])))

    assert run_inproc(p, fn) == [2.0**64] * p


# -- diagonal ----------------------------------------------------------------


def test_diag_get_small():
    def fn(comm):
        m = _dist(comm, [[1.0, 2.0], [3.0, 4.0]])
        d = np.zeros(2)
        diag_get(d, m)
        d_dist = empty((1, 2), comm)
        diag_get(d_dist, m)
        return d, gather_full(d_dist)

    for d, dd in run_inproc(2, fn):
        np.testing.assert_array_equal(d, [1.0, 4.0])
        np.testing.assert_array_equal(dd, [[1.0, 4.0]])


def test_diag_get_identity():
    def fn(comm):
        m = zeros((4, 4), comm)
        diag_fill(m, 1.0)
        d = np.zeros(4)
        diag_get(d, m)
        return d, gather_full(m)

    for d, full in run_inproc(3, fn):
        np.testing.assert_array_equal(d, np.ones(4))
        np.testing.assert_array_equal(full, np.eye(4))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_diag_both_dest_kinds_match(p):
    gen = rng(53)
    data = gen.random((5, 5))

    def fn(comm):
        m = _dist(comm, data)
        local = np.zeros(5)
        diag_get(local, m)
        d_dist = empty((1, 5), comm)
        diag_get(d_dist, m)
        return local, gather_full(d_dist)[0]

    for local, distributed in run_inproc(p, fn):
        np.testing.assert_array_equal(local, np.diag(data))
        np.testing.assert_array_equal(distributed, np.diag(data))


def test_diag_fill_overwrites_only_diagonal():
    gen = rng(54)
    data = gen.random((4, 4))

    def fn(comm):
        m = _dist(comm, data)
        diag_fill(m, 9.0)
        return gather_full(m)

    want = data.copy()
    np.fill_diagonal(want, 9.0)
    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, want)


def test_diag_nonsquare_rejected():
    def fn(comm):
        diag_fill(zeros((2, 3), comm), 1.0)

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


# -- matmul scenario table ----------------------------------------------------


def _run_scenario(comm, row, a_dense, b_dense, use_tmp, dvec_as_view=False):
    c, a, b = scenario_operands(row, a_dense, b_dense, comm, dvec_as_view)
    tmp = None
    if use_tmp:
        shape = tmp_shape(row, a_dense.shape[0], a_dense.shape[1],
                          1 if np.ndim(b_dense) == 1 else b_dense.shape[1])
        if shape is not None:
            tmp = np.zeros(shape, dtype=a_dense.dtype, order="F")
    matmul(c, a, b, tmp=tmp)
    want_shape = (a_dense.shape[0],) if np.ndim(b_dense) == 1 else \
        (a_dense.shape[0], b_dense.shape[1])
    return materialize(c).reshape(want_shape)


def test_matmul_basic_2x2():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    for row in ("a", "b", "d", "e", "j"):
        got = run_inproc(1, _run_scenario, row, a, b, False)[0]
        np.testing.assert_allclose(got, [[13.0, 16.0], [29.0, 36.0]], rtol=0, atol=0)


def test_matmul_identity_passthrough():
    gen = rng(55)
    b = gen.random((4, 3))

    def fn(comm):
        return _run_scenario(comm, "a", np.eye(4), b, False)

    for got in run_inproc(2, fn):
        np.testing.assert_allclose(got, b, rtol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("row", sorted(SCENARIOS))
def test_matmul_all_scenarios_match_dense(row, p):
    gen = rng(100 + p)
    vector = SCENARIOS[row][1] in ("dvec", "rvec") or SCENARIOS[row][2] in ("dvec", "rvec")
    for dims in [(4, 5, 3), (3, 1, 2), (1, 3, 1)]:
        m, k, n = dims
        a_dense = gen.random((m, k))
        b_dense = gen.random(k) if vector else gen.random((k, n))
        want = a_dense @ b_dense
        for use_tmp in (False, True):
            got = run_inproc(p, _run_scenario, row, a_dense, b_dense, use_tmp)
            for full in got:
                np.testing.assert_allclose(full, want, rtol=1e-12)


@pytest.mark.parametrize("row", ["l", "m", "o"])
def test_matmul_dvec_as_transposed_row(row):
    gen = rng(56)
    a_dense = gen.random((4, 6))
    b_dense = gen.random(6)

    def fn(comm):
        return _run_scenario(comm, row, a_dense, b_dense, False, dvec_as_view=True)

    for full in run_inproc(3, fn):
        np.testing.assert_allclose(full, a_dense @ b_dense, rtol=1e-12)


@pytest.mark.parametrize("row, resolved", [("l", "c"), ("o", "h")])
def test_matmul_transposed_row_takes_resolved_rows_tmp(row, resolved):
    # A transposed 1 x n row is read as tdist before it is read as dvec, so
    # rows l and o with such B and C run as rows c and h with r = 1.
    gen = rng(58)
    a_dense = gen.random((4, 6))
    b_dense = gen.random(6)

    def fn(comm):
        c, a, b = scenario_operands(row, a_dense, b_dense, comm, dvec_as_view=True)
        matmul(c, a, b, tmp=np.zeros(tmp_shape(resolved, 4, 6, 1)))
        return materialize(c)

    for full in run_inproc(3, fn):
        np.testing.assert_allclose(full, a_dense @ b_dense, rtol=1e-12)


@pytest.mark.parametrize("row", ["a", "b"])
def test_matmul_rejects_operands_from_worlds_of_different_sizes(row):
    a_dense, b_dense = np.ones((2, 3)), np.ones((3, 2))

    def fn(comm):
        c, _, b = scenario_operands(row, a_dense, b_dense, comm)
        a = _dist(init("inproc:1")[0], a_dense)  # A from a one-rank world
        matmul(c, a, b)

    with pytest.raises(ShapeError, match="worlds of sizes"):
        run_inproc(2, fn)


def test_matmul_tmp_neutrality_bitwise():
    gen = rng(57)
    a_dense = gen.random((5, 7))
    b_dense = gen.random((7, 4))

    def fn(comm, use_tmp):
        out = {}
        for row in ("a", "b", "c", "f", "g", "h"):
            out[row] = _run_scenario(comm, row, a_dense, b_dense, use_tmp)
        return out

    without = run_inproc(2, fn, False)
    with_tmp = run_inproc(2, fn, True)
    for lhs, rhs in zip(without, with_tmp):
        for row in lhs:
            np.testing.assert_array_equal(lhs[row], rhs[row])


# (p, q, r) for each gather row: the replicated operand is 3.2 MB, the product small
_GATHER_ROW_SHAPES = {"a": (20, 20000, 4), "f": (20, 20000, 4), "g": (2, 40, 10000),
                      "h": (2, 40, 10000), "o": (2, 400000, 1)}


@pytest.mark.parametrize("row", sorted(_GATHER_ROW_SHAPES))
def test_matmul_gather_rows_fill_tmp_in_place(row):
    p, q, r = _GATHER_ROW_SHAPES[row]
    gen = rng(58)
    a_dense = gen.random((p, q))
    b_dense = gen.random((q,) if row == "o" else (q, r))
    shape = tmp_shape(row, p, q, r)
    peaks = []

    def fn(comm):
        c, a, b = scenario_operands(row, a_dense, b_dense, comm)
        tmp = np.empty(shape, order="F")
        comm.barrier()
        if comm.rank == 0:
            tracemalloc.start()
        comm.barrier()
        for _ in range(3):
            matmul(c, a, b, tmp=tmp)
        comm.barrier()
        if comm.rank == 0:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return materialize(c)

    for got in run_inproc(2, fn):
        np.testing.assert_allclose(got, a_dense @ b_dense, rtol=1e-12)
    tmp_bytes = 8 * int(np.prod(shape))
    assert peaks[0] < 0.25 * tmp_bytes, peaks[0] / tmp_bytes


def test_matmul_inadmissible_kinds():
    def fn(comm):
        a = _dist(comm, np.ones((2, 2)))
        b = _dist(comm, np.ones((2, 2)))
        c = np.empty((2, 2))  # (dist, dist, repl) is not a scenario
        matmul(c, a, b)

    with pytest.raises(ScenarioError):
        run_inproc(2, fn)


def test_matmul_extent_mismatch():
    def fn(comm):
        a = _dist(comm, np.ones((2, 3)))
        b = _dist(comm, np.ones((2, 2)))
        c = empty((2, 2), comm)
        matmul(c, a, b)

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


def test_matmul_bad_tmp_shape():
    def fn(comm):
        a = _dist(comm, np.ones((2, 3)))
        b = _dist(comm, np.ones((3, 2)))
        c = empty((2, 2), comm)
        matmul(c, a, b, tmp=np.zeros((9, 9)))

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


# -- operator norms ------------------------------------------------------------


def test_opnorm_identity_all_methods():
    def fn(comm):
        m = zeros((4, 4), comm)
        diag_fill(m, 1.0)
        return [opnorm(m, w) for w in ("l1", "linf", "l2_power", "l2_quick")]

    for vals in run_inproc(2, fn):
        np.testing.assert_allclose(vals, 1.0, rtol=1e-6)


def test_opnorm_known_spectrum():
    def fn(comm):
        m = zeros((3, 3), comm)
        m2 = _dist(comm, np.diag([1.0, 2.0, 3.0]))
        return opnorm(m2, "l2_power", tol=1e-10)

    for val in run_inproc(3, fn):
        assert abs(val - 3.0) <= 1e-6


@pytest.mark.parametrize("p", [1, 2])
def test_opnorm_random_vs_svd(p):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    gen = rng(58)
    for _ in range(5):
        data = gen.standard_normal((6, 4))
        sigma = scipy_linalg.svdvals(data)[0]

        def fn(comm):
            m = _dist(comm, data)
            return (opnorm(m, "l1"), opnorm(m, "linf"),
                    opnorm(m, "l2_power", tol=1e-10, maxiter=5000), opnorm(m, "l2_quick"))

        for l1, linf, power, quick in run_inproc(p, fn):
            assert np.isclose(l1, np.abs(data).sum(axis=0).max(), rtol=1e-14)
            assert np.isclose(linf, np.abs(data).sum(axis=1).max(), rtol=1e-14)
            assert abs(power - sigma) <= 1e-5 * sigma
            assert quick >= power - 1e-6


@pytest.mark.parametrize("p", [1, 2, 4])
def test_opnorm_l2_power_converges_in_a_few_steps(p):
    # Top singular values of a tall Gaussian matrix lie close together, so
    # 17 plain power steps stop about 2 % short; Lanczos converges in fewer.
    data = rng(61).standard_normal((2000, 16))
    want = np.linalg.norm(data, 2)
    got = run_inproc(p, lambda comm: opnorm(_dist(comm, data), "l2_power", maxiter=17))
    assert len(set(got)) == 1
    assert abs(got[0] - want) <= 1e-6 * want


def test_opnorm_empty_rejected():
    def fn(comm):
        opnorm(empty((0, 3), comm), "l1")

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


def _l2_power_rejects(comm, data):
    with pytest.raises(ValueError, match="nonfinite"):
        opnorm(_dist(comm, data), "l2_power")
    return True


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("backend,p", [("inproc", 1), ("inproc", 2), ("socket", 2)])
def test_opnorm_l2_power_nonfinite_raises_on_every_rank(value, backend, p):
    runner = run_inproc if backend == "inproc" else run_socket
    assert runner(p, _l2_power_rejects, np.full((6, 3), value)) == [True] * p


_INT64_MATRICES = [
    np.full((2, 2), 2**62, dtype=np.int64),  # every norm is 2**63, one past int64's range
    np.array([[-2**63, 3, 2**62], [-5, 2**62, -(2**61)], [7, -1, 0]], dtype=np.int64),
]


@pytest.mark.parametrize("which", ["l1", "linf", "l2_quick", "l2_power"])
@pytest.mark.parametrize("backend,p", [("inproc", 1), ("inproc", 2), ("socket", 2)])
def test_opnorm_of_int64_matches_the_float64_reference(which, backend, p):
    runner = run_inproc if backend == "inproc" else run_socket
    for data in _INT64_MATRICES:
        ref = data.astype(np.float64)
        l1, linf = np.linalg.norm(ref, 1), np.linalg.norm(ref, np.inf)
        want = {"l1": l1, "linf": linf, "l2_quick": np.sqrt(l1 * linf),
                "l2_power": np.linalg.norm(ref, 2)}[which]
        got = runner(p, lambda comm: opnorm(_dist(comm, data), which, tol=1e-10))
        assert len(set(got)) == 1
        assert abs(got[0] - want) <= 1e-8 * want


def test_opnorm_rejects_a_nan_tol_on_every_rank():
    raises_on_every_rank(2, lambda c: opnorm(zeros((3, 3), c), tol=np.nan), ValueError, "tol > 0")


def _l2_power_traffic(comm, data, tol):
    a = _dist(comm, data)
    before = comm.stats()
    value = opnorm(a, "l2_power", tol=tol, maxiter=5)
    after = comm.stats()
    calls = {op: after[op]["calls"] - before[op]["calls"] for op in after}
    return value, calls, after["allreduce"]["bytes"] - before["allreduce"]["bytes"]


@pytest.mark.parametrize("backend,p,cols", [
    ("inproc", 1, 16), ("inproc", 2, 16), ("inproc", 3, 16), ("socket", 2, 16), ("inproc", 6, 4),
])
def test_opnorm_l2_power_makes_one_allreduce_of_m_plus_1_values_per_step(backend, p, cols):
    # At tol 1e-300 a Gaussian matrix runs all min(maxiter, n) steps.  A zero
    # matrix's Krylov space is exhausted after 1 step, and a rank-1 matrix's
    # after 2; each breakdown is seen in one more allreduce.  The rank-1
    # residual beta lies near the eps * estimate^2 threshold, so at the default
    # tol that allreduce either sees the breakdown or its step converges.
    runner = run_inproc if backend == "inproc" else run_socket
    gen = rng(63)
    cases = [(gen.standard_normal((50, cols)), 1e-300, min(5, cols)),
             (np.zeros((50, cols)), 1e-300, 2),
             (np.outer(gen.standard_normal(50), gen.standard_normal(cols)), 1e-6, 3)]
    for data, tol, allreduces in cases:
        got = runner(p, _l2_power_traffic, data, tol)
        assert len({value for value, _, _ in got}) == 1
        for _, calls, nbytes in got:
            assert calls == {op: allreduces if op == "allreduce" else 0 for op in calls}
            assert nbytes == allreduces * (50 + 1) * 8


def _l2_power_allreduces(comm, data):
    a = _dist(comm, data)
    before = comm.stats()["allreduce"]["calls"]
    value = opnorm(a, "l2_power", tol=1e-300)
    return value, comm.stats()["allreduce"]["calls"] - before


@pytest.mark.parametrize("m,n,dtype,seed", [
    (50, 16, np.float32, 1), (40, 12, np.float32, 1), (50, 4, np.float64, 3),
    (50, 4, np.float64, 8), (30, 8, np.float64, 8),
])
def test_opnorm_l2_power_sees_a_rank_1_breakdown_on_every_rank_count(m, n, dtype, seed):
    # A rank-1 matrix's Krylov space is exhausted after 2 steps, and the 3rd
    # allreduce sees the breakdown whatever the rank count's rounding.
    gen = np.random.default_rng(seed)
    data = np.outer(gen.standard_normal(m), gen.standard_normal(n)).astype(dtype)
    want = np.linalg.norm(data.astype(np.float64), 2)
    rtol = 1e-5 if dtype == np.float32 else 1e-12
    runs = [run_inproc(p, _l2_power_allreduces, data) for p in (1, 2, 3, 6)]
    for got in runs + [run_socket(2, _l2_power_allreduces, data)]:
        for value, allreduces in got:
            assert allreduces == 3
            assert abs(value - want) <= rtol * want


@pytest.mark.parametrize("seed", [3, 7, 10])
def test_opnorm_l2_power_stops_at_rounding_on_every_rank_count(seed):
    # A rank-3 matrix's estimate settles within a few steps.  A tol below the
    # dtype's rounding level stops at 8 eps instead, so no rank count runs on
    # through steps whose estimates differ only in rounding.
    gen = np.random.default_rng(seed)
    data = sum(np.outer(gen.standard_normal(40), gen.standard_normal(12)) for _ in range(3))
    want = np.linalg.norm(data, 2)
    counts = set()
    runs = [run_inproc(p, _l2_power_allreduces, data) for p in (1, 2, 3, 6)]
    for got in runs + [run_socket(2, _l2_power_allreduces, data)]:
        for value, allreduces in got:
            counts.add(allreduces)
            assert abs(value - want) <= 1e-12 * want
    assert len(counts) == 1


# -- pairwise distances ---------------------------------------------------------


def test_pairwise_small_triangle():
    pts = np.array([[0.0, 3.0], [0.0, 4.0]])  # columns (0,0) and (3,4)

    def fn(comm):
        x = _dist(comm, pts)
        y = empty((2, 2), comm)
        pairwise_euclidean(y, x)
        return gather_full(y)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, [[0.0, 5.0], [5.0, 0.0]])


def test_pairwise_identical_points():
    def fn(comm):
        x = zeros((3, 5), comm)
        x.fill(2.0)
        y = empty((5, 5), comm)
        pairwise_euclidean(y, x)
        return gather_full(y)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, np.zeros((5, 5)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pairwise_chunks_identical_and_match_bruteforce(p):
    gen = rng(59)
    pts = gen.random((3, 6))
    brute = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            brute[i, j] = np.sqrt(((pts[:, i] - pts[:, j]) ** 2).sum())

    def fn(comm, chunk):
        x = _dist(comm, pts)
        y = empty((6, 6), comm)
        pairwise_euclidean(y, x, chunk=chunk)
        return gather_full(y)

    results = [run_inproc(p, fn, chunk)[0] for chunk in (1, 2, 6, 64)]
    for full in results[1:]:
        np.testing.assert_array_equal(full, results[0])
    np.testing.assert_allclose(results[0], brute, atol=1e-12)
    np.testing.assert_array_equal(results[0], results[0].T)
    np.testing.assert_array_equal(np.diag(results[0]), np.zeros(6))


@pytest.mark.parametrize("runner,p", [(run_inproc, 1), (run_inproc, 2), (run_inproc, 7),
                                      (run_socket, 2)], ids=["inproc1", "inproc2", "inproc7", "tcp2"])
def test_pairwise_of_points_without_coordinates_is_all_zero(runner, p):
    def fn(comm):
        y = empty((5, 5), comm)
        y.local[...] = np.nan
        pairwise_euclidean(y, zeros((0, 5), comm))
        return gather_full(y)

    for full in runner(p, fn):
        np.testing.assert_array_equal(full, np.zeros((5, 5)))


def test_pairwise_extent_mismatch():
    def fn(comm):
        pairwise_euclidean(empty((4, 4), comm), empty((3, 5), comm))

    with pytest.raises(ShapeError):
        run_inproc(2, fn)


def test_materialize_keeps_a_transposed_column_2d():
    a_dense = np.arange(12.0).reshape(4, 3)
    b_dense = np.arange(3.0).reshape(3, 1)

    def fn(comm):
        c, a, b = scenario_operands("c", a_dense, b_dense, comm)
        assert isinstance(c, TransposedView) and c.shape == (4, 1)
        matmul(c, a, b)
        return materialize(c)

    for got in run_inproc(3, fn):
        assert got.shape == (4, 1)
        np.testing.assert_array_equal(got, a_dense @ b_dense)


@pytest.mark.parametrize("build,exc,match", [
    (lambda c: opnorm(np.ones((3, 3))), TypeError, "2-D DistArray"),
    (lambda c: opnorm(zeros((3,), c)), TypeError, "2-D DistArray"),
    (lambda c: opnorm(zeros((3, 3), c), "fro"), ValueError, "unknown norm"),
    (lambda c: opnorm(zeros((3, 3), c), tol=0.0), ValueError, "tol > 0"),
    (lambda c: opnorm(zeros((3, 3), c), maxiter=0), ValueError, "maxiter >= 1"),
    (lambda c: pairwise_euclidean(zeros((4, 4), c), zeros((4,), c)), ShapeError, "2-D"),
    (lambda c: pairwise_euclidean(zeros((4, 4), c), zeros((2, 4), c), chunk=0),
     ValueError, "chunk"),
    (lambda c: dot(zeros((4,), c), np.zeros(4)), TypeError, "two DistArrays"),
    (lambda c: dot(zeros((4,), c), three_way_zeros(c, (4,))), ShapeError, "share the partition"),
    (lambda c: diag_get(np.empty(3), zeros((3, 4), c)), ShapeError, "non-square"),
    (lambda c: diag_get(zeros((1, 3), c), zeros((4, 4), c)), ShapeError, "1 x 4"),
    (lambda c: diag_get(three_way_zeros(c, (1, 4)), zeros((4, 4), c)), ShapeError, "1 x 4"),
    (lambda c: diag_get(np.empty(3), zeros((4, 4), c)), ShapeError, "length 4"),
], ids=["opnorm-dense", "opnorm-1d", "opnorm-norm", "opnorm-tol", "opnorm-maxiter",
        "pairwise-1d", "pairwise-chunk", "dot-dense", "dot-partition", "diag-non-square",
        "diag-dist-shape", "diag-dist-partition", "diag-repl-length"])
def test_bad_arguments_raise_on_every_rank(build, exc, match):
    raises_on_every_rank(2, build, exc, match)


@pytest.mark.parametrize("build,exc,match", [
    (lambda c: matmul(np.empty((3, 2), order="F"), zeros((3, 4), c), transpose(zeros((3, 4), c))),
     ShapeError, r"C has shape \(3, 2\), expected \(3, 3\)"),
    (lambda c: matmul(np.empty((3, 3), order="F"), np.empty((3, 4, 2)), zeros((4, 3), c)),
     ScenarioError, "unsupported kind"),
], ids=["c-shape", "3d-operand"])
def test_matmul_operand_errors_raise_on_every_rank(build, exc, match):
    raises_on_every_rank(2, build, exc, match)

"""Property tests on generated inputs: every matmul scenario against numpy, the
distribution, random-fill, scan and reduction contracts on every rank count, the
blocks of a matrix file, and the spectral-norm estimate against the SVD."""

import numpy as np
import pytest

from blockstat.cli import read_matrix, write_matrix
from blockstat.comm import ReduceOp, run_inproc
from blockstat.distarray import distribute, empty, gather_full, rand_fill, reduce_all, scan
from blockstat.distlinalg import SCENARIOS, matmul, opnorm
from blockstat.testing import materialize, scenario_operands, tmp_shape
from conftest import run_socket

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _ints(draw, shape, dtype):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
                    dtype=dtype).reshape(shape)


@st.composite
def _operands(draw, vector):
    """Integer-valued A (p, q) and B (q, r) or (q,), so every sum is exact."""
    p, q, r = (draw(st.integers(0, 6)) for _ in range(3))
    dtype = draw(st.sampled_from(["float32", "float64", "int64"]))
    return (_ints(draw, (p, q), dtype), _ints(draw, (q,) if vector else (q, r), dtype),
            draw(st.booleans()))


# 1-3 dimensions; split extents 0..5, so up to 4 ranks often own no columns
_SHAPES = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)


@st.composite
def _arrays(draw):
    """Integer-valued f32/f64/i64 arrays, so every sum and prefix sum is exact."""
    return _ints(draw, draw(_SHAPES), draw(st.sampled_from(["float32", "float64", "int64"])))


def _examples(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def _product(comm, row, a_dense, b_dense, use_tmp):
    c, a, b = scenario_operands(row, a_dense, b_dense, comm)
    shape = tmp_shape(row, a_dense.shape[0], a_dense.shape[1],
                      1 if b_dense.ndim == 1 else b_dense.shape[1])
    tmp = np.zeros(shape, dtype=a_dense.dtype, order="F") if use_tmp and shape is not None else None
    matmul(c, a, b, tmp=tmp)
    # materialize reads a transposed 1 x n row as a vector; restore C's shape
    return materialize(c).reshape(c.shape)


@pytest.mark.parametrize("row", sorted(SCENARIOS))
def test_matmul_bitwise_equal_to_numpy_on_every_rank_count(row):
    vector = "rvec" in SCENARIOS[row] or "dvec" in SCENARIOS[row]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_operands(vector))
    def check(case):
        a_dense, b_dense, use_tmp = case
        want = a_dense @ b_dense
        for ranks in (1, 2, 3, 4):
            for got in run_inproc(ranks, _product, row, a_dense, b_dense, use_tmp):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (ranks, got, want)

    check()


def _round_trip(comm, data):
    return gather_full(distribute(data if comm.rank == 0 else None, comm))


@_examples(150)
@given(_arrays())
def test_distribute_gather_round_trip_is_bitwise(data):
    for ranks in (1, 2, 3, 4):
        for got in run_inproc(ranks, _round_trip, data):
            _assert_bitwise(got, data)


@_examples(20)
@given(_arrays())
def test_distribute_gather_round_trip_over_sockets(data):
    for got in run_socket(2, _round_trip, data):
        _assert_bitwise(got, data)


def _common_fill(comm, shape, dtype, seed, dist):
    a = empty(shape, comm, dtype)
    rand_fill(a, seed=seed, common_init=True, dist=dist)
    return gather_full(a)


@_examples(100)
@given(_SHAPES, st.sampled_from(["float32", "float64"]), st.integers(0, 2 ** 32),
       st.sampled_from(["uniform01", "standard_normal"]))
def test_rand_fill_common_init_independent_of_rank_count(shape, dtype, seed, dist):
    want = run_inproc(1, _common_fill, shape, dtype, seed, dist)[0]
    assert want.shape == shape
    for ranks in (2, 3, 4):
        for got in run_inproc(ranks, _common_fill, shape, dtype, seed, dist):
            _assert_bitwise(got, want)


def _split_axis_scan(comm, data):
    a = distribute(data if comm.rank == 0 else None, comm)
    out = empty(a.shape, comm, a.dtype)
    scan(out, a, axis=data.ndim - 1)
    return gather_full(out)


@_examples(100)
@given(_arrays())
def test_scan_along_split_axis_equals_cumsum(data):
    want = np.cumsum(data, axis=-1)
    for ranks in (1, 2, 3, 4):
        for got in run_inproc(ranks, _split_axis_scan, data):
            _assert_bitwise(got, want)


def _reduce(comm, data, op):
    return reduce_all(distribute(data if comm.rank == 0 else None, comm), op)


_NUMPY_FOLD = {ReduceOp.SUM: np.sum, ReduceOp.MIN: np.min, ReduceOp.MAX: np.max}


@_examples(100)
@given(_arrays())
def test_reduce_all_equals_numpy(data):
    for op, fold in _NUMPY_FOLD.items():
        for ranks in (1, 2, 3, 4):
            if data.size == 0 and op is not ReduceOp.SUM:
                with pytest.raises(ValueError):
                    run_inproc(ranks, _reduce, data, op)
                continue
            want = fold(data).item()
            for got in run_inproc(ranks, _reduce, data, op):
                assert got == want and type(got) is type(want), (op, ranks, got, want)


@st.composite
def _spectral_cases(draw):
    """Gaussian, rank-1 or zero (m, n) matrices with m, n in 1..12."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    gen = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32))))
    kind = draw(st.sampled_from(["gaussian", "rank1", "zero"]))
    if kind == "gaussian":
        return gen.standard_normal((m, n))
    if kind == "rank1":
        return np.outer(gen.standard_normal(m), gen.standard_normal(n))
    return np.zeros((m, n))


def _l2_power(comm, data):
    return opnorm(distribute(data if comm.rank == 0 else None, comm), "l2_power", tol=1e-12)


@_examples(100)
@given(_spectral_cases(), st.integers(1, 4))
def test_opnorm_l2_power_matches_svd(data, ranks):
    sigma = np.linalg.svd(data, compute_uv=False)[0]
    got = run_inproc(ranks, _l2_power, data)
    assert len(set(got)) == 1
    assert abs(got[0] - sigma) <= 1e-8 * sigma
    assert got[0] <= sigma * (1 + 1e-12)
    assert run_socket(2, _l2_power, data) == run_inproc(2, _l2_power, data)


@st.composite
def _bit_patterns(draw):
    """f32/f64/i64 arrays of arbitrary bits (NaN payloads included), 1-3 dimensions."""
    shape = draw(_SHAPES)
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64", "int64"])))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
    return np.frombuffer(raw, dtype=dtype).reshape(shape, order="F")


def _file_blocks(comm, path, copy_path, data):
    """This rank's block read from ``path``, the block ``distribute`` gives it,
    and its block after a write to ``copy_path`` and a second read."""
    a = read_matrix(path, comm, dtype=data.dtype)
    want = distribute(data if comm.rank == 0 else None, comm)
    write_matrix(copy_path, a)
    return a.local, want.local, read_matrix(copy_path, comm).local


def test_matrix_file_blocks_match_distribute_on_every_rank_count(tmp_path):
    @_examples(60)
    @given(_bit_patterns())
    def check(data):
        path = tmp_path / "x.dsta"
        write_matrix(path, data)  # a plain array: the one-rank case
        for ranks in (1, 2, 3, 4):
            copy_path = tmp_path / f"copy{ranks}.dsta"
            for got, want, again in run_inproc(ranks, _file_blocks, path, copy_path, data):
                _assert_bitwise(got, want)
                _assert_bitwise(again, want)
            assert copy_path.read_bytes() == path.read_bytes()

    check()

"""Property tests on generated inputs: every matmul scenario against numpy, the
distribution, column-gather, random-fill, elementwise, scan and reduction
contracts on every rank count, every collective on both backends, the blocks
of a matrix file, the spectral-norm estimate against the SVD, MDS, NMF and
Cox traces and coincident points on every rank count and both backends, the
Cox tied-block indices, and every rank failing in time on both backends when
one rank fails at any collective of a communicating entry point."""

from functools import partial
import threading
import time

import numpy as np
import pytest

from blockstat.cli import read_matrix, write_matrix
from blockstat.comm import CommError, ReduceOp, init, launch, run_inproc
from blockstat.distarray import (
    DistArray,
    _gather,
    distribute,
    empty,
    gather_full,
    map_broadcast,
    rand_fill,
    reduce_all,
    reduce_dims,
    scan,
)
from blockstat.distlinalg import SCENARIOS, matmul, opnorm
from blockstat.solvers import (
    DegenerateConfigError,
    _NMF_EPS,
    _apg_step,
    _multiplicative_step,
    cox_fit,
    cox_init,
    mds_fit,
    mds_init,
    nmf_apg,
    nmf_init,
    nmf_multiplicative,
)
from blockstat.testing import materialize, scenario_operands, tmp_shape
from conftest import free_port, run_socket

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
    # materialize already returns C's shape; a (p, 1) transposed view stays 2-D
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


@st.composite
def _gather_cases(draw):
    """An array, a column range [lo, hi) that is often empty or inside one
    rank's block, and the layout of the receiving buffer."""
    data = draw(_arrays())
    lo = draw(st.integers(0, data.shape[-1]))
    hi = draw(st.integers(lo, data.shape[-1]))
    return data, lo, hi, draw(st.sampled_from(["F", "C", "strided"]))


def _gather_range(comm, data, lo, hi, layout):
    a = distribute(data if comm.rank == 0 else None, comm)
    shape = data.shape[:-1] + (hi - lo,)
    if layout == "strided":
        out = np.zeros(shape + (2,), dtype=data.dtype)[..., 1]
    else:
        out = np.zeros(shape, dtype=data.dtype, order=layout)
    assert _gather(a, lo, hi, out) is out
    return out


@_examples(60)
@given(_gather_cases())
def test_gather_fills_any_buffer_with_the_column_range(case):
    want = case[0][..., case[1]:case[2]]
    for ranks in (1, 2, 3, 4):
        for got in run_inproc(ranks, _gather_range, *case):
            _assert_bitwise(got, want)
    for got in run_socket(2, _gather_range, *case):
        _assert_bitwise(got, want)


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


@st.composite
def _scan_cases(draw):
    """An array of 2-3 dimensions, a non-split axis (maybe negative) and an op."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=2, max_size=3)))
    data = _ints(draw, shape, draw(st.sampled_from(["float32", "float64", "int64"])))
    axis = draw(st.integers(0, len(shape) - 2))
    return data, axis - len(shape) if draw(st.booleans()) else axis, draw(st.sampled_from(["sum", "prod"]))


def _scan_along(comm, data, axis, op):
    a = distribute(data if comm.rank == 0 else None, comm)
    out = empty(a.shape, comm, a.dtype)
    scan(out, a, axis=axis, op=op)
    return gather_full(out)


@_examples(60)
@given(_scan_cases())
def test_scan_along_other_axes_equals_numpy(case):
    data, axis, op = case
    want = (np.cumsum if op == "sum" else np.cumprod)(data, axis=axis)
    for ranks in (1, 2, 3, 4):
        for got in run_inproc(ranks, _scan_along, *case):
            _assert_bitwise(got, want)


@st.composite
def _broadcast_cases(draw):
    """A distributed operand, a replicated one of extent 1 on the split axis,
    a full-extent replicated one and a scalar.  The replicated ones may have
    fewer dimensions and extents of 1 in place of the destination's."""
    dtype = draw(st.sampled_from(["float32", "float64", "int64"]))
    shape = draw(_SHAPES)

    def replicated(last):
        lead = tuple(1 if draw(st.booleans()) else s for s in shape[:-1])
        return _ints(draw, lead[draw(st.integers(0, len(lead))):] + (last,), dtype)

    return (_ints(draw, shape, dtype), replicated(1), replicated(shape[-1]),
            draw(st.integers(-4, 4)))


def _mixed_broadcast(comm, dist, one, full, scalar):
    a = distribute(dist if comm.rank == 0 else None, comm)
    dest = empty(a.shape, comm, a.dtype)
    map_broadcast(dest, lambda d, o, f, s: (d - o) * f + s, a, one, full, scalar,
                  allow_full_replicated=True)
    return gather_full(dest)


@_examples(60)
@given(_broadcast_cases())
def test_map_broadcast_mixes_distributed_replicated_and_scalar_operands(case):
    dist, one, full, scalar = case
    want = ((dist - one) * full + scalar).astype(dist.dtype)
    for ranks in (1, 2, 3, 4):
        for got in run_inproc(ranks, _mixed_broadcast, *case):
            _assert_bitwise(got, want)


@st.composite
def _matrices(draw):
    """Integer-valued f32/f64/i64 matrices with extents 0..5."""
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    return _ints(draw, shape, draw(st.sampled_from(["float32", "float64", "int64"])))


def _reduce_dims(comm, data, axis):
    out = reduce_dims(distribute(data if comm.rank == 0 else None, comm), axis)
    return gather_full(out) if isinstance(out, DistArray) else out


@_examples(80)
@given(_matrices())
def test_reduce_dims_equals_numpy(data):
    wants = {0: data.sum(axis=0, keepdims=True), 1: data.sum(axis=1, keepdims=True),
             (0, 1): data.sum(keepdims=True)}
    for axis, want in wants.items():
        for ranks in (1, 2, 3, 4):
            for got in run_inproc(ranks, _reduce_dims, data, axis):
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
def _collective_cases(draw):
    """1-4 ranks, a dtype, a reduction, an allreduce length, allgatherv and
    scatterv counts that are often zero (more ranks than values), whether the
    allgatherv is in place, and a seed for every rank's values."""
    size = draw(st.integers(1, 4))
    return (size, draw(st.sampled_from(["float32", "float64", "int64"])),
            draw(st.sampled_from(list(ReduceOp))), draw(st.integers(0, 3)),
            tuple(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))),
            draw(st.booleans()), draw(st.integers(0, 2 ** 32)))


def _rank_values(seed, rank, tag, n, dtype):
    gen = np.random.Generator(np.random.Philox([seed, rank, tag]))
    if dtype == "int64":
        return gen.integers(-9, 10, n)
    return gen.standard_normal(n).astype(dtype)


def _every_collective(comm, case):
    """A broadcast and a scatterv from every root, an allreduce, an allgatherv
    and a barrier; returns this rank's result of each."""
    size, dtype, op, n, counts, in_place, seed = case
    rank, offs, out = comm.rank, np.cumsum((0,) + counts), {}
    for root in range(size):
        buf = _rank_values(seed, rank, root, n, dtype)
        comm.broadcast(buf, root)
        recv = np.full(counts[rank], -1, dtype)
        send = _rank_values(seed, rank, size + root, sum(counts), dtype) if rank == root else None
        comm.scatterv(send, recv, counts, root)
        out[f"broadcast{root}"], out[f"scatterv{root}"] = buf, recv
    out["allreduce"] = _rank_values(seed, rank, 2 * size, n, dtype)
    comm.allreduce(out["allreduce"], op)
    out["allgatherv"] = np.full(offs[-1], -1, dtype)
    send = _rank_values(seed, rank, 2 * size + 1, counts[rank], dtype)
    if in_place:
        out["allgatherv"][offs[rank]:offs[rank + 1]] = send
        send = out["allgatherv"][offs[rank]:offs[rank + 1]]
    comm.allgatherv(send, out["allgatherv"], counts)
    comm.barrier()
    return out


_UFUNC = {ReduceOp.SUM: np.add, ReduceOp.PROD: np.multiply,
          ReduceOp.MAX: np.maximum, ReduceOp.MIN: np.minimum}


@_examples(50)
@given(_collective_cases())
def test_collectives_bitwise_equal_to_an_ascending_rank_reference(case):
    size, dtype, op, n, counts, _, seed = case
    total = _rank_values(seed, 0, 2 * size, n, dtype)
    for r in range(1, size):
        _UFUNC[op](total, _rank_values(seed, r, 2 * size, n, dtype), out=total)
    want = {"allreduce": total, "allgatherv": np.concatenate(
        [_rank_values(seed, r, 2 * size + 1, c, dtype) for r, c in enumerate(counts)])}
    for root in range(size):
        want[f"broadcast{root}"] = _rank_values(seed, root, root, n, dtype)
        want[f"scatterv{root}"] = np.split(_rank_values(seed, root, size + root, sum(counts), dtype),
                                           np.cumsum(counts)[:-1])
    for results in (run_inproc(size, _every_collective, case),
                    run_socket(size, _every_collective, case)):
        for rank, got in enumerate(results):
            assert got.keys() == want.keys()
            for key, value in got.items():
                expected = want[key][rank] if key.startswith("scatterv") else want[key]
                _assert_bitwise(value, expected)


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


@st.composite
def _mds_cases(draw):
    """Distances between n in 2..9 Gaussian points, an embedding dimension
    q in 1..3, and a start with two coincident points."""
    n, q = draw(st.integers(2, 9)), draw(st.integers(1, 3))
    gen = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32))))
    x = gen.standard_normal((3, n))
    y = np.sqrt(((x[:, :, None] - x[:, None, :]) ** 2).sum(axis=0))
    start = gen.uniform(-1.0, 1.0, (q, n))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    start[:, j] = start[:, i]
    return y, q, draw(st.integers(0, 2 ** 31)), start


def _mds_run(comm, y, q, seed, iters):
    state = mds_init(distribute(y if comm.rank == 0 else None, comm), q, seed=seed)
    mds_fit(state, iters)
    return np.asarray(state.trace), gather_full(state.theta)


def _mds_coincident(comm, y, q, start):
    state = mds_init(distribute(y if comm.rank == 0 else None, comm), q, seed=0)
    state.theta.local[...] = distribute(start if comm.rank == 0 else None, comm).local
    block = state.theta.local.copy()
    try:
        mds_fit(state, 1)
    except DegenerateConfigError:
        return np.array_equal(state.theta.local, block)
    return None


@_examples(25)
@given(_mds_cases())
def test_mds_traces_independent_of_rank_count_and_backend(case):
    y, q, seed, start = case
    trace, theta = run_inproc(1, _mds_run, y, q, seed, 5)[0]
    assert np.all(np.diff(trace) <= 1e-10)
    for ranks in (2, 3, 4):
        for got, _ in run_inproc(ranks, _mds_run, y, q, seed, 5):
            np.testing.assert_allclose(got, trace, rtol=1e-10)
    for (ti, thi), (ts, ths) in zip(run_inproc(2, _mds_run, y, q, seed, 5),
                                    run_socket(2, _mds_run, y, q, seed, 5)):
        _assert_bitwise(ts, ti)
        _assert_bitwise(ths, thi)
    for ranks in (1, 2, 3, 4):
        assert run_inproc(ranks, _mds_coincident, y, q, start) == [True] * ranks


def _cox_tie_indices(comm, times):
    m = len(times)
    state = cox_init(distribute(np.zeros((m, 1)) if comm.rank == 0 else None, comm),
                     times, np.ones(m), lam=0.1, sigma=1.0, ties="breslow")
    return state.cuts, state.starts


@_examples(100)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=60))
def test_cox_tie_indices_match_searchsorted(values):
    times = np.sort(np.array(values, dtype=np.float64))[::-1]
    cuts = np.searchsorted(-times, -times, side="right").astype(np.int64) - 1
    starts = np.searchsorted(cuts, np.arange(len(times)), side="left").astype(np.int64)
    (got_cuts, got_starts), = run_inproc(1, _cox_tie_indices, times)
    _assert_bitwise(got_cuts, cuts)
    _assert_bitwise(got_starts, starts)


@st.composite
def _solver_cases(draw):
    """A nonnegative m x n matrix (m, n in 1..6, so often fewer columns than
    ranks) with a seed and a factorization rank, and Cox data: descending
    times, tied for Breslow, events and a penalty."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gen = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32))))
    x = gen.random((m, n))
    ties = draw(st.sampled_from(["none", "breslow"]))
    times = gen.integers(0, 3, m) if ties == "breslow" else gen.permutation(m)
    cox = (np.sort(times.astype(np.float64))[::-1].copy(),
           (gen.random(m) > 0.3).astype(np.float64), ties,
           draw(st.sampled_from([0.0, 1e-3, 0.1])))
    return x, draw(st.integers(0, 2 ** 31)), draw(st.integers(1, 3)), cox


def _solver_traces(comm, x, seed, rank, cox):
    a = distribute(x if comm.rank == 0 else None, comm)
    out = []
    for algorithm in (nmf_multiplicative, nmf_apg):
        state = algorithm(nmf_init(a, rank, seed=seed), 5)
        out += [np.asarray(state.trace), gather_full(state.Vt), gather_full(state.W)]
    times, delta, ties, lam = cox
    state = cox_fit(cox_init(a, times, delta, lam=lam, ties=ties), 5)
    return out + [np.asarray(state.trace), gather_full(state.beta)]


@_examples(15)
@given(_solver_cases())
def test_nmf_and_cox_traces_independent_of_rank_count_and_backend(case):
    want = run_inproc(1, _solver_traces, *case)[0]
    # The NMF trace comes from the Gram identity, accurate to about eps ||X||^2
    # (an exact fit reads 1e-17 on one rank count and 0 on another).
    scales = [np.abs(w).max(initial=0.0) for w in want]
    scales[0] = scales[3] = float((case[0] ** 2).sum())
    for ranks in (2, 3, 4):
        for got in run_inproc(ranks, _solver_traces, *case):
            for g, w, scale in zip(got, want, scales):
                np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-10 * scale)
    for inproc, socket in zip(run_inproc(2, _solver_traces, *case),
                              run_socket(2, _solver_traces, *case)):
        for i, t in zip(inproc, socket):
            _assert_bitwise(t, i)


@st.composite
def _update_cases(draw):
    """An r x k factor, data and model (k >= 0) and an r x r Gram matrix, f32 or
    f64, with zeros, subnormal, tiny and huge positive entries; the factor and
    data F-order and the model C-order, as ``_nmf_run`` passes them."""
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64"])))
    info = np.finfo(dtype)
    values = st.one_of(
        st.sampled_from([0.0, float(info.smallest_subnormal), float(info.tiny), 1e-10,
                         1.0, float(info.max) / 4, float(info.max)]),
        st.floats(0.0, float(info.max), width=info.bits))
    r, k = draw(st.integers(1, 4)), draw(st.integers(0, 5))

    def block(cols, order):
        n = r * cols
        return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=dtype).reshape((r, cols), order=order)

    return block(k, "F"), block(k, "F"), block(k, "C"), block(r, "F")


@_examples(200)
@given(_update_cases())
def test_nmf_update_rules_in_place_match_their_expressions_bitwise(case):
    f, data, model, gram = case
    with np.errstate(all="ignore"):  # huge entries overflow alike on both sides
        step = 1.0 / (2.0 * float(np.sqrt(np.sum(gram ** 2))) + _NMF_EPS)
        for update, want in (
                (_multiplicative_step, f * data / (model + _NMF_EPS)),
                (_apg_step, np.maximum(0.0, f - step * (model - data)))):
            got, scratch, kept = f.copy(order="F"), model.copy(), data.copy(order="F")
            update(got, kept, scratch, gram)
            _assert_bitwise(got, want)
            _assert_bitwise(kept, data)  # the data is read, only the model is scratch


@pytest.mark.parametrize("ranks", [1, 2, 3])
def test_nmf_vt_block_is_a_view_of_stage(ranks):
    x = np.random.Generator(np.random.Philox(6)).random((5, 4))

    def views(comm):
        state = nmf_init(distribute(x if comm.rank == 0 else None, comm), 2, seed=1)
        m, lo, hi = state.Vt.shape[1], state.Vt.lo, state.Vt.hi
        nmf_multiplicative(state, 2)
        return (np.shares_memory(state.Vt.local, state.stage)
                and np.array_equal(state.Vt.local, state.stage[:, m + lo:m + hi]))

    assert run_inproc(ranks, views) == [True] * ranks


# -- a rank that fails at any collective ------------------------------------------

_FAIL_X = np.random.Generator(np.random.Philox(5)).random((4, 5)) + 0.1


class _Injected(RuntimeError):
    """The failure one rank raises in place of a collective."""


def _dist_x(comm, data=_FAIL_X):
    return distribute(data if comm.rank == 0 else None, comm)


def _solver_entry(init, fit, data=_FAIL_X):
    def entry(comm, path):
        x = _dist_x(comm, data)
        return lambda: fit(init(x), 3)
    return entry


def _matmul_entry(row):
    def entry(comm, path):
        b = _FAIL_X[0] if "vec" in SCENARIOS[row][1] else _FAIL_X.T
        return partial(matmul, *scenario_operands(row, _FAIL_X, b, comm))
    return entry


# Each entry distributes its inputs, then returns the call whose collectives are
# counted and failed: a solver's init and 3 iterations, and one matmul row for
# each way of forming C that communicates (a "local" row makes no collective).
_FAILING_ENTRIES = {
    "read_matrix": lambda comm, path: partial(read_matrix, path, comm),
    "write_matrix": lambda comm, path: partial(write_matrix, f"{path}.copy", _dist_x(comm)),
    "distribute": lambda comm, path: partial(_dist_x, comm),
    "rand_fill": lambda comm, path: partial(rand_fill, empty((3, 4), comm), seed=1,
                                            common_init=True),
    "opnorm": lambda comm, path: partial(opnorm, _dist_x(comm)),
    **{f"matmul-{row}": _matmul_entry(row) for row in "abgq"},
    "nmf": _solver_entry(lambda x: nmf_init(x, 2, seed=1), nmf_multiplicative),
    "nmf-apg": _solver_entry(lambda x: nmf_init(x, 2, seed=1), nmf_apg),
    "mds": _solver_entry(lambda y: mds_init(y, 2, seed=1), mds_fit,
                         np.sqrt(((_FAIL_X[:, :, None] - _FAIL_X[:, None, :]) ** 2).sum(axis=0))),
    "cox": _solver_entry(lambda x: cox_init(x, np.arange(4.0, 0.0, -1.0),
                                            np.array([1.0, 0.0, 1.0, 1.0]), lam=0.1), cox_fit),
}


def _calls(comm):
    return sum(op["calls"] for op in comm.stats().values())


def _entry_collectives(comm, name, path):
    call = _FAILING_ENTRIES[name](comm, path)
    before = _calls(comm)
    call()
    return _calls(comm) - before


def _fail_at(comm, name, path, culprit, k, outcomes):
    """Run entry ``name`` with ``culprit``'s k-th collective after the set-up
    raising ``_Injected``; record what this rank raised (or returned) and when.
    A rank still waking from the set-up's last collective may raise there."""
    t0 = time.monotonic()
    try:
        call = _FAILING_ENTRIES[name](comm, path)
        if comm.rank == culprit:
            run, seen = comm._run, [0]

            def failing_run(*args, **kwargs):
                seen[0] += 1
                if seen[0] == k:
                    raise _Injected(f"collective {k} of {name}")
                return run(*args, **kwargs)

            comm._run = failing_run
        call()
    except BaseException as exc:
        outcomes[comm.rank] = (exc, time.monotonic() - t0)
        raise
    outcomes[comm.rank] = ("returned", time.monotonic() - t0)


def test_a_rank_failing_at_any_collective_fails_every_rank_in_time(tmp_path):
    path = str(tmp_path / "x.dsta")
    write_matrix(path, _FAIL_X)
    counts = {(name, p): launch(f"inproc:{p}", _entry_collectives, name, path)[0]
              for name in _FAILING_ENTRIES for p in (2, 3)}

    @_examples(300)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(_FAILING_ENTRIES)))
        p = data.draw(st.sampled_from([2, 3]))
        culprit = data.draw(st.integers(0, p - 1))
        k = data.draw(st.integers(1, counts[name, p]))
        outcomes = [None] * p
        with pytest.raises((_Injected, CommError)):
            launch(f"inproc:{p}", _fail_at, name, path, culprit, k, outcomes, timeout=1.0)
        for rank, (outcome, waited) in enumerate(outcomes):
            assert waited < 1.0 + 0.5, (rank, outcome)
            assert not isinstance(outcome, KeyError), (rank, outcome)
            want = _Injected if rank == culprit else CommError
            assert isinstance(outcome, want), (rank, outcome)

    check()


def _tcp_ranks(p, fn, *args):
    """Run ``fn(comm, *args)`` on p rank threads joined over loopback with a 1 s
    timeout.  A rank that ends closes only its own communicator, as its process
    exiting would, so no rank learns of a failure except through its sockets."""
    hosts = ",".join([f"127.0.0.1:{free_port()}"] * p)

    def rank(r):
        comm = init(f"tcp:{hosts},rank={r}", timeout=1.0)
        try:
            fn(comm, *args)
        except Exception:  # noqa: BLE001 - fn records what each rank raised
            pass
        finally:
            comm.close()

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
    assert not any(t.is_alive() for t in threads)


def test_a_rank_failing_at_any_collective_fails_every_tcp_rank_in_time(tmp_path):
    path = str(tmp_path / "x.dsta")
    write_matrix(path, _FAIL_X)
    counts = {(name, p): launch(f"inproc:{p}", _entry_collectives, name, path)[0]
              for name in _FAILING_ENTRIES for p in (2, 3)}

    @_examples(60)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(_FAILING_ENTRIES)))
        p = data.draw(st.sampled_from([2, 3]))
        culprit = data.draw(st.integers(0, p - 1))
        k = data.draw(st.integers(1, counts[name, p]))
        outcomes = [None] * p
        _tcp_ranks(p, _fail_at, name, path, culprit, k, outcomes)
        for rank, (outcome, waited) in enumerate(outcomes):
            assert waited < 1.0 + 0.5, (rank, outcome)
            assert not isinstance(outcome, KeyError), (rank, outcome)
            want = _Injected if rank == culprit else CommError
            assert isinstance(outcome, want), (rank, outcome)

    check()

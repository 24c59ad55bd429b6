"""Distributed array semantics against dense numpy oracles."""

import time

import numpy as np
import pytest

from blockstat.comm import ReduceOp, launch, run_inproc
from blockstat.distarray import (
    BroadcastError,
    DistArray,
    DistributionError,
    TransposedView,
    distribute,
    empty,
    fill,
    gather_full,
    map_broadcast,
    partition_of,
    rand_fill,
    reduce_all,
    reduce_dims,
    reduce_into,
    scan,
    transpose,
    zeros,
)
from blockstat.solvers import soft_threshold
from conftest import raises_on_every_rank, rng, run_socket, three_way_zeros


@pytest.mark.parametrize("n,p,sizes", [
    (7, 4, [2, 2, 2, 1]),
    (4, 4, [1, 1, 1, 1]),
    (2, 4, [1, 1, 0, 0]),
    (0, 3, [0, 0, 0]),
    (10, 1, [10]),
])
def test_partition_sizes(n, p, sizes):
    part = partition_of(n, p)
    assert list(part.counts()) == sizes
    assert part.boundaries[0] == 0 and part.boundaries[-1] == n


def test_partition_rejects_bad_args():
    with pytest.raises(ValueError):
        partition_of(-1, 2)
    with pytest.raises(ValueError):
        partition_of(3, 0)


def test_transpose_round_trips_and_rejects_other_operands():
    def fn(comm):
        a = zeros((3, 4), comm)
        assert transpose(transpose(a)) is a
        for bad in (zeros((4,), comm), np.zeros((3, 4))):
            with pytest.raises(TypeError, match="transpose expects"):
                transpose(bad)
            with pytest.raises(TypeError, match="TransposedView wraps"):
                TransposedView(bad)
        return True

    assert run_inproc(2, fn) == [True, True]


def test_create_local_blocks():
    def widths(comm, shape):
        return empty(shape, comm).local.shape

    assert run_inproc(2, widths, (3, 4)) == [(3, 2), (3, 2)]
    assert run_inproc(4, widths, (3, 7)) == [(3, 2), (3, 2), (3, 2), (3, 1)]
    assert run_inproc(2, widths, (5,)) == [(3,), (2,)]


def _distribute_blocks(comm, data):
    d = distribute(data if comm.rank == 0 else None, comm)
    return d.local.copy()


def test_distribute_unit_blocks():
    out = run_inproc(4, _distribute_blocks, np.array([1, 2, 3, 4]))
    assert [list(b) for b in out] == [[1], [2], [3], [4]]


def test_distribute_identity_single_rank():
    data = np.arange(6.0).reshape(2, 3)
    out = run_inproc(1, _distribute_blocks, data)
    np.testing.assert_array_equal(out[0], data)


def test_distribute_column_blocks():
    data = np.arange(6.0).reshape(2, 3)
    out = run_inproc(2, _distribute_blocks, data)
    np.testing.assert_array_equal(out[0], data[:, :2])
    np.testing.assert_array_equal(out[1], data[:, 2:])


@pytest.mark.parametrize("data", [np.arange(24.0).reshape(2, 3, 4), np.arange(5, dtype=np.int64)],
                         ids=["3d-f64", "1d-i64"])
def test_distribute_makes_one_broadcast_and_one_scatterv(world_runner, data):
    def fn(comm):
        before = comm.stats()
        d = distribute(data if comm.rank == 0 else None, comm)
        after = comm.stats()
        return {op: after[op]["calls"] - before[op]["calls"] for op in after}, gather_full(d)

    for calls, full in world_runner(3, fn):
        assert calls == {"broadcast": 1, "scatterv": 1, "allreduce": 0, "allgatherv": 0,
                         "barrier": 0}
        assert full.dtype == data.dtype
        np.testing.assert_array_equal(full, data)


def test_distribute_placeholder_mismatch():
    def fn(comm):
        if comm.rank == 0:
            distribute(np.zeros((2, 3)), comm)
        else:
            distribute(np.zeros((9, 9)), comm)

    with pytest.raises(DistributionError):
        run_inproc(2, fn)


def test_a_mismatched_placeholder_raises_on_its_rank_only_after_the_scatter(world_runner):
    # rank 1 catches its own error; had it raised before the scatter, the
    # others would still be in it when rank 1 reached the barrier
    data = np.arange(6.0).reshape(2, 3)

    def fn(comm):
        t0 = time.monotonic()
        mine, block = {0: data, 1: np.zeros((9, 9))}.get(comm.rank), None
        try:
            block = distribute(mine, comm).local
        except DistributionError:
            assert comm.rank == 1
        comm.barrier()
        return block, time.monotonic() - t0

    results = world_runner(3, fn)
    assert max(waited for _, waited in results) < 0.5
    assert results[1][0] is None
    np.testing.assert_array_equal(results[0][0], data[:, :1])
    np.testing.assert_array_equal(results[2][0], data[:, 2:])


def test_data_numpy_cannot_convert_raises_on_every_rank(world_runner):
    # each rank catches only DistributionError: an error raised on rank 0
    # alone would abort the run with it
    def fn(comm):
        try:
            distribute([[1.0, 2.0], [3.0]] if comm.rank == 0 else None, comm)
        except DistributionError as exc:
            return str(exc)

    assert all(world_runner(3, fn))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_roundtrip_random_shapes(p):
    gen = rng(90 + p)

    def fn(comm, data):
        d = distribute(data if comm.rank == 0 else None, comm)
        return gather_full(d)

    for _ in range(8):
        ndim = int(gen.integers(1, 4))
        shape = tuple(int(gen.integers(1, 7)) for _ in range(ndim))
        data = gen.random(shape)
        for back in run_inproc(p, fn, data):
            np.testing.assert_array_equal(back, data)


def test_fill_and_sum():
    def fn(comm):
        a = empty((2, 3), comm)
        fill(a, 2.5)
        return reduce_all(a), gather_full(a)

    for total, full in run_inproc(3, fn):
        assert total == 15.0
        np.testing.assert_array_equal(full, np.full((2, 3), 2.5))


def test_rand_fill_common_init_rank_count_independent():
    def fn(comm):
        a = empty((3, 5), comm)
        rand_fill(a, seed=42, common_init=True)
        return gather_full(a)

    ref = run_inproc(1, fn)[0]
    for p in (2, 4):
        for full in run_inproc(p, fn):
            np.testing.assert_array_equal(full, ref)


def test_rand_fill_per_rank_streams():
    def fn(comm):
        a = empty((4,), comm)
        rand_fill(a, seed=7, common_init=False)
        return a.local.copy()

    blocks = run_inproc(2, fn)
    for rank, block in enumerate(blocks):
        expect = rng(7 + rank).random(2)
        np.testing.assert_array_equal(block, expect)


def test_rand_fill_uniform_range_and_normal():
    def fn(comm):
        a = empty((6, 9), comm)
        rand_fill(a, seed=1, common_init=True)
        u = gather_full(a)
        rand_fill(a, seed=1, common_init=True, dist="standard_normal")
        return u, gather_full(a)

    u, g = run_inproc(3, fn)[0]
    assert np.all((u >= 0) & (u < 1))
    assert np.any(g < 0)  # normal draws include negatives


@pytest.mark.parametrize("setup,error", [
    (lambda comm: distribute(np.zeros(4, np.int32) if comm.rank == 0 else None, comm),
     DistributionError),
    (lambda comm: rand_fill(zeros((2, 5), comm, np.int64), seed=1, common_init=True),
     ValueError),
    (lambda comm: rand_fill(zeros((2, 5), comm), seed=1, common_init=True, dist="bogus"),
     ValueError),
    (lambda comm: rand_fill(zeros((2, 5), comm), seed=-1, common_init=True), ValueError),
], ids=["distribute-int32", "rand-fill-int64", "rand-fill-unknown-dist",
        "rand-fill-negative-seed"])
def test_a_set_up_error_raises_the_same_type_on_every_rank_at_once(setup, error):
    # each rank catches its own error, so a rank that raised alone would leave
    # the others waiting out the 1 s timeout
    def fn(comm):
        t0 = time.monotonic()
        try:
            setup(comm)
        except Exception as exc:  # noqa: BLE001 - the type is what is checked
            return type(exc), time.monotonic() - t0
        return None, time.monotonic() - t0

    results = launch("inproc:3", fn, timeout=1.0)
    assert [kind for kind, _ in results] == [error] * 3
    assert max(waited for _, waited in results) < 0.5


def test_map_broadcast_replicated_column():
    def fn(comm):
        b = distribute(np.array([[3, 4], [5, 6]]) if comm.rank == 0 else None, comm)
        out = empty((2, 2), comm, dtype=np.int64)
        map_broadcast(out, lambda col, x: col + x, np.array([[1], [2]]), b)
        return gather_full(out)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, [[4, 5], [7, 8]])


def test_map_broadcast_singleton_row():
    def fn(comm):
        a = empty((2, 4), comm)
        rand_fill(a, seed=3, common_init=True)
        row = empty((1, 4), comm)
        rand_fill(row, seed=4, common_init=True)
        dense_a, dense_row = gather_full(a), gather_full(row)
        map_broadcast(a, lambda x, r: x + r, a, row)
        return gather_full(a), dense_a + np.repeat(dense_row, 2, axis=0)

    for got, want in run_inproc(3, fn):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_map_broadcast_soft_threshold_oracle(p):
    def fn(comm):
        a = empty((2, 4), comm)
        b = empty((2, 4), comm)
        rand_fill(a, seed=11, common_init=True, dist="standard_normal")
        rand_fill(b, seed=12, common_init=True, dist="standard_normal")
        da, db = gather_full(a), gather_full(b)
        map_broadcast(a, lambda x, y: soft_threshold(x + 2 * y, 0.5), a, b)
        return gather_full(a), soft_threshold(da + 2 * db, 0.5)

    for got, want in run_inproc(p, fn):
        np.testing.assert_array_equal(got, want)


def test_map_broadcast_scalar_and_shape_errors():
    def fn(comm):
        a = zeros((2, 4), comm)
        map_broadcast(a, lambda x: x + 1.5, a)
        with pytest.raises(BroadcastError):
            map_broadcast(a, lambda x, y: x + y, a, np.zeros((3, 4, 5)))
        with pytest.raises(DistributionError):
            other = zeros((2, 1), comm)
            map_broadcast(a, lambda x, y: x + y, a, other)
        return gather_full(a)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, np.full((2, 4), 1.5))


def test_map_broadcast_full_replicated_gate():
    def fn(comm):
        a = zeros((2, 4), comm)
        row = np.arange(4.0).reshape(1, 4)
        with pytest.raises(DistributionError):
            map_broadcast(a, lambda x, r: x + r, a, row)
        map_broadcast(a, lambda x, r: x + r, a, row, allow_full_replicated=True)
        return gather_full(a)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, np.tile(np.arange(4.0), (2, 1)))


def test_reduce_all_examples():
    def fn(comm):
        d = distribute(np.array([1.0, 2.0, 3.0, 4.0]) if comm.rank == 0 else None, comm)
        s = reduce_all(d)
        two = distribute(np.array([1.0, -2.0]) if comm.rank == 0 else None, comm)
        sq = reduce_all(two, transform=np.square)
        mx = reduce_all(d, ReduceOp.MAX)
        return s, sq, mx

    for s, sq, mx in run_inproc(3, fn):
        assert (s, sq, mx) == (10.0, 5.0, 4.0)


def test_reduce_all_empty_max_raises():
    def fn(comm):
        a = empty((3, 0), comm)
        reduce_all(a, ReduceOp.MAX)

    with pytest.raises(ValueError):
        run_inproc(2, fn)


def test_reduce_dims():
    data = np.array([[1.0, 2.0], [3.0, 4.0]])

    def fn(comm):
        a = distribute(data if comm.rank == 0 else None, comm)
        cols = gather_full(reduce_dims(a, 0))
        rows = reduce_dims(a, 1)
        both = gather_full(reduce_dims(a, (0, 1)))
        return cols, rows, both

    for cols, rows, both in run_inproc(2, fn):
        np.testing.assert_array_equal(cols, [[4.0, 6.0]])
        np.testing.assert_array_equal(rows, [[3.0], [7.0]])
        np.testing.assert_array_equal(both, [[10.0]])


def test_reduce_into_dispatch():
    data = np.arange(8.0).reshape(2, 4)

    def fn(comm):
        a = distribute(data if comm.rank == 0 else None, comm)
        cols = empty((1, 4), comm)
        reduce_into(cols, a)
        rows = np.zeros((2, 1))
        reduce_into(rows, a)
        z = zeros((2, 4), comm)
        zrows = np.ones((2, 1))
        reduce_into(zrows, z)
        with pytest.raises(DistributionError):
            reduce_into(np.zeros((3, 1)), a)
        return gather_full(cols), rows, zrows

    for cols, rows, zrows in run_inproc(2, fn):
        np.testing.assert_array_equal(cols, data.sum(axis=0, keepdims=True))
        np.testing.assert_array_equal(rows, data.sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(zrows, np.zeros((2, 1)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_scan_1d(p):
    def fn(comm):
        d = distribute(np.array([1.0, 2.0, 3.0]) if comm.rank == 0 else None, comm)
        out = empty((3,), comm)
        scan(out, d, axis=0)
        return gather_full(out)

    for full in run_inproc(p, fn):
        np.testing.assert_array_equal(full, [1.0, 3.0, 6.0])


def test_scan_2d_local_axis():
    def fn(comm):
        d = distribute(np.array([[1.0, 2.0], [3.0, 4.0]]) if comm.rank == 0 else None, comm)
        out = empty((2, 2), comm)
        scan(out, d, axis=0)
        return gather_full(out)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, [[1.0, 2.0], [4.0, 6.0]])


def test_scan_2d_distributed_axis():
    def fn(comm):
        d = distribute(np.array([[1.0, 2.0], [3.0, 4.0]]) if comm.rank == 0 else None, comm)
        out = empty((2, 2), comm)
        scan(out, d, axis=1)
        return gather_full(out)

    for full in run_inproc(2, fn):
        np.testing.assert_array_equal(full, [[1.0, 3.0], [3.0, 7.0]])


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("op,np_op", [("sum", np.cumsum), ("prod", np.cumprod)])
def test_scan_oracle_random(p, op, np_op):
    gen = rng(400 + p)

    def fn(comm, data, axis):
        d = distribute(data if comm.rank == 0 else None, comm)
        out = empty(data.shape, comm)
        scan(out, d, axis=axis, op=op)
        return gather_full(out)

    for _ in range(5):
        data = gen.random((int(gen.integers(1, 5)), int(gen.integers(1, 7))))
        for axis in (0, 1):
            want = np_op(data, axis=axis)
            for full in run_inproc(p, fn, data, axis):
                np.testing.assert_allclose(full, want, rtol=1e-12)


def test_scan_integer_exact():
    data = np.arange(1, 13, dtype=np.int64).reshape(3, 4)

    def fn(comm):
        d = distribute(data if comm.rank == 0 else None, comm)
        out = empty((3, 4), comm, dtype=np.int64)
        scan(out, d, axis=1, op="prod")
        return gather_full(out)

    for full in run_inproc(3, fn):
        np.testing.assert_array_equal(full, np.cumprod(data, axis=1))


def _split_axis_scan_traffic(comm, data, op):
    d = distribute(data if comm.rank == 0 else None, comm)
    out = empty(data.shape, comm, data.dtype)
    before = comm.stats()
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are NaN, as in the oracle
        scan(out, d, axis=-1, op=op)
    after = comm.stats()
    calls = {k: after[k]["calls"] - before[k]["calls"] for k in after}
    return calls, after["allreduce"]["bytes"] - before["allreduce"]["bytes"], gather_full(out)


@pytest.mark.parametrize("shape", [(4, 5), (3, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("op,np_op", [("sum", np.cumsum), ("prod", np.cumprod)])
def test_a_split_axis_scan_makes_one_allreduce_of_rows_times_p_values(shape, dtype, op, np_op):
    # -0.0, infinities and NaN check that the identity slots change no
    # prefix; a (3, 2) array at p = 3 leaves one rank without columns.
    pool = [-0.0, np.inf, 1.5, np.nan, -2.0, -np.inf, 0.5, -0.0, 3.0]
    if dtype == np.int64:
        pool = [2**62, -3, 5, 0, 7, -1, 2]
    data = np.resize(np.array(pool, dtype=dtype), shape[::-1]).T.copy()
    with np.errstate(all="ignore"):
        want = np_op(data, axis=-1)
    for p in (2, 3):
        runs = (run_inproc(p, _split_axis_scan_traffic, data, op)
                + run_socket(p, _split_axis_scan_traffic, data, op))
        first = runs[0][2]
        for calls, nbytes, full in runs:
            assert calls == {k: int(k == "allreduce") for k in calls}
            assert nbytes == shape[0] * p * data.itemsize
            assert full.tobytes() == first.tobytes()
        np.testing.assert_array_equal(first, want)
        assert (np.signbit(first) == np.signbit(want))[~np.isnan(want)].all()


def test_scan_shape_mismatch():
    def fn(comm):
        a = zeros((2, 4), comm)
        out = zeros((2, 3), comm)
        scan(out, a, axis=1)

    with pytest.raises(DistributionError):
        run_inproc(2, fn)


def test_reduce_all_min_and_3d():
    gen = rng(450)
    cube = gen.random((2, 3, 5))

    def fn(comm):
        d = distribute(cube if comm.rank == 0 else None, comm)
        lo = reduce_all(d, ReduceOp.MIN)
        out = empty(cube.shape, comm)
        scan(out, d, axis=2)
        return lo, gather_full(out)

    for lo, scanned in run_inproc(4, fn):
        assert lo == cube.min()
        np.testing.assert_allclose(scanned, np.cumsum(cube, axis=2), rtol=1e-12)


@pytest.mark.parametrize("op,value", [(ReduceOp.MIN, np.inf), (ReduceOp.MAX, -np.inf)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_reduce_all_empty_block_is_neutral_for_infinities(op, value, p):
    # one column: every rank past the first owns an empty block
    def fn(comm):
        a = distribute(np.full((2, 1), value) if comm.rank == 0 else None, comm)
        return reduce_all(a, op)

    assert run_inproc(p, fn) == [value] * p


@pytest.mark.parametrize("op,want", [(ReduceOp.SUM, 2), (ReduceOp.PROD, 0)])
def test_reduce_all_of_a_mask_with_an_empty_block(op, want):
    # a bool transform folds to int64 on every rank, the one with no columns too
    def fn(comm):
        a = distribute(np.array([1.0, -2.0, 3.0]) if comm.rank == 0 else None, comm)
        return reduce_all(a, op, transform=lambda x: x > 0)

    assert run_inproc(4, fn) == [want] * 4


def test_gather_widths_reconcatenate():
    def fn(comm):
        a = empty((3, 7), comm)
        fill(a, float(comm.rank))
        full = gather_full(a)
        return full.shape, full[0]

    shapes = run_inproc(4, fn)
    assert all(s == (3, 7) for s, _ in shapes)
    np.testing.assert_array_equal(shapes[0][1], [0, 0, 1, 1, 2, 2, 3])


@pytest.mark.parametrize("build,exc,match", [
    (lambda c: DistArray(c, (), np.float64), ValueError, "scalars"),
    (lambda c: DistArray(c, (3, 4), np.float64, local=np.empty((3, 3))),
     DistributionError, "local block"),
    (lambda c: DistArray(c, (3, 4), np.float64, local=np.empty((3, 2), np.float32)),
     DistributionError, "local block"),
    (lambda c: reduce_dims(zeros((4,), c), 0), ValueError, "2-D"),
    (lambda c: reduce_dims(zeros((3, 4), c), 2), ValueError, "invalid axis"),
    (lambda c: reduce_into(np.empty((1, 1)), zeros((4,), c)), ValueError, "2-D"),
    (lambda c: reduce_into(np.empty((2, 1)), zeros((3, 4), c)), DistributionError,
     "not a collapse"),
    (lambda c: scan(np.zeros((3, 4)), zeros((3, 4), c)), DistributionError, "identical"),
    (lambda c: scan(zeros((3, 5), c), zeros((3, 4), c)), DistributionError, "identical"),
    (lambda c: scan(zeros((3, 4), c, np.float32), zeros((3, 4), c)), DistributionError,
     "identical"),
    (lambda c: scan(three_way_zeros(c, (3, 4)), zeros((3, 4), c)), DistributionError,
     "same partition"),
    (lambda c: scan(zeros((3, 4), c), zeros((3, 4), c), op="max"), ValueError, "scan op"),
    (lambda c: scan(zeros((3, 4), c), zeros((3, 4), c), axis=2), ValueError, "out of range"),
    (lambda c: scan(zeros((3, 4), c), zeros((3, 4), c), axis=-3), ValueError, "out of range"),
    (lambda c: map_broadcast(zeros((3, 4), c), np.negative, three_way_zeros(c, (3, 4))),
     DistributionError, "share the partition"),
    (lambda c: map_broadcast(zeros((3, 4), c), np.negative, TransposedView(zeros((4, 3), c))),
     TypeError, "transposed"),
    (lambda c: map_broadcast(zeros((3, 4), c), np.negative, np.zeros((2, 3, 4))),
     BroadcastError, "exceeds"),
    (lambda c: map_broadcast(zeros((3, 4), c), np.negative, zeros((2, 3, 4), c)),
     BroadcastError, "exceeds"),
], ids=["0-d", "local-shape", "local-dtype", "reduce_dims-1d", "reduce_dims-axis",
        "reduce_into-1d", "reduce_into-dest", "scan-dest-replicated", "scan-dest-shape",
        "scan-dest-dtype", "scan-partition", "scan-op", "scan-axis", "scan-negative-axis",
        "map-partition", "map-transposed", "map-replicated-larger", "map-distributed-larger"])
def test_bad_arguments_raise_on_every_rank(build, exc, match):
    raises_on_every_rank(2, build, exc, match)

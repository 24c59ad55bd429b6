"""Distributed array semantics against dense numpy oracles."""

import numpy as np
import pytest

from blockstat.comm import ReduceOp, run_inproc
from blockstat.distarray import (
    BroadcastError,
    DistributionError,
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
    zeros,
)
from blockstat.solvers import soft_threshold
from conftest import rng


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

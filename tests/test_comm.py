"""Collective communication contract tests, run on both backends."""

import hashlib
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from blockstat.comm import (
    _HEADER_FMT,
    CollectiveContractError,
    CommError,
    CommInitError,
    RankAbortedError,
    ReduceOp,
    _SocketCommunicator,
    _send_frame,
    init,
    launch,
    run_inproc,
)
from conftest import free_port, run_socket


def test_init_singleton_world():
    (comm,) = init("inproc:1")
    assert comm.rank == 0
    assert comm.size == 1


def test_init_four_ranks():
    comms = init("inproc:4")
    assert [c.rank for c in comms] == [0, 1, 2, 3]
    assert all(c.size == 4 for c in comms)


def test_init_rejects_bad_descriptors():
    for desc in ["inproc:0", "mpi:4", "tcp:localhost", "tcp:h:x,rank=0"]:
        with pytest.raises(CommInitError):
            init(desc)


def test_socket_unreachable_hub_fails():
    port = free_port()  # nothing listens here
    with pytest.raises(CommInitError):
        init(f"tcp:127.0.0.1:{port},127.0.0.1:{port},rank=1", timeout=1.0)


def test_socket_size_mismatch_rejected():
    port = free_port()

    def joiner(rank):
        if rank == 0:
            return init(f"tcp:127.0.0.1:{port},127.0.0.1:{port},rank=0", timeout=10.0)
        # claims a different world size than the hub
        return init(f"tcp:127.0.0.1:{port},127.0.0.1:{port},127.0.0.1:{port},rank=1",
                    timeout=10.0)

    import threading

    errors = []

    def run(rank):
        try:
            c = joiner(rank)
            c.close()
        except CommInitError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors  # at least one side saw the mismatch


def _bcast(comm, root, data):
    buf = np.array(data if comm.rank == root else np.zeros_like(data))
    comm.broadcast(buf, root=root)
    return buf


@pytest.mark.parametrize("size,root,data", [
    (3, 0, [1.0, 2.0, 3.0]),
    (1, 0, [7.0]),
    (4, 2, [9.0]),
])
def test_broadcast(world_runner, size, root, data):
    data = np.asarray(data)
    out = world_runner(size, _bcast, root, data)
    for buf in out:
        np.testing.assert_array_equal(buf, data)


def _allreduce(comm, values, op):
    buf = np.array([values[comm.rank]], dtype=np.float64)
    comm.allreduce(buf, op)
    return buf[0]


def test_allreduce_sum(world_runner):
    out = world_runner(4, _allreduce, [1.0, 2.0, 3.0, 4.0], ReduceOp.SUM)
    assert out == [10.0] * 4


def test_allreduce_max(world_runner):
    out = world_runner(3, _allreduce, [3.0, 7.0, 5.0], ReduceOp.MAX)
    assert out == [7.0] * 3


def test_allreduce_singleton_identity(world_runner):
    for op in ReduceOp:
        assert world_runner(1, _allreduce, [5.0], op) == [5.0]


def test_allreduce_int_prod():
    def fn(comm):
        buf = np.array([comm.rank + 2], dtype=np.int64)
        comm.allreduce(buf, ReduceOp.PROD)
        return buf[0]

    assert run_inproc(3, fn) == [24] * 3


def _gather(comm, sends, counts):
    send = np.asarray(sends[comm.rank], dtype=np.float64)
    recv = np.zeros(sum(counts))
    comm.allgatherv(send, recv, counts)
    return recv


@pytest.mark.parametrize("sends,counts", [
    ([[1.0, 2.0], [3.0]], [2, 1]),
    ([[5.0]], [1]),
    ([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [2, 2, 2]),
])
def test_allgatherv(world_runner, sends, counts):
    expect = np.concatenate([np.asarray(s) for s in sends])
    for recv in world_runner(len(counts), _gather, sends, counts):
        np.testing.assert_array_equal(recv, expect)


def _scatter(comm, send, counts, root):
    src = np.asarray(send, dtype=np.float64) if comm.rank == root else None
    recv = np.zeros(counts[comm.rank])
    comm.scatterv(src, recv, counts, root=root)
    return recv


def test_scatterv_unit_chunks(world_runner):
    out = world_runner(4, _scatter, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], 0)
    assert [list(o) for o in out] == [[1.0], [2.0], [3.0], [4.0]]


def test_scatterv_identity(world_runner):
    out = world_runner(1, _scatter, [1.0, 2.0], [2], 0)
    np.testing.assert_array_equal(out[0], [1.0, 2.0])


def test_scatterv_uneven(world_runner):
    out = world_runner(2, _scatter, [7.0, 8.0, 9.0], [2, 1], 0)
    np.testing.assert_array_equal(out[0], [7.0, 8.0])
    np.testing.assert_array_equal(out[1], [9.0])


def test_scatterv_root_out_of_range_is_value_error(world_runner):
    with pytest.raises(ValueError, match="root 5 out of range"):
        world_runner(2, _scatter, [7.0, 8.0, 9.0], [2, 1], 5)


def _late_allreduce(comm):
    """Rank 1 arrives 3 s late; rank 0 reports what it raised and how long it waited."""
    if comm.rank == 1:
        time.sleep(3.0)
    t0 = time.monotonic()
    try:
        comm.allreduce(np.zeros(1), ReduceOp.SUM)
    except CommError as exc:
        return type(exc), time.monotonic() - t0
    return None, time.monotonic() - t0


@pytest.mark.parametrize("backend,error", [("inproc", RankAbortedError), ("socket", CommError)])
def test_timeout_bounds_every_collective_wait(backend, error):
    if backend == "inproc":
        results = launch("inproc:2", _late_allreduce, timeout=0.5)
    else:
        results = run_socket(2, _late_allreduce, timeout=0.5)
    kind, waited = results[0]
    assert kind is not None and issubclass(kind, error)
    assert waited < 2.0


def test_barrier_and_ordering(world_runner):
    def fn(comm):
        comm.barrier()
        buf = np.array([float(comm.rank)])
        comm.allreduce(buf, ReduceOp.SUM)
        comm.barrier()
        return buf[0]

    assert world_runner(4, fn) == [6.0] * 4


def test_length_mismatch_raises(world_runner):
    def fn(comm):
        buf = np.zeros(comm.rank + 1)
        comm.allreduce(buf, ReduceOp.SUM)

    with pytest.raises(CollectiveContractError):
        world_runner(2, fn)


def test_mismatched_collectives_raise():
    def fn(comm):
        buf = np.zeros(1)
        if comm.rank == 0:
            comm.allreduce(buf, ReduceOp.SUM)
        else:
            comm.broadcast(buf, root=0)

    with pytest.raises(CollectiveContractError):
        run_inproc(2, fn)


def test_sequence_mismatch_detected():
    def fn(comm):
        buf = np.zeros(1)
        if comm.rank == 0:
            comm.barrier()  # rank 0 runs one extra collective
        comm.allreduce(buf, ReduceOp.SUM)
        comm.allreduce(buf, ReduceOp.SUM)
        if comm.rank != 0:
            comm.allreduce(buf, ReduceOp.SUM)

    with pytest.raises(CollectiveContractError):
        run_inproc(2, fn)


def test_counts_disagreement_raises(world_runner):
    def fn(comm):
        counts = [2, 1] if comm.rank == 0 else [1, 2]
        send = np.zeros(counts[comm.rank])
        recv = np.zeros(3)
        comm.allgatherv(send, recv, counts)

    with pytest.raises(CollectiveContractError):
        world_runner(2, fn)


_COUNTS = (2, 3)
# Each case calls one collective whose header differs on rank 1 in one field.
_ONE_FIELD_OFF = {
    "op": lambda c, odd: c.broadcast(np.zeros(2)) if odd else c.allreduce(np.zeros(2)),
    "dtype": lambda c, odd: c.allreduce(np.zeros(2, np.float32 if odd else np.float64)),
    "redop": lambda c, odd: c.allreduce(np.zeros(2), ReduceOp.MAX if odd else ReduceOp.SUM),
    "broadcast-root": lambda c, odd: c.broadcast(np.zeros(2), root=int(odd)),
    "broadcast-length": lambda c, odd: c.broadcast(np.zeros(2 + odd)),
    "scatterv-root": lambda c, odd: c.scatterv(
        np.zeros(5), np.zeros(_COUNTS[c.rank]), _COUNTS, root=int(odd)),
    "scatterv-recv-length": lambda c, odd: c.scatterv(
        np.zeros(5), np.zeros(_COUNTS[c.rank] + odd), _COUNTS),
    "scatterv-send-length": lambda c, odd: c.scatterv(
        np.zeros(5 + odd), np.zeros(_COUNTS[c.rank]), _COUNTS, root=1),
    "allgatherv-send-length": lambda c, odd: c.allgatherv(
        np.zeros(_COUNTS[c.rank] + odd), np.zeros(5), _COUNTS),
    "allgatherv-recv-length": lambda c, odd: c.allgatherv(
        np.zeros(_COUNTS[c.rank]), np.zeros(5 + odd), _COUNTS),
    "allgatherv-counts": lambda c, odd: c.allgatherv(
        np.zeros(_COUNTS[c.rank]), np.zeros(5), (1, 4) if odd else _COUNTS),
}


def _one_field_off(comm, case):
    try:  # no abort(): every rank must find the mismatch itself
        _ONE_FIELD_OFF[case](comm, comm.rank == 1)
    except CommError as exc:
        return type(exc)


@pytest.mark.parametrize("case", list(_ONE_FIELD_OFF))
def test_one_mismatched_header_field_raises_on_every_rank(world_runner, case):
    assert world_runner(2, _one_field_off, case) == [CollectiveContractError] * 2


def _random_collectives(comm, seed):
    gen = np.random.Generator(np.random.Philox(seed + comm.rank))
    buf = gen.random(17)
    comm.allreduce(buf, ReduceOp.SUM)
    send = gen.random(comm.rank + 1)
    counts = list(range(1, comm.size + 1))
    recv = np.zeros(sum(counts))
    comm.allgatherv(send, recv, counts)
    ints = np.array([comm.rank + 1, 2 * comm.rank], dtype=np.int64)
    comm.allreduce(ints, ReduceOp.MAX)
    halves = gen.random(9, dtype=np.float32)
    comm.allreduce(halves, ReduceOp.MIN)
    return buf, recv, ints, halves


def test_backends_bitwise_identical():
    a = run_inproc(3, _random_collectives, 123)
    b = run_socket(3, _random_collectives, 123)
    for got, want in zip(a, b):
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)


def _large_collectives(comm):
    """Every collective on payloads of 4 MB or more; digests of each result."""
    gen = np.random.Generator(np.random.Philox(17 + comm.rank))
    rank, size = comm.rank, comm.size
    digests = []

    def keep(arr):
        digests.append(hashlib.sha256(arr.tobytes()).hexdigest())

    for dtype in (np.float32, np.float64, np.int64):
        n = (4 << 20) // np.dtype(dtype).itemsize  # more than loopback socket buffers hold
        counts = [n + 3 * r for r in range(size)]

        def draw(k):
            return (gen.standard_normal(k) * 1e3).astype(dtype)

        buf = draw(n)
        comm.broadcast(buf, root=size - 1)
        keep(buf)
        buf = draw(n)
        comm.allreduce(buf, ReduceOp.SUM)
        keep(buf)
        recv = np.empty(sum(counts), dtype)
        comm.allgatherv(draw(counts[rank]), recv, counts)
        keep(recv)
        recv = np.empty(counts[rank], dtype)
        comm.scatterv(draw(sum(counts)) if rank == 1 else None, recv, counts, root=1)
        keep(recv)
    grid = gen.standard_normal((512, 1024))  # C order, so the flat payload is a copy
    comm.allreduce(grid, ReduceOp.SUM)
    keep(grid)
    return digests


def test_large_payloads_bitwise_identical():
    assert run_socket(3, _large_collectives) == run_inproc(3, _large_collectives)


def test_repeated_runs_deterministic(world_runner):
    one = world_runner(4, _random_collectives, 7)
    two = world_runner(4, _random_collectives, 7)
    for got, want in zip(one, two):
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)


# Buffer layouts a collective must deliver into: each maps a flat vector to a
# buffer whose column-major contents are that vector.
_LAYOUTS = {
    "contiguous": lambda v: v.copy(),
    "fortran-2d": lambda v: np.asfortranarray(v.reshape((2, -1), order="F")),
    "c-order-2d": lambda v: np.ascontiguousarray(v.reshape((2, -1), order="F")),
    "strided": lambda v: np.repeat(v, 2)[::2],  # a view of every other element
}


def _values(rank, n, salt):
    return np.random.Generator(np.random.Philox(1000 * salt + rank)).standard_normal(n)


def _flat_bytes(buf):
    return np.ravel(buf, order="F").tobytes()


def _every_collective(comm, layout):
    """Each collective into a ``layout`` buffer; the flat bytes of every result."""
    place, size, rank = _LAYOUTS[layout], comm.size, comm.rank
    counts = [2 * (r + 1) for r in range(size)]
    offs = np.concatenate([[0], np.cumsum(counts)])
    out = {}
    buf = place(_values(rank, 6, 1))
    comm.broadcast(buf, root=size - 1)
    out["broadcast"] = _flat_bytes(buf)
    buf = place(_values(rank, 6, 2))
    comm.allreduce(buf, ReduceOp.SUM)
    out["allreduce"] = _flat_bytes(buf)
    recv = place(np.zeros(offs[-1]))
    comm.allgatherv(_values(rank, counts[rank], 3), recv, counts)
    out["allgatherv"] = _flat_bytes(recv)
    recv = place(np.zeros(counts[rank]))
    comm.scatterv(_values(0, offs[-1], 4) if rank == 0 else None, recv, counts)
    out["scatterv"] = _flat_bytes(recv)
    if recv.ndim == 1:  # in place: send is this rank's own part of recv
        recv = place(np.zeros(offs[-1]))
        send = recv[offs[rank]:offs[rank + 1]]
        send[...] = _values(rank, counts[rank], 3)
        comm.allgatherv(send, recv, counts)
        out["allgatherv-in-place"] = _flat_bytes(recv)
    return out


def _every_collective_reference(size):
    counts = [2 * (r + 1) for r in range(size)]
    total = _values(0, 6, 2).copy()
    for r in range(1, size):
        total += _values(r, 6, 2)  # ascending rank order
    gathered = np.concatenate([_values(r, c, 3) for r, c in enumerate(counts)])
    scattered = np.split(_values(0, sum(counts), 4), np.cumsum(counts)[:-1])
    return [{"broadcast": _values(size - 1, 6, 1).tobytes(), "allreduce": total.tobytes(),
             "allgatherv": gathered.tobytes(), "scatterv": scattered[r].tobytes(),
             "allgatherv-in-place": gathered.tobytes()} for r in range(size)]


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_collectives_deliver_into_every_buffer_layout(world_runner, layout):
    for size in (1, 2, 3):
        for got, want in zip(world_runner(size, _every_collective, layout),
                             _every_collective_reference(size)):
            assert got == {op: want[op] for op in got}, (size, layout)
            assert len(got) == (5 if layout in ("contiguous", "strided") else 4)


_MB8 = 1 << 20  # float64 values in an 8 MB payload


@pytest.mark.parametrize("backend,size,payloads", [
    ("socket", 2, 1), ("socket", 3, 2),  # the hub's receive buffer per leaf
    ("inproc", 2, 2), ("inproc", 3, 3),  # loose: ranks deposit their buffers uncopied
])
def test_allreduce_allocates_no_result_copies(backend, size, payloads):
    bufs = [np.full(_MB8, float(r + 1)) for r in range(size)]
    runner = run_inproc if backend == "inproc" else run_socket
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runner(size, lambda comm: comm.allreduce(bufs[comm.rank], ReduceOp.SUM))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= payloads * 8 * _MB8 + (1 << 20), (peak - base) / (8 * _MB8)
    want = float(size * (size + 1) // 2)
    assert all(buf[0] == buf[-1] == want for buf in bufs)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("op", ["allreduce", "allgatherv"])
def test_inproc_collectives_copy_no_payloads(op, size):
    # An 8 MB result; an allgatherv's ranks send near-equal parts of it.
    counts = [_MB8 // size + (r < _MB8 % size) for r in range(size)]
    sends = [np.full(counts[r] if op == "allgatherv" else _MB8, float(r + 1))
             for r in range(size)]
    recvs = [np.empty(_MB8) for _ in range(size)]

    def fn(comm):
        if op == "allreduce":
            comm.allreduce(sends[comm.rank], ReduceOp.SUM)
        else:
            comm.allgatherv(sends[comm.rank], recvs[comm.rank], counts)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_inproc(size, fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 0.25 * 8 * _MB8, (peak - base) / (8 * _MB8)
    if op == "allreduce":
        assert all(buf[0] == buf[-1] == size * (size + 1) // 2 for buf in sends)
    else:
        want = np.concatenate(sends)
        assert all(np.array_equal(recv, want) for recv in recvs)


def _back_to_back(comm, rounds):
    """Rounds of an allreduce, a broadcast from a rotating root and an
    in-place allgatherv, each buffer rewritten as soon as the call returns;
    returns the rounds whose results were wrong."""
    rank, size = comm.rank, comm.size
    buf, recv, wrong = np.empty(3), np.empty(size), []
    for i in range(rounds):
        buf[:] = i + rank
        comm.allreduce(buf, ReduceOp.SUM)
        ok = np.all(buf == size * i + size * (size - 1) // 2)
        buf[:] = rank
        comm.broadcast(buf, root=i % size)
        ok &= np.all(buf == i % size)
        recv[rank] = i * rank
        comm.allgatherv(recv[rank:rank + 1], recv, [1] * size)
        ok &= np.array_equal(recv, i * np.arange(size))
        if not ok:
            wrong.append(i)
    return wrong


def test_inproc_buffers_reused_at_once_under_frequent_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = launch("inproc:4", _back_to_back, 200, timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * 4


def _follow_up_after_a_rejected_frame(comm):
    """Rank 1 allreduces 2^20 values against 1; then every rank tries two more
    collectives and reports what it raised, how fast, and with what message."""
    try:
        comm.allreduce(np.zeros(_MB8 if comm.rank == 1 else 1), ReduceOp.SUM)
    except CommError:
        pass
    t0 = time.monotonic()
    try:
        comm.allreduce(np.zeros(2), ReduceOp.SUM)
        comm.barrier()
    except CommError as exc:
        return type(exc), time.monotonic() - t0, str(exc)
    return None, time.monotonic() - t0, ""


def test_world_closes_after_a_rejected_frame():
    results = run_socket(3, _follow_up_after_a_rejected_frame)  # 20 s socket timeout
    for kind, waited, _ in results:
        assert kind is not None and issubclass(kind, CommError)
        assert waited < 2.0
    assert results[0][2] == "world closed after a rejected frame"


def _allreduce_frame(op=2, dtype=1, ncounts=0, payload=np.zeros(2).tobytes()):
    """A leaf's frame for a 2-value float64 SUM allreduce, with fields overridable."""
    return struct.pack(_HEADER_FMT, op, 1, dtype, 0, -1, -1, 2, ncounts) + payload


@pytest.mark.parametrize("frame", [
    _allreduce_frame(op=9),                   # unknown collective code
    _allreduce_frame(dtype=7),                # unknown dtype code
    _allreduce_frame(ncounts=1000),           # counts run past the frame
    _allreduce_frame(payload=b"\0" * 11),     # not a whole number of float64s
    b"\x02\x01",                              # shorter than a header
], ids=["op", "dtype", "counts", "ragged", "short"])
def test_hub_rejects_malformed_frame(frame):
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(10.0)
        hub = _SocketCommunicator(0, 2, peers=[None, hub_end])
        _send_frame(leaf_end, frame)
        with pytest.raises(CommError, match="malformed frame from rank 1"):
            hub.allreduce(np.zeros(2))


@pytest.mark.parametrize("frame", [
    struct.pack("<Q", 2 ** 62) + _allreduce_frame(),                          # 4 EiB claimed
    struct.pack("<Q", 63) + _allreduce_frame(payload=np.zeros(3).tobytes()),  # 3 values, not 2
], ids=["huge-length", "long-payload"])
def test_hub_rejects_frame_its_header_does_not_allow(frame):
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(5.0)
        hub = _SocketCommunicator(0, 2, peers=[None, hub_end])
        leaf_end.sendall(frame)
        with pytest.raises(CommError, match="malformed frame from rank 1"):
            hub.allreduce(np.zeros(2))


def test_hub_bounds_a_claim_by_its_own_header():
    # A self-consistent header and frame length for 2^58 values: the hub must
    # compare the claim with its own 2-value allreduce before allocating.
    values = 2 ** 58
    head = struct.pack(_HEADER_FMT, 2, 1, 1, 0, -1, -1, values, 0)
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(5.0)
        hub = _SocketCommunicator(0, 2, peers=[None, hub_end])
        leaf_end.sendall(struct.pack("<Q", len(head) + 8 * values) + head)
        with pytest.raises(CollectiveContractError, match="rank 0's header allows"):
            hub.allreduce(np.zeros(2))
        _, status = struct.unpack("<QB", leaf_end.recv(9))
        assert status == 1  # the leaf is told too


def _oversized_allreduce(comm):
    try:
        comm.allreduce(np.zeros(1 if comm.rank == 0 else 1 << 20), ReduceOp.SUM)
    except CommError as exc:
        comm.abort()  # ends the world, as a failed rank's exit would
        return type(exc)


def test_oversized_buffer_mismatch_raises_on_every_rank():
    kinds = run_socket(2, _oversized_allreduce)
    assert kinds[0] is CollectiveContractError
    assert all(issubclass(k, CommError) for k in kinds)


def _trickle(sock, data, stop, every=0.2):
    """Send ``data`` one byte every ``every`` seconds until it is sent, ``stop``
    is set or the other end is gone."""
    for i in range(len(data)):
        if stop.wait(every):
            return
        try:
            sock.sendall(data[i:i + 1])
        except OSError:
            return


@pytest.mark.parametrize("side", ["leaf", "hub"])
def test_a_trickling_peer_cannot_outlast_the_timeout(side):
    # a valid frame at one byte every 0.2 s: each recv waits far less than the
    # 1 s timeout, the collective far more
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(1.0)
        leaf_end.settimeout(1.0)
        if side == "leaf":  # the leaf trickles its request to the hub
            comm, peer = _SocketCommunicator(0, 2, peers=[None, hub_end]), leaf_end
            frame = _allreduce_frame()
        else:               # the hub trickles its reply to the leaf
            comm, peer = _SocketCommunicator(1, 2, hub=leaf_end), hub_end
            frame = b"\x00" + np.zeros(2).tobytes()
        stop = threading.Event()
        thread = threading.Thread(
            target=_trickle, args=(peer, struct.pack("<Q", len(frame)) + frame, stop))
        thread.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(CommError, match="timed out"):
                comm.allreduce(np.zeros(2))
            waited = time.monotonic() - t0
        finally:
            stop.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert waited < 1.5


def _join_late(port, hello, stop, after, every):
    """Connect to the hub at ``port`` ``after`` seconds in, then trickle ``hello``."""
    if stop.wait(after):
        return
    while not stop.is_set():
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            break
        except OSError:
            time.sleep(0.02)
    else:
        return
    with sock:
        _trickle(sock, hello, stop, every)
        stop.wait(5.0)


@pytest.mark.parametrize("size,after,every", [(2, 0.0, 0.5), (3, 0.7, 0.0)],
                         ids=["trickling-hello", "missing-leaf"])
def test_the_join_timeout_bounds_the_whole_join(size, after, every):
    # trickling-hello: the 12-byte hello at one byte every 0.5 s, so each recv
    # waits less than the 1 s timeout and the join far more; missing-leaf: one
    # leaf joins 0.7 s in and the other never does, so the second accept may
    # wait only for what is left of the 1 s
    port = free_port()
    stop = threading.Event()
    hello = b"BSTW" + struct.pack("<ii", 1, size)
    thread = threading.Thread(target=_join_late, args=(port, hello, stop, after, every))
    thread.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(CommInitError):
            init(f"tcp:{','.join([f'127.0.0.1:{port}'] * size)},rank=0", timeout=1.0)
        waited = time.monotonic() - t0
    finally:
        stop.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert waited < 1.5


_FAULTY_RANK = """
import os, sys, time
import numpy as np
from blockstat.comm import CommError, init

rank, hosts, culprit, fault = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
comm = init(f"tcp:{hosts},rank={rank}", timeout=3.0)
buf = np.full(4, rank + 1.0)
comm.allreduce(buf)
assert buf.tolist() == [6.0] * 4
if rank == culprit:
    if fault == "sleep":
        time.sleep(8.0)
    os._exit(0)
t0 = time.monotonic()
try:
    comm.allreduce(buf)
except CommError as exc:
    print(f"{time.monotonic() - t0:.3f} {type(exc).__name__}: {exc}")
    sys.exit(0)
print("no error")
sys.exit(1)
"""


@pytest.mark.parametrize("culprit,fault", [(2, "exit"), (2, "sleep"), (0, "exit")],
                         ids=["leaf-exits", "leaf-sleeps", "hub-exits"])
def test_a_failed_rank_process_raises_comm_error_on_every_other_rank(culprit, fault):
    # three rank processes with timeout=3; after one good allreduce the
    # culprit exits or sleeps, and every other rank's next allreduce must
    # raise a CommError subclass within the timeout plus 1 s
    port = free_port()
    hosts = ",".join([f"127.0.0.1:{port}"] * 3)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
    procs = [subprocess.Popen([sys.executable, "-c", _FAULTY_RANK, str(rank), hosts,
                               str(culprit), fault], env=env, stdout=subprocess.PIPE, text=True)
             for rank in range(3)]
    try:
        for rank, proc in enumerate(procs):
            if rank == culprit:
                continue
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, (rank, out)
            waited = float(out.split()[0])
            assert waited < 3.0 + 1.0, (rank, out)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()


def test_leaf_bounds_an_error_reply():
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        leaf_end.settimeout(5.0)
        leaf = _SocketCommunicator(1, 2, hub=leaf_end)
        hub_end.sendall(struct.pack("<QB", 2 ** 62, 1))  # claims a 4 EiB message
        with pytest.raises(CommError, match="hub error reply"):
            leaf.allreduce(np.zeros(2))


@pytest.mark.parametrize("values", [1, 3], ids=["short", "long"])
def test_leaf_rejects_reply_of_wrong_length(values):
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        leaf_end.settimeout(5.0)
        leaf = _SocketCommunicator(1, 2, hub=leaf_end)
        _send_frame(hub_end, b"\x00" + np.zeros(values).tobytes())
        with pytest.raises(CommError, match="hub reply"):
            leaf.allreduce(np.zeros(2))


def _recv_all(sock, n):
    out = b""
    while len(out) < n:
        chunk = sock.recv(n - len(out))
        assert chunk, "the leaf closed its end"
        out += chunk
    return out


def _golden(op, seq, dtype, redop, root, send_len, recv_len, counts=(), payload=b""):
    """A leaf frame packed by hand: length, fixed header, counts, payload."""
    body = (struct.pack(_HEADER_FMT, op, seq, dtype, redop, root, send_len, recv_len, len(counts))
            + struct.pack(f"<{len(counts)}Q", *counts) + payload)
    return struct.pack("<Q", len(body)) + body


def test_leaf_frames_match_the_wire_format():
    assert _HEADER_FMT == "<BQbbiqqQ"  # the frames below are packed with it
    f32 = np.array([1.5, -2.0, 3.25], np.float32)
    i64 = np.array([7, -8], np.int64)
    f64 = np.arange(5.0)
    cases = [  # (collective, hub's reply payload, the leaf's frame)
        (lambda c: c.barrier(), None, _golden(0, 1, -1, -1, -1, -1, -1)),
        (lambda c: c.broadcast(f64[:3].copy(), root=1), None,
         _golden(1, 2, 1, -1, 1, -1, 3, payload=f64[:3].tobytes())),
        (lambda c: c.broadcast(np.zeros(3), root=0), f64[:3], _golden(1, 3, 1, -1, 0, -1, 3)),
        (lambda c: c.allreduce(f32.copy(), ReduceOp.MAX), f32,
         _golden(2, 4, 0, 2, -1, -1, 3, payload=f32.tobytes())),
        (lambda c: c.allreduce(i64.copy(), ReduceOp.MIN), i64,
         _golden(2, 5, 2, 3, -1, -1, 2, payload=i64.tobytes())),
        (lambda c: c.allgatherv(f64[2:], np.zeros(5), _COUNTS), f64,
         _golden(3, 6, 1, -1, -1, 3, 5, _COUNTS, f64[2:].tobytes())),
        (lambda c: c.scatterv(f64, np.zeros(3), _COUNTS, root=1), f64[2:],
         _golden(4, 7, 1, -1, 1, 5, 3, _COUNTS, f64.tobytes())),
        (lambda c: c.scatterv(None, np.zeros(3), _COUNTS, root=0), f64[2:],
         _golden(4, 8, 1, -1, 0, -1, 3, _COUNTS)),
    ]
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(5.0)
        leaf_end.settimeout(5.0)
        leaf = _SocketCommunicator(1, 2, hub=leaf_end)
        for call, reply, frame in cases:
            _send_frame(hub_end, b"\x00", reply)  # queued before the leaf asks
            call(leaf)
            assert _recv_all(hub_end, len(frame)) == frame


def test_hub_sends_a_broadcast_root_an_empty_reply():
    payload = np.arange(3.0)
    buf = np.zeros(3)
    hub_end, leaf_end = socket.socketpair()
    with hub_end, leaf_end:
        hub_end.settimeout(5.0)
        leaf_end.settimeout(5.0)
        hub = _SocketCommunicator(0, 2, peers=[None, hub_end])
        leaf_end.sendall(_golden(1, 1, 1, -1, 1, -1, 3, payload=payload.tobytes()))
        hub.broadcast(buf, root=1)
        hub_end.shutdown(socket.SHUT_WR)
        reply = b"".join(iter(lambda: leaf_end.recv(64), b""))
    assert buf.tobytes() == payload.tobytes()
    assert reply == struct.pack("<QB", 1, 0)  # its length and status byte, no payload


# -- counters -------------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 3])
def test_stats_count_each_collective(world_runner, size):
    counts = tuple(range(1, size + 1))  # rank r sends and receives r + 1 values

    def fn(comm):
        before = comm.stats()
        bcast = np.arange(4.0)
        comm.broadcast(bcast, root=size - 1)
        reduced = np.ones(3, dtype=np.int64)
        comm.allreduce(reduced)
        gathered = np.empty(sum(counts))
        comm.allgatherv(np.ones(counts[comm.rank]), gathered, counts)
        part = np.empty(counts[comm.rank], dtype=np.float32)
        comm.scatterv(np.ones(sum(counts), np.float32) if comm.rank == 0 else None, part, counts)
        comm.barrier()
        stats = comm.stats()
        stats["allreduce"]["calls"] = 99
        del stats["barrier"]
        results = {"broadcast": bcast, "allreduce": reduced, "allgatherv": gathered,
                   "scatterv": part, "barrier": np.empty(0)}
        return before, comm.stats(), {op: buf.nbytes for op, buf in results.items()}

    for before, stats, nbytes in world_runner(size, fn):
        assert set(before) == set(stats) == set(nbytes)
        for op, want in nbytes.items():
            assert before[op] == {"calls": 0, "bytes": 0, "seconds": 0.0}
            assert stats[op]["calls"] == 1 and stats[op]["bytes"] == want, op
            assert stats[op]["seconds"] >= 0.0

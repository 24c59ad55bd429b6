"""Rank-based collective communication with interchangeable backends.

A *world* is a fixed set of ranks numbered ``0 .. size-1`` that invoke the
same sequence of collectives (broadcast, allreduce, allgatherv, scatterv,
barrier) with compatible arguments.  Two backends implement the same
contract:

``inproc:<P>``
    P rank threads inside one process, exchanging payloads through a shared
    slot table guarded by a reusable barrier.

``tcp:<host:port>,...,rank=<r>``
    One OS process per rank.  Rank 0 listens on the first list entry and
    acts as a hub; every other rank connects to it.  Messages are
    length-prefixed little-endian binary frames, uncompressed.

Reductions fold contributions in ascending rank order with no tree
reassociation, so floating-point results are identical run to run and
across the two backends.  Before any payload is interpreted, the ranks'
headers (operation, sequence number, lengths, counts) are compared; any
disagreement raises :class:`CollectiveContractError` on every rank instead
of corrupting data.

Buffers are numpy arrays of float32, float64 or int64.  Collectives operate
on the flattened (column-major) contents and write results back in place.
"""

from __future__ import annotations

import enum
import socket
import struct
import threading

import numpy as np


class CommError(RuntimeError):
    """Base class for communication failures."""


class CommInitError(CommError):
    """World could not be constructed (bad descriptor, unreachable peer, ...)."""


class CollectiveContractError(CommError):
    """Ranks invoked collectives with incompatible arguments."""


class RankAbortedError(CommError):
    """Another rank aborted or timed out while this rank waited."""


class ReduceOp(enum.Enum):
    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"


_REDUCE_UFUNC = {
    ReduceOp.SUM: np.add,
    ReduceOp.PROD: np.multiply,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
}

_DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int64): 2,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

_WAIT_S = 180.0  # longest wait for a peer inside a collective, in seconds

_OP_CODES = {"barrier": 0, "broadcast": 1, "allreduce": 2, "allgatherv": 3, "scatterv": 4}
_OP_NAMES = {v: k for k, v in _OP_CODES.items()}
_REDOP_CODES = {op.value: i for i, op in enumerate(ReduceOp)}
_REDOP_NAMES = {v: k for k, v in _REDOP_CODES.items()}


def _flat(buf):
    """Return ``buf`` flattened in column-major order (view when possible)."""
    arr = np.asarray(buf)
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported buffer dtype {arr.dtype}; use float32/float64/int64")
    return np.ravel(arr, order="F")


def _writeback(buf, flat):
    buf[...] = np.asarray(flat).reshape(buf.shape, order="F")


def _fold(parts, redop):
    """Fold payloads in ascending rank order; no reassociation."""
    acc = np.array(parts[0], copy=True)
    fn = _REDUCE_UFUNC[redop]
    for part in parts[1:]:
        fn(acc, part, out=acc)
    return acc


def _check_agree(headers, field, what):
    ref = headers[0][field]
    for r, h in enumerate(headers):
        if h[field] != ref:
            raise CollectiveContractError(
                f"{what} mismatch: rank 0 has {ref!r}, rank {r} has {h[field]!r}"
            )


def _header(op, dtype=-1, root=-1, send_len=-1, recv_len=-1, counts=None, redop=-1):
    """A collective's header; -1 and None mark fields the op does not use."""
    return {"op": op, "dtype": dtype, "root": root, "send_len": send_len,
            "recv_len": recv_len, "counts": counts, "redop": redop}


def _validate_headers(headers):
    """Cross-rank contract checks shared by both backends."""
    _check_agree(headers, "op", "collective operation")
    _check_agree(headers, "seq", "collective sequence number")
    op = headers[0]["op"]
    if op == "barrier":
        return
    _check_agree(headers, "dtype", "buffer dtype")
    if op == "broadcast":
        _check_agree(headers, "root", "broadcast root")
        _check_agree(headers, "recv_len", "broadcast buffer length")
    elif op == "allreduce":
        _check_agree(headers, "redop", "reduction operator")
        _check_agree(headers, "recv_len", "allreduce buffer length")
    elif op == "allgatherv":
        _check_agree(headers, "counts", "allgatherv counts")
        counts = headers[0]["counts"]
        total = sum(counts)
        for r, h in enumerate(headers):
            if h["send_len"] != counts[r]:
                raise CollectiveContractError(
                    f"allgatherv: rank {r} sends {h['send_len']} values, counts say {counts[r]}"
                )
            if h["recv_len"] != total:
                raise CollectiveContractError(
                    f"allgatherv: rank {r} receive buffer holds {h['recv_len']}, need {total}"
                )
    elif op == "scatterv":
        _check_agree(headers, "counts", "scatterv counts")
        _check_agree(headers, "root", "scatterv root")
        counts = headers[0]["counts"]
        root = headers[0]["root"]
        if headers[root]["send_len"] != sum(counts):
            raise CollectiveContractError(
                f"scatterv: root sends {headers[root]['send_len']} values, counts sum to {sum(counts)}"
            )
        for r, h in enumerate(headers):
            if h["recv_len"] != counts[r]:
                raise CollectiveContractError(
                    f"scatterv: rank {r} receive buffer holds {h['recv_len']}, counts say {counts[r]}"
                )
    else:  # pragma: no cover - internal
        raise CollectiveContractError(f"unknown collective {op!r}")


def _responses(headers, payloads, size):
    """Per-rank result payloads for a validated collective."""
    op = headers[0]["op"]
    if op == "barrier":
        return [None] * size
    if op == "broadcast":
        out = payloads[headers[0]["root"]]
        return [out] * size
    if op == "allreduce":
        out = _fold(payloads, ReduceOp(_REDOP_NAMES[headers[0]["redop"]]))
        return [out] * size
    if op == "allgatherv":
        out = np.concatenate([payloads[r] for r in range(size)])
        return [out] * size
    if op == "scatterv":
        counts = headers[0]["counts"]
        send = payloads[headers[0]["root"]]
        offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return [send[offs[r]:offs[r + 1]] for r in range(size)]
    raise CollectiveContractError(f"unknown collective {op!r}")  # pragma: no cover


class Communicator:
    """One rank's endpoint into a world of ``size`` ranks.

    A communicator is owned by a single logical thread of control.  All
    ranks must invoke the same sequence of collectives; the in-process
    backend detects violations via sequence numbers, the socket backend
    via the hub's header checks.
    """

    rank: int
    size: int
    backend: str

    def __init__(self):
        self._seq = 0

    # -- collectives -------------------------------------------------------

    def broadcast(self, buf, root=0):
        """Overwrite every rank's ``buf`` with root's contents."""
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size {self.size}")
        flat = _flat(buf)
        header = _header("broadcast", _DTYPE_CODES[flat.dtype], root=root, recv_len=flat.size)
        out = self._transact(header, flat if self.rank == root else None)
        _writeback(buf, out)

    def allreduce(self, buf, op=ReduceOp.SUM):
        """Elementwise fold of all ranks' ``buf``, in place, ascending rank order."""
        flat = _flat(buf)
        header = _header("allreduce", _DTYPE_CODES[flat.dtype], recv_len=flat.size,
                         redop=_REDOP_CODES[op.value])
        out = self._transact(header, flat)
        _writeback(buf, out)

    def allgatherv(self, send, recv, counts):
        """Concatenate per-rank ``send`` buffers into ``recv`` on every rank."""
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.size:
            raise ValueError(f"counts has {len(counts)} entries for {self.size} ranks")
        sflat = _flat(send)
        rflat = _flat(recv)
        header = _header("allgatherv", _DTYPE_CODES[sflat.dtype], send_len=sflat.size,
                         recv_len=rflat.size, counts=counts)
        out = self._transact(header, sflat)
        _writeback(recv, out)

    def scatterv(self, send, recv, counts, root=0):
        """Slice root's ``send`` into per-rank chunks of sizes ``counts``."""
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.size:
            raise ValueError(f"counts has {len(counts)} entries for {self.size} ranks")
        rflat = _flat(recv)
        if self.rank == root:
            sflat = _flat(send)
            send_len = sflat.size
        else:
            sflat, send_len = None, -1
        header = _header("scatterv", _DTYPE_CODES[rflat.dtype], root=root, send_len=send_len,
                         recv_len=rflat.size, counts=counts)
        out = self._transact(header, sflat)
        _writeback(recv, out)

    def barrier(self):
        """Block until every rank has entered."""
        self._transact(_header("barrier"), None)

    # -- backend hooks ------------------------------------------------------

    def _transact(self, header, payload):
        raise NotImplementedError

    def close(self):
        pass

    def abort(self):
        """Break peers out of pending collectives after a local failure."""

    def __repr__(self):
        return f"<Communicator rank={self.rank} size={self.size} backend={self.backend}>"


# ---------------------------------------------------------------------------
# In-process backend
# ---------------------------------------------------------------------------


class _EventBarrier:
    """Reusable double-generation barrier; one Event wakeup per phase."""

    def __init__(self, size, timeout):
        self._size = size
        self._timeout = timeout
        self._lock = threading.Lock()
        self._count = 0
        self._gen = 0
        self._events = [threading.Event(), threading.Event()]
        self._broken = False

    def wait(self):
        with self._lock:
            if self._broken:
                raise RankAbortedError("world aborted")
            gen = self._gen
            self._count += 1
            if self._count == self._size:
                self._count = 0
                self._gen ^= 1
                self._events[self._gen].clear()
                self._events[gen].set()
                return
        if not self._events[gen].wait(self._timeout):
            self.abort()
            raise RankAbortedError("a rank timed out mid-collective")
        if self._broken:
            raise RankAbortedError("world aborted")

    def abort(self):
        with self._lock:
            self._broken = True
            for event in self._events:
                event.set()


class _InProcWorld:
    """Shared slot table; collective k deposits into the k-parity buffer.

    One barrier per collective suffices: a rank can only reach collective
    k+2 (reusing the k-parity slots) after every rank passed the k+1
    barrier, which in turn requires every rank to have finished reading
    the k-parity snapshot.
    """

    def __init__(self, size):
        self.size = size
        self.slots = [[None] * size, [None] * size]
        self._barrier = _EventBarrier(size, _WAIT_S)

    def exchange(self, rank, seq, entry):
        buf = self.slots[seq & 1]
        buf[rank] = entry
        self._barrier.wait()
        return list(buf)

    def abort(self):
        self._barrier.abort()


class _InProcCommunicator(Communicator):
    backend = "inproc"

    def __init__(self, world, rank):
        super().__init__()
        self._world = world
        self.rank = rank
        self.size = world.size

    def _transact(self, header, payload):
        self._seq += 1
        header = dict(header, seq=self._seq)
        deposit = None if payload is None else np.array(payload, copy=True)
        slots = self._world.exchange(self.rank, self._seq, (header, deposit))
        if any(entry is None for entry in slots):
            raise CollectiveContractError(
                "ranks invoked different numbers of collectives"
            )
        headers = [h for h, _ in slots]
        _validate_headers(headers)
        payloads = [p for _, p in slots]
        return _responses(headers, payloads, self.size)[self.rank]

    def abort(self):
        self._world.abort()


# ---------------------------------------------------------------------------
# Socket backend (rank 0 is the hub)
# ---------------------------------------------------------------------------

_HELLO = struct.pack("<4s", b"BSTW")
_HEADER_FMT = "<BQbbiqqQ"  # op, seq, dtype, redop, root, send_len, recv_len, ncounts


def _pack_header(header):
    counts = header["counts"] or ()
    packed = struct.pack(
        _HEADER_FMT,
        _OP_CODES[header["op"]], header["seq"], header["dtype"], header["redop"],
        header["root"], header["send_len"], header["recv_len"], len(counts),
    )
    if counts:
        packed += struct.pack(f"<{len(counts)}Q", *counts)
    return packed


def _unpack_header(body):
    base = struct.calcsize(_HEADER_FMT)
    op, seq, dtype, redop, root, send_len, recv_len, ncounts = struct.unpack_from(_HEADER_FMT, body)
    counts = struct.unpack_from(f"<{ncounts}Q", body, base) if ncounts else None
    header = _header(_OP_NAMES[op], dtype, root, send_len, recv_len, counts, redop)
    header["seq"] = seq
    return header, body[base + 8 * ncounts:]


def _send_frame(sock, body):
    try:
        sock.sendall(struct.pack("<Q", len(body)) + body)
    except OSError as exc:
        raise CommError(f"socket send failed: {exc}") from exc


def _recv_exact(sock, n):
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except socket.timeout as exc:
            raise CommError("socket receive timed out") from exc
        except OSError as exc:
            raise CommError(f"socket receive failed: {exc}") from exc
        if not chunk:
            raise CommError("peer closed connection mid-collective")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_frame(sock):
    (n,) = struct.unpack("<Q", _recv_exact(sock, 8))
    return _recv_exact(sock, n)


def _payload_bytes(payload):
    return b"" if payload is None else np.ascontiguousarray(payload).tobytes()


def _payload_array(data, dtype_code):
    if dtype_code < 0:
        return None
    return np.frombuffer(data, dtype=_CODE_DTYPES[dtype_code])


class _SocketCommunicator(Communicator):
    backend = "socket"

    def __init__(self, rank, size, peers=None, hub=None):
        super().__init__()
        self.rank = rank
        self.size = size
        self._peers = peers  # rank 0: socket per rank 1..size-1
        self._hub = hub      # other ranks: connection to rank 0

    def _transact(self, header, payload):
        self._seq += 1
        header = dict(header, seq=self._seq)
        if self.rank == 0:
            return self._transact_hub(header, payload)
        return self._transact_leaf(header, payload)

    def _transact_hub(self, header, payload):
        headers = [header]
        payloads = [payload]
        for r in range(1, self.size):
            frame = _recv_frame(self._peers[r])
            try:  # unknown op/dtype code, short header, ragged payload
                h, raw = _unpack_header(frame)
                payloads.append(_payload_array(raw, h["dtype"]))
            except (KeyError, struct.error, ValueError) as exc:
                raise CommError(f"malformed frame from rank {r}: {exc!r}") from exc
            headers.append(h)
        try:
            _validate_headers(headers)
        except CollectiveContractError as exc:
            body = struct.pack("<B", 1) + str(exc).encode()
            for r in range(1, self.size):
                _send_frame(self._peers[r], body)
            raise
        outs = _responses(headers, payloads, self.size)
        for r in range(1, self.size):
            _send_frame(self._peers[r], struct.pack("<B", 0) + _payload_bytes(outs[r]))
        return outs[0]

    def _transact_leaf(self, header, payload):
        _send_frame(self._hub, _pack_header(header) + _payload_bytes(payload))
        body = _recv_frame(self._hub)
        status = body[0]
        if status != 0:
            raise CollectiveContractError(body[1:].decode())
        return _payload_array(body[1:], header["dtype"])

    def close(self):
        if self._hub is not None:
            self._hub.close()
        if self._peers is not None:
            for conn in self._peers:
                if conn is not None:
                    conn.close()

    def abort(self):
        self.close()


def _parse_descriptor(descriptor):
    if descriptor.startswith("inproc:"):
        try:
            size = int(descriptor.split(":", 1)[1])
        except ValueError:
            raise CommInitError(f"bad inproc descriptor {descriptor!r}") from None
        if size < 1:
            raise CommInitError("world size must be >= 1")
        return "inproc", size, None
    if descriptor.startswith("tcp:"):
        parts = descriptor[4:].split(",")
        if len(parts) < 2 or not parts[-1].startswith("rank="):
            raise CommInitError(
                f"bad tcp descriptor {descriptor!r}; expected tcp:host:port,...,rank=<r>"
            )
        try:
            rank = int(parts[-1][5:])
            hosts = []
            for entry in parts[:-1]:
                host, port = entry.rsplit(":", 1)
                hosts.append((host, int(port)))
        except ValueError:
            raise CommInitError(f"bad tcp descriptor {descriptor!r}") from None
        if not 0 <= rank < len(hosts):
            raise CommInitError(f"rank {rank} out of range for {len(hosts)} hosts")
        return "tcp", hosts, rank
    raise CommInitError(f"unknown backend descriptor {descriptor!r}")


def _init_socket(hosts, rank, timeout):
    size = len(hosts)
    if size == 1:
        return _SocketCommunicator(0, 1)
    sock_timeout = max(timeout, _WAIT_S)
    if rank == 0:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(hosts[0])
            listener.listen(size)
            listener.settimeout(timeout)
            peers = [None] * size
            joined = 0
            while joined < size - 1:
                try:
                    conn, _ = listener.accept()
                except (socket.timeout, OSError) as exc:
                    raise CommInitError(f"hub accept failed: {exc}") from exc
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(sock_timeout)
                magic = _recv_exact(conn, 4)
                r, claimed = struct.unpack("<ii", _recv_exact(conn, 8))
                if magic != _HELLO or claimed != size or not 1 <= r < size or peers[r] is not None:
                    conn.sendall(struct.pack("<B", 1))
                    conn.close()
                    raise CommInitError(
                        f"bad join: magic={magic!r} rank={r} claimed size={claimed}"
                    )
                conn.sendall(struct.pack("<B", 0))
                peers[r] = conn
                joined += 1
        finally:
            listener.close()
        return _SocketCommunicator(0, size, peers=peers)

    deadline = timeout
    import time

    t0 = time.monotonic()
    last_err = None
    while time.monotonic() - t0 < deadline:
        try:
            conn = socket.create_connection(hosts[0], timeout=2.0)
            break
        except OSError as exc:
            last_err = exc
            time.sleep(0.05)
    else:
        raise CommInitError(f"cannot reach hub {hosts[0]}: {last_err}")
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.settimeout(sock_timeout)
    conn.sendall(_HELLO + struct.pack("<ii", rank, size))
    (status,) = struct.unpack("<B", _recv_exact(conn, 1))
    if status != 0:
        conn.close()
        raise CommInitError("hub rejected join (rank/size mismatch)")
    return _SocketCommunicator(rank, size, hub=conn)


def init(descriptor, timeout=30.0):
    """Construct communicator endpoint(s) from a backend descriptor.

    ``inproc:<P>`` returns a list of P endpoints sharing one world (hand
    each to its own rank thread).  ``tcp:...,rank=<r>`` connects this
    process's single endpoint and returns it.
    """
    kind, arg, rank = _parse_descriptor(descriptor)
    if kind == "inproc":
        world = _InProcWorld(arg)
        return [_InProcCommunicator(world, r) for r in range(arg)]
    return _init_socket(arg, rank, timeout)


def launch(descriptor, fn, *args, timeout=30.0):
    """Run ``fn(comm, *args)`` on every rank reachable from this process.

    With the in-process backend this spawns one thread per rank and returns
    the list of all ranks' results.  With the socket backend it runs the
    single local rank and returns a one-element list.
    """
    kind, _, _ = _parse_descriptor(descriptor)
    if kind == "inproc":
        comms = init(descriptor)
        return _run_threads(comms, fn, args)
    comm = init(descriptor, timeout=timeout)
    try:
        return [fn(comm, *args)]
    finally:
        comm.close()


def run_inproc(size, fn, *args):
    """Convenience wrapper: ``launch(f"inproc:{size}", fn, *args)``."""
    return launch(f"inproc:{size}", fn, *args)


def _run_threads(comms, fn, args):
    results = [None] * len(comms)
    errors = [None] * len(comms)

    def work(i):
        try:
            results[i] = fn(comms[i], *args)
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            errors[i] = exc
            comms[i].abort()

    threads = [threading.Thread(target=work, args=(i,), name=f"rank-{i}")
               for i in range(len(comms))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for comm in comms:
        comm.close()
    primary = [e for e in errors if e is not None and not isinstance(e, RankAbortedError)]
    if primary:
        raise primary[0]
    for e in errors:
        if e is not None:
            raise e
    return results

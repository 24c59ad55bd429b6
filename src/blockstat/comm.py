"""Rank-based collective communication with interchangeable backends.

A *world* is a fixed set of ranks numbered ``0 .. size-1`` that invoke the
same sequence of collectives (broadcast, allreduce, allgatherv, scatterv,
barrier) with compatible arguments.  Two backends implement the same
contract:

``inproc:<P>``
    P rank threads inside one process.  Each rank deposits its header and
    buffers, uncopied; the last rank to arrive combines them and writes
    every rank's result before any rank returns.

``tcp:<host:port>,...,rank=<r>``
    One OS process per rank.  Rank 0 listens on the first list entry and
    acts as a hub; every other rank connects to it.  The hub combines the
    ranks' payloads and replies to each with its result.  Messages are
    length-prefixed little-endian binary frames, uncompressed; payloads go
    straight between the sockets and numpy arrays.

Both backends only move bytes: one combiner checks the headers and forms
every collective's result, once per collective.

Reductions fold contributions in ascending rank order with no tree
reassociation, so floating-point results are identical run to run and
across the two backends.  Before any payload is interpreted, the ranks'
headers (operation, sequence number, lengths, counts) are compared; any
disagreement raises :class:`CollectiveContractError` on every rank instead
of corrupting data.

Buffers are numpy arrays of float32, float64 or int64.  Collectives operate
on the flattened (column-major) contents and write each rank's result
straight into the caller's buffer when it is F-contiguous (in place, as with
MPI's ``MPI_IN_PLACE``); any other buffer gets the result through one flat
copy.
"""

from __future__ import annotations

import enum
import socket
import struct
import threading
import time
from typing import NamedTuple

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
    """Elementwise reduction operator; its value is its wire code."""

    SUM = 0
    PROD = 1
    MAX = 2
    MIN = 3


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


class _Op(enum.IntEnum):
    BARRIER = 0
    BROADCAST = 1
    ALLREDUCE = 2
    ALLGATHERV = 3
    SCATTERV = 4


_HEADER_FMT = "<BQbbiqqQ"  # _Header's fields, with len(counts) for counts
_HEADER_LEN = struct.calcsize(_HEADER_FMT)


class _Header(NamedTuple):
    """A collective's header as wire codes in ``_HEADER_FMT`` order; -1 marks an unused field."""

    op: _Op
    seq: int
    dtype: int = -1
    redop: int = -1
    root: int = -1
    send_len: int = -1
    recv_len: int = -1
    counts: tuple = ()


def _flat(buf):
    """Return ``buf`` flattened in column-major order (view when possible)."""
    arr = np.asarray(buf)
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported buffer dtype {arr.dtype}; use float32/float64/int64")
    return np.ravel(arr, order="F")


def _writeback(buf, flat):
    """Copy ``flat`` into ``buf`` unless it is a view of it: ``np.ravel`` gives a
    view or a fresh array, so ``may_share_memory``'s bounds check is exact."""
    if not np.may_share_memory(flat, buf):
        buf[...] = flat.reshape(buf.shape, order="F")


def _implied(h, rank):
    """Rank 0's header ``h`` as it applies to ``rank``: only lengths may differ."""
    if h.op == _Op.ALLGATHERV:
        return h._replace(send_len=h.counts[rank], recv_len=sum(h.counts))
    if h.op == _Op.SCATTERV:
        return h._replace(send_len=sum(h.counts) if rank == h.root else -1,
                          recv_len=h.counts[rank])
    return h


def _validate_headers(headers):
    """Both backends' contract: each rank's header is the one rank 0's call implies."""
    for r, h in enumerate(headers):
        want = _implied(headers[0], r)
        if h != want:
            field, a, b = next(d for d in zip(_Header._fields, want, h) if d[1] != d[2])
            raise CollectiveContractError(
                f"{field} mismatch: rank 0's call implies {a!r} for rank {r}, which has {b!r}")


def _combine(headers, payloads, out):
    """Check all ranks' headers, then form the collective's result, once.

    ``out`` is rank 0's flat receive buffer; for an allreduce it already
    holds rank 0's payload, and ranks 1..size-1 are folded into it in
    ascending order.  An allgatherv assembles every rank's part into it,
    rank 0's first, since rank 0's ``send`` may be a view of ``out``.
    Returns each rank's result: ``out``, root's payload or root's slice, or
    None where a rank receives nothing (a barrier, or a broadcast's root).
    """
    _validate_headers(headers)
    h = headers[0]
    if h.op == _Op.BROADCAST:
        return [None if r == h.root else payloads[h.root] for r in range(len(headers))]
    if h.op == _Op.SCATTERV:
        offs = np.cumsum((0,) + h.counts)
        return [payloads[h.root][offs[r]:offs[r + 1]] for r in range(len(headers))]
    if h.op == _Op.ALLREDUCE:
        ufunc = _REDUCE_UFUNC[ReduceOp(h.redop)]
        for part in payloads[1:]:
            ufunc(out, part, out=out)
    elif h.op == _Op.ALLGATHERV:
        offs = np.cumsum((0,) + h.counts)
        for r, part in enumerate(payloads):
            out[offs[r]:offs[r + 1]] = part
    return [out] * len(headers)


def _deliver(result, out):
    """Copy a rank's result from ``_combine`` into its flat buffer ``out``,
    unless there is none or it is ``out`` itself."""
    if result is not None and result is not out:
        out[...] = result


class Communicator:
    """One rank's endpoint into a world of ``size`` ranks.

    A communicator is owned by a single logical thread of control.  All
    ranks must invoke the same sequence of collectives.  Both backends check
    that every rank's header equals the one rank 0's call implies for that
    rank, and raise CollectiveContractError on every rank where one differs.

    Each collective writes this rank's result straight into the caller's
    buffer (``recv`` for allgatherv and scatterv), or into a flat copy that
    is written back when the buffer is not F-contiguous.  An allgatherv's
    ``send`` may be a view of ``recv`` at this rank's own offset.  Different
    ranks' buffers must not overlap: on inproc one thread writes them all.
    Every collective goes through ``_run``, which numbers, counts and writes
    it back; the public collectives do not call one another, so each can be
    wrapped on its own.
    """

    rank: int
    size: int
    backend: str

    def __init__(self):
        self._seq = 0
        self._counts = [[op.name.lower(), 0, 0, 0.0] for op in _Op]  # name, calls, bytes, s

    def _run(self, op, buf, out, payload, dtype=-1, redop=-1, root=-1, send_len=-1, counts=None):
        """The steps every collective shares: check ``counts`` and ``root``, number
        the call once they pass, build its header, ``_transact`` it, count the call,
        the bytes of ``out`` and the seconds, then write ``out`` back into ``buf``."""
        if counts is not None:
            counts = tuple(int(c) for c in counts)
            if len(counts) != self.size:
                raise ValueError(f"counts has {len(counts)} entries for {self.size} ranks")
        if (op == _Op.BROADCAST or op == _Op.SCATTERV) and not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size {self.size}")
        self._seq += 1
        header = _Header(op, self._seq, dtype, redop, root, send_len,
                         -1 if out is None else out.size, counts or ())
        start = time.perf_counter()
        self._transact(header, payload, out)
        count = self._counts[op]  # indexed by op code
        count[1] += 1
        count[3] += time.perf_counter() - start
        if out is not None:
            count[2] += out.nbytes
            _writeback(buf, out)

    def stats(self):
        """A copy of this rank's ``{op: {"calls", "bytes", "seconds"}}`` so far."""
        return {name: {"calls": calls, "bytes": nbytes, "seconds": seconds}
                for name, calls, nbytes, seconds in self._counts}

    # -- collectives -------------------------------------------------------

    def broadcast(self, buf, root=0):
        """Overwrite every rank's ``buf`` with root's contents."""
        flat = _flat(buf)
        self._run(_Op.BROADCAST, buf, flat, flat if self.rank == root else None,
                  _DTYPE_CODES[flat.dtype], root=root)

    def allreduce(self, buf, op=ReduceOp.SUM):
        """Elementwise fold of all ranks' ``buf``, in place, ascending rank order."""
        flat = _flat(buf)
        self._run(_Op.ALLREDUCE, buf, flat, flat, _DTYPE_CODES[flat.dtype], op.value)

    def allgatherv(self, send, recv, counts):
        """Concatenate per-rank ``send`` buffers into ``recv`` on every rank."""
        sflat, rflat = _flat(send), _flat(recv)
        self._run(_Op.ALLGATHERV, recv, rflat, sflat, _DTYPE_CODES[sflat.dtype],
                  send_len=sflat.size, counts=counts)

    def scatterv(self, send, recv, counts, root=0):
        """Slice root's ``send`` into per-rank chunks of sizes ``counts``."""
        rflat = _flat(recv)
        sflat = _flat(send) if self.rank == root else None
        self._run(_Op.SCATTERV, recv, rflat, sflat, _DTYPE_CODES[rflat.dtype], root=root,
                  send_len=-1 if sflat is None else sflat.size, counts=counts)

    def barrier(self):
        """Block until every rank has entered."""
        self._run(_Op.BARRIER, None, None, None)

    # -- backend hooks ------------------------------------------------------

    def _transact(self, header, payload, out):
        """Run one collective: send ``payload`` (this rank's flat contribution,
        or None) and write this rank's result into the flat buffer ``out``."""
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


class _InProcWorld:
    """Where the ranks meet; the last rank to arrive combines for all of them.

    Each rank deposits its header, payload and flat receive buffer, uncopied.
    No rank returns before the last arriver has written every rank's result,
    so no buffer is reused while another rank reads it.  Alternate
    collectives wait on alternate events, so one wakeup releases the ranks
    and the next collective can start at once.
    """

    def __init__(self, size, timeout):
        self.size = size
        self._timeout = timeout
        self._lock = threading.Lock()
        self._slots = [None] * size
        self._count = 0
        self._gen = 0
        self._events = [threading.Event(), threading.Event()]
        self._error = None  # the last collective's contract error, raised by every rank
        self._broken = False

    def exchange(self, rank, header, payload, out):
        with self._lock:
            if self._broken:
                raise RankAbortedError("world aborted")
            gen = self._gen
            self._slots[rank] = (header, payload, out)
            self._count += 1
            last = self._count == self.size
            if last:
                headers, payloads, outs = zip(*self._slots)
                self._slots, self._count, self._error = [None] * self.size, 0, None
                try:
                    for result, dest in zip(_combine(headers, payloads, outs[0]), outs):
                        _deliver(result, dest)
                except CollectiveContractError as exc:
                    self._error = str(exc)
                self._gen ^= 1
                self._events[self._gen].clear()
                self._events[gen].set()
        if not last:
            if not self._events[gen].wait(self._timeout):
                self.abort()
                raise RankAbortedError("a rank timed out mid-collective")
            if self._broken:
                raise RankAbortedError("world aborted")
        if self._error is not None:
            raise CollectiveContractError(self._error)

    def abort(self):
        with self._lock:
            self._broken = True
            for event in self._events:
                event.set()


class _InProcCommunicator(Communicator):
    backend = "inproc"

    def __init__(self, world, rank):
        super().__init__()
        self._world = world
        self.rank = rank
        self.size = world.size

    def _transact(self, header, payload, out):
        self._world.exchange(self.rank, header, payload, out)

    def abort(self):
        self._world.abort()


# ---------------------------------------------------------------------------
# Socket backend (rank 0 is the hub)
# ---------------------------------------------------------------------------

_HELLO = struct.pack("<4s", b"BSTW")
_ERROR_REPLY_MAX = 1 << 20  # bytes of a hub error message; real ones are far shorter


def _pack_header(h):
    return struct.pack(f"{_HEADER_FMT}{len(h.counts)}Q", *h[:-1], len(h.counts), *h.counts)


def _wire_dtype(h):
    """The payload dtype a header names (bytes for a barrier, which sends none)."""
    return np.dtype(np.uint8) if h.op == _Op.BARRIER else _CODE_DTYPES[h.dtype]


def _sent_len(h, rank):
    """Values ``rank`` sends: all of an allreduce or root broadcast, else ``send_len``."""
    whole = h.op == _Op.ALLREDUCE or (h.op == _Op.BROADCAST and h.root == rank)
    return max(h.recv_len if whole else h.send_len, 0)


def _arm(sock, deadline):
    """Give ``sock`` what is left until ``deadline`` (``time.monotonic``), if any, as
    its timeout; a spent one leaves a microsecond, for data already there."""
    if deadline is not None:
        sock.settimeout(max(deadline - time.monotonic(), 1e-6))


def _send_frame(sock, head, payload=None, deadline=None):
    """Send one frame: its 8-byte length, ``head`` (bytes), then the contiguous
    array ``payload`` straight from its memory."""
    view = memoryview(b"" if payload is None else payload).cast("B")
    head = struct.pack("<Q", len(head) + len(view)) + head
    try:
        _arm(sock, deadline)
        sent = sock.sendmsg([head, view])
        for part in (head, view):  # finish what one sendmsg left unsent
            if sent < len(part):
                _arm(sock, deadline)
                sock.sendall(part[sent:])
            sent = max(sent - len(part), 0)
    except OSError as exc:
        raise CommError(f"socket send failed: {exc}") from exc


def _recv_into(sock, buf, got=0, least=None, deadline=None):
    """Fill the contiguous ``buf`` from byte ``got`` on, or stop once at least
    ``least`` bytes are in; returns the number of bytes in ``buf``."""
    view = memoryview(buf).cast("B")
    while got < (len(view) if least is None else least):
        try:
            _arm(sock, deadline)
            n = sock.recv_into(view[got:])
        except socket.timeout as exc:
            raise CommError("socket receive timed out") from exc
        except OSError as exc:
            raise CommError(f"socket receive failed: {exc}") from exc
        if not n:
            raise CommError("peer closed connection mid-collective")
        got += n
    return got


def _recv_exact(sock, n, deadline=None):
    buf = bytearray(n)
    _recv_into(sock, buf, deadline=deadline)
    return buf


def _recv_request(sock, rank, limit, deadline):
    """One leaf frame, whose length must match what its header says ``rank``
    sends and be at most ``limit`` bytes past the header; both are checked
    before the counts and payload are read into a new array."""
    head = bytearray(8 + _HEADER_LEN)
    got = _recv_into(sock, head, least=8, deadline=deadline)  # the rest is in every valid frame
    (n,) = struct.unpack_from("<Q", head)
    if n < _HEADER_LEN:
        raise ValueError(f"frame of {n} bytes is shorter than a header")
    _recv_into(sock, head, got, deadline=deadline)
    op, *fields, ncounts = struct.unpack_from(_HEADER_FMT, head, 8)
    header = _Header(_Op(op), *fields)
    count, wire = _sent_len(header, rank), _wire_dtype(header)
    if n != _HEADER_LEN + 8 * ncounts + count * wire.itemsize:
        raise ValueError(f"frame of {n} bytes, header allows {count} values and {ncounts} counts")
    if n - _HEADER_LEN > limit:
        raise CollectiveContractError(
            f"{header.op.name.lower()} from rank {rank} carries {n - _HEADER_LEN} bytes, "
            f"rank 0's header allows at most {limit}")
    body = np.empty(n - _HEADER_LEN, np.uint8)  # counts, then the payload 8-byte aligned
    _recv_into(sock, body, deadline=deadline)
    if ncounts:
        header = header._replace(counts=struct.unpack_from(f"<{ncounts}Q", body))
    return header, body[8 * ncounts:].view(wire)


class _SocketCommunicator(Communicator):
    backend = "socket"

    def __init__(self, rank, size, peers=None, hub=None):
        super().__init__()
        self.rank = rank
        self.size = size
        self._peers = peers  # rank 0: socket per rank 1..size-1
        self._hub = hub      # other ranks: connection to rank 0
        self._rejected = False  # rank 0 closed the world after a rejected frame
        # each collective must end this long after it starts (the join timeout)
        self._timeout = (hub or peers[1]).gettimeout() if size > 1 else None

    def _transact(self, header, payload, out):
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        if self.rank == 0:
            return self._transact_hub(header, payload, out, deadline)
        return self._transact_leaf(header, payload, out, deadline)

    def _transact_hub(self, header, payload, out, deadline):
        if self._rejected:
            raise CommError("world closed after a rejected frame")
        headers = [header]
        payloads = [payload]
        # No rank sends more than counts and the largest buffer in rank 0's own
        # header, at 8 bytes a value; a larger claim disagrees with that header.
        most = max(header.send_len, header.recv_len, sum(header.counts))
        limit = 8 * (self.size + most)
        try:
            for r in range(1, self.size):
                try:  # unknown op/dtype code, short header, length the header does not allow
                    h, raw = _recv_request(self._peers[r], r, limit, deadline)
                except (KeyError, ValueError) as exc:
                    raise CommError(f"malformed frame from rank {r}: {exc!r}") from exc
                headers.append(h)
                payloads.append(raw)
            results = _combine(headers, payloads, out)
        except CollectiveContractError as exc:
            try:
                for r in range(1, self.size):
                    _send_frame(self._peers[r], b"\x01" + str(exc).encode(), deadline=deadline)
            finally:
                if len(headers) < self.size:
                    self._close_world()
            raise
        except CommError:
            self._close_world()
            raise
        _deliver(results[0], out)
        for r in range(1, self.size):
            _send_frame(self._peers[r], b"\x00", results[r], deadline)

    def _close_world(self):
        """Close every leaf's socket after a frame was left unread, whose rest
        the next collective would otherwise read as a frame."""
        self._rejected = True
        self.close()

    def _transact_leaf(self, header, payload, out, deadline):
        _send_frame(self._hub, _pack_header(header), payload, deadline)
        n, status = struct.unpack("<QB", _recv_exact(self._hub, 9, deadline))
        if status != 0:
            if not 0 <= n - 1 <= _ERROR_REPLY_MAX:
                raise CommError(f"hub error reply of {n - 1} bytes, over {_ERROR_REPLY_MAX}")
            raise CollectiveContractError(_recv_exact(self._hub, n - 1, deadline).decode())
        root = header.op == _Op.BROADCAST and header.root == self.rank  # holds the result
        nbytes = 0 if out is None or root else out.nbytes
        if n - 1 != nbytes:
            raise CommError(f"hub reply holds {n - 1} payload bytes, expected {nbytes}")
        if nbytes:
            _recv_into(self._hub, out, deadline=deadline)

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
    deadline = time.monotonic() + timeout  # one for the whole join, as for a collective
    if rank == 0:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        conns, peers = [], [None] * size  # every accepted socket; the joined ones by rank
        try:
            listener.bind(hosts[0])
            listener.listen(size)
            for _ in range(1, size):  # each pass joins one leaf or raises
                _arm(listener, deadline)
                conns.append(listener.accept()[0])
                conn = conns[-1]
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                magic, r, claimed = struct.unpack("<4sii", _recv_exact(conn, 12, deadline))
                ok = magic == _HELLO and claimed == size and 1 <= r < size and peers[r] is None
                conn.sendall(struct.pack("<B", 0 if ok else 1))  # armed by _recv_exact
                if not ok:
                    raise CommInitError(f"bad join: magic={magic!r} rank={r} size={claimed}")
                conn.settimeout(timeout)  # each collective's deadline is read from it
                peers[r] = conn
        except (CommError, OSError) as exc:
            for conn in conns:
                conn.close()
            raise CommInitError(f"hub join failed: {exc}") from exc
        finally:
            listener.close()
        return _SocketCommunicator(0, size, peers=peers)

    last_err = None
    while time.monotonic() < deadline:
        try:
            conn = socket.create_connection(hosts[0], max(deadline - time.monotonic(), 1e-6))
            break
        except OSError as exc:
            last_err = exc
            time.sleep(0.05)
    else:
        raise CommInitError(f"cannot reach hub {hosts[0]}: {last_err}")
    try:  # the socket's timeout is what was left of the deadline at connect
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.sendall(_HELLO + struct.pack("<ii", rank, size))
        if _recv_exact(conn, 1, deadline) != b"\x00":
            raise CommInitError("hub rejected join (rank/size mismatch)")
    except (CommError, OSError) as exc:
        conn.close()
        raise CommInitError(f"join failed: {exc}") from exc
    conn.settimeout(timeout)  # each collective's deadline is read from it
    return _SocketCommunicator(rank, size, hub=conn)


def init(descriptor, timeout=30.0):
    """Construct communicator endpoint(s) from a backend descriptor.

    ``inproc:<P>`` returns a list of P endpoints sharing one world (hand
    each to its own rank thread).  ``tcp:...,rank=<r>`` connects this
    process's single endpoint and returns it.  ``timeout`` (seconds) bounds
    the whole join (else :class:`CommInitError`) and each collective, from
    its start, on both backends; a rank whose collective lasts longer raises
    :class:`RankAbortedError` (inproc) or :class:`CommError` (tcp).
    """
    kind, arg, rank = _parse_descriptor(descriptor)
    if kind == "inproc":
        world = _InProcWorld(arg, timeout)
        return [_InProcCommunicator(world, r) for r in range(arg)]
    return _init_socket(arg, rank, timeout)


def launch(descriptor, fn, *args, timeout=30.0):
    """Run ``fn(comm, *args)`` on every rank reachable from this process.

    With the in-process backend this spawns one thread per rank and returns
    the list of all ranks' results.  With the socket backend it runs the
    single local rank and returns a one-element list.  ``timeout`` is as
    for :func:`init`.
    """
    comm = init(descriptor, timeout=timeout)
    if isinstance(comm, list):
        return _run_threads(comm, fn, args)
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

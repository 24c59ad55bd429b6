"""Shared helpers: world launchers for both backends and dense instance builders."""

import socket
import threading

import numpy as np
import pytest

from blockstat.comm import RankAbortedError, init, run_inproc  # noqa: F401
from blockstat.distarray import zeros


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_socket(size, fn, *args, timeout=20.0):
    """Run fn(comm, *args) on `size` rank threads joined over local TCP sockets."""
    port = free_port()
    hosts = ",".join(f"127.0.0.1:{port}" for _ in range(size))
    results = [None] * size
    errors = [None] * size
    comms = [None] * size

    def work(rank):
        try:
            comms[rank] = init(f"tcp:{hosts},rank={rank}", timeout=timeout)
            results[rank] = fn(comms[rank], *args)
        except BaseException as exc:  # noqa: BLE001
            errors[rank] = exc
            for c in comms:
                if c is not None:
                    c.abort()

    threads = [threading.Thread(target=work, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for c in comms:
        if c is not None:
            c.close()
    primary = [e for e in errors if e is not None and not isinstance(e, RankAbortedError)]
    if primary:
        raise primary[0]
    for e in errors:
        if e is not None:
            raise e
    return results


@pytest.fixture(params=["inproc", "socket"])
def world_runner(request):
    """Parametrized launcher covering both backends."""
    return run_inproc if request.param == "inproc" else run_socket


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def three_way_zeros(comm, shape):
    """Zeros of ``shape`` split as in a world of three ranks: at p = 2, an
    operand of the right shape whose partition differs from ``comm``'s."""
    return zeros(shape, init("inproc:3")[comm.rank])


def raises_on_every_rank(size, build, exc, match, runner=run_inproc):
    """Run ``build(comm)`` on ``size`` ranks and check that every rank raises
    ``exc`` matching ``match``, none waiting on another."""
    def fn(comm):
        with pytest.raises(exc, match=match):
            build(comm)
        return True

    assert runner(size, fn) == [True] * size

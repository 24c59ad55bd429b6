"""CLI and matrix-file behavior, including a real two-process socket run."""

import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from blockstat import cli
from blockstat.cli import _COMMANDS, FormatError, read_matrix, run, write_matrix
from blockstat.comm import run_inproc
from blockstat.distarray import DistArray, distribute, empty, gather_full, partition_of, zeros
from blockstat.distlinalg import pairwise_euclidean
from blockstat.solvers import (
    ConvergenceMonitor,
    cox_fit,
    cox_init,
    mds_fit,
    mds_init,
    nmf_apg,
    nmf_init,
    nmf_multiplicative,
)
from conftest import free_port, raises_on_every_rank, rng, run_socket


def _read_trace(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,objective,elapsed_s"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


# -- matrix file format ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("p", [1, 4])
def test_matrix_roundtrip(tmp_path, dtype, p):
    gen = rng(5)
    data = (gen.random((3, 7)) * 10).astype(dtype)
    path = tmp_path / "m.dsta"

    def fn(comm):
        a = distribute(data if comm.rank == 0 else None, comm)
        write_matrix(path, a)
        comm.barrier()
        return gather_full(read_matrix(path, comm))

    for full in run_inproc(p, fn):
        np.testing.assert_array_equal(full, data)


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "bad.dsta"
    path.write_bytes(b"NOPE" + b"\x00" * 32)

    def fn(comm):
        read_matrix(path, comm)

    with pytest.raises(FormatError):
        run_inproc(2, fn)


def test_matrix_truncated_payload(tmp_path):
    path = tmp_path / "short.dsta"
    body = b"DSTA" + struct.pack("<B", 1) + struct.pack("<Q", 2) + struct.pack("<QQ", 2, 2)
    path.write_bytes(body + b"\x00" * 8)  # needs 32 payload bytes

    def fn(comm):
        read_matrix(path, comm)

    with pytest.raises(FormatError):
        run_inproc(1, fn)


def test_matrix_extents_whose_product_wraps_int64(tmp_path):
    path = tmp_path / "huge.dsta"
    # 2**64 f64 values and no payload: a size computed in int64 wraps to 0 bytes
    path.write_bytes(b"DSTA" + struct.pack("<BQQQ", 1, 2, 2 ** 32, 2 ** 32))

    def fn(comm):
        read_matrix(path, comm)

    with pytest.raises(FormatError, match="expected 147573952589676412928"):
        run_inproc(1, fn)


def test_matrix_dtype_mismatch_no_cast(tmp_path):
    path = tmp_path / "f32.dsta"
    write_matrix(path, np.ones((2, 2), dtype=np.float32))

    def fn(comm):
        read_matrix(path, comm, dtype=np.float64)

    with pytest.raises(FormatError):
        run_inproc(1, fn)


def _dsta(code, *extents):
    return b"DSTA" + struct.pack(f"<BQ{len(extents)}Q", code, len(extents), *extents)


_BAD_FILES = {
    "bad-magic": b"NOPE" + b"\x00" * 32,
    "truncated-header": _dsta(1, 2, 3)[:-8],
    "too-many-dimensions": b"DSTA" + struct.pack("<BQ", 1, 2 ** 59),
    "dtype-mismatch": _dsta(0, 2, 2) + b"\x00" * 16,  # f32 file, f64 run
    "wrong-payload-size": _dsta(1, 2, 2) + b"\x00" * 8,
    "int64-wrapping-extents": _dsta(1, 2 ** 32, 2 ** 32),
    "empty-but-beyond-numpy": _dsta(1, 0, 2 ** 62),  # no payload, yet no numpy array fits
    "zero-dimensions": _dsta(1) + b"\x00" * 8,  # one scalar's payload
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_bad_matrix_file_raises_on_every_rank(tmp_path, world_runner, case, p):
    path = tmp_path / "bad.dsta"
    path.write_bytes(_BAD_FILES[case])

    def fn(comm):
        with pytest.raises(FormatError):
            read_matrix(path, comm, dtype=np.float64)
        return comm.rank

    assert world_runner(p, fn) == list(range(p))


def test_unknown_dtype_code_raises_on_every_rank(tmp_path, world_runner):
    path = tmp_path / "bad.dsta"
    path.write_bytes(_dsta(7, 2, 2) + b"\x00" * 32)

    def fn(comm):  # rank 0 reads the header and names the code; the others learn it failed
        want = "unknown dtype code 7" if comm.rank == 0 else "rank 0 raised FormatError"
        with pytest.raises(FormatError, match=want):
            read_matrix(path, comm)
        return comm.rank

    assert world_runner(2, fn) == [0, 1]


@pytest.mark.parametrize("dtype", [np.int32, np.complex128, np.bool_])
def test_write_matrix_refuses_an_unsupported_dtype_on_every_rank(tmp_path, dtype):
    path = tmp_path / "x.dsta"
    raises_on_every_rank(2, lambda c: write_matrix(path, zeros((2, 3), c, dtype)),
                         FormatError, "unsupported dtype")
    with pytest.raises(FormatError, match="unsupported dtype"):
        write_matrix(path, np.zeros(3, dtype))  # a plain array, as a one-rank world's
    assert not path.exists()


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_truncated_after_the_size_check_raises_on_every_rank(tmp_path, world_runner, p):
    path = tmp_path / "x.dsta"
    write_matrix(path, np.arange(12.0).reshape(3, 4))

    def fn(comm):
        if comm.rank == 0:  # cut the last byte between rank 0's checks and the block reads
            broadcast = comm.broadcast

            def truncate_then_broadcast(buf, root=0):
                os.truncate(path, os.path.getsize(path) - 1)
                broadcast(buf, root)

            comm.broadcast = truncate_then_broadcast
        with pytest.raises(FormatError):
            read_matrix(path, comm)
        return comm.rank

    assert world_runner(p, fn) == list(range(p))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_failed_write_raises_on_every_rank(tmp_path, p):
    path = tmp_path / "missing-dir" / "x.dsta"

    def fn(comm):
        with pytest.raises(OSError):
            write_matrix(path, distribute(np.ones((2, 5)) if comm.rank == 0 else None, comm))
        return comm.rank

    assert run_inproc(p, fn) == list(range(p))


def test_matrix_io_allocates_only_the_blocks(tmp_path):
    data = rng(9).random((400, 300))
    path = tmp_path / "x.dsta"
    write_matrix(path, data)

    def read_then_write(comm):
        a = read_matrix(path, comm)
        write_matrix(tmp_path / "copy.dsta", a)
        return a.local

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blocks = run_inproc(2, read_then_write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 1.25 * data.nbytes, (peak - base) / data.nbytes
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1), data)
    assert (tmp_path / "copy.dsta").read_bytes() == path.read_bytes()


def test_matrix_io_makes_two_collectives_each(tmp_path):
    path = tmp_path / "x.dsta"
    write_matrix(path, np.arange(30.0).reshape(5, 6))
    ops = ("broadcast", "allreduce", "allgatherv", "scatterv", "barrier")

    def fn(comm):
        calls = []

        def counted(op, method):
            def call(*args, **kwargs):
                calls.append(op)
                return method(*args, **kwargs)
            return call

        for op in ops:
            setattr(comm, op, counted(op, getattr(comm, op)))
        a = read_matrix(path, comm)
        read_calls, calls[:] = list(calls), []
        write_matrix(tmp_path / "copy.dsta", a)
        return read_calls, calls

    for read_calls, write_calls in run_inproc(3, fn):
        assert read_calls == write_calls == ["broadcast", "allreduce"]


def _staged_peak(p, fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_inproc(p, fn)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_matrix_stages_at_most_one_panel(tmp_path):
    data = rng(12).random((2000, 1000))  # 16 MB, C-order
    path = tmp_path / "x.dsta"
    payload = np.asfortranarray(data).tobytes(order="F")
    halves = [np.ascontiguousarray(b) for b in np.array_split(data, 2, axis=1)]  # untraced

    peak = _staged_peak(1, lambda comm: write_matrix(path, data))
    assert peak <= 1.5 * cli._PANEL_BYTES, peak / cli._PANEL_BYTES
    assert path.read_bytes()[-len(payload):] == payload

    def write_c_locals(comm):
        write_matrix(path, DistArray(comm, data.shape, data.dtype, local=halves[comm.rank]))

    path.unlink()
    peak = _staged_peak(2, write_c_locals)
    assert peak <= 2 * 1.5 * cli._PANEL_BYTES, peak / cli._PANEL_BYTES
    assert path.read_bytes()[-len(payload):] == payload

    fortran = np.asfortranarray(data)
    path.unlink()
    peak = _staged_peak(1, lambda comm: write_matrix(path, fortran))
    assert peak < 1 << 20, peak
    assert path.read_bytes()[-len(payload):] == payload


def _panel_cases():
    """(name, array, dtype code, layout of a rank's block) for the panel tests."""
    gen = rng(13)
    cases = []
    for code, dtype in enumerate((np.float32, np.float64, np.int64)):
        def draw(*shape):
            return (gen.standard_normal(shape) * 1e3).astype(dtype)

        cases += [
            ("c-order", draw(5, 7), code, np.ascontiguousarray),
            ("f-order", np.asfortranarray(draw(5, 7)), code, np.asfortranarray),
            ("strided", draw(5, 14)[:, ::2], code, lambda b: b),
            ("1-d", draw(11), code, np.ascontiguousarray),
            ("1-d-strided", draw(22)[::2], code, lambda b: b),
            ("3-d", draw(2, 3, 5), code, np.ascontiguousarray),
            ("zero-rows", draw(0, 4), code, np.ascontiguousarray),
            ("zero-columns", draw(3, 0), code, np.ascontiguousarray),
        ]
    return cases


@pytest.mark.parametrize("panel", [0.5, 1.0, 2.5], ids=["half", "one", "two-and-a-half"])
@pytest.mark.parametrize("world,p", [("inproc", 1), ("inproc", 2), ("inproc", 3), ("tcp", 2)])
def test_matrix_panels_at_their_boundaries(tmp_path, monkeypatch, world, p, panel):
    cases = _panel_cases()

    def fn(comm):
        for i, (name, x, code, layout) in enumerate(cases):
            path = tmp_path / f"{i}.dsta"
            column = math.prod(x.shape[:-1]) * x.itemsize
            if comm.rank == 0:  # set before any rank passes the barrier
                monkeypatch.setattr(cli, "_PANEL_BYTES", int(panel * column))
            comm.barrier()
            part = partition_of(x.shape[-1], comm.size)
            local = layout(x[..., part.lo(comm.rank):part.hi(comm.rank)])
            write_matrix(path, DistArray(comm, x.shape, x.dtype, local=local))
            back = gather_full(read_matrix(path, comm))
            want = _dsta(code, *x.shape) + np.asfortranarray(x).tobytes(order="F")
            assert path.read_bytes() == want, (name, x.dtype)
            assert back.tobytes(order="F") == np.asfortranarray(x).tobytes(order="F")
        return comm.rank

    run = run_inproc if world == "inproc" else run_socket
    assert run(p, fn) == list(range(p))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_matrix_cut_inside_the_second_panel_raises_on_every_rank(
        tmp_path, monkeypatch, world_runner, p):
    data = np.arange(48.0).reshape(4, 12)  # 32-byte columns
    monkeypatch.setattr(cli, "_PANEL_BYTES", 64)  # two columns a panel
    path = tmp_path / "x.dsta"
    write_matrix(path, data)
    cut = os.path.getsize(path) - data.nbytes + 64 + 16

    def fn(comm):
        if comm.rank == 0:  # cut between rank 0's checks and the block reads
            broadcast = comm.broadcast

            def truncate_then_broadcast(buf, root=0):
                os.truncate(path, cut)
                broadcast(buf, root)

            comm.broadcast = truncate_then_broadcast
        with pytest.raises(FormatError) as err:
            read_matrix(path, comm)
        return str(err.value)

    messages = world_runner(p, fn)
    if p == 1:  # the block's shortfall, as a single read of it would report
        assert messages == [f"payload ends {data.nbytes - 80} bytes early"]


# -- commands -------------------------------------------------------------------


def test_gen_then_nmf_descending_trace(tmp_path):
    data_path = str(tmp_path / "X.dsta")
    trace_path = tmp_path / "trace.csv"
    assert run(["gen", "--rows", "8", "--cols", "8", "--seed", "1",
                "--out", data_path]) == 0
    assert run(["nmf", "--input", data_path, "--rank", "2", "--iters", "50",
                "--seed", "2", "--trace", str(trace_path),
                "--backend", "inproc:2"]) == 0
    rows = _read_trace(trace_path)
    assert len(rows) == 50
    objectives = [r[1] for r in rows]
    assert np.all(np.diff(objectives) <= 1e-10)


def test_cli_determinism_same_seed(tmp_path):
    out1, out2 = str(tmp_path / "a.dsta"), str(tmp_path / "b.dsta")
    for out in (out1, out2):
        assert run(["gen", "--rows", "5", "--cols", "3", "--seed", "9",
                    "--out", out, "--backend", "inproc:2"]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_cox_lambda_dominant_zero_beta(tmp_path):
    data_path = str(tmp_path / "X.dsta")
    beta_path = tmp_path / "beta.dsta"
    assert run(["gen", "--rows", "10", "--cols", "4", "--seed", "3",
                "--dist", "standard_normal", "--out", data_path]) == 0
    assert run(["cox", "--input", data_path, "--lambda", "1e9", "--iters", "5",
                "--seed", "4", "--out", str(beta_path),
                "--backend", "inproc:2"]) == 0

    def fn(comm):
        return gather_full(read_matrix(beta_path, comm))

    np.testing.assert_array_equal(run_inproc(1, fn)[0], np.zeros(4))


def test_cox_monitor_stops_once_the_objective_stalls(tmp_path):
    # lambda 0.5 keeps beta at 0, so the objective repeats from the first
    # entry and the default window of 10 fires on entry 11
    data_path, trace_path = str(tmp_path / "X.dsta"), tmp_path / "t.csv"
    assert run(["gen", "--rows", "200", "--cols", "5", "--seed", "3",
                "--dist", "standard_normal", "--out", data_path]) == 0
    assert run(["cox", "--input", data_path, "--lambda", "0.5", "--iters", "3000",
                "--monitor", "--trace", str(trace_path), "--backend", "inproc:2"]) == 0
    rows = _read_trace(trace_path)
    assert 0 < len(rows) <= 11
    assert len({obj for _, obj, _ in rows}) == 1


def test_cox_with_survival_files(tmp_path):
    gen = rng(31)
    m, n = 12, 3
    x = gen.standard_normal((m, n))
    y = np.sort(gen.random(m))[::-1].copy()
    delta = (gen.random(m) > 0.3).astype(np.float64)
    x_path, y_path, d_path = (str(tmp_path / s) for s in ("X.dsta", "y.dsta", "d.dsta"))
    write_matrix(x_path, x)
    write_matrix(y_path, y)
    write_matrix(d_path, delta)
    beta_path = tmp_path / "beta.dsta"
    assert run(["cox", "--input", x_path, "--time", y_path, "--events", d_path,
                "--lambda", "0.01", "--iters", "30", "--out", str(beta_path),
                "--backend", "inproc:2"]) == 0

    def fn(comm):
        return gather_full(read_matrix(beta_path, comm))

    beta = run_inproc(1, fn)[0]
    assert beta.shape == (n,) and np.isfinite(beta).all()


def test_mds_stress_trace(tmp_path):
    data_path = str(tmp_path / "X.dsta")
    trace_path = tmp_path / "mds.csv"
    assert run(["gen", "--rows", "3", "--cols", "9", "--seed", "5",
                "--out", data_path]) == 0
    assert run(["mds", "--input", data_path, "--embed-dim", "2", "--iters", "40",
                "--seed", "6", "--trace", str(trace_path),
                "--backend", "inproc:3"]) == 0
    objectives = [r[1] for r in _read_trace(trace_path)]
    assert np.all(np.diff(objectives) <= 1e-10)


def test_mds_collapsing_points_exit_1_unless_perturbed(tmp_path):
    # nine identical points: the embedding collapses onto its centroid
    path = str(tmp_path / "ones.dsta")
    write_matrix(path, np.ones((3, 9)))
    argv = ["mds", "--input", path, "--embed-dim", "2", "--iters", "100", "--backend", "inproc:2"]
    assert run(argv) == 1
    assert run(argv + ["--perturb"]) == 0


def test_cox_nonfinite_data_exit_1(tmp_path):
    path = str(tmp_path / "nan.dsta")
    write_matrix(path, np.full((6, 3), np.nan))
    assert run(["cox", "--input", path, "--lambda", "0.1", "--sigma", "0.1",
                "--backend", "inproc:2"]) == 1


def test_cox_nonfinite_data_without_sigma_exit_1(tmp_path, capsys):
    # the default step size runs opnorm(X, "l2_power") first
    path = str(tmp_path / "nan.dsta")
    write_matrix(path, np.full((6, 3), np.nan))
    assert run(["cox", "--input", path, "--lambda", "0.1", "--backend", "inproc:2"]) == 1
    assert "nonfinite" in capsys.readouterr().err


@pytest.mark.parametrize("flags,match", [
    (["--lambda", "-1"], "lambda"),
    (["--lambda", "inf"], "lambda"),
    (["--lambda", "0.1", "--sigma", "nan"], "step size"),
], ids=["negative-lambda", "infinite-lambda", "nan-sigma"])
def test_cox_bad_lambda_or_sigma_exit_1(tmp_path, capsys, flags, match):
    path = str(tmp_path / "X.dsta")
    write_matrix(path, rng(42).standard_normal((40, 5)))
    assert run(["cox", "--input", path, "--iters", "30", "--backend", "inproc:2"] + flags) == 1
    assert match in capsys.readouterr().err


def test_cox_all_zero_data_without_sigma_exit_1(tmp_path, capsys):
    path = str(tmp_path / "zeros.dsta")
    write_matrix(path, np.zeros((6, 3)))
    assert run(["cox", "--input", path, "--lambda", "0.1", "--backend", "inproc:2"]) == 1
    assert "--sigma" in capsys.readouterr().err


def test_cox_counts_nonzeros_with_more_ranks_than_columns(tmp_path, capsys):
    x_path, beta_path = str(tmp_path / "X.dsta"), str(tmp_path / "beta.dsta")
    write_matrix(x_path, rng(41).standard_normal((40, 3)))
    assert run(["cox", "--input", x_path, "--lambda", "0.02", "--sigma", "0.02",
                "--iters", "60", "--out", beta_path, "--backend", "inproc:5"]) == 0
    nonzeros = int(capsys.readouterr().out.split("nonzeros=")[1])
    beta = run_inproc(1, lambda comm: gather_full(read_matrix(beta_path, comm)))[0]
    assert nonzeros == np.count_nonzero(beta) > 0


def _library_trace(comm, command, paths, monitor):
    x = read_matrix(paths["X"], comm)
    if command in ("multiplicative", "apg"):
        state = nmf_init(x, 2, seed=3)
        (nmf_apg if command == "apg" else nmf_multiplicative)(state, 25)
    elif command == "mds":
        y = empty((x.shape[1], x.shape[1]), comm)
        pairwise_euclidean(y, x, chunk=64)
        state = mds_init(y, 2, seed=3)
        mds_fit(state, 25)
    else:
        times, events = (gather_full(read_matrix(paths[k], comm)).reshape(-1)
                         for k in ("time", "events"))
        state = cox_init(x, times, events, lam=0.02, sigma=0.02)
        cox_fit(state, 3000 if monitor else 40, monitor=ConvergenceMonitor() if monitor else None)
    return state.trace


@pytest.mark.parametrize("command,argv", [
    ("multiplicative", ["nmf", "--rank", "2", "--iters", "25", "--seed", "3"]),
    ("apg", ["nmf", "--rank", "2", "--iters", "25", "--seed", "3", "--algorithm", "apg"]),
    ("mds", ["mds", "--embed-dim", "2", "--iters", "25", "--seed", "3"]),
    ("cox", ["cox", "--lambda", "0.02", "--sigma", "0.02", "--iters", "40"]),
    ("cox-monitor", ["cox", "--lambda", "0.02", "--sigma", "0.02", "--iters", "3000", "--monitor"]),
])
def test_trace_is_one_library_call(tmp_path, command, argv):
    gen = rng(43)
    paths = {k: str(tmp_path / f"{k}.dsta") for k in ("X", "time", "events")}
    if command.startswith("cox"):
        write_matrix(paths["X"], gen.standard_normal((30, 4)))
        write_matrix(paths["time"], np.arange(30, 0, -1.0))
        write_matrix(paths["events"], (gen.random(30) > 0.3).astype(np.float64))
        argv = argv + ["--time", paths["time"], "--events", paths["events"]]
    else:
        write_matrix(paths["X"], gen.random((5, 9)))
    trace_path = tmp_path / "trace.csv"
    assert run(argv + ["--input", paths["X"], "--trace", str(trace_path),
                       "--backend", "inproc:3"]) == 0
    rows = _read_trace(trace_path)
    monitor = command == "cox-monitor"
    want = run_inproc(3, _library_trace, command.split("-")[0], paths, monitor)[0]
    assert [r[0] for r in rows] == list(range(len(want)))
    assert [r[1] for r in rows] == want  # bitwise: one call, as the library makes it
    assert np.all(np.diff([r[2] for r in rows]) >= 0)
    assert 11 < len(rows) < 3000 if monitor else len(rows) in (25, 40)


def _library_result(comm, command, paths):
    """The arrays ``command`` writes with its --out flags, from the library."""
    x = read_matrix(paths["X"], comm)
    if command in ("multiplicative", "apg"):
        state = nmf_init(x, 2, seed=3)
        (nmf_apg if command == "apg" else nmf_multiplicative)(state, 7)
        return [gather_full(state.Vt), gather_full(state.W)]
    if command == "mds":
        y = empty((x.shape[1], x.shape[1]), comm)
        pairwise_euclidean(y, x, chunk=64)
        state = mds_init(y, 2, seed=3)
        mds_fit(state, 7)
        return [gather_full(state.theta)]
    times, events = (gather_full(read_matrix(paths[k], comm)).reshape(-1)
                     for k in ("time", "events"))
    state = cox_init(x, times, events, lam=0.02, sigma=0.02)
    cox_fit(state, 7)
    return [gather_full(state.beta)]


@pytest.mark.parametrize("command,argv,flags", [
    ("multiplicative", ["nmf", "--rank", "2", "--iters", "7", "--seed", "3"],
     ["--out-vt", "--out-w"]),
    ("apg", ["nmf", "--rank", "2", "--iters", "7", "--seed", "3", "--algorithm", "apg"],
     ["--out-vt", "--out-w"]),
    ("mds", ["mds", "--embed-dim", "2", "--iters", "7", "--seed", "3"], ["--out"]),
    ("cox", ["cox", "--lambda", "0.02", "--sigma", "0.02", "--iters", "7"], ["--out"]),
])
def test_out_files_hold_the_library_result(tmp_path, command, argv, flags):
    gen = rng(44)
    paths = {k: str(tmp_path / f"{k}.dsta") for k in ("X", "time", "events")}
    if command == "cox":
        write_matrix(paths["X"], gen.standard_normal((30, 4)))
        write_matrix(paths["time"], np.arange(30, 0, -1.0))
        write_matrix(paths["events"], (gen.random(30) > 0.3).astype(np.float64))
        argv = argv + ["--time", paths["time"], "--events", paths["events"]]
    else:
        write_matrix(paths["X"], gen.random((5, 9)))
    outs = [str(tmp_path / f"out{i}.dsta") for i in range(len(flags))]
    for flag, out in zip(flags, outs):
        argv = argv + [flag, out]
    assert run(argv + ["--input", paths["X"], "--backend", "inproc:3"]) == 0
    want = run_inproc(3, _library_result, command, paths)[0]
    got = [run_inproc(2, lambda comm, o=out: gather_full(read_matrix(o, comm)))[0] for out in outs]
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes(order="F") == w.tobytes(order="F")  # bitwise


def test_contract_violation_exit_3(monkeypatch, capsys):
    def mismatched(comm, args):  # the ranks' allreduce lengths disagree
        comm.allreduce(np.zeros(1 + comm.rank))
        return 0

    monkeypatch.setitem(_COMMANDS, "gen", mismatched)
    assert run(["gen", "--rows", "2", "--cols", "2", "--out", "unused.dsta",
                "--backend", "inproc:2"]) == 3
    assert "collective contract violation" in capsys.readouterr().err


def test_bench_matmul_reports_tiny_deviation(capsys):
    assert run(["bench", "--op", "matmul", "--scenario", "b", "--rows", "6",
                "--inner", "5", "--cols", "4", "--seed", "7",
                "--backend", "inproc:2"]) == 0
    out = capsys.readouterr().out
    dev = float(out.split("deviation")[1].split("(")[0])
    assert dev <= 1e-12


def test_bench_scan(capsys):
    assert run(["bench", "--op", "scan", "--rows", "4", "--cols", "6",
                "--axis", "1", "--seed", "8", "--backend", "inproc:2"]) == 0
    dev = float(capsys.readouterr().out.split("deviation")[1].split("(")[0])
    assert dev <= 1e-12


def test_usage_error_exit_2():
    assert run(["nmf"]) == 2          # missing required flags
    assert run(["frobnicate"]) == 2   # unknown command


@pytest.mark.parametrize("argv", [
    ["gen", "--trace", "{tmp}/x.csv"],
    ["bench", "--precision", "f32"],
    ["bench", "--trace", "{tmp}/x.csv"],
    ["mds", "--input", "{tmp}/X.dsta", "--embed-dim", "2", "--iters", "2", "--chunk", "8"],
    ["bench", "--scenario", "z"],
], ids=["gen-trace", "bench-precision", "bench-trace", "mds-chunk", "bench-unknown-scenario"])
def test_a_flag_its_command_does_not_read_is_a_usage_error(tmp_path, argv):
    write_matrix(tmp_path / "X.dsta", rng(45).random((3, 6)))
    if argv[0] == "gen":
        argv = argv + ["--rows", "2", "--cols", "3", "--out", "{tmp}/g.dsta"]
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2


@pytest.mark.parametrize("argv", [
    ["--op", "scan", "--scenario", "b"],
    ["--op", "scan", "--inner", "3"],
    ["--op", "matmul", "--axis", "0"],
], ids=["scan-scenario", "scan-inner", "matmul-axis"])
def test_a_bench_flag_its_op_does_not_read_is_a_usage_error(capsys, argv):
    assert run(["bench", *argv, "--backend", "inproc:2"]) == 2
    assert f"does not read {argv[2]}" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["l", "o", "q"])
def test_bench_cols_on_a_vector_row_is_a_usage_error(capsys, row):
    argv = ["bench", "--op", "matmul", "--scenario", row, "--backend", "inproc:2"]
    assert run(argv + ["--cols", "7"]) == 2
    assert "does not read --cols" in capsys.readouterr().err
    assert run(argv) == 0


@pytest.mark.parametrize("flag", ["--time", "--events"])
def test_cox_time_and_events_go_together(tmp_path, capsys, flag):
    write_matrix(tmp_path / "X.dsta", rng(46).random((6, 4)))
    argv = ["cox", "--input", str(tmp_path / "X.dsta"), "--lambda", "1e-3", "--iters", "2",
            flag, str(tmp_path / "absent.dsta")]  # refused before any file is read
    assert run(argv) == 2
    assert "--time and --events go together" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["nmf", "--rank", "2"], ["mds", "--embed-dim", "2"],
                                   ["cox", "--lambda", "1e-3"]], ids=["nmf", "mds", "cox"])
def test_negative_iters_is_a_usage_error(tmp_path, capsys, flags):
    argv = [*flags, "--input", str(tmp_path / "absent.dsta"), "--iters", "-5"]
    assert run(argv) == 2  # refused before any file is read
    assert "--iters must be at least 0, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cox", "--input", "absent.dsta", "--lambda", "1e-3", "--iters", "-5"],
    ["bench", "--op", "scan", "--scenario", "b"],
], ids=["cox-iters", "bench-scenario"])
def test_a_usage_error_prints_its_commands_usage(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"usage: blockstat {argv[0]} " in err
    assert f"blockstat {argv[0]}: error: --" in err  # the message does not repeat the command


def test_cox_reads_seed_only_for_synthetic_survival_data(tmp_path, capsys):
    gen = rng(47)
    paths = {k: str(tmp_path / f"{k}.dsta") for k in ("X", "time", "events")}
    write_matrix(paths["X"], gen.standard_normal((12, 3)))
    write_matrix(paths["time"], np.arange(12, 0, -1.0))
    write_matrix(paths["events"], (gen.random(12) > 0.3).astype(np.float64))
    argv = ["cox", "--input", paths["X"], "--lambda", "1e-3", "--iters", "3",
            "--backend", "inproc:2"]
    files = ["--time", paths["time"], "--events", paths["events"]]
    assert run(argv + files + ["--seed", "3"]) == 2
    assert "does not read --seed" in capsys.readouterr().err
    assert run(argv + files) == 0
    summaries = []
    for seed in ("3", "4"):  # the seed draws the synthetic event indicators
        assert run(argv + ["--seed", seed]) == 0
        summaries.append(capsys.readouterr().out)
    assert summaries[0] != summaries[1]


def test_missing_input_exit_1(tmp_path):
    assert run(["nmf", "--input", str(tmp_path / "nope.dsta"), "--rank", "2"]) == 1


def test_nmf_rank_zero_exit_1(tmp_path):
    path = str(tmp_path / "X.dsta")
    assert run(["gen", "--rows", "4", "--cols", "5", "--seed", "1", "--out", path]) == 0
    assert run(["nmf", "--input", path, "--rank", "0", "--backend", "inproc:2"]) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_nmf_nonfinite_data_exit_1(tmp_path, capsys, value):
    data = np.ones((6, 5))
    data[2, 1] = value
    path = str(tmp_path / "X.dsta")
    write_matrix(path, data)
    assert run(["nmf", "--input", path, "--rank", "3", "--backend", "inproc:2"]) == 1
    assert "finite" in capsys.readouterr().err


def test_dtype_mismatch_exit_1(tmp_path):
    path = str(tmp_path / "x32.dsta")
    assert run(["gen", "--rows", "4", "--cols", "4", "--seed", "1",
                "--precision", "f32", "--out", path]) == 0
    assert run(["nmf", "--input", path, "--rank", "2", "--precision", "f64"]) == 1


@pytest.mark.parametrize("command", [["nmf", "--rank", "2"], ["mds", "--embed-dim", "2"]],
                         ids=["nmf", "mds"])
def test_zero_iters_exit_0(tmp_path, command):
    path = str(tmp_path / "X.dsta")
    assert run(["gen", "--rows", "4", "--cols", "5", "--seed", "1", "--out", path]) == 0
    assert run(command + ["--input", path, "--iters", "0", "--backend", "inproc:2"]) == 0


@pytest.mark.parametrize("header", [
    b"DSTA" + struct.pack("<B", 1),                                      # no ndim
    b"DSTA" + struct.pack("<B", 1) + struct.pack("<QQ", 2, 3),           # one of two extents
    b"DSTA" + struct.pack("<B", 1) + struct.pack("<Q", 2 ** 59),         # ndim past numpy's 64
], ids=["no-ndim", "short-extents", "huge-ndim"])
def test_malformed_header_exit_1(tmp_path, header):
    path = tmp_path / "bad.dsta"
    path.write_bytes(header)
    assert run(["nmf", "--input", str(path), "--rank", "2"]) == 1


def test_env_var_overrides_backend_flag(tmp_path, monkeypatch):
    out = str(tmp_path / "env.dsta")
    monkeypatch.setenv("DISTSTAT_BACKEND", "inproc:3")
    # the flag below is bogus; the env var must win for this to succeed
    assert run(["gen", "--rows", "4", "--cols", "4", "--seed", "1",
                "--out", out, "--backend", "tcp:nowhere"]) == 0
    assert os.path.exists(out)


def test_env_var_wins_over_a_good_backend_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISTSTAT_BACKEND", "bogus")
    assert run(["gen", "--rows", "4", "--cols", "4", "--out", str(tmp_path / "g.dsta"),
                "--backend", "inproc:1"]) == 1
    assert "'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "g.dsta").exists()


def test_two_process_socket_run_matches_inproc(tmp_path):
    data_path = str(tmp_path / "X.dsta")
    assert run(["gen", "--rows", "6", "--cols", "6", "--seed", "11",
                "--out", data_path]) == 0
    ref_trace = tmp_path / "ref.csv"
    assert run(["nmf", "--input", data_path, "--rank", "2", "--iters", "10",
                "--seed", "12", "--trace", str(ref_trace),
                "--backend", "inproc:2"]) == 0

    port = free_port()
    hosts = f"127.0.0.1:{port},127.0.0.1:{port}"
    sock_trace = tmp_path / "sock.csv"
    procs = []
    for rank in range(2):
        argv = [sys.executable, "-m", "blockstat.cli", "nmf", "--input", data_path,
                "--rank", "2", "--iters", "10", "--seed", "12",
                "--backend", f"tcp:{hosts},rank={rank}"]
        if rank == 0:
            argv += ["--trace", str(sock_trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        procs.append(subprocess.Popen(argv, env=env))
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    ref = [r[1] for r in _read_trace(ref_trace)]
    sock = [r[1] for r in _read_trace(sock_trace)]
    np.testing.assert_array_equal(sock, ref)

"""Spans around blockstat's public calls, recorded from outside the program.

:class:`Tracer` replaces the public functions of each layer in every
blockstat module that calls them (so calls that ``solvers``
resolves at run time, such as ``matmul`` or ``pi_delta``, are caught) and
wraps the collective methods of each communicator instance it is handed.
Each call becomes a span ``[name, parent, start, end, work]`` in a list per
rank, kept in memory until the run ends.  ``work`` is a computed size: bytes
of the result buffer for collectives, ``2pqr`` flops for ``matmul`` and bytes
of the local blocks touched for ``map_broadcast``.

:func:`layer_metrics` turns the spans of all ranks into per-layer numbers.
A span's self time is its duration minus its direct children's durations,
so the self times of one iteration sum to that iteration's wall time.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from blockstat import cli, distarray, distlinalg, solvers
from blockstat.distarray import DistArray, TransposedView

ITER_LAYERS = ("comm", "distarray", "distlinalg", "solvers")  # cli is only called in set-up
COLLECTIVES = ("broadcast", "allreduce", "allgatherv", "scatterv", "barrier")
WRAPPED = {
    distarray: ("map_broadcast", "reduce_all", "reduce_into", "distribute",
                "gather_full", "rand_fill"),
    distlinalg: ("matmul", "diag_fill", "diag_get", "opnorm", "pairwise_euclidean"),
    solvers: ("nmf_objective", "pi_delta", "nmf_init", "mds_init", "cox_init"),
    cli: ("read_matrix",),
}
_NAMESPACES = (distarray, distlinalg, solvers, cli)  # the modules that call them
_ROW_OF = {kinds: row for row, kinds in distlinalg.SCENARIOS.items()}


def _kind(x):
    if isinstance(x, DistArray):
        return "dist" if x.ndim == 2 else "dvec"
    if isinstance(x, TransposedView):
        return "tdist"
    return "repl" if np.ndim(x) == 2 else "rvec"


def _shape(x):
    return x.shape if isinstance(x, (DistArray, TransposedView)) else np.shape(x)


def matmul_row(c, a, b):
    """Scenario row of ``matmul(c, a, b)`` and its ``2pqr`` flop count."""
    kinds = (_kind(a), _kind(b), _kind(c))
    row = _ROW_OF.get(kinds)
    if row is None:  # a 1 x n row seen through its transpose is a column vector
        vec = lambda k: "dvec" if k == "tdist" else k  # noqa: E731
        row = _ROW_OF.get((kinds[0], vec(kinds[1]), vec(kinds[2])), "?")
    p, q = _shape(a)
    bshape = _shape(b)
    r = bshape[1] if len(bshape) == 2 and bshape[0] == q else 1
    return row, 2.0 * p * q * r


def _collective_bytes(op, args):
    """Bytes of the buffer a collective fills on this rank."""
    if op == "allgatherv" or op == "scatterv":
        return np.asarray(args[1]).nbytes
    if op == "barrier":
        return 0
    return np.asarray(args[0]).nbytes


def _matmul_work(c, a, b, tmp=None):
    row, flops = matmul_row(c, a, b)
    return f"distlinalg.matmul.{row}", flops


def _map_broadcast_work(dest, fn, *args, **_):
    touched = dest.local.nbytes + sum(a.local.nbytes for a in args if isinstance(a, DistArray))
    return "distarray.map_broadcast", touched


# Span label and computed size for calls whose label or size depends on the arguments.
_WORK = {"matmul": _matmul_work, "map_broadcast": _map_broadcast_work}


class Tracer:
    """Span recorder; install() wraps blockstat, uninstall() restores it."""

    def __init__(self):
        self.spans = {}  # rank -> list of [name, parent, start, end, work]
        self._local = threading.local()
        self._saved = []

    # -- recording ----------------------------------------------------------

    def bind(self, rank):
        """Record this thread's spans as ``rank``'s."""
        self._local.spans = self.spans.setdefault(rank, [])
        self._local.stack = [-1]

    def open(self, name, work=0.0, start=None):
        spans, stack = self._local.spans, self._local.stack
        spans.append([name, stack[-1], time.perf_counter() if start is None else start,
                      0.0, work])
        stack.append(len(spans) - 1)

    def close(self, end=None):
        idx = self._local.stack.pop()
        self._local.spans[idx][3] = time.perf_counter() if end is None else end

    def _active(self):
        return getattr(self._local, "stack", None) is not None

    def _wrap(self, name, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            label, amount = name, 0.0
            if work is not None:
                label, amount = work(*args, **kwargs)
            tracer.open(label, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPPED wherever a blockstat module holds it."""
        for module, names in WRAPPED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, _WORK.get(fname))
                for ns in _NAMESPACES:
                    if getattr(ns, fname, None) is original:
                        self._saved.append((ns, fname, original))
                        setattr(ns, fname, wrapped)

    def uninstall(self):
        for ns, fname, original in reversed(self._saved):
            setattr(ns, fname, original)
        self._saved.clear()

    def attach(self, communicator):
        """Bind this thread to the communicator's rank and wrap its collectives."""
        self.bind(communicator.rank)
        for op in COLLECTIVES:
            method = getattr(communicator, op)
            work = lambda *a, op=op, **k: (f"comm.{op}", _collective_bytes(op, a))  # noqa: E731
            setattr(communicator, op, self._wrap(f"comm.{op}", method, work))


# -- analysis -----------------------------------------------------------------


class SpanTable:
    """Column view of one rank's spans, with roots and self times resolved."""

    def __init__(self, spans):
        self.names = np.array([s[0] for s in spans], dtype=str)
        self.parent = np.array([s[1] for s in spans], dtype=np.int64)
        self.dur = np.array([s[3] - s[2] for s in spans], dtype=np.float64)
        self.work = np.array([s[4] for s in spans], dtype=np.float64)
        self.root = roots(self.parent)
        self.selfs = self_times(self.parent, self.dur)
        top = self.parent < 0
        self.iter_roots = np.flatnonzero(top & (self.names == "iter"))
        setups = np.flatnonzero(top & (self.names == "setup"))
        self.in_iter = self.names[self.root] == "iter"
        self.in_setup = (self.root == setups[-1]) if len(setups) else np.zeros_like(top)

    def named(self, *names):
        return np.isin(self.names, names)

    def prefixed(self, prefix):
        return np.char.startswith(self.names, prefix)

    def outermost(self, *names):
        """Spans named in ``names`` that no other such span encloses."""
        inside = self.named(*names)
        keep = inside.copy()
        for i in np.flatnonzero(inside):
            q = self.parent[i]
            while q >= 0:
                if inside[q]:
                    keep[i] = False
                    break
                q = self.parent[q]
        return keep


def self_times(parent, dur):
    """Each span's duration minus its direct children's durations."""
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def roots(parent):
    """Index of each span's root (parents always precede their children)."""
    out = np.arange(len(parent))
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = out[p]
    return out


def wait_seconds(tables):
    """Mean over ranks of the time each spent in iteration collectives beyond
    the fastest rank's time for the same call index."""
    per_rank = [t.dur[t.in_iter & t.prefixed("comm.")] for t in tables]
    if len(per_rank) < 2:
        return 0.0
    calls = min(len(d) for d in per_rank)
    times = np.array([d[:calls] for d in per_rank])
    return float((times - times.min(axis=0)).sum(axis=1).mean())


PER_ITER_OPS = ("allreduce", "allgatherv")
ITER_ROWS = ("a", "b", "d", "f", "j", "m", "p")


def layer_metrics(spans_by_rank):
    """Per-layer metrics of a traced run, seen from rank 0.

    Returns ``{name: (value, unit, samples)}``: per-iteration figures are
    means over the run's iterations, set-up figures come from its last set-up.
    """
    tables = [SpanTable(spans_by_rank[r]) for r in sorted(spans_by_rank)]
    t = tables[0]
    n_iter = len(t.iter_roots)
    if n_iter == 0 or not t.in_setup.any():
        raise ValueError("traced run recorded no iterations or no set-up")
    iter_s = float(t.dur[t.iter_roots].sum())
    it, st = t.in_iter, t.in_setup
    out = {}

    def add(name, value, unit, samples=n_iter):
        out[name] = (float(value), unit, samples)

    def per_iter(mask, values):
        return float(values[mask].sum()) / n_iter

    def rate(mask, scale):
        return float(t.work[mask].sum()) / max(float(t.dur[mask].sum()), 1e-12) / scale

    for op in PER_ITER_OPS:
        m = it & t.named(f"comm.{op}")
        add(f"comm.{op}.calls_per_iter", m.sum() / n_iter, "count")
        add(f"comm.{op}.bytes_per_iter", per_iter(m, t.work), "B")
        add(f"comm.{op}.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")
    m = st & t.prefixed("comm.")
    add("comm.setup.calls", m.sum(), "count", 1)
    add("comm.setup.bytes", t.work[m].sum(), "B", 1)
    add("comm.setup.ms", 1e3 * t.dur[m].sum(), "ms", 1)
    add("comm.share", t.dur[it & t.prefixed("comm.")].sum() / iter_s, "fraction")
    add("comm.wait_ms_per_iter", 1e3 * wait_seconds(tables) / n_iter, "ms")

    for row in ITER_ROWS:
        m = it & t.named(f"distlinalg.matmul.{row}")
        add(f"distlinalg.matmul.{row}.calls_per_iter", m.sum() / n_iter, "count")
        add(f"distlinalg.matmul.{row}.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")
    m = it & t.prefixed("distlinalg.matmul.")
    add("distlinalg.matmul.calls_per_iter", m.sum() / n_iter, "count")
    add("distlinalg.matmul.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")
    add("distlinalg.matmul.gflops", rate(m, 1e9), "GFLOP/s")
    m = it & t.outermost("distlinalg.diag_fill", "distlinalg.diag_get")
    add("distlinalg.diag.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")

    m = it & t.named("distarray.map_broadcast")
    add("distarray.map_broadcast.calls_per_iter", m.sum() / n_iter, "count")
    add("distarray.map_broadcast.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")
    add("distarray.map_broadcast.mb_per_iter", per_iter(m, t.work) / 1e6, "MB")
    add("distarray.map_broadcast.gbps", rate(m, 1e9), "GB/s")
    m = it & t.outermost("distarray.reduce_all", "distarray.reduce_into")
    add("distarray.reduce.ms_per_iter", 1e3 * per_iter(m, t.dur), "ms")

    for fname in ("nmf_objective", "pi_delta"):
        add(f"solvers.{fname}.ms_per_iter", 1e3 * per_iter(it & t.named(f"solvers.{fname}"), t.dur),
            "ms")
    add("solvers.self_ms_per_iter", 1e3 * t.selfs[t.iter_roots].sum() / n_iter, "ms")

    for name, group in (("cli.read_matrix_s", ("cli.read_matrix",)),
                        ("distarray.distribute_s", ("distarray.distribute",)),
                        ("distlinalg.pairwise_euclidean_s", ("distlinalg.pairwise_euclidean",)),
                        ("distlinalg.opnorm_s", ("distlinalg.opnorm",)),
                        ("solvers.init_s", ("solvers.nmf_init", "solvers.mds_init",
                                            "solvers.cox_init"))):
        add(name, t.dur[st & t.outermost(*group)].sum(), "s", 1)

    # Self time by layer; the iteration root itself belongs to solvers.
    layer = np.where(t.names == "iter", "solvers", np.char.partition(t.names, ".")[:, 0])
    accounted = 0.0
    for name in ITER_LAYERS:
        value = per_iter(it & (layer == name), t.selfs)
        accounted += value
        add(f"self.{name}.ms_per_iter", 1e3 * value, "ms")
    add("trace.accounted_frac", accounted * n_iter / iter_s, "fraction")
    add("trace.iter_ms_mean", 1e3 * iter_s / n_iter, "ms")
    return out

"""The benchmark's workloads: seeded inputs and each rank's solver set-up.

Inputs are generated by the benchmark, never by the program under test, and
reach the program only as ``.dsta`` files written with the public
``blockstat.cli.write_matrix``.  Every rank then reads them back with the
public ``read_matrix`` and builds its solver state.  Calls into blockstat go
through module attributes (``cli.read_matrix``, ``solvers.nmf_init``, ...)
so that the tracer in ``tracer.py`` sees them when it has wrapped them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from blockstat import cli, distarray, distlinalg, solvers


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str   # "inproc:2" (rank threads in one process) or "tcp:2" (rank processes)
    solver: str    # "nmf", "apg", "mds" or "cox"
    episode: int   # iterations in one checked solve
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("nmf-compute", "inproc:2", "nmf", 10,
             "NMF multiplicative, X 3000x3000, r=20, inproc:2: local BLAS and the "
             "per-iteration objective dominate"),
    Workload("mds-elementwise", "inproc:2", "mds", 10,
             "MDS of 2000 points in 10 dims, inproc:2: n x n elementwise passes "
             "dominate; set-up is pairwise distances"),
    Workload("cox-tcp-bandwidth", "tcp:2", "cox", 50,
             "L1 Cox, X 100000x16, tcp:2: two m-length allreduces through the hub "
             "per iteration; set-up runs opnorm"),
    Workload("apg-tcp-latency", "tcp:2", "apg", 200,
             "NMF APG, X 64x64, r=4, tcp:2: small collectives and matmul dispatch "
             "dominate a sub-millisecond iteration"),
)}


def _generator(seed, stream):
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _cox_inputs(gen, m, n):
    """Covariates, observed times and events for a proportional-hazards model.

    Times are exponential with rate ``exp(X beta_true)`` for a half-sparse
    ``beta_true``; samples are sorted by nonincreasing time, as ``cox_init``
    requires.  About 70 % of samples are events.
    """
    x = gen.standard_normal((m, n))
    beta_true = np.zeros(n)
    beta_true[: n // 2] = np.linspace(0.5, 0.05, n // 2) * np.resize([1.0, -1.0], n // 2)
    times = gen.exponential(1.0, m) / np.exp(x @ beta_true)
    order = np.argsort(-times, kind="stable")
    x, times = np.asfortranarray(x[order]), times[order]
    if np.any(np.diff(times) >= 0):
        raise ValueError("generated survival times are not strictly decreasing")
    events = (gen.random(m) > 0.3).astype(np.float64)
    return x, times, events


def cox_lambda(x, events):
    """Penalty 1/2 * sigma * ||grad l(beta=0)||_inf for distinct, decreasing times.

    ``cox_fit`` thresholds ``beta + sigma * grad`` at lambda itself, so this
    keeps roughly the larger half of the first step's coefficients nonzero.
    With distinct times sorted decreasingly, sample i is at risk for every
    j >= i, so at beta = 0 (all risk weights 1, risk sums W_j = j + 1)
    ``(P delta)_i = sum_{j >= i} delta_j / W_j``.
    """
    sigma = 1.0 / (2.0 * np.linalg.norm(x, 2) ** 2)
    w_sums = np.arange(1, len(events) + 1, dtype=np.float64)
    p_delta = np.cumsum((events / w_sums)[::-1])[::-1]
    grad = x.T @ (events - p_delta)
    return 0.5 * sigma * float(np.max(np.abs(grad)))


def make_inputs(workload, seed, directory):
    """Write the workload's input files for ``seed``; return the solver parameters."""
    gen = _generator(seed, 0)
    init_seed = int(_generator(seed, 1).integers(1 << 30))
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    if workload.solver in ("nmf", "apg"):
        size, rank = (3000, 20) if workload.solver == "nmf" else (64, 4)
        cli.write_matrix(path("X.dsta"), gen.random((size, size)))
        return {"rank": rank, "init_seed": init_seed}
    if workload.solver == "mds":
        cli.write_matrix(path("X.dsta"), gen.standard_normal((10, 2000)))
        return {"dims": 2, "init_seed": init_seed}
    x, times, events = _cox_inputs(gen, 100000, 16)
    cli.write_matrix(path("X.dsta"), x)
    cli.write_matrix(path("time.dsta"), times)
    cli.write_matrix(path("events.dsta"), events)
    return {"lam": cox_lambda(x, events)}


@dataclass
class Problem:
    """One rank's solver state, its one-iteration step, and its start point."""

    state: object
    fit: object
    iterates: list
    start: list

    def step(self):
        self.fit(self.state, 1)

    def reset(self):
        """Return to the initial iterate, so every episode repeats the same solve."""
        for buf, saved in zip(self.iterates, self.start):
            buf[...] = saved
        self.state.trace.clear()


def setup(workload, comm, directory, params):
    """Read the inputs on this rank and initialise the workload's solver."""
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    x = cli.read_matrix(path("X.dsta"), comm, dtype=np.float64)
    if workload.solver in ("nmf", "apg"):
        state = solvers.nmf_init(x, params["rank"], seed=params["init_seed"])
        fit = solvers.nmf_multiplicative if workload.solver == "nmf" else solvers.nmf_apg
        iterates = [state.Vt.local, state.W.local]
    elif workload.solver == "mds":
        n = x.shape[1]
        y = distarray.empty((n, n), comm, x.dtype)
        distlinalg.pairwise_euclidean(y, x)
        state = solvers.mds_init(y, params["dims"], seed=params["init_seed"])
        fit = solvers.mds_fit
        iterates = [state.theta.local]
    else:
        times = distarray.gather_full(cli.read_matrix(path("time.dsta"), comm, np.float64))
        events = distarray.gather_full(cli.read_matrix(path("events.dsta"), comm, np.float64))
        state = solvers.cox_init(x, times, events, lam=params["lam"])
        fit = solvers.cox_fit
        iterates = [state.beta.local]
    return Problem(state, fit, iterates, [buf.copy() for buf in iterates])

"""One benchmark process: set up a workload's solver and time its iterations.

``run.py`` starts this script once for an ``inproc:P`` world (its ranks are
threads inside it) and once per rank of a ``tcp:P`` world::

    python3 perfbench/rank.py --job '<json>' --out proc0.json

The job names the workload, the input directory, the solver parameters, the
backend descriptor, the number of set-ups, the seconds to measure, whether to
trace, and the mode: ``run`` (set-ups then the timed loop) or ``sweep``
(collective latency at two message sizes).  The process writes its ranks'
results, its peak resident memory and, when tracing, its spans to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import threading
import time

import numpy as np

import blockstat
from tracer import Tracer
from workloads import WORKLOADS, setup


@dataclasses.dataclass
class Job:
    workload: object
    inputs: str
    params: dict
    backend: str
    seconds: float
    setups: int
    trace: bool = False
    mode: str = "run"

    @classmethod
    def from_json(cls, text):
        fields = json.loads(text)
        fields["workload"] = WORKLOADS[fields["workload"]]
        return cls(**fields)

    def to_json(self, **changes):
        fields = dict(vars(self), **changes)
        fields["workload"] = fields["workload"].name
        return json.dumps(fields)


def timed_loop(comm, problem, seconds, episode, tracer=None):
    """Closed loop: each one-iteration call starts after the previous returns.

    The loop runs whole episodes of ``episode`` iterations from the same
    start until ``seconds`` have passed; rank 0 decides when to stop and
    broadcasts the decision, so every rank runs the same number of episodes.
    """
    iter_s, episodes = [], []
    flag = np.zeros(1, dtype=np.int64)
    deadline = time.perf_counter() + seconds
    while True:
        problem.reset()
        for _ in range(episode):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.open("iter", start=t0)
            problem.step()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(end=t1)
            iter_s.append(t1 - t0)
        episodes.append(list(problem.state.trace))
        flag[0] = time.perf_counter() < deadline
        comm.broadcast(flag, 0)
        if not flag[0]:
            break
    return {"iter_s": iter_s, "episodes": episodes}


def pin(rank):
    """Bind the calling rank thread to a core of its own, as MPI launchers bind
    ranks, so the scheduler does not move ranks between the host's cores."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(threading.get_native_id(), {cpus[rank % len(cpus)]})


def _rank_run(comm, job, t0, last, tracer):
    pin(comm.rank)
    if tracer is not None:
        tracer.attach(comm)
        tracer.open("setup", start=t0)
    problem = setup(job.workload, comm, job.inputs, job.params)
    ready = time.perf_counter()
    if tracer is not None:
        tracer.close(end=ready)
    result = {"rank": comm.rank, "setup_s": ready - t0}
    if last:
        result.update(timed_loop(comm, problem, job.seconds, job.workload.episode, tracer))
    else:
        comm.barrier()
    return result


def run_job(job, tracer=None):
    """Set up ``job.setups`` times, each in a fresh world, then time the last.

    Returns the local ranks' results; ``setup_s`` becomes a list with one
    entry per set-up, each timed from the call into ``launch``.
    """
    setups = []
    for k in range(job.setups):
        last = k == job.setups - 1
        if k and job.backend.startswith("tcp") and not job.backend.endswith("rank=0"):
            # Rank 0 listens again well within 5 ms; a join that came first
            # would be refused and retried 50 ms later, inflating setup_s.
            time.sleep(0.005)
        t0 = time.perf_counter()
        results = blockstat.launch(job.backend, _rank_run, job, t0, last, tracer)
        setups.append([r["setup_s"] for r in results])
    for i, r in enumerate(results):
        r["setup_s"] = [s[i] for s in setups]
    return results


SWEEP_OPS = ("allreduce", "allgatherv", "broadcast")
SWEEP_SIZES = {"8B": (8, 300), "8MB": (8 << 20, 7)}  # bytes, timed repetitions


def _sweep_call(comm, op, values):
    if op == "allreduce":
        buf = np.ones(values)
        return lambda: comm.allreduce(buf)
    if op == "broadcast":
        buf = np.ones(values)
        return lambda: comm.broadcast(buf, 0)
    counts = [values // comm.size + (r < values % comm.size) for r in range(comm.size)]
    send, recv = np.ones(counts[comm.rank]), np.empty(values)
    return lambda: comm.allgatherv(send, recv, counts)


def sweep(comm):
    """Median microseconds per collective on rank 0, for each op and size.

    The size is that of the result buffer (float64); allgatherv splits it
    evenly over the ranks.  A barrier precedes every timed call, so each
    call starts with all ranks present.
    """
    pin(comm.rank)
    out = {}
    for op in SWEEP_OPS:
        for label, (nbytes, reps) in SWEEP_SIZES.items():
            call = _sweep_call(comm, op, nbytes // 8)
            times = []
            for i in range(reps + 2):
                comm.barrier()
                t0 = time.perf_counter()
                call()
                if i >= 2:  # two warm-up calls
                    times.append(time.perf_counter() - t0)
            out[f"{op}.{label}"] = 1e6 * statistics.median(times)
    return {"rank": comm.rank, "sweep_us": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    job = Job.from_json(args.job)
    tracer = None
    if job.mode == "sweep":
        ranks = blockstat.launch(job.backend, sweep)
    else:
        if job.trace:
            tracer = Tracer()
            tracer.install()
        ranks = run_job(job, tracer)
    report = {
        "ranks": ranks,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": None if tracer is None else {str(r): s for r, s in tracer.spans.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()

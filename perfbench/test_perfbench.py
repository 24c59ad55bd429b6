"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``.

They check that tracing is observation only, that the recorded sizes and
self times add up, and that the inputs depend on the seed alone.
"""

import filecmp
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import blockstat  # noqa: E402
from blockstat import distlinalg, testing  # noqa: E402
from run import end_to_end, episode_problems, result_names  # noqa: E402
from rank import SWEEP_OPS, SWEEP_SIZES, Job, run_job  # noqa: E402
from tracer import ITER_LAYERS, SpanTable, Tracer, layer_metrics, matmul_row  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def inputs(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    directory = str(tmp_path_factory.mktemp(request.param))
    return workload, directory, make_inputs(workload, 7, directory)


def _episode(workload, directory, params, tracer=None):
    job = Job(workload, directory, params, backend="inproc:2", seconds=0.0, setups=1)
    if tracer is not None:
        tracer.install()
    try:
        return run_job(job, tracer)[0]
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.fixture(scope="module")
def traced_pair(inputs):
    workload, directory, params = inputs
    tracer = Tracer()
    traced = _episode(workload, directory, params, tracer)
    plain = _episode(workload, directory, params)
    return plain, traced, tracer


def test_tracing_changes_no_result(traced_pair):
    plain, traced, _ = traced_pair
    assert traced["episodes"] == plain["episodes"]
    assert all(np.isfinite(traced["episodes"][0]))


def test_uninstall_restores_every_function(traced_pair):
    assert blockstat.solvers.matmul is distlinalg.matmul
    assert not hasattr(distlinalg.matmul, "__wrapped__")
    assert not hasattr(blockstat.cli.read_matrix, "__wrapped__")


def test_self_times_sum_to_each_iteration(traced_pair):
    _, traced, tracer = traced_pair
    for spans in tracer.spans.values():
        table = SpanTable(spans)
        assert len(table.iter_roots) == len(traced["iter_s"])
        for root in table.iter_roots:
            inside = table.root == root
            assert table.selfs[inside].sum() == pytest.approx(table.dur[root], rel=1e-9)
            assert table.selfs[inside].min() >= 0.0


def test_layer_metrics_account_for_iteration_time(traced_pair):
    _, _, tracer = traced_pair
    metrics = layer_metrics(tracer.spans)
    assert metrics["trace.accounted_frac"][0] == pytest.approx(1.0, rel=1e-9)
    layers = sum(metrics[f"self.{name}.ms_per_iter"][0]
                 for name in ITER_LAYERS)
    assert layers == pytest.approx(metrics["trace.iter_ms_mean"][0], rel=1e-9)


def test_benchmark_json_names_are_produced(traced_pair):
    plain, _, tracer = traced_pair
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        assert {w["name"] for w in json.load(fh)["workloads"]} <= set(WORKLOADS)
    assert set(result_names(False)) <= set(end_to_end({"lead": plain, "rss_mb": 1.0}))
    produced = set(layer_metrics(tracer.spans))
    produced |= {f"comm.sweep.{op}.{backend}.{size}_us" for op in SWEEP_OPS
                 for backend in ("inproc", "tcp") for size in SWEEP_SIZES}
    produced |= {"trace.overhead_frac", "trace.iter_ms_p50", "solvers.parallel_efficiency"}
    assert set(result_names(True)) <= produced


def test_episode_checks_flag_each_problem():
    good = [3.0, 2.0, 1.0]
    assert episode_problems(good, good, [3.0, 2.0, 1.0 + 1e-12], good) == []
    assert episode_problems([3.0, float("nan")], good, good, None) == [
        "objective trace is empty or nonfinite"]
    flagged = {
        "objective increased": episode_problems([3.0, 2.0, 2.5], [3.0, 2.0, 2.5], [2.5], None),
        "first episode": episode_problems([3.0, 2.0, 0.5], good, [0.5], None),
        "inproc:1": episode_problems(good, good, [1.1], None),
        "bitwise": episode_problems(good, good, good, [3.0, 2.0, 1.0 + 1e-15]),
    }
    for needle, problems in flagged.items():
        assert len(problems) == 1 and needle in problems[0], (needle, problems)


def test_collective_bytes_match_shapes():
    tracer = Tracer()
    shapes = {"broadcast": (3, 5), "allreduce": (7,), "allgatherv": (4, 6), "scatterv": (2, 9)}

    def calls(comm):
        tracer.attach(comm)
        comm.broadcast(np.zeros(shapes["broadcast"]), 0)
        comm.allreduce(np.zeros(shapes["allreduce"], dtype=np.float32))
        counts = [12, 12]
        comm.allgatherv(np.zeros(12, dtype=np.int64), np.zeros(shapes["allgatherv"], np.int64),
                        counts)
        recv = np.zeros(9)
        comm.scatterv(np.zeros(shapes["scatterv"]) if comm.rank == 0 else None, recv, [9, 9])

    blockstat.launch("inproc:2", calls)
    itemsize = {"broadcast": 8, "allreduce": 4, "allgatherv": 8, "scatterv": 8}
    for spans in tracer.spans.values():
        recorded = {name.split(".")[1]: work for name, _, _, _, work in spans}
        for op, shape in shapes.items():
            want = int(np.prod(shape)) * itemsize[op]
            if op == "scatterv":
                want //= 2  # each rank receives its half
            assert recorded[op] == want, op


@pytest.mark.parametrize("row", sorted(distlinalg.SCENARIOS))
def test_matmul_row_matches_scenario_table(row):
    kinds = distlinalg.SCENARIOS[row]
    r = 1 if "dvec" in kinds[1:] or "rvec" in kinds[1:] else 4

    def build(comm):
        a, b = np.ones((6, 5)), np.ones(5) if r == 1 else np.ones((5, r))
        return matmul_row(*testing.scenario_operands(row, a, b, comm))

    assert blockstat.launch("inproc:2", build)[0] == (row, 2.0 * 6 * 5 * r)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_seed_alone(name, tmp_path):
    workload = WORKLOADS[name]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    params = [make_inputs(workload, seed, str(d)) for seed, d in zip((3, 3, 4), dirs)]
    assert params[0] == params[1] != params[2]
    for file in os.listdir(dirs[0]):
        assert filecmp.cmp(dirs[0] / file, dirs[1] / file, shallow=False)
        assert not filecmp.cmp(dirs[0] / file, dirs[2] / file, shallow=False)

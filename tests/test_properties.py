"""Property tests: every matmul scenario against numpy, on generated inputs."""

import numpy as np
import pytest

from blockstat.comm import run_inproc
from blockstat.distlinalg import SCENARIOS, matmul
from blockstat.testing import materialize, scenario_operands, tmp_shape

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _operands(draw, vector):
    """Integer-valued A (p, q) and B (q, r) or (q,), so every sum is exact."""
    p, q, r = (draw(st.integers(0, 6)) for _ in range(3))
    dtype = draw(st.sampled_from(["float32", "float64", "int64"]))

    def ints(shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
                        dtype=dtype).reshape(shape)

    return ints((p, q)), ints((q,) if vector else (q, r)), draw(st.booleans())


def _product(comm, row, a_dense, b_dense, use_tmp):
    c, a, b = scenario_operands(row, a_dense, b_dense, comm)
    shape = tmp_shape(row, a_dense.shape[0], a_dense.shape[1],
                      1 if b_dense.ndim == 1 else b_dense.shape[1])
    tmp = np.zeros(shape, dtype=a_dense.dtype, order="F") if use_tmp and shape is not None else None
    matmul(c, a, b, tmp=tmp)
    # materialize reads a transposed 1 x n row as a vector; restore C's shape
    return materialize(c).reshape(c.shape)


@pytest.mark.parametrize("row", sorted(SCENARIOS))
def test_matmul_bitwise_equal_to_numpy_on_every_rank_count(row):
    vector = "rvec" in SCENARIOS[row] or "dvec" in SCENARIOS[row]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_operands(vector))
    def check(case):
        a_dense, b_dense, use_tmp = case
        want = a_dense @ b_dense
        for ranks in (1, 2, 3, 4):
            for got in run_inproc(ranks, _product, row, a_dense, b_dense, use_tmp):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (ranks, got, want)

    check()

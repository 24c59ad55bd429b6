"""Tour the distributed matrix-multiplication scenario table.

Operands come in five kinds: column-split matrices, their transposes
(row-split), replicated matrices, distributed vectors, and replicated
vectors.  Seventeen (A, B, C) layout combinations are admissible; the
output layout the caller allocates picks the scenario when several fit.

Run with:  python demos/02_matmul_scenarios.py
"""

import numpy as np

from blockstat import SCENARIOS, gather_full, matmul, opnorm, run_inproc, transpose
from blockstat.distarray import empty
from blockstat.testing import materialize, scenario_operands


def tour(comm):
    gen = np.random.Generator(np.random.Philox(7))  # same stream on every rank
    a_dense = gen.random((5, 4))
    b_dense = gen.random((4, 3))
    b_vec = gen.random(4)
    report = []
    for row, kinds in sorted(SCENARIOS.items()):
        vector = kinds[1] in ("dvec", "rvec") or kinds[2] in ("dvec", "rvec")
        rhs = b_vec if vector else b_dense
        c, a, b = scenario_operands(row, a_dense, rhs, comm)
        matmul(c, a, b)
        want = a_dense @ rhs
        err = np.max(np.abs(materialize(c).reshape(want.shape) - want))
        report.append((row, kinds, err))
    return report


def dedicated_example(comm):
    # X (m, n) column-split; the m x m Gram matrix X X^T lands replicated
    # on every rank without ever gathering X itself (scenario d).
    x = empty((6, 4), comm)
    from blockstat import rand_fill

    rand_fill(x, seed=3, common_init=True)
    gram = np.empty((6, 6), order="F")
    matmul(gram, x, transpose(x))
    dense = gather_full(x)
    assert np.allclose(gram, dense @ dense.T)

    # Spectral norm via power iteration on the same distributed operand.
    return opnorm(x, "l2_power"), np.linalg.svd(dense, compute_uv=False)[0]


if __name__ == "__main__":
    for row, kinds, err in run_inproc(3, tour)[0]:
        print(f"scenario {row}: A={kinds[0]:>5}  B={kinds[1]:>5}  C={kinds[2]:>5}"
              f"   max abs err {err:.2e}")
    power, svd = run_inproc(3, dedicated_example)[0]
    print(f"\npower-iteration spectral norm {power:.8f} vs dense SVD {svd:.8f}")

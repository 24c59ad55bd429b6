"""Nonnegative matrix factorization on a distributed matrix.

Both update rules work purely on column-split blocks: the r x m and r x n
factor blocks stay distributed, and only r x r products and an r x m
staging buffer are ever replicated.  Both are monotone; projected gradient
(APG) steps by 1 / (2 ||G||_F) for the r x r Gram matrix G and ends close to
the multiplicative rule.

Run with:  python demos/03_nmf.py
"""

import numpy as np

from blockstat import empty, nmf_apg, nmf_init, nmf_multiplicative, rand_fill, run_inproc


def factorize(comm, algorithm, iters=150):
    x = empty((60, 80), comm)
    rand_fill(x, seed=11, common_init=True)
    state = nmf_init(x, rank=4, seed=12)
    algorithm(state, iters)
    return np.asarray(state.trace)


if __name__ == "__main__":
    for name, algorithm in (("multiplicative", nmf_multiplicative), ("apg", nmf_apg)):
        trace = run_inproc(4, factorize, algorithm)[0]
        drops = np.diff(trace)
        print(f"{name:>15}: objective {trace[0]:9.3f} -> {trace[-1]:9.3f} "
              f"in {len(trace)} iters, monotone={bool((drops <= 1e-10).all())}")
    # identical data and seeds on one rank give the same trajectory
    single = run_inproc(1, factorize, nmf_multiplicative)[0]
    four = run_inproc(4, factorize, nmf_multiplicative)[0]
    print(f"max trace deviation between 1 and 4 ranks: "
          f"{np.max(np.abs(single - four) / np.abs(single)):.2e}")

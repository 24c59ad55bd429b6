"""Utilities for exercising the matmul scenario table from tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .distarray import DistArray, TransposedView, distribute, gather_full
from .distlinalg import SCENARIOS, tmp_shape  # noqa: F401  (tmp_shape is re-exported)


class _VectorView(TransposedView):
    """A distributed vector realized as the transpose of a ``1 x n`` row."""


def _dist(dense, comm):
    return distribute(dense if comm.rank == 0 else None, comm)


def _build(kind, dense, comm, dvec_as_view):
    if kind == "dist":
        return _dist(dense, comm)
    if kind == "tdist":
        return TransposedView(_dist(dense.T, comm))
    if kind in ("repl", "rvec"):
        return dense.copy(order="K")
    if kind == "dvec":
        if dvec_as_view:
            return _VectorView(_dist(dense.reshape(1, -1), comm))
        return _dist(dense, comm)
    raise ValueError(f"unknown operand kind {kind!r}")


def scenario_operands(row, a_dense, b_dense, comm, dvec_as_view=False):
    """Operands ``(c, a, b)`` of the kinds scenario ``row`` requires; ``c`` holds zeros.

    ``a_dense`` is (p, q); ``b_dense`` is (q, r) for matrix rows and (q,)
    for vector rows.  ``dvec_as_view=True`` realizes distributed vectors as
    transposed 1 x n rows instead of 1-D arrays.
    """
    a_kind, b_kind, c_kind = SCENARIOS[row]
    a_dense, b_dense = np.asarray(a_dense), np.asarray(b_dense)
    a = _build(a_kind, a_dense, comm, dvec_as_view)
    b = _build(b_kind, b_dense, comm, dvec_as_view)
    c_dense = np.zeros(a_dense.shape[:1] + b_dense.shape[1:], a_dense.dtype, order="F")
    return _build(c_kind, c_dense, comm, dvec_as_view), a, b


def materialize(x):
    """Dense replicated copy of any operand kind, in the operand's own shape.

    A vector that ``dvec_as_view=True`` realized as a transposed row comes
    back 1-D; any other transposed view, (p, 1) included, keeps its 2-D shape.
    """
    if isinstance(x, _VectorView):
        return gather_full(x.parent)[0]
    if isinstance(x, TransposedView):
        return gather_full(x.parent).T
    if isinstance(x, DistArray):
        return gather_full(x)
    return np.asarray(x)

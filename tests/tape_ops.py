"""Tape ops that only the tests use.

The reference compositions in ``test_fused`` and the primitive checks in
``test_diffcore`` are built from these blocks. The engine itself records a
tape only for its reference loss, out of the ops that stay in
``cddet.diffcore``; these extend that set with the same ``_op`` and
``_accumulate`` conventions: a backward closure per op, gradients
accumulated into each parent that requires one, and every output checked
for non-finite entries. ``DomainError`` is ``log``'s, the one op with a
restricted domain.
"""

import numpy as np

from cddet import diffcore as dc
from cddet.diffcore import Array, Tensor
from cddet.errors import ContractError, DimensionError, EngineError


class DomainError(EngineError):
    """Input outside the mathematical domain of an operation."""


def sub(a: Tensor, b: Tensor) -> Tensor:
    dc._require_same_shape(a, b, "sub")

    def backward(g: Array) -> None:
        dc._accumulate(a, g)
        dc._accumulate(b, -g)

    return dc._op(a.data - b.data, (a, b), backward)


def neg(x: Tensor) -> Tensor:
    def backward(g: Array) -> None:
        dc._accumulate(x, -g)

    return dc._op(-x.data, (x,), backward)


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: Array) -> None:
        dc._accumulate(x, g)

    return dc._op(x.data + c, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("transpose expects a 2-d tensor")

    def backward(g: Array) -> None:
        dc._accumulate(x, g.T)

    return dc._op(np.ascontiguousarray(x.data.T), (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: Array) -> None:
        dc._accumulate(x, g * mask)

    return dc._op(np.maximum(x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    s = dc.np_sigmoid(x.data)

    def backward(g: Array) -> None:
        dc._accumulate(x, g * s * (1.0 - s))

    return dc._op(s, (x,), backward)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise DomainError("log requires strictly positive inputs")
    inv = 1.0 / x.data

    def backward(g: Array) -> None:
        dc._accumulate(x, g * inv)

    return dc._op(np.log(x.data), (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic function."""

    def backward(g: Array) -> None:
        dc._accumulate(x, g * dc.np_sigmoid(x.data))

    return dc._op(np.logaddexp(0.0, x.data), (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where the input lay inside."""
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g: Array) -> None:
        dc._accumulate(x, g * inside)

    return dc._op(np.clip(x.data, lo, hi), (x,), backward)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    if count == 0:
        raise ContractError("mean over an empty axis")

    def backward(g: Array) -> None:
        if axis is None:
            dc._accumulate(x, np.full_like(x.data, g / count))
        else:
            dc._accumulate(x, np.broadcast_to(np.expand_dims(g / count, axis), x.shape).copy())

    return dc._op(np.mean(x.data, axis=axis), (x,), backward)


def tmax(x: Tensor, axis: int | None = None) -> Tensor:
    """Max reduction; the gradient routes to the first (lowest-index) argmax."""
    if axis is None:
        flat_idx = int(np.argmax(x.data))

        def backward(g: Array) -> None:
            gx = np.zeros_like(x.data)
            gx.flat[flat_idx] = g
            dc._accumulate(x, gx)

        return dc._op(np.max(x.data), (x,), backward)

    idx = np.argmax(x.data, axis=axis)

    def backward_axis(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(
            gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis
        )
        dc._accumulate(x, gx)

    return dc._op(np.max(x.data, axis=axis), (x,), backward_axis)


def cosine_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity between matching rows of a[n,f] and b[n,f]."""
    if a.shape != b.shape or a.data.ndim != 2:
        raise DimensionError("cosine_pairs expects two [n,f] tensors")
    na = dc.row_norms(a.data, "left operand")
    nb = dc.row_norms(b.data, "right operand")
    dots = np.einsum("ij,ij->i", a.data, b.data)
    values = dots / (na * nb)

    def backward(g: Array) -> None:
        ga = (b.data / (na * nb)[:, None] - values[:, None] * a.data / (na * na)[:, None])
        gb = (a.data / (na * nb)[:, None] - values[:, None] * b.data / (nb * nb)[:, None])
        dc._accumulate(a, g[:, None] * ga)
        dc._accumulate(b, g[:, None] * gb)

    return dc._op(values, (a, b), backward)


def gather_pairs(x: Tensor, rows, cols) -> Tensor:
    """Pick x[rows[i], cols[i]] into a vector; backward scatter-adds."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if x.data.ndim != 2 or rows.shape != cols.shape or rows.ndim != 1:
        raise DimensionError("gather_pairs expects a matrix and matching index vectors")

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        dc._accumulate(x, gx)

    return dc._op(x.data[rows, cols], (x,), backward)


def take_cols(x: Tensor, cols) -> Tensor:
    cols = np.asarray(cols, dtype=np.intp)
    if x.data.ndim != 2 or cols.ndim != 1:
        raise DimensionError("take_cols expects a matrix and an index vector")
    n = x.shape[0]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (np.arange(n)[:, None], cols[None, :]), g)
        dc._accumulate(x, gx)

    return dc._op(x.data[:, cols], (x,), backward)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError("concat_rows expects matrices with equal column counts")
    split = a.shape[0]

    def backward(g: Array) -> None:
        dc._accumulate(a, g[:split])
        dc._accumulate(b, g[split:])

    return dc._op(np.concatenate([a.data, b.data], axis=0), (a, b), backward)

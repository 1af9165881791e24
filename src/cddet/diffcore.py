"""Reverse-mode automatic differentiation over small dense float64 tensors.

Values are numpy arrays. Each operation records its parent tensors and a
backward closure; ``Tape.trace`` linearises the resulting graph so that a
backward sweep visits every recorded operation exactly once, parents first.
There is no broadcasting beyond the row-wise bias addition in ``affine``,
``affine_relu`` and ``linear``; shapes must match exactly everywhere else,
which keeps the tape auditable.

Every operation checks its output for non-finite entries and raises
``NumericsError``; ``checked`` applies the same check to plain arrays, for
inference that records no tape. Layers are fused where that saves tape
nodes: a hidden layer is one ``affine_relu`` op and a linear classifier
head one ``linear`` op. The loss terms in ``losses`` are single ops built
on ``_op``, with closed-form gradients and log-probabilities from
``np_log_softmax``, so no probability is clamped before a log.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    NumericsError,
)

Array = np.ndarray


def _as_array(values) -> Array:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """Dense float64 value with an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        data = _as_array(values)
        if not np.isfinite(data).all():
            raise NumericsError("tensor holds non-finite entries")
        self.data = data
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Run a full backward sweep from this scalar output."""
        Tape.trace(self).backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)


def constant(values) -> Tensor:
    return Tensor(values)


def _accumulate(t: Tensor, g: Array) -> None:
    """Add ``g`` into ``t.grad``; the first contribution is stored as is.

    Gradients are never updated in place, so a stored array may be shared.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def checked(data: Array) -> Array:
    """Return ``data`` unchanged, or raise if it holds a non-finite entry."""
    if not np.isfinite(data).all():
        raise NumericsError("operation produced non-finite entries")
    return data


def _op(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    checked(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


class Tape:
    """Topologically ordered record of the operations reaching one output.

    ``nodes`` lists every tensor in the graph with parents strictly before
    children; the backward sweep walks it in reverse, so each operation's
    closure fires exactly once.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward(self, root: Tensor) -> None:
        if root.shape != ():
            raise ContractError("backward requires a scalar output")
        root.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# arithmetic


def _require_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _op(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _op(a.data - b.data, (a, b), backward)


def neg(x: Tensor) -> Tensor:
    def backward(g: Array) -> None:
        _accumulate(x, -g)

    return _op(-x.data, (x,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; both shapes must match exactly."""
    _require_same_shape(a, b, "mul")

    def backward(g: Array) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _op(a.data * b.data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: Array) -> None:
        _accumulate(x, g * c)

    return _op(x.data * c, (x,), backward)


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: Array) -> None:
        _accumulate(x, g)

    return _op(x.data + c, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("transpose expects a 2-d tensor")

    def backward(g: Array) -> None:
        _accumulate(x, g.T)

    return _op(np.ascontiguousarray(x.data.T), (x,), backward)


def _check_affine(opname: str, x: Tensor, w: Tensor, b: Tensor, transposed: bool = False) -> None:
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"{opname} expects 2-d x and w")
    d, k = w.shape[::-1] if transposed else w.shape
    if x.shape[1] != d:
        raise DimensionError(f"{opname}: inner dims {x.shape[1]} vs {d}")
    if b.data.ndim != 1 or b.shape[0] != k:
        raise DimensionError(f"{opname}: bias shape {b.shape} does not match k={k}")


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: Array) -> None:
    if x.requires_grad:
        _accumulate(x, g @ w.data.T)
    _accumulate(w, x.data.T @ g)
    _accumulate(b, g.sum(axis=0))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row batch times weight matrix plus per-column bias: x[n,d] @ w[d,k] + b[k]."""
    _check_affine("affine", x, w, b)

    def backward(g: Array) -> None:
        _affine_backward(x, w, b, g)

    return _op(x.data @ w.data + b.data, (x, w, b), backward)


def np_relu(h: Array) -> Array:
    return np.where(h > 0, h, 0.0)


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One hidden layer, relu(x @ w + b), as a single op.

    The pre-activation is checked for finiteness too, so an overflow that
    the relu would hide still raises.
    """
    _check_affine("affine_relu", x, w, b)
    h = checked(x.data @ w.data + b.data)
    mask = h > 0

    def backward(g: Array) -> None:
        _affine_backward(x, w, b, g * mask)

    return _op(np_relu(h), (x, w, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Rows against per-class weight rows: x[n,f] @ w[k,f].T + b[k]."""
    _check_affine("linear", x, w, b, transposed=True)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g @ w.data)
        _accumulate(w, g.T @ x.data)
        _accumulate(b, g.sum(axis=0))

    return _op(x.data @ w.data.T + b.data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: Array) -> None:
        _accumulate(x, g * mask)

    return _op(np_relu(x.data), (x,), backward)


def np_sigmoid(z: Array) -> Array:
    """Numerically stable logistic function on a plain array."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = np_sigmoid(x.data)

    def backward(g: Array) -> None:
        _accumulate(x, g * s * (1.0 - s))

    return _op(s, (x,), backward)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise DomainError("log requires strictly positive inputs")
    inv = 1.0 / x.data

    def backward(g: Array) -> None:
        _accumulate(x, g * inv)

    return _op(np.log(x.data), (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic function."""

    def backward(g: Array) -> None:
        _accumulate(x, g * np_sigmoid(x.data))

    return _op(np.logaddexp(0.0, x.data), (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where the input lay inside."""
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g: Array) -> None:
        _accumulate(x, g * inside)

    return _op(np.clip(x.data, lo, hi), (x,), backward)


def np_softmax(z: Array, axis: int = -1) -> Array:
    """Softmax on a plain array; same arithmetic as the differentiable op."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def np_log_softmax(z: Array, axis: int = -1) -> Array:
    """Log-softmax on a plain array, from max-shifted logits: finite for any
    finite input, with no floor on small probabilities."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    s = np_softmax(x.data, axis=axis)

    def backward(g: Array) -> None:
        inner = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(x, s * (g - inner))

    return _op(s, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    def backward(g: Array) -> None:
        if axis is None:
            _accumulate(x, np.full_like(x.data, g))
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _op(np.sum(x.data, axis=axis), (x,), backward)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    if count == 0:
        raise ContractError("mean over an empty axis")

    def backward(g: Array) -> None:
        if axis is None:
            _accumulate(x, np.full_like(x.data, g / count))
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g / count, axis), x.shape).copy())

    return _op(np.mean(x.data, axis=axis), (x,), backward)


def tmax(x: Tensor, axis: int | None = None) -> Tensor:
    """Max reduction; the gradient routes to the first (lowest-index) argmax."""
    if axis is None:
        flat_idx = int(np.argmax(x.data))

        def backward(g: Array) -> None:
            gx = np.zeros_like(x.data)
            gx.flat[flat_idx] = g
            _accumulate(x, gx)

        return _op(np.max(x.data), (x,), backward)

    idx = np.argmax(x.data, axis=axis)

    def backward_axis(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(
            gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis
        )
        _accumulate(x, gx)

    return _op(np.max(x.data, axis=axis), (x,), backward_axis)


# ---------------------------------------------------------------------------
# similarity


def row_norms(m: Array, what: str) -> Array:
    """Euclidean norm of each row (as ``np.linalg.norm(m, axis=1)`` computes
    it); a zero-norm row has no direction."""
    norms = np.sqrt((m * m).sum(axis=1))
    if np.any(norms == 0.0):
        raise DegenerateInputError(f"zero-norm row in {what}")
    return norms


def np_cosine_matrix(a: Array, b: Array) -> tuple[Array, Array, Array, Array, Array]:
    """All-pairs cosines of rows of a[n,f] and b[k,f] on plain arrays, plus
    the row norms and unit rows of both operands."""
    na = row_norms(a, "left operand")
    nb = row_norms(b, "right operand")
    an = a / na[:, None]
    bn = b / nb[:, None]
    return an @ bn.T, na, nb, an, bn


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between rows of a[n,f] and rows of b[k,f]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError("cosine_matrix expects [n,f] and [k,f]")
    c, na, nb, an, bn = np_cosine_matrix(a.data, b.data)

    def backward(g: Array) -> None:
        ga = (g @ bn - (g * c).sum(axis=1, keepdims=True) * an) / na[:, None]
        gb = (g.T @ an - (g * c).sum(axis=0)[:, None] * bn) / nb[:, None]
        _accumulate(a, ga)
        _accumulate(b, gb)

    return _op(c, (a, b), backward)


def cosine_pairs(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity between matching rows of a[n,f] and b[n,f]."""
    if a.shape != b.shape or a.data.ndim != 2:
        raise DimensionError("cosine_pairs expects two [n,f] tensors")
    na = row_norms(a.data, "left operand")
    nb = row_norms(b.data, "right operand")
    dots = np.einsum("ij,ij->i", a.data, b.data)
    values = dots / (na * nb)

    def backward(g: Array) -> None:
        ga = (b.data / (na * nb)[:, None] - values[:, None] * a.data / (na * na)[:, None])
        gb = (a.data / (na * nb)[:, None] - values[:, None] * b.data / (nb * nb)[:, None])
        _accumulate(a, g[:, None] * ga)
        _accumulate(b, g[:, None] * gb)

    return _op(values, (a, b), backward)


# ---------------------------------------------------------------------------
# indexing and stacking


def gather_pairs(x: Tensor, rows, cols) -> Tensor:
    """Pick x[rows[i], cols[i]] into a vector; backward scatter-adds."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if x.data.ndim != 2 or rows.shape != cols.shape or rows.ndim != 1:
        raise DimensionError("gather_pairs expects a matrix and matching index vectors")

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        _accumulate(x, gx)

    return _op(x.data[rows, cols], (x,), backward)


def take_rows(x: Tensor, rows) -> Tensor:
    """Rows of a matrix by index vector, or by slice; backward scatter-adds."""
    if not isinstance(rows, slice):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise DimensionError("take_rows expects a matrix and an index vector")
    if x.data.ndim != 2:
        raise DimensionError("take_rows expects a matrix and an index vector")

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        if isinstance(rows, slice):
            gx[rows] = g
        else:
            np.add.at(gx, rows, g)
        _accumulate(x, gx)

    return _op(x.data[rows], (x,), backward)


def take_cols(x: Tensor, cols) -> Tensor:
    cols = np.asarray(cols, dtype=np.intp)
    if x.data.ndim != 2 or cols.ndim != 1:
        raise DimensionError("take_cols expects a matrix and an index vector")
    n = x.shape[0]

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (np.arange(n)[:, None], cols[None, :]), g)
        _accumulate(x, gx)

    return _op(x.data[:, cols], (x,), backward)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError("concat_rows expects matrices with equal column counts")
    split = a.shape[0]

    def backward(g: Array) -> None:
        _accumulate(a, g[:split])
        _accumulate(b, g[split:])

    return _op(np.concatenate([a.data, b.data], axis=0), (a, b), backward)


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and central-difference grads.

    Per coordinate the error is |analytic - numeric| / max(1, |numeric|);
    the maximum over all coordinates is returned.
    """
    if step <= 0:
        raise ContractError("grad_check requires a positive step")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.shape != ():
        raise ContractError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    worst = 0.0
    base = x.data.copy()
    for idx in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[idx] = base[idx] + step
        hi = f(Tensor(bumped)).item()
        bumped[idx] = base[idx] - step
        lo = f(Tensor(bumped)).item()
        numeric = (hi - lo) / (2.0 * step)
        err = abs(float(analytic[idx]) - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst

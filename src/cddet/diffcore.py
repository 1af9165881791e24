"""Reverse-mode automatic differentiation over small dense float64 tensors.

Values are numpy arrays. Each operation records its parent tensors and a
backward closure; ``Tape.trace`` linearises the resulting graph so that a
backward sweep visits every recorded operation exactly once, parents first.
There is no broadcasting beyond the row-wise bias addition in ``affine``,
``affine_relu`` and ``linear``; shapes must match exactly everywhere else,
which keeps the tape auditable.

Every operation checks its output for non-finite entries and raises
``NumericsError``; ``checked`` applies the same check to plain arrays and
names what it checked (``layer 0 pre-activation``, ``logits``, ``loss
kd_kl``) in the message. Layers are fused where that saves tape nodes: a
hidden layer is one ``affine_relu`` op and a linear classifier head one
``linear`` op. The loss terms in ``losses`` are single ops built on
``_op``, with closed-form gradients and log-probabilities from
``np_log_softmax``, so no probability is clamped before a log.

Neither training nor inference records a tape: both run on plain arrays
(the ``np_*`` functions, ``checked``, ``row_norms`` and
``np_cosine_backward``, which the tape's ``cosine_matrix`` shares). The
tape is the reference that the tests and ``cddet verify`` hold the step
to, gradient for gradient and bit for bit, so it keeps only the ops that
reference (``losses.total_loss``, whose forward ``losses._forward_joint``
runs one block of rows) and the benchmark's microbenchmarks use; a
constant is a ``Tensor``. The model's parameters are plain arrays: only
the reference wraps them in tape leaves (``losses.tape_leaves``). The ops
that only the tests compose live in ``tests/tape_ops.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericsError,
)

Array = np.ndarray


class Tensor:
    """Dense float64 value with an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
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

    def backward(self) -> None:
        """Run a full backward sweep from this scalar output."""
        Tape.trace(self).backward(self)


def _accumulate(t: Tensor, g: Array) -> None:
    """Add ``g`` into ``t.grad``; the first contribution is stored as is.

    Gradients are never updated in place, so a stored array may be shared.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def checked(data: Array, what: str = "operation") -> Array:
    """Return ``data`` unchanged, or raise naming ``what`` if it holds a
    non-finite entry."""
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericsError(f"{what} produced non-finite entries")
    return data


def _op(data: Array, parents: Sequence[Tensor], backward, what: str = "operation") -> Tensor:
    checked(data, what)
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


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One hidden layer, relu(x @ w + b), as a single op.

    The pre-activation is checked for finiteness too, so an overflow that
    the relu would hide still raises.
    """
    _check_affine("affine_relu", x, w, b)
    h = checked(x.data @ w.data + b.data, "affine_relu pre-activation")
    mask = h > 0

    def backward(g: Array) -> None:
        _affine_backward(x, w, b, g * mask)

    # np.maximum equals np.where(h > 0, h, 0.0) on finite input, at a fraction of the cost
    return _op(np.maximum(h, 0.0), (x, w, b), backward)


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


def np_sigmoid(z: Array) -> Array:
    """Numerically stable logistic function on a plain array."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def np_softmax(z: Array, axis: int = -1) -> Array:
    """Softmax on a plain array; same arithmetic as the differentiable op."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def np_log_softmax(z: Array, axis: int = -1) -> Array:
    """Log-softmax on a plain array, from max-shifted logits: finite for any
    finite input, with no floor on small probabilities."""
    shifted = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


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


# ---------------------------------------------------------------------------
# similarity


def row_norms(m: Array, what: str) -> Array:
    """Euclidean norm of each row (as ``np.linalg.norm(m, axis=1)`` computes
    it); a zero-norm row has no direction."""
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    if np.logical_or.reduce(norms == 0.0):
        raise DegenerateInputError(f"zero-norm row in {what}")
    return norms


def np_cosine_matrix(a: Array, b: Array, na: Array | None = None) -> tuple[Array, Array, Array, Array, Array]:
    """All-pairs cosines of rows of a[n,f] and b[k,f] on plain arrays, plus
    the row norms and unit rows of both operands; ``na`` is ``row_norms(a)``
    when the caller already holds it."""
    if na is None:
        na = row_norms(a, "left operand")
    nb = row_norms(b, "right operand")
    an = a / na[:, None]
    bn = b / nb[:, None]
    return an @ bn.T, na, nb, an, bn


def np_cosine_backward(g: Array, c: Array, na: Array, nb: Array, an: Array, bn: Array):
    """Gradients in both operands of ``np_cosine_matrix``, given the upstream
    gradient ``g`` in the cosines and that function's outputs."""
    gc = g * c
    ga = (g @ bn - np.add.reduce(gc, axis=1, keepdims=True) * an) / na[:, None]
    gb = (g.T @ an - np.add.reduce(gc, axis=0)[:, None] * bn) / nb[:, None]
    return ga, gb


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between rows of a[n,f] and rows of b[k,f]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError("cosine_matrix expects [n,f] and [k,f]")
    c, na, nb, an, bn = np_cosine_matrix(a.data, b.data)

    def backward(g: Array) -> None:
        ga, gb = np_cosine_backward(g, c, na, nb, an, bn)
        _accumulate(a, ga)
        _accumulate(b, gb)

    return _op(c, (a, b), backward)


# ---------------------------------------------------------------------------
# indexing and stacking


def take_rows(x: Tensor, rows: slice) -> Tensor:
    """The rows of a matrix in a slice; backward writes their gradient back."""
    if x.data.ndim != 2:
        raise DimensionError("take_rows expects a matrix")

    def backward(g: Array) -> None:
        gx = np.zeros_like(x.data)
        gx[rows] = g
        _accumulate(x, gx)

    return _op(x.data[rows], (x,), backward)


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

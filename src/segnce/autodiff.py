"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Everything trainable in this package (the two encoders, the imitation policy
head) is built from the handful of primitives here: broadcast arithmetic,
matrix products, rectifier, reductions, a numerically stable log-sum-exp and
an epsilon-stabilized cosine similarity. Graphs are built eagerly by calling
operations on :class:`Tensor` values and differentiated with
:meth:`Tensor.backward`.

Only what must be differentiated is: a ``Tensor`` with ``requires_grad``
false (a lifted constant, an observation or feature matrix fed to a model)
never receives a gradient, and a node none of whose parents requires one
records no parents and no backward closure. A backward closure receives its
output node as an argument and never captures it, so a graph holds no
reference cycle and is freed by reference counting as soon as its root is
released.

A training step allocates as little as it can. A whole MLP call is one
node (:func:`mlp_apply`), not a chain of per-layer products, sums and
rectifiers. A backward pass keeps a leaf's gradient buffer: it marks it
stale, writes the pass's first contribution over it (a weight gradient
straight from its ``matmul``), adds later ones, and zeroes it at the end if
nothing reached it. A parameter's gradient therefore lives in one buffer
from step to step and is never zero-filled only to be added into. Interior
nodes get fresh buffers on every pass.

There is one implementation per primitive. The helpers below lift array
inputs to constant ``Tensor``s and always return a ``Tensor``. Frozen
consumers run the same code inside :func:`no_grad`: no node built in that
scope records parents or a closure, whatever its leaves require, and the
caller reads ``.value``. Only :func:`cosine_similarity` stays a plain numpy
function, as the float reference the batched forms are checked against.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    GraphError,
    NumericalError,
    ShapeMismatchError,
)

COSINE_EPS = 1e-8
_grad_enabled = True


@contextmanager
def no_grad():
    """Scope in which no ``Tensor`` records a graph; the previous state is
    restored on exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def as_array(x) -> np.ndarray:
    """Coerce input to a float64 ndarray."""
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the compute graph: a float64 array plus accumulated gradient.

    Leaf tensors (no parents) are parameters unless built with
    ``requires_grad=False``; interior nodes cache the forward value and, when
    some parent requires a gradient outside :func:`no_grad`, know how to push
    gradients to their parents. ``grad`` is ``None`` until :meth:`backward`
    makes a first contribution; ``_stale`` marks a leaf buffer that holds the
    previous pass's gradient and is overwritten, not added to, next.
    """

    __slots__ = ("value", "grad", "requires_grad", "_stale", "_parents", "_backward", "__weakref__")

    def __init__(self, value, parents=(), backward: Callable[["Tensor"], None] | None = None,
                 requires_grad: bool = True):
        self.value = as_array(value)
        if parents:
            requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        elif not np.isfinite(self.value).all():
            raise NumericalError("leaf tensor contains non-finite values")
        self.grad: np.ndarray | None = None
        self._stale = False
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def __float__(self):
        return float(self.value)

    def _first_grad(self) -> np.ndarray | None:
        """The buffer this pass's first contribution is written into, laid out
        like ``value`` (which keeps later reductions over it in one order), or
        ``None`` once a contribution was made and the next must be added."""
        if self.grad is None:
            self.grad = np.empty_like(self.value)
        elif not self._stale:
            return None
        self._stale = False
        return self.grad

    def _add_grad(self, g) -> None:
        """Accumulate ``g``: written over the buffer if first, else added."""
        first = self._first_grad()
        if first is None:
            self.grad += g
        else:
            first[...] = g

    def _add_grad_of(self, op, *args, **kwargs) -> None:
        """Accumulate ``op(*args, **kwargs)``, a numpy function taking ``out=``:
        a first contribution is computed straight into the buffer."""
        first = self._first_grad()
        if first is None:
            self.grad += op(*args, **kwargs)
        else:
            op(*args, out=first, **kwargs)

    def _grad_buffer(self) -> np.ndarray:
        """The gradient buffer, zero-filled on first use, for scattered updates."""
        first = self._first_grad()
        if first is not None:
            first.fill(0.0)
        return self.grad

    # ---- graph construction -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)

    def __add__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(_unbroadcast(out.grad, self.value.shape))
            if other.requires_grad:
                other._add_grad(_unbroadcast(out.grad, other.value.shape))

        return Tensor(self.value + other.value, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.value, (self,), lambda out: self._add_grad(-out.grad))

    def __sub__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(_unbroadcast(out.grad, self.value.shape))
            if other.requires_grad:
                other._add_grad(-_unbroadcast(out.grad, other.value.shape))

        return Tensor(self.value - other.value, (self, other), backward)

    def __rsub__(self, other):
        return Tensor._lift(other) - self

    def __mul__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(_unbroadcast(out.grad * other.value, self.value.shape))
            if other.requires_grad:
                other._add_grad(_unbroadcast(out.grad * self.value, other.value.shape))

        return Tensor(self.value * other.value, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(_unbroadcast(out.grad / other.value, self.value.shape))
            if other.requires_grad:
                other._add_grad(-_unbroadcast(
                    out.grad * self.value / (other.value * other.value), other.value.shape
                ))

        return Tensor(self.value / other.value, (self, other), backward)

    def __matmul__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            g = out.grad
            a, b = self.value, other.value
            if self.requires_grad:
                self._add_grad(np.outer(g, b) if a.ndim == 2 and b.ndim == 1 else g @ b.T)
            if other.requires_grad:
                other._add_grad(np.outer(a, g) if a.ndim == 1 and b.ndim == 2 else a.T @ g)

        return Tensor(self.value @ other.value, (self, other), backward)

    @property
    def T(self):
        return Tensor(self.value.T, (self,), lambda out: self._add_grad(out.grad.T))

    def exp(self):
        return Tensor(np.exp(self.value), (self,), lambda out: self._add_grad(out.grad * out.value))

    def log(self):
        return Tensor(np.log(self.value), (self,), lambda out: self._add_grad(out.grad / self.value))

    def sqrt(self):
        return Tensor(np.sqrt(self.value), (self,),
                      lambda out: self._add_grad(out.grad / (2.0 * out.value)))

    def maximum(self, floor: float):
        """Elementwise max against a constant floor."""
        return Tensor(np.maximum(self.value, floor), (self,),
                      lambda out: self._add_grad(out.grad * (self.value > floor)))

    def sum(self, axis=None, keepdims=False):
        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._add_grad(np.broadcast_to(g, self.value.shape))

        return Tensor(self.value.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def reshape(self, shape):
        return Tensor(self.value.reshape(shape), (self,),
                      lambda out: self._add_grad(out.grad.reshape(self.value.shape)))

    def slice_rows(self, start: int, stop: int):
        """Contiguous slice along the leading axis (entries of a vector, rows of a matrix)."""
        if self.value.ndim == 0:
            raise ShapeMismatchError("slice_rows requires an input of rank >= 1")

        def backward(out):
            self._grad_buffer()[start:stop] += out.grad

        return Tensor(self.value[start:stop], (self,), backward)

    def take_rows(self, indices):
        """Gather rows of a rank-2 tensor; duplicate indices accumulate gradient."""
        idx = np.asarray(indices, dtype=np.int64)
        return Tensor(self.value[idx], (self,),
                      lambda out: np.add.at(self._grad_buffer(), idx, out.grad))

    def diagonal(self):
        n = min(self.value.shape)

        def backward(out):
            self._grad_buffer()[np.arange(n), np.arange(n)] += out.grad

        return Tensor(np.diagonal(self.value).copy(), (self,), backward)

    # ---- differentiation ----------------------------------------------------

    def _topo_order(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self):
        """Set ``grad`` to d(self)/d(node) on every reachable node that
        requires a gradient.

        The root must be scalar-valued. Nothing leaks from an earlier pass:
        an interior node starts again from ``None``, and a leaf that already
        has a buffer keeps that same array but marks it stale. Its first
        contribution of this pass is then written over it, later ones are
        added, and a reachable leaf that gets none is zeroed at the end.
        """
        if self.value.ndim != 0:
            raise GraphError(f"backward requires a scalar root, got shape {self.value.shape}")
        order = self._topo_order()
        leaves = []
        for node in order:
            if node._parents or node.grad is None:
                node.grad = None
            else:
                node._stale = True
                leaves.append(node)
        self._add_grad(1.0)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)
        for leaf in leaves:
            if leaf._stale:
                leaf._stale = False
                leaf.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, leaf={not self._parents})"


# ---- similarity and log-sum-exp ----------------------------------------------


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two equal-length rank-1 arrays, as a float.

    Norms are floored at ``COSINE_EPS`` so degenerate (near-zero) vectors yield a
    similarity of ~0 instead of dividing by zero. This is the per-vector
    reference for :func:`cosine_matrix`.
    """
    a, b = as_array(a), as_array(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeMismatchError(
            f"cosine_similarity requires equal-length rank-1 inputs, got {a.shape} and {b.shape}"
        )
    # the arithmetic of np.linalg.norm on a real vector, without its overhead
    na = max(math.sqrt(float(a @ a)), COSINE_EPS)
    nb = max(math.sqrt(float(b @ b)), COSINE_EPS)
    return float(np.dot(a, b)) / (na * nb)


def normalize_rows(m) -> Tensor:
    """Row-normalize a rank-2 matrix with the same norm floor as cosine_similarity;
    the floor sits inside the sqrt so the graph never hits sqrt(0)."""
    m = Tensor._lift(m)
    sq = (m * m).sum(axis=1, keepdims=True)
    return m / sq.maximum(COSINE_EPS * COSINE_EPS).sqrt()


def _normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward values of :func:`normalize_rows`: the normalized rows, the
    floored norms and the mask of rows above the floor."""
    sq = (x * x).sum(axis=1, keepdims=True)
    norms = np.sqrt(np.maximum(sq, COSINE_EPS * COSINE_EPS))
    return x / norms, norms, sq > COSINE_EPS * COSINE_EPS


def _add_normalize_grad(x: Tensor, g: np.ndarray, norms: np.ndarray, above: np.ndarray) -> None:
    """Push ``g``, the gradient of ``x``'s normalized rows, into ``x`` as the
    graph of :func:`normalize_rows` does: the divide term first, then the
    ``x * x`` term once per operand."""
    g_norms = -(g * x.value / (norms * norms)).sum(axis=1, keepdims=True)
    square = g_norms / (2.0 * norms) * above * x.value
    x._add_grad(g / norms)
    x.grad += square
    x.grad += square


def cosine_matrix(a, b) -> Tensor:
    """All-pairs cosine similarities between the rows of ``a`` and of ``b``,
    as one node.

    Values and gradients are bit for bit those of the composite graph
    ``normalize_rows(a) @ normalize_rows(b).T``: the backward pass runs its
    numpy operations and accumulates into each input in its order.
    """
    a, b = Tensor._lift(a), Tensor._lift(b)
    an, a_norms, a_above = _normalized(a.value)
    bn, b_norms, b_above = _normalized(b.value)

    def backward(out):
        g = out.grad
        if a.requires_grad:
            _add_normalize_grad(a, g @ bn, a_norms, a_above)
        if b.requires_grad:
            gb = np.empty_like(bn)
            gb[...] = (an.T @ g).T  # the transpose node's copy, laid out like bn
            _add_normalize_grad(b, gb, b_norms, b_above)

    return Tensor(an @ bn.T, (a, b), backward)


def mse(pred, target) -> Tensor:
    """Mean squared error of ``pred`` against a constant ``target``, as one
    node. Value and ``pred`` gradient are bit for bit those of the composite
    ``((pred - y) * (pred - y)).sum() * (1 / n)``; the target is lifted as
    that graph lifts it, so a non-finite one raises :class:`NumericalError`."""
    pred = Tensor._lift(pred)
    err = pred.value - Tensor._lift(target).value
    k = 1.0 / err.size

    def backward(out):
        t = (out.grad * k) * err
        t += t  # the product node's two contributions, one per operand
        pred._add_grad(t)

    return Tensor((err * err).sum() * k, (pred,), backward)


def logsumexp(xs, axis=None) -> Tensor:
    """Stable log(sum(exp(xs))) over all entries, or along ``axis``.

    Shift-invariant by construction: the max is subtracted before
    exponentiation and added back outside.
    """
    xs = Tensor._lift(xs)
    if xs.value.size == 0:
        raise EmptyInputError("logsumexp of an empty sequence")
    m = xs.value.max(axis=axis, keepdims=True)
    return (xs - m).exp().sum(axis=axis).log() + np.squeeze(m, axis=axis)


# ---- multilayer perceptron -----------------------------------------------------


@dataclass
class MlpParams:
    """Dense MLP parameters: rectifier between affine layers, affine output.

    Weight matrices are stored (out, in), the layout their gradients are
    computed in. Entries are Tensor leaves (or, in gradient checks, interior
    nodes): a forward pass records one :func:`mlp_apply` node over all of
    them, unless it runs inside :func:`no_grad`.
    """

    widths: list[int]
    weights: list[Tensor]
    biases: list[Tensor]

    def leaves(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


def init_mlp(widths: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Zero-mean weights scaled by 1/sqrt(fan_in); zero biases."""
    widths = [int(w) for w in widths]
    if any(w <= 0 for w in widths) or len(widths) < 2:
        raise ShapeMismatchError(f"invalid layer widths {widths}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(Tensor(rng.normal(0.0, 1.0, (fan_out, fan_in)) / np.sqrt(fan_in)))
        biases.append(Tensor(np.zeros(fan_out)))
    return MlpParams(widths=widths, weights=weights, biases=biases)


def mlp_apply(params: MlpParams, x) -> Tensor:
    """Apply the MLP to a single vector or a (batch, in) matrix, as one node;
    an array input is lifted as a constant, so it gets no gradient.

    Values and gradients are bit for bit those of the per-layer composite
    graph ``h = (h @ w.T + b).maximum(0.0)``, affine at the output, fed the
    same matrix. A vector runs as a one-row matrix; against the composite fed
    the vector, whose weight gradients are outer products, only the sign of
    a zero can differ. The backward pass walks the layers in reverse:
    each bias gets the batch sum of ``g``, each weight ``g.T @ h`` in its own
    layout (written straight into its buffer when it is the first
    contribution), and ``g @ w``, masked in place by the rectifier, passes
    down to the layer below.
    """
    x = Tensor._lift(x)
    if x.value.ndim not in (1, 2) or x.value.shape[-1] != params.widths[0]:
        raise ShapeMismatchError(
            f"mlp input shape {x.value.shape} does not match first layer width {params.widths[0]}"
        )
    weights, biases = params.weights, params.biases
    inputs = []  # each layer's input; a hidden layer's is also its rectifier's output
    h = x.value if x.value.ndim == 2 else x.value[None]
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w.value.T
        h += b.value
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)

    def backward(out):
        g = out.grad if x.value.ndim == 2 else out.grad[None]
        for i in reversed(range(len(weights))):
            w, b, h = weights[i], biases[i], inputs[i]
            if b.requires_grad:
                b._add_grad_of(np.sum, g, axis=0)
            if w.requires_grad:
                w._add_grad_of(np.matmul, g.T, h)
            if i > 0:
                g = g @ w.value
                g *= h > 0
            elif x.requires_grad:
                x._add_grad((g @ w.value).reshape(x.value.shape))

    return Tensor(h if x.value.ndim == 2 else h[0], (x, *weights, *biases), backward)

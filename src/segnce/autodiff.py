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

A training step allocates as little as it can: each MLP layer is one
affine node (``h @ w.T + b``), not a transpose, a product and a sum, and a
backward pass zeroes a leaf's existing gradient buffer in place instead of
dropping it, so a parameter's gradient lives in one buffer from step to
step. Interior nodes get fresh buffers on every pass.

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
    adds a first contribution.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, value, parents=(), backward: Callable[["Tensor"], None] | None = None,
                 requires_grad: bool = True):
        self.value = as_array(value)
        if parents:
            requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        elif not np.isfinite(self.value).all():
            raise NumericalError("leaf tensor contains non-finite values")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def __float__(self):
        return float(self.value)

    def _add_grad(self, g) -> None:
        """Accumulate ``g``; the first contribution is copied into a buffer laid
        out like ``value``, which keeps later reductions over it in one order."""
        if self.grad is None:
            self.grad = np.empty_like(self.value)
            self.grad[...] = g
        else:
            self.grad += g

    def _grad_buffer(self) -> np.ndarray:
        """The gradient buffer, zero-filled on first use, for scattered updates."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
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

    def relu(self):
        return Tensor(np.maximum(self.value, 0.0), (self,),
                      lambda out: self._add_grad(out.grad * (self.value > 0)))

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
        """Accumulate d(self)/d(node) into ``grad`` for every reachable node
        that requires a gradient.

        The root must be scalar-valued. Gradients on reachable nodes are
        cleared first, so repeated passes do not leak across calls: a leaf
        that already has a buffer gets it zeroed in place (the same array
        serves every pass), any other node starts again from ``None``.
        """
        if self.value.ndim != 0:
            raise GraphError(f"backward requires a scalar root, got shape {self.value.shape}")
        order = self._topo_order()
        for node in order:
            if node._parents or node.grad is None:
                node.grad = None
            else:
                node.grad.fill(0.0)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)

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


def concat_rows(parts: Sequence) -> Tensor:
    """Stack matrices along the leading axis."""
    parts = [Tensor._lift(p) for p in parts]
    bounds = np.cumsum([0, *(p.value.shape[0] for p in parts)])

    def backward(out):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._add_grad(out.grad[lo:hi])

    return Tensor(np.concatenate([p.value for p in parts]), parts, backward)


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

    Weight matrices are stored (out, in). Entries are Tensor leaves: a forward
    pass builds a graph into them, unless it runs inside :func:`no_grad`.
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


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w.T + b`` for a vector or a (batch, in) matrix ``x``, as one node.

    Values and gradients are bit for bit those of the three-node graph
    ``x @ w.T + b``: ``x`` gets ``g @ w``, ``w`` gets ``(x.T @ g).T`` (an outer
    product for a vector ``x``) and ``b`` the batch sum of ``g``.
    """
    value = x.value @ w.value.T
    value += b.value

    def backward(out):
        g = out.grad
        if x.requires_grad:
            x._add_grad(g @ w.value)
        if w.requires_grad:
            w._add_grad((np.outer(x.value, g) if x.value.ndim == 1 else x.value.T @ g).T)
        if b.requires_grad:
            b._add_grad(_unbroadcast(g, b.value.shape))

    return Tensor(value, (x, w, b), backward)


def mlp_apply(params: MlpParams, x) -> Tensor:
    """Apply the MLP to a single vector or a (batch, in) matrix; an array input
    is lifted as a constant, so it gets no gradient."""
    h = Tensor._lift(x)
    if h.value.ndim not in (1, 2) or h.value.shape[-1] != params.widths[0]:
        raise ShapeMismatchError(
            f"mlp input shape {h.value.shape} does not match first layer width {params.widths[0]}"
        )
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _affine(h, w, b)
        if i < len(params.weights) - 1:
            h = h.relu()
    return h


# ---- gradient checking ----------------------------------------------------------


def finite_difference_check(
    f: Callable[[Tensor], Tensor], theta, step: float = 1e-6
) -> float:
    """Compare the analytic gradient of ``f`` at ``theta`` against central differences.

    ``f`` takes a leaf Tensor and must rebuild its graph on every call.
    Returns the worst per-coordinate discrepancy relative to the gradient's
    overall magnitude (floored at 1e-8), so exactly-zero gradients compare
    clean and near-zero coordinates are judged against the gradient scale
    rather than their own vanishing magnitude.
    """
    theta = as_array(theta)
    if step <= 0:
        raise ValueError("step must be positive")
    leaf = Tensor(theta.copy())
    out = f(leaf)
    if not isinstance(out, Tensor):
        raise GraphError("f must return a Tensor for the analytic gradient")
    if not np.isfinite(out.value):
        raise NumericalError("f(theta) is not finite")
    out.backward()
    analytic = leaf.grad.copy()

    numeric = np.zeros_like(theta)
    flat = theta.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(theta.copy()))
        flat[i] = orig - step
        lo = f(Tensor(theta.copy()))
        flat[i] = orig
        hi_v, lo_v = float(hi.value), float(lo.value)
        if not (np.isfinite(hi_v) and np.isfinite(lo_v)):
            raise NumericalError(f"non-finite value during finite differences at coordinate {i}")
        num_flat[i] = (hi_v - lo_v) / (2.0 * step)

    scale = max(float(np.max(np.abs(analytic), initial=0.0)),
                float(np.max(np.abs(numeric), initial=0.0)), 1e-8)
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / scale

"""Minimal reverse-mode autodiff over dense numpy arrays.

A ``Tensor`` wraps a float64 ndarray and remembers how it was produced.
Calling :meth:`Tensor.backward` on a scalar walks the recorded graph in
reverse topological order and accumulates gradients into every node,
including parameter leaves created with ``requires_grad=True``.

A model's forward pass enters a graph as two nodes (its logits and its
penultimate activations) whose backward is the model's explicit layer
backprop, so graphs stay tiny and need no tape management. The training
loops do not build graphs at all: they call the array kernels directly.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, StateError

__all__ = ["Tensor", "as_tensor", "matmul", "relu", "tanh"]


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, _prev=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._prev = tuple(_prev)
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data)

    def backward(self) -> None:
        """Seed d(self)/d(self)=1 and propagate through the recorded graph."""
        if self.data.size != 1:
            raise StateError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # Arithmetic sugar used by layers and losses.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return _reduce(self, np.sum, lambda g, d: np.full_like(d, g))

    def mean(self):
        return _reduce(self, np.mean, lambda g, d: np.full_like(d, g / d.size))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add an incoming gradient into ``t.grad``, creating it on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum the gradient back down to the operand's original shape.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, _prev=(a, b))

    def backward(g):
        accumulate(a, _unbroadcast(g, a.data.shape))
        accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, _prev=(a, b))

    def backward(g):
        accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _prev=(a, b))

    def backward(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    out._backward = backward
    return out


def relu(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.maximum(t.data, 0.0), _prev=(t,))

    def backward(g):
        accumulate(t, g * (t.data > 0.0))

    out._backward = backward
    return out


def tanh(t: Tensor) -> Tensor:
    t = as_tensor(t)
    y = np.tanh(t.data)
    out = Tensor(y, _prev=(t,))

    def backward(g):
        accumulate(t, g * (1.0 - y * y))

    out._backward = backward
    return out


def _reduce(t: Tensor, fn, grad_fn) -> Tensor:
    out = Tensor(fn(t.data), _prev=(t,))

    def backward(g):
        accumulate(t, grad_fn(float(g), t.data))

    out._backward = backward
    return out

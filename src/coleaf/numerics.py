"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every operation returns a new `Tensor` holding the forward value plus enough
graph structure for `backward` to accumulate exact gradients. Operation
results are never modified after creation. Parameter tensors are the
exception: they are views into `BranchParams.flat`, which the optimiser
updates in place between graphs, so a graph must be differentiated before the
next optimiser step.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractError, DimensionError

_BCE_EPS = 1e-7

_sequence = itertools.count()


class Tensor:
    """Node in a computation graph; wraps a float64 array."""

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fn", "_seq")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._seq = next(_sequence)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def detach(self):
        """Constant view of this value; gradients never flow past it."""
        return Tensor(self.data)

    def sum(self, axis=None, keepdims=False):
        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return _mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return _reshape(self, shape)

    def __getitem__(self, index):
        return take(self, index)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data, parents, grad_fn):
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, tuple(parents), grad_fn)
    return Tensor(data)


def backward(loss):
    """Gradients of a finite scalar w.r.t. every requires_grad tensor in its graph."""
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise ContractError("backward needs a finite loss")
    if not loss.requires_grad:
        return {}
    seen = set()
    reachable = []
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        reachable.append(node)
        stack.extend(node._parents)
    # Creation order places every node after its parents, so walking it in
    # reverse visits each node only after all of its consumers.
    reachable.sort(key=lambda n: n._seq)
    grads = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(reachable):
        gout = grads.get(node)
        if gout is None or node._grad_fn is None:
            continue
        for parent, gpar in zip(node._parents, node._grad_fn(gout)):
            if gpar is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + gpar
            else:
                grads[parent] = gpar
    return {t: g for t, g in grads.items() if t.requires_grad}


def _unbroadcast(grad, shape):
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), grad_fn)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), grad_fn)


def neg(a):
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), grad_fn)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def grad_fn(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _make(out, (a, b), grad_fn)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as in `np.matmul`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul needs (...,m,k) by (...,k,n), got {a.shape} by {b.shape}")
    out = a.data @ b.data

    def grad_fn(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        return _unbroadcast(ga, a.shape), _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _make(out, (a, b), grad_fn)


def transpose(a, axes=None):
    """Permute axes as `np.transpose`; by default swap the last two."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"transpose needs at least two axes, got shape {a.shape}")
    if axes is None:
        axes = (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    inverse = np.argsort(axes)
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def _reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def take(a, index):
    a = as_tensor(a)
    out = a.data[index]

    def grad_fn(g):
        acc = np.zeros(a.shape, dtype=np.float64)
        np.add.at(acc, index, g)
        return (acc,)

    return _make(out, (a,), grad_fn)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def grad_fn(g):
        pieces = []
        offset = 0
        for size in sizes:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            pieces.append(g[tuple(sl)])
            offset += size
        return tuple(pieces)

    return _make(out, tensors, grad_fn)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def grad_fn(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _make(out, tensors, grad_fn)


def _sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), grad_fn)


def _mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.data.size if axis is None else a.shape[axis]
    return mul(_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sigmoid(a):
    """Elementwise logistic function, overflow-safe on both tails."""
    a = as_tensor(a)
    t = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), grad_fn)


def softmax(a, axis):
    """Softmax along `axis`, stabilized by max subtraction."""
    a = as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), grad_fn)


def bce(target, prob, axis=None):
    """Mean binary cross entropy over `axis` (every axis by default).

    Probabilities are clamped to [eps, 1-eps]; the axes left over hold
    independent means.
    """
    target, prob = as_tensor(target), as_tensor(prob)
    if target.shape != prob.shape:
        raise DimensionError(f"bce needs equal shapes, got {target.shape} and {prob.shape}")
    p = np.clip(prob.data, _BCE_EPS, 1.0 - _BCE_EPS)
    t = target.data
    out = np.asarray(np.mean(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)), axis=axis))
    n = p.size // out.size

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        inside = (prob.data > _BCE_EPS) & (prob.data < 1.0 - _BCE_EPS)
        dprob = np.where(inside, (p - t) / (p * (1.0 - p)), 0.0) * (g / n)
        dtarget = (np.log1p(-p) - np.log(p)) * (g / n)
        return dtarget, dprob

    return _make(out, (target, prob), grad_fn)


def attention(query, kv, wq, wk, wv):
    """Single-head scaled dot-product attention with learned projections.

    Self-attention when `query` and `kv` are the same token set, cross
    attention otherwise. Token sets are (..., T, D) and projections
    (..., D, D); leading axes broadcast and hold independent problems. No
    output projection or feed-forward stage.
    """
    query, kv = as_tensor(query), as_tensor(kv)
    wq, wk, wv = as_tensor(wq), as_tensor(wk), as_tensor(wv)
    if query.ndim < 2 or kv.ndim < 2 or query.shape[-1] != kv.shape[-1]:
        raise DimensionError(
            f"attention needs token sets with one embedding width, got {query.shape} and {kv.shape}"
        )
    if wq.ndim < 2 or wq.shape[-2] != query.shape[-1]:
        raise DimensionError(f"projection {wq.shape} does not accept tokens of width {query.shape[-1]}")
    q = matmul(query, wq)
    k = matmul(kv, wk)
    v = matmul(kv, wv)
    scores = mul(matmul(q, transpose(k)), 1.0 / math.sqrt(wk.shape[-1]))
    return matmul(softmax(scores, axis=-1), v)

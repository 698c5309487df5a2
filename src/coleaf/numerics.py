"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every operation returns a new `Tensor` holding the forward value plus enough
graph structure for `backward` to accumulate exact gradients. Operation
results are never modified after creation. Parameter tensors are the
exception: they are views into `BranchParams.flat`, which the optimiser
updates in place between graphs, so a graph must be differentiated before the
next optimiser step.

`backward` visits each node once, in one pass from the latest-created node to
the earliest, so a node's gradient is complete when it is reached and the
contributions of its consumers add up latest-created first. It forms only the
gradients it keeps. An operation's `grad_fn` forms a gradient only for an
operand that requires one and puts `None` in a constant operand's slot, and
`backward` walks only the parents that require a gradient. The arrays it
returns may be read-only broadcast views, views of another node's gradient
(`stack` hands each operand its slice) or shared with other entries, so
callers must not modify them in place (`BranchParams.flat_grad` copies them
into one new vector).

The four elementwise ops `add`, `sub`, `mul` and `div` are each a forward and
two gradient formulas over `_binary`, which states the broadcasting rule once:
an operand's gradient is summed down to its own shape (`_unbroadcast`), and
only for an operand that requires one.

`matmul`'s gradient for a right operand that lacks some of the left operand's
leading axes, such as a weight shared across a batch, is one product with
those axes folded into the row axis rather than one product per problem that
is then summed. The fold costs copies, so it is taken only for a right operand
of at least `FOLD_MIN_WEIGHT` entries per problem (K x N).
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import ContractError, DimensionError

_BCE_EPS = 1e-7
# K x N from which matmul's right-operand gradient folds the axes that operand lacks
FOLD_MIN_WEIGHT = 4096

_F64 = np.dtype(np.float64)
_sequence = itertools.count()


class Tensor:
    """Node in a computation graph; wraps a float64 array."""

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fn", "_seq")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None):
        # an operation's float64 result is kept as it is, without a call into numpy
        if type(data) is np.ndarray and data.dtype is _F64:
            self.data = data
        else:
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
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, tuple(parents), grad_fn)
    return Tensor(data)


def backward(loss):
    """Gradients of a finite scalar w.r.t. every requires_grad tensor in its graph.

    One pass pops the nodes from a max-heap keyed by creation order, starting
    at the loss; a node is pushed when it first receives a gradient. Every
    consumer of a node is created after it, so each node is visited once,
    after all of its consumers, and its gradient adds up their contributions
    latest-created first. Only operands that require a gradient get one
    formed: constants are neither walked nor differentiated. The returned
    arrays may be read-only or shared views; do not modify them in place.
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise ContractError("backward needs a finite loss")
    if not loss.requires_grad:
        return {}
    grads = {loss: np.ones((), dtype=np.float64)}
    heap = [(-loss._seq, loss)]  # sequence numbers are unique, so no two nodes compare
    while heap:
        node = heapq.heappop(heap)[1]
        if node._grad_fn is None:
            continue
        for parent, gpar in zip(node._parents, node._grad_fn(grads[node])):
            if gpar is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + gpar
            else:
                grads[parent] = gpar
                heapq.heappush(heap, (-parent._seq, parent))
    return grads


def _axes(axis):
    """The axes an `axis` argument names: an int, or a tuple of them."""
    return axis if isinstance(axis, tuple) else (axis,)


def _kept_shape(shape, axis):
    """`shape` as a list, with the axes that `axis` reduces kept as size 1 (`keepdims`)."""
    kept = list(shape)
    for i in _axes(axis):
        kept[i] = 1
    return kept


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _binary(forward, grad_a, grad_b):
    """An elementwise op on two operands that broadcast: `forward(a, b)` on their
    arrays, and `grad_a(g, a, b)` / `grad_b(g, a, b)` for the output's gradient `g`.

    An operand's gradient is formed only if it requires one, and is summed down to
    its own shape; a constant operand gets None.
    """

    def op(a, b):
        a, b = as_tensor(a), as_tensor(b)

        def grad_fn(g):
            return (
                _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
                _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None,
            )

        return _make(forward(a.data, b.data), (a, b), grad_fn)

    return op


add = _binary(np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))


def neg(a):
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast as in `np.matmul`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul needs (...,m,k) by (...,k,n), got {a.shape} by {b.shape}")
    out = a.data @ b.data

    def grad_fn(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        return ga, (_right_grad(a.data, g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), grad_fn)


def _right_grad(a, g, shape):
    """Gradient of `a @ b` w.r.t. a `b` of `shape`, given the output's gradient `g`.

    A `b` that lacks `a`'s first leading axes (B entries in all) and holds at least
    `FOLD_MIN_WEIGHT` entries per problem gets one product with those axes moved
    into the row axis, `(..., B*M, K)^T @ (..., B*M, N)`, instead of B per-problem
    products that `_unbroadcast` would sum; a smaller one keeps that per-problem form.
    """
    extra = a.ndim - len(shape)
    if extra > 0 and shape[-2] * shape[-1] >= FOLD_MIN_WEIGHT and a.shape[extra:-2] == shape[:-2]:
        # b's leading axes first, then the folded axes next to the rows
        lead = range(extra, a.ndim - 2)
        order = (*lead, *range(extra), a.ndim - 2, a.ndim - 1)
        rows_a = np.transpose(a, order).reshape(shape[:-2] + (-1, shape[-2]))
        rows_g = np.transpose(g, order).reshape(shape[:-2] + (-1, shape[-1]))
        return np.swapaxes(rows_a, -1, -2) @ rows_g
    return _unbroadcast(np.swapaxes(a, -1, -2) @ g, shape)


def transpose(a, axes=None):
    """Permute axes as `np.transpose`; by default swap the last two."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"transpose needs at least two axes, got shape {a.shape}")
    if axes is None:
        axes = (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    out = np.transpose(a.data, axes)  # rejects axes that are not a permutation

    def grad_fn(g):
        order = [ax % a.ndim for ax in axes]
        return (np.transpose(g, sorted(range(a.ndim), key=order.__getitem__)),)

    return _make(out, (a,), grad_fn)


def _reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


def _is_basic(index):
    """Whether `index` is numpy basic indexing, which selects each entry at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer)) for p in parts)


def take(a, index):
    a = as_tensor(a)
    out = a.data[index]
    basic = _is_basic(index)

    def grad_fn(g):
        acc = np.zeros(a.shape, dtype=np.float64)
        if basic:
            acc[index] = g
        else:  # an advanced index may repeat an entry, whose gradients then add up
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
    lead = (slice(None),) * (axis % out.ndim)

    def grad_fn(g):
        # basic indexing: views of g, not copies
        return tuple(g[(*lead, i)] for i in range(len(tensors)))

    return _make(out, tensors, grad_fn)


def _sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = g.reshape(_kept_shape(a.shape, axis))
        return (np.broadcast_to(g, a.shape),)

    return _make(out, (a,), grad_fn)


def _mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.data.size if axis is None else math.prod(a.shape[i] for i in _axes(axis))
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

    `target` is a constant, labels or pseudo-labels: gradients flow to
    `prob` only. Probabilities are clamped to [eps, 1-eps]; the axes left
    over hold independent means.
    """
    if isinstance(target, Tensor):
        if target.requires_grad:
            raise ContractError("bce's target is a constant; detach it first")
        target = target.data
    t = np.asarray(target, dtype=np.float64)
    prob = as_tensor(prob)
    if t.shape != prob.shape:
        raise DimensionError(f"bce needs equal shapes, got {t.shape} and {prob.shape}")
    p = np.clip(prob.data, _BCE_EPS, 1.0 - _BCE_EPS)
    out = np.asarray(np.mean(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)), axis=axis))
    n = p.size // out.size

    def grad_fn(g):
        if axis is not None:
            g = g.reshape(_kept_shape(p.shape, axis))
        inside = (prob.data > _BCE_EPS) & (prob.data < 1.0 - _BCE_EPS)
        return (np.where(inside, (p - t) / (p * (1.0 - p)), 0.0) * (g / n),)

    return _make(out, (prob,), grad_fn)


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

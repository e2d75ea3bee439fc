"""Dense float64 tensors with reverse-mode automatic differentiation.

Every forward operation optionally records a :class:`TapeNode` on its output.
Calling :meth:`Tensor.backward` on a scalar loss replays the recorded tape in
reverse creation order and accumulates ``d loss / d t`` into ``t.grad`` for
every tracked leaf that the loss was computed from: a tensor with no tape
node, such as a parameter or an input.  Gradients of intermediate tensors
flow through the walk and are dropped; their ``.grad`` stays ``None``.  Leaf
gradients keep accumulating across calls until cleared with
:meth:`Tensor.zero_grad`.

All data is stored as float64; convolution is cross-correlation with zero
same-padding, computed as one matrix product with a column matrix.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError

Array = np.ndarray

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the context (forward-only inference)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@dataclass
class TapeNode:
    """One recorded operation: inputs, saved intermediates, backward rule.

    ``backward`` maps the gradient at the node's output to a sequence of
    gradients aligned with ``parents`` (``None`` for inputs that do not need
    one, a :class:`SliceGrad` for one that is zero off a basic index).  Nodes
    are implicitly topologically ordered by the creation ids of the tensors
    that own them.
    """

    op: str
    parents: tuple["Tensor", ...]
    backward: Callable[[Array], Sequence[Optional[Array | SliceGrad]]]


class SliceGrad:
    """A gradient equal to ``values`` on ``parent[index]`` and zero elsewhere.

    The tape walk adds ``values`` into the parent's pending gradient in
    place, so slices of one tensor share one buffer.
    """

    __slots__ = ("index", "values")

    def __init__(self, index, values: Array):
        self.index = index
        self.values = values


class Tensor:
    """A dense n-dimensional float64 array, optionally on the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "node", "_id")

    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None
        self.node: Optional[TapeNode] = None
        self._id = next(Tensor._ids)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d self / d t into ``t.grad`` for every tracked leaf.

        ``self`` must be a scalar reached from at least one tensor with
        ``requires_grad`` set.  Only leaves (tensors without a tape node:
        parameters and inputs) receive ``.grad``; intermediate gradients are
        dropped once propagated.  Repeating the call adds the same gradients
        again.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("loss is not connected to any tracked tensor")

        # Parents are always created before children, so descending creation
        # id is a valid topological order of the reachable tape.
        reachable = [self]
        seen = {self._id}
        stack = [self]
        while stack:
            t = stack.pop()
            if t.node is None:
                continue
            for p in t.node.parents:
                if p.requires_grad and p._id not in seen:
                    seen.add(p._id)
                    reachable.append(p)
                    stack.append(p)
        reachable.sort(key=lambda t: t._id, reverse=True)

        flow: dict[int, Array] = {self._id: np.ones_like(self.data)}
        # Pending gradients this walk allocated itself; only these may be
        # added to in place, since a backward rule may return views or
        # hand one array to several parents.
        owned: set[int] = set()
        for t in reachable:
            g = flow.pop(t._id, None)
            if g is None:
                continue
            if t.node is None:
                if t.grad is None:
                    t.grad = g if t._id in owned else g.copy()
                else:
                    t.grad = t.grad + g
                continue
            parent_grads = t.node.backward(g)
            for p, gp in zip(t.node.parents, parent_grads):
                if gp is None or not p.requires_grad:
                    continue
                pid = p._id
                if isinstance(gp, SliceGrad):
                    if pid not in owned:
                        pending = flow.get(pid)
                        flow[pid] = (
                            np.zeros(p.shape) if pending is None else pending.copy()
                        )
                        owned.add(pid)
                    flow[pid][gp.index] += gp.values
                elif pid in owned:
                    flow[pid] += gp
                elif pid in flow:
                    flow[pid] = flow[pid] + gp
                    owned.add(pid)
                else:
                    flow[pid] = gp

    # -- operator sugar ------------------------------------------------------

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

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _record(data: Array, op: str, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(parents), backward)
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(a.data + b.data, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(a.data - b.data, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(a.data * b.data, "mul", (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(a.data / b.data, "div", (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _record(-a.data, "neg", (a,), lambda g: (-g,))


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)

    def backward(g):
        return (g * e * a.data ** (e - 1.0),)

    return _record(a.data**e, "pow", (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / root,)

    return _record(root, "sqrt", (a,), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b``; the left operand may carry batch axes.

    With a 2-D right operand the left operand's batch axes fold into rows,
    so the product and both gradients are single 2-D matrix products.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires matrices, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} @ {b.shape}"
        )
    need_a, need_b = a.requires_grad, b.requires_grad

    if b.ndim == 2:
        k, n = b.shape
        out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))

        def backward(g):
            g_rows = g.reshape(-1, n)
            ga = (g_rows @ b.data.T).reshape(a.shape) if need_a else None
            gb = a.data.reshape(-1, k).T @ g_rows if need_b else None
            return ga, gb

        return _record(out, "matmul", (a, b), backward)

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if need_b:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _record(a.data @ b.data, "matmul", (a, b), backward)


def _columns(xb: Array, kh: int, kw: int) -> Array:
    """The same-padded column matrix of ``(B, Cin, H, W)``.

    Row ``(c, i, j)`` and column ``(b, y, x)`` hold the padded input at
    ``(b, c, y + i, x + j)``; the shape is ``(Cin*Kh*Kw, B*H*W)``.
    """
    nb, cin, h, w = xb.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((cin, nb, h + 2 * ph, w + 2 * pw))
    padded[:, :, ph : ph + h, pw : pw + w] = xb.transpose(1, 0, 2, 3)
    cols = np.empty((cin, kh, kw, nb, h, w))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = padded[:, :, i : i + h, j : j + w]
    return cols.reshape(cin * kh * kw, nb * h * w)


def _col2im(gcols: Array, shape: tuple[int, ...], kh: int, kw: int) -> Array:
    """Adjoint of :func:`_columns`: sum column-matrix entries back onto the
    ``(B, Cin, H, W)`` input, one shifted add per kernel tap."""
    nb, cin, h, w = shape
    ph, pw = kh // 2, kw // 2
    gcols = gcols.reshape(cin, kh, kw, nb, h, w)
    padded = np.zeros((cin, nb, h + 2 * ph, w + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + h, j : j + w] += gcols[:, i, j]
    return padded[:, :, ph : ph + h, pw : pw + w].transpose(1, 0, 2, 3)


def conv2d(x, kernel) -> Tensor:
    """Same-padded 2-D cross-correlation.

    ``x`` is ``(B, Cin, H, W)``; ``kernel`` is ``(Cout, Cin, Kh, Kw)`` with
    odd spatial extents.  Output spatial extents equal the input's; padding
    is zeros.  The forward pass is one matrix product of the flattened kernel
    with the input's column matrix; the backward pass rebuilds the columns
    instead of keeping them on the tape.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if kernel.ndim != 4:
        raise DimensionError(f"conv2d kernel must be 4-D, got shape {kernel.shape}")
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 4-D, got shape {x.shape}")
    cout, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigurationError(
            f"conv2d kernel extents must be odd for same padding, got {kh}x{kw}"
        )
    if x.shape[1] != cin:
        raise DimensionError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}"
        )
    nb, _, h, w = x.shape
    flat_kernel = kernel.data.reshape(cout, -1)
    out = (flat_kernel @ _columns(x.data, kh, kw)).reshape(cout, nb, h, w)
    out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    need_x, need_k = x.requires_grad, kernel.requires_grad

    def backward(g):
        g_rows = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        gx = gk = None
        if need_k:
            gk = (g_rows @ _columns(x.data, kh, kw).T).reshape(kernel.shape)
        if need_x:
            gx = _col2im(flat_kernel.T @ g_rows, x.shape, kh, kw)
        return gx, gk

    return _record(out, "conv2d", (x, kernel), backward)


# -- nonlinearities ----------------------------------------------------------


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # exp(-|x|) never overflows; the sign picks the matching form.
    z = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        return (g * s * (1.0 - s),)

    return _record(s, "sigmoid", (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - t * t),)

    return _record(t, "tanh", (x,), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        return (g * mask,)

    # np.maximum (unlike np.where on the mask) lets NaN through, so a
    # poisoned activation surfaces as a non-finite loss instead of a zero.
    return _record(np.maximum(x.data, 0.0), "relu", (x,), backward)


_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}


def activation(x, kind: str) -> Tensor:
    """Elementwise activation by name: ``sigmoid``, ``tanh``, or ``relu``."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None
    return fn(x)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by max subtraction."""
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(s, "softmax_rows", (x,), backward)


# -- shape manipulation ------------------------------------------------------


def reshape(x, new_shape) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(tuple(new_shape))
    except ValueError as exc:
        raise DimensionError(
            f"cannot reshape {x.shape} into {tuple(new_shape)}: {exc}"
        ) from None

    def backward(g):
        return (g.reshape(x.shape),)

    return _record(data, "reshape", (x,), backward)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _record(np.transpose(x.data, axes), "transpose", (x,), backward)


def swap_last(x) -> Tensor:
    """Transpose the trailing two axes (matrix transpose with batch axes)."""
    x = as_tensor(x)
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return transpose(x, axes)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat requires at least one tensor")
    first = parts[0].shape
    axis = axis % len(first) if first else axis
    for p in parts[1:]:
        if len(p.shape) != len(first) or any(
            p.shape[i] != first[i] for i in range(len(first)) if i != axis
        ):
            raise DimensionError(
                f"concat shapes incompatible off axis {axis}: "
                f"{[tuple(q.shape) for q in parts]}"
            )
    data = np.concatenate([p.data for p in parts], axis=axis)
    extents = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i] : offsets[i + 1]], 0, axis)
            for i in range(len(parts))
        )

    return _record(data, "concat", tuple(parts), backward)


def take(x, index) -> Tensor:
    """Basic (slice/integer) indexing; the gradient lands on the same index."""
    x = as_tensor(x)
    data = x.data[index]
    return _record(data, "take", (x,), lambda g: (SliceGrad(index, g),))


# -- reductions --------------------------------------------------------------


def _kept_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    if axis is None:
        return (1,) * len(shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    kept = _kept_shape(x.shape, axis)

    def backward(g):
        return (np.ascontiguousarray(np.broadcast_to(g.reshape(kept), x.shape)),)

    return _record(x.data.sum(axis=axis, keepdims=keepdims), "sum", (x,), backward)


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    kept = _kept_shape(x.shape, axis)
    count = x.size // int(np.prod(kept))

    def backward(g):
        spread = np.broadcast_to(g.reshape(kept) / count, x.shape)
        return (np.ascontiguousarray(spread),)

    return _record(x.data.mean(axis=axis, keepdims=keepdims), "mean", (x,), backward)


# -- verification ------------------------------------------------------------


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the tape gradient of ``sum(f(x))`` against central differences.

    Returns the maximum over coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    ``f`` must be deterministic; ``x`` may appear in ``f`` through a closure
    (the tensor object itself is perturbed in place).
    """
    if eps <= 0:
        raise ContractError("grad_check requires eps > 0")
    previous_rg, previous_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        out = f(x)
        loss = out if out.size == 1 else tensor_sum(out)
        loss.backward()
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

        numeric = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                hi = float(f(x).data.sum())
                flat[i] = saved - eps
                lo = float(f(x).data.sum())
                flat[i] = saved
                numeric.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    finally:
        x.requires_grad = previous_rg
        x.grad = previous_grad

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())

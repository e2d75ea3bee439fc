"""Dense float64 tensors with reverse-mode automatic differentiation.

Every forward operation optionally records a :class:`TapeNode` on its output.
Calling :meth:`Tensor.backward` on a scalar loss walks the recorded tape once,
in reverse creation order, and accumulates ``d loss / d t`` into ``t.grad``
for every tracked leaf that the loss was computed from: a tensor with no tape
node, such as a parameter or an input.  Gradients of intermediate tensors
flow through the walk and are dropped; their ``.grad`` stays ``None``.  The
walk releases each node as it passes it, so a node is walked at most once:
a later loss that reaches a walked tensor raises.  Leaf gradients keep
accumulating across losses until cleared with :meth:`Tensor.zero_grad`.

All data is stored as float64; convolution is cross-correlation with zero
same-padding, computed as one matrix product with a column matrix.

The heaviest kernels (``conv2d``, ``conv_lstm``, the 2-D products of
``matmul`` and the Adam update) run through :func:`run_halves`: whole below
a work gate, in two fixed halves from it on.  The second half may run on a
worker thread, but the split, and so every number, depends only on the
input shapes.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError

Array = np.ndarray

_grad_enabled = True

# Work, in convolution multiply-adds, at and above which an op runs in two
# halves, the second on the worker thread where two CPUs are usable.  A
# hand-off costs about 15 us on a 2-vCPU VM; there, gates of 2**22 to 2**24
# ran occlusion 4-6 % faster than 2**25 to 2**27 and training as fast, and
# this is the largest of them.  Every op of a one-stream score ascent
# (batch 1) stays whole, while training and occlusion split most of their
# heavy ops.
SPLIT_WORK = 1 << 24
# A matrix product's multiply-add counts this much work: its halves write
# into one result allocated up front and fault in no fresh buffers, so a
# product pays for the hand-off from 2**22 multiply-adds on.
GEMM_WORK = 4

_worker: Optional[ThreadPoolExecutor] = None


def _forget_worker() -> None:
    global _worker
    _worker = None


# A forked child has no worker thread, only the parent's executor object.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def usable_cpus() -> int:
    """The CPUs this process may run on; the machine's count where the
    platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_halves(
    n: int, work: float, half: Callable[[int, int], object], unit: int = 1
) -> list:
    """``[half(0, mid), half(mid, n)]`` once ``work`` (the op's cost in
    convolution multiply-adds) reaches :data:`SPLIT_WORK`, else ``[half(0, n)]``.

    ``mid`` is the largest multiple of ``unit`` that is at most ``n // 2``;
    if it is 0 the op runs whole too.  The split is the same on every
    machine; only where the second half runs is decided here.  With two
    usable CPUs it runs on one lazily started worker thread while the caller
    runs the first, in a copy of the caller's context, so numpy's error
    state (``np.errstate``) holds there too; else it runs after the first.
    ``half`` must touch numpy arrays only: no ``Tensor``, no tape and no
    traced function.  If either half raises, the error reaches the caller
    after both halves have stopped.
    """
    global _worker
    mid = n // 2 // unit * unit
    if mid == 0 or work < SPLIT_WORK:
        return [half(0, n)]
    if usable_cpus() < 2:
        return [half(0, mid), half(mid, n)]
    if _worker is None:
        _worker = ThreadPoolExecutor(1, thread_name_prefix="stationcast-half")
    second = _worker.submit(contextvars.copy_context().run, half, mid, n)
    try:
        first = half(0, mid)
    finally:
        second.exception()  # waits, whatever the first half did
    return [first, second.result()]


def _block_unit(hw: int) -> int:
    """The fewest samples of ``hw`` columns each that fill whole 8-column blocks.

    OpenBLAS's x86-64 kernels compute a matrix product 8 columns at a time
    and a trailing partial block with another kernel, so a column's bits
    depend on whether its block is whole.  A split of the columns at a
    multiple of 8 keeps every column's bits.
    """
    return 8 // math.gcd(hw, 8)


# Images whose columns :func:`conv2d` builds at once, rounded up to whole
# :func:`_block_unit` groups: four 18 x 18 images of 16 channels take 1.5 MB
# of columns, which fits one core's 2 MB L2 cache.
COLUMN_IMAGES = 4


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
    one).  Nodes are implicitly topologically ordered by the creation ids of
    the tensors that own them.
    """

    parents: tuple["Tensor", ...]
    backward: Callable[[Array], Sequence[Optional[Array]]]


# An intermediate's node once a walk has passed it; its rule is never called.
_SPENT = TapeNode((), None)


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
        return float(self.data.reshape(()))

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d self / d t into ``t.grad`` for every tracked leaf.

        ``self`` must be a scalar on the tape: computed from at least one
        tensor with ``requires_grad`` set, and not walked before.  Only
        leaves (tensors without a tape node: parameters and inputs) receive
        ``.grad``; intermediate gradients are dropped once propagated.  The
        array that reaches a leaf becomes its ``.grad``, or is added to the
        one it has.  A backward rule may hand one array to several leaves,
        so ``.grad`` is read-only.  The walk drops each tensor and node once
        past it, so the tape is freed as it goes; a second call, or a loss
        from a walked intermediate, raises before any ``.grad`` changes.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if self.node is None:
            raise ContractError(
                "loss is not on the tape: it has no tracked input, or "
                "backward has already walked it"
            )

        # Parents are always created before children, so descending creation
        # id is a valid topological order of the reachable tape.
        reachable = [self]
        seen = {self._id}
        stack = [self]
        while stack:
            t = stack.pop()
            if t.node is _SPENT:
                raise ContractError("backward has already walked an intermediate")
            if t.node is None:
                continue
            for p in t.node.parents:
                if p.requires_grad and p._id not in seen:
                    seen.add(p._id)
                    reachable.append(p)
                    stack.append(p)
        reachable.sort(key=lambda t: t._id)

        flow: dict[int, Array] = {self._id: np.ones_like(self.data)}
        while reachable:
            t = reachable.pop()
            g = flow.pop(t._id)
            if t.node is None:
                t.grad = g if t.grad is None else t.grad + g
                continue
            node, t.node = t.node, _SPENT
            for p, gp in zip(node.parents, node.backward(g)):
                if gp is not None and p.requires_grad:
                    flow[p._id] = flow[p._id] + gp if p._id in flow else gp
        self.node = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __getitem__(self, index):
        return take(self, index)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = TapeNode(tuple(parents), backward)
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

    return _record(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(a.data / b.data, (a, b), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / root,)

    return _record(root, (a,), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b``; the left operand may carry batch axes.

    With a 2-D right operand the left operand's batch axes fold into rows,
    so the product and both gradients are single 2-D matrix products; past
    the split gate each runs in two halves of its own output rows.
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
        a_rows = a.data.reshape(-1, k)
        work = GEMM_WORK * a_rows.size * n
        out = _product_in_halves(a_rows, b.data, work)

        def backward(g):
            g_rows = g.reshape(-1, n)
            ga = gb = None
            if need_a:
                ga = _product_in_halves(g_rows, b.data.T, work).reshape(a.shape)
            if need_b:
                gb = _product_in_halves(a.data.reshape(-1, k).T, g_rows, work)
            return ga, gb

        return _record(out.reshape(a.shape[:-1] + (n,)), (a, b), backward)

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if need_b:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _record(a.data @ b.data, (a, b), backward)


def _product_in_halves(x: Array, y: Array, work: float) -> Array:
    """``x @ y``, with the rows of the result in halves (:func:`run_halves`).

    Each half is the product of its own rows of ``x`` with all of ``y``, so
    every element keeps its whole sum over the inner axis; no halves are
    added.  The split falls on an even row: a half of one row would take
    BLAS's matrix-vector path, which rounds differently.
    """
    out = np.empty((x.shape[0], y.shape[1]))

    def rows(lo: int, hi: int) -> None:
        np.matmul(x[lo:hi], y, out=out[lo:hi])

    run_halves(len(out), work, rows, unit=2)
    return out


def _columns(xb: Array, kh: int, kw: int, out: Array) -> Array:
    """The same-padded column matrix of ``(B, Cin, H, W)``, written into ``out``.

    Row ``(c, i, j)`` and column ``(b, y, x)`` hold the padded input at
    ``(b, c, y + i, x + j)``; the shape is ``(Cin*Kh*Kw, B*H*W)``.
    """
    nb, cin, h, w = xb.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((cin, nb, h + 2 * ph, w + 2 * pw))
    padded[:, :, ph : ph + h, pw : pw + w] = xb.transpose(1, 0, 2, 3)
    cols = out.reshape(cin, kh, kw, nb, h, w)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = padded[:, :, i : i + h, j : j + w]
    return out


def _col2im(gcols: Array, padded: Array, kh: int, kw: int) -> Array:
    """Adjoint of :func:`_columns`: sum column-matrix entries back onto the
    input, one shifted add per kernel tap.

    The sums are made in ``padded``, a ``(Cin, B, H + Kh - 1, W + Kw - 1)``
    buffer that is overwritten; the result is the ``(B, Cin, H, W)`` view of
    its interior.
    """
    cin, nb, hp, wp = padded.shape
    ph, pw = kh // 2, kw // 2
    h, w = hp - 2 * ph, wp - 2 * pw
    gcols = gcols.reshape(cin, kh, kw, nb, h, w)
    padded[...] = 0.0
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + h, j : j + w] += gcols[:, i, j]
    return padded[:, :, ph : ph + h, pw : pw + w].transpose(1, 0, 2, 3)


def conv2d(x, kernel) -> Tensor:
    """Same-padded 2-D cross-correlation.

    ``x`` is ``(B, Cin, H, W)``; ``kernel`` is ``(Cout, Cin, Kh, Kw)`` with
    odd spatial extents.  Output spatial extents equal the input's; padding
    is zeros.  The images run whole, or past the split gate in two halves
    (:func:`run_halves`); each part walks its images in blocks of
    :data:`COLUMN_IMAGES` or a few more, building one block's columns at a
    time in one buffer.  The forward pass multiplies the flattened kernel
    with each image's columns, which writes the output in its
    ``(B, Cout, H, W)`` order directly; the backward pass rebuilds each
    block's columns instead of keeping them on the tape.  The kernel
    gradient is a sum of per-block products, in block order within each
    part, then over the parts.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
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
    hw = h * w
    flat_kernel = kernel.data.reshape(cout, -1)
    rows = flat_kernel.shape[1]
    out = np.empty((nb, cout, h, w))
    work = out.size * rows
    unit = _block_unit(hw)
    # Blocks start at whole unit groups from their half's start, so every
    # column keeps its 8-column block of the half's undivided product.
    step = -(-COLUMN_IMAGES // unit) * unit

    def block_buffer(lo: int, hi: int) -> Array:
        """A flat buffer for the columns of one block of ``[lo, hi)``."""
        return np.empty(rows * min(step, hi - lo) * hw)

    def front(buffer: Array, b: int) -> Array:
        """The buffer's first ``rows x b·H·W`` entries, as a matrix."""
        return buffer[: rows * b * hw].reshape(rows, b * hw)

    def forward(lo: int, hi: int) -> None:
        buffer = block_buffer(lo, hi)
        for b0 in range(lo, hi, step):
            b = min(step, hi - b0)
            cols = _columns(x.data[b0 : b0 + b], kh, kw, out=front(buffer, b))
            np.matmul(
                flat_kernel,
                cols.reshape(rows, b, hw).transpose(1, 0, 2),
                out=out[b0 : b0 + b].reshape(b, cout, hw),
            )

    run_halves(nb, work, forward, unit)
    need_x, need_k = x.requires_grad, kernel.requires_grad

    def backward(g):
        padded = np.empty((cin, nb, h + kh - 1, w + kw - 1)) if need_x else None

        def half(lo: int, hi: int) -> Optional[Array]:
            cols_buffer = block_buffer(lo, hi)
            gk = np.zeros_like(flat_kernel) if need_k else None
            product = np.empty_like(flat_kernel) if need_k else None
            for b0 in range(lo, hi, step):
                b = min(step, hi - b0)
                # A view when ``g`` is channel-major, as ConvLSTM's is.
                g_rows = g[b0 : b0 + b].transpose(1, 0, 2, 3).reshape(cout, b * hw)
                # The columns of the block's images, then their gradient.
                cols = front(cols_buffer, b)
                if need_k:
                    _columns(x.data[b0 : b0 + b], kh, kw, out=cols)
                    gk += np.matmul(g_rows, cols.T, out=product)
                if need_x:
                    np.matmul(flat_kernel.T, g_rows, out=cols)
                    _col2im(cols, padded[:, b0 : b0 + b], kh, kw)
            return gk

        parts = run_halves(nb, work, half, unit)
        gk = sum(parts[1:], parts[0]).reshape(kernel.shape) if need_k else None
        gx = None
        if need_x:
            interior = padded[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w]
            gx = interior.transpose(1, 0, 2, 3)
        return gx, gk

    return _record(out, (x, kernel), backward)


def conv_lstm(xpre, steps: int, w_h, bias, state=None) -> Tensor:
    """The recurrence of a ConvLSTM over ``steps`` lags, as one tape node.

    ``xpre`` is ``(steps*B, 4n, H, W)``, lag-major: the input-to-gate
    pre-activations of every lag, gate blocks in the order i, f, o, c.
    ``w_h`` is the ``(4n, n, Kh, Kw)`` hidden-to-gate kernel and ``bias``
    the ``(4n,)`` bias, with gate blocks in the same order.  ``state`` is the
    initial ``(h, c)``, each ``(B, n, H, W)``; ``None`` means zeros, so the
    first lag needs no hidden-to-gate convolution.

    Returns ``(B, steps + 1, n, H, W)``: the hidden state after every lag,
    then the final cell state.  Gates and cell states are kept
    channel-major, ``(channels, B*H*W)``, so each hidden-to-gate convolution
    is one matrix product whose output is the gate block itself; hidden
    states go straight into the output, where the next lag's columns are
    read from.  One ``tanh`` covers the whole gate block, with
    ``sigmoid(x) = (1 + tanh(x/2)) / 2`` on the i, f, o rows.  Backward is
    backpropagation through time over the saved gates, one ``(4n, steps,
    B*H*W)`` block, and cell states, recomputing ``tanh(c_t)``; it writes
    each lag's gate gradient over that lag's gates, so a second call raises.
    It never reads ``xpre``, whose gradient is a view of that block.

    Samples never mix in the recurrence, so past the split gate the forward
    pass and the backward pass each run per half of the samples
    (:func:`run_halves`), with their own buffers; the hidden kernel's
    gradient is then the sum of the two halves' sums.
    """
    xpre, w_h, bias = as_tensor(xpre), as_tensor(w_h), as_tensor(bias)
    n, kh, kw = w_h.shape[1:]
    nvb, _, h, w = xpre.shape
    nb = nvb // steps
    hw = h * w
    shape = (nb, n, h, w)
    if state is not None:
        state = tuple(as_tensor(s) for s in state)
        if any(s.shape != shape for s in state):
            raise DimensionError(
                f"convlstm state shapes {[s.shape for s in state]} do not "
                f"match the {shape} the input implies"
            )

    def grid(a: Array) -> Array:
        """A channel-major ``(C, b*H*W)`` array seen as ``(b, C, H, W)``."""
        return a.reshape(a.shape[0], -1, h, w).transpose(1, 0, 2, 3)

    def channel_major(a: Array) -> Array:
        """A new ``(C, b*H*W)`` copy of a ``(b, C, H, W)`` array."""
        out = np.empty((a.shape[1], a.shape[0] * hw))
        grid(out)[...] = a
        return out

    parents = (xpre, w_h, bias, *(state or ()))
    # Only a tape node needs every lag's gates and cell states; without one,
    # each lag's arrays are dropped once the next lag has used them.
    record = _grad_enabled and any(p.requires_grad for p in parents)
    wh = w_h.data.reshape(4 * n, -1)
    bias_column = bias.data[:, np.newaxis, np.newaxis]
    xpre_lags = xpre.data.reshape(steps, nb, 4 * n, hw)
    out = np.empty((nb, steps + 1, n, h, w))
    gates = np.empty((4 * n, steps, nb * hw)) if record else None
    work = steps * nb * hw * wh.size
    unit = _block_unit(hw)

    def h_before(t: int, lo: int, hi: int) -> Array:
        """Samples ``lo:hi`` of the hidden state lag ``t`` starts from."""
        return out[lo:hi, t - 1] if t else state[0].data[lo:hi]

    def forward(lo: int, hi: int) -> list:
        """Run samples ``lo:hi``; when recording, write their columns of
        ``gates`` and return the cell states ``c_0 .. c_steps``."""
        m = (hi - lo) * hw
        c = np.zeros((n, m)) if state is None else channel_major(state[1].data[lo:hi])
        cells = [c]
        # One gate buffer, one column buffer, one product buffer and one
        # tanh(c) buffer serve every lag.
        a = np.empty((4 * n, m))
        cols = np.empty((wh.shape[1], m))
        product = np.empty((4 * n, m))
        tanh_c = np.empty((n, m))
        for t in range(steps):
            np.add(
                xpre_lags[t, lo:hi].transpose(1, 0, 2),
                bias_column,
                out=a.reshape(4 * n, hi - lo, hw),
            )
            if t > 0 or state is not None:
                _columns(h_before(t, lo, hi), kh, kw, out=cols)
                a += np.matmul(wh, cols, out=product)
            a[: 3 * n] *= 0.5
            np.tanh(a, out=a)
            a[: 3 * n] += 1.0
            a[: 3 * n] *= 0.5
            i, f, o, g = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :]
            c_new = f * c
            c_new += i * g
            np.tanh(c_new, out=tanh_c)
            np.multiply(grid(o), grid(tanh_c), out=out[lo:hi, t])
            if record:
                gates[:, t, lo * hw : hi * hw] = a
                cells.append(c_new)
            c = c_new
        out[lo:hi, steps] = grid(c)
        return cells

    halves = run_halves(nb, work, forward, unit)
    need_w, need_b = w_h.requires_grad, bias.requires_grad

    def backward(gout):
        if not halves:
            raise ContractError("conv_lstm's backward has already used its gates")
        saved, halves[:] = halves[:], []
        dstate = np.empty((2,) + shape) if state is not None else None

        def half(lo: int, hi: int) -> Optional[Array]:
            """BPTT over samples ``lo:hi``; returns their share of ``dW_h``."""
            cells = saved[0 if lo == 0 else 1]
            m = (hi - lo) * hw
            dw = np.zeros_like(wh) if need_w else None
            dc = channel_major(gout[lo:hi, steps])
            dh = None  # gradient reaching h_t from lag t + 1, as (b, n, H, W)
            cols = np.empty((wh.shape[1], m))  # columns of h_t, then their gradient
            padded = np.empty((n, hi - lo, h + kh - 1, w + kw - 1))
            tanh_c = np.empty((n, m))
            a = np.empty((4 * n, m))  # the lag's gates, read before d overwrites them
            for t in reversed(range(steps)):
                d = gates[:, t, lo * hw : hi * hw]
                a[...] = d
                np.tanh(cells[t + 1], out=tanh_c)
                i, f, o, g = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :]
                dht = channel_major(gout[lo:hi, t])
                if dh is not None:
                    grid(dht)[...] += dh
                np.multiply(dht, tanh_c, out=d[2 * n : 3 * n])
                dht *= o
                dht *= 1.0 - tanh_c * tanh_c
                dc += dht
                np.multiply(dc, g, out=d[:n])
                np.multiply(dc, cells[t], out=d[n : 2 * n])
                np.multiply(dc, i, out=d[3 * n :])
                dc *= f
                # The derivatives, a(1 - a) on i, f, o and 1 - g² on g, in the copy.
                a[: 3 * n] *= 1.0 - a[: 3 * n]
                g *= g
                np.subtract(1.0, g, out=g)
                d *= a
                if t > 0 or state is not None:
                    if need_w:
                        dw += d @ _columns(h_before(t, lo, hi), kh, kw, out=cols).T
                    dh = _col2im(np.matmul(wh.T, d, out=cols), padded, kh, kw)
            if dstate is not None:
                dstate[0, lo:hi] = dh
                dstate[1, lo:hi] = grid(dc)
            return dw

        parts = run_halves(nb, work, half, unit)
        dxpre = gates.reshape(4 * n, steps * nb, h, w).transpose(1, 0, 2, 3)
        dw_h = sum(parts[1:], parts[0]).reshape(w_h.shape) if need_w else None
        db = gates.reshape(4 * n, -1).sum(axis=1) if need_b else None
        return (dxpre, dw_h, db, *(() if dstate is None else dstate))

    return _record(out, parents, backward)


# -- nonlinearities ----------------------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        return (g * mask,)

    # np.maximum (unlike np.where on the mask) lets NaN through, so a
    # poisoned activation surfaces as a non-finite loss instead of a zero.
    return _record(np.maximum(x.data, 0.0), (x,), backward)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by max subtraction."""
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(s, (x,), backward)


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

    return _record(data, (x,), backward)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _record(np.transpose(x.data, axes), (x,), backward)


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

    return _record(data, tuple(parts), backward)


def take(x, index) -> Tensor:
    """Basic (slice/integer) indexing; the gradient lands on the same index."""
    x = as_tensor(x)

    def backward(g):
        grad = np.zeros(x.shape)
        grad[index] = g
        return (grad,)

    return _record(x.data[index], (x,), backward)


# -- reductions --------------------------------------------------------------


def _kept_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    if axis is None:
        return (1,) * len(shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    kept = _kept_shape(x.shape, axis)
    count = x.size // int(np.prod(kept))

    def backward(g):
        spread = np.broadcast_to(g.reshape(kept) / count, x.shape)
        return (np.ascontiguousarray(spread),)

    return _record(x.data.mean(axis=axis, keepdims=keepdims), (x,), backward)


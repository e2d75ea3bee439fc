"""Neural building blocks: ConvLSTM, attention encoder, batch norm, dense.

Layers are plain parameter containers.  Parameters are discovered by walking
attributes (Tensor attribute -> parameter, Layer attribute -> submodule, list
of Layers -> indexed submodules), so serialization and optimizers see a flat
``layer-path -> array`` map in deterministic attribute order.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _draw(rng, shape, fan_in: int, fan_out: int):
    """Glorot weights from ``rng``; without one, undrawn ones for a loaded state."""
    if rng is None:
        return np.empty(shape)
    return glorot_uniform(rng, shape, fan_in, fan_out)


class Layer:
    """Base class providing parameter traversal and state loading."""

    def _children(self) -> Iterator[tuple[str, object]]:
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, Layer)):
                yield name, value
            elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, Layer) for v in value
            ):
                for i, v in enumerate(value):
                    yield f"{name}{i}", v

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in self._children():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield path, value
            else:
                yield from value.named_parameters(f"{path}.")

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def named_state(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Parameters plus persistent buffers (running statistics)."""
        for name, value in self._children():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield path, value.data
            else:
                yield from value.named_state(f"{path}.")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        slots = dict(self.named_state())
        missing = sorted(set(slots) - set(arrays))
        if missing:
            raise DimensionError(f"missing parameters in container: {missing}")
        unexpected = sorted(set(arrays) - set(slots))
        if unexpected:
            raise DimensionError(f"unexpected arrays in container: {unexpected}")
        for name, target in slots.items():
            source = arrays[name]
            if source.shape != target.shape:
                raise DimensionError(
                    f"parameter {name!r} has shape {source.shape}, "
                    f"expected {target.shape}"
                )
            np.copyto(target, source)


class Dense(Layer):
    """Fully connected layer ``x W + b`` over the last axis, ReLU'd if ``relu``."""

    def __init__(
        self, rng: np.random.Generator, n_in: int, n_out: int, relu: bool = False
    ):
        self.weight = Tensor(
            _draw(rng, (n_in, n_out), n_in, n_out), requires_grad=True
        )
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)
        self.relu = relu

    def __call__(self, x) -> Tensor:
        x = ad.as_tensor(x)
        if x.shape[-1] != self.weight.shape[0]:
            raise DimensionError(
                f"dense input width {x.shape[-1]} does not match "
                f"weight shape {self.weight.shape}"
            )
        y = ad.matmul(x, self.weight) + self.bias
        return ad.relu(y) if self.relu else y


class LayerNorm(Layer):
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    The epsilon is small enough that unit-variance inputs come back with
    variance 1 to well under 1e-6.
    """

    EPS = 1e-8

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x) -> Tensor:
        x = ad.as_tensor(x)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / ad.sqrt(var + self.EPS) * self.gain + self.bias


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics.

    Accepts ``(B, C, H, W)``; channels are axis 1.  Train mode normalizes
    over the batch and spatial axes and updates the running
    mean/variance with momentum ``MOMENTUM``; infer mode applies the frozen
    affine map derived from the running statistics.
    """

    MOMENTUM = 0.99
    EPS = 1e-5

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def named_state(self, prefix: str = ""):
        yield from super().named_state(prefix)
        yield f"{prefix}running_mean", self.running_mean
        yield f"{prefix}running_var", self.running_var

    def __call__(self, x, training: bool = False) -> Tensor:
        x = ad.as_tensor(x)
        if x.ndim != 4:
            raise DimensionError(
                f"batchnorm expects (B, C, H, W), got shape {x.shape}"
            )
        channels = x.shape[1]
        if channels != self.gamma.size:
            raise DimensionError(
                f"batchnorm has {self.gamma.size} channels, input has {channels}"
            )
        axes = (0, 2, 3)
        param_shape = (1, channels, 1, 1)

        if training:
            if x.shape[0] < 2:
                raise ContractError(
                    f"batchnorm train mode requires batch >= 2, got {x.shape[0]}"
                )
            mu = x.mean(axis=axes, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=axes, keepdims=True)
            normalized = centered / ad.sqrt(var + self.EPS)
            m = self.MOMENTUM
            self.running_mean = m * self.running_mean + (1 - m) * mu.data.reshape(
                channels
            )
            self.running_var = m * self.running_var + (1 - m) * var.data.reshape(
                channels
            )
        else:
            mu = Tensor(self.running_mean.reshape(param_shape))
            sd = Tensor(np.sqrt(self.running_var + self.EPS).reshape(param_shape))
            normalized = (x - mu) / sd

        gamma = ad.reshape(self.gamma, param_shape)
        beta = ad.reshape(self.beta, param_shape)
        return normalized * gamma + beta


class ConvLSTM(Layer):
    """LSTM cell whose gate transforms are same-padded 2-D convolutions.

    For input ``x_t`` and previous states ``h, c`` (all maps over the same
    spatial grid):

        i = sigmoid(Wxi * x + Whi * h + bi)
        f = sigmoid(Wxf * x + Whf * h + bf)
        o = sigmoid(Wxo * x + Who * h + bo)
        c_new = f . c + i . tanh(Wxc * x + Whc * h + bc)
        h_new = o . tanh(c_new)

    where ``*`` is cross-correlation and ``.`` elementwise product.  No
    peephole terms.  The parameters are stored fused, as the recurrence uses
    them: ``w_x`` ``(4n, Cin, Kh, Kw)``, ``w_h`` ``(4n, n, Kh, Kw)`` and ``b``
    ``(4n,)``, with gate blocks in the order i, f, o, c.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_channels: int,
        filters: int,
        kernel: tuple[int, int] = (3, 3),
        return_sequence: bool = False,
    ):
        self.filters = filters
        self.return_sequence = return_sequence
        kh, kw = kernel
        taps = kh * kw
        rows = 4 * filters
        self.w_x = Tensor(np.empty((rows, in_channels, kh, kw)), requires_grad=True)
        self.w_h = Tensor(np.empty((rows, filters, kh, kw)), requires_grad=True)
        self.b = Tensor(np.zeros(rows), requires_grad=True)
        # Gate by gate in the checkpoint order, w_x then w_h: this draw
        # order fixes the initial weights a seed gives.
        for _, block in self._gate_rows():
            for w, cin in ((self.w_x, in_channels), (self.w_h, filters)):
                w.data[block] = _draw(
                    rng, (filters, cin, kh, kw), cin * taps, filters * taps
                )

    def _gate_rows(self) -> Iterator[tuple[str, slice]]:
        """Each gate's block of rows, in the checkpoint order i, f, c, o."""
        for gate in "ifco":
            k = "ifoc".index(gate)
            yield gate, slice(k * self.filters, (k + 1) * self.filters)

    def named_state(self, prefix: str = ""):
        """Per-gate views of the fused tensors, under the names checkpoints
        use: ``w_x{g}``, ``w_h{g}``, ``b_{g}`` for each gate ``g``."""
        for gate, rows in self._gate_rows():
            yield f"{prefix}w_x{gate}", self.w_x.data[rows]
            yield f"{prefix}w_h{gate}", self.w_h.data[rows]
            yield f"{prefix}b_{gate}", self.b.data[rows]

    def _run(self, x, steps: int, state=None) -> Tensor:
        """Input convolution of all lags at once, then the recurrence.

        ``x`` is ``(steps*B, Cin, F, C)``, lag-major, so that each lag's
        gate block is one contiguous column slab of the recurrence's gate
        gradient.  No backward pass reads the pre-activations, so they are
        dropped once the recurrence has read them; their tensor stays on the
        tape only to route its gradient to ``conv2d``.
        """
        xpre = ad.conv2d(x, self.w_x)
        out = ad.conv_lstm(xpre, steps, self.w_h, self.b, state)
        xpre.data = None
        return out

    def step(self, x_t, state=None) -> tuple[Tensor, Tensor]:
        """One recurrence step over ``(B, Cin, F, C)`` input from an ``(h, c)``
        ``state``; returns the new ``(h, c)``.  Without a state the step
        starts from zeros and skips the recurrent product."""
        out = self._run(x_t, 1, state)
        return out[:, 0], out[:, 1]

    def __call__(self, sequence, state=None) -> Tensor:
        """Run the cell over a lag sequence from ``state``, zeros by default.

        ``sequence`` is ``(B, V, Cin, F, C)`` and ``state`` an initial
        ``(h, c)`` pair of ``(B, filters, F, C)`` maps.  Returns the final
        hidden state, or the stacked hidden sequence when ``return_sequence``
        is set.
        """
        sequence = ad.as_tensor(sequence)
        if sequence.ndim != 5:
            raise DimensionError(
                f"convlstm sequence must be 5-D, got shape {sequence.shape}"
            )
        nb, steps = sequence.shape[0], sequence.shape[1]
        if steps == 0:
            raise ContractError("convlstm requires a non-empty sequence")
        lag_major = ad.transpose(sequence, (1, 0, 2, 3, 4))
        out = self._run(
            ad.reshape(lag_major, (steps * nb,) + sequence.shape[2:]), steps, state
        )
        return out[:, :steps] if self.return_sequence else out[:, steps - 1]


class AttentionHead(Layer):
    """Single-head scaled dot-product self-attention.

    Projects the token matrix to queries, keys, and values, then returns
    ``softmax(Q K^T / sqrt(d_k)) V``.
    """

    def __init__(self, rng: np.random.Generator, embed_dim: int, key_dim: int):
        self.embed_dim = embed_dim
        self.key_dim = key_dim
        for name in ("w_q", "w_k", "w_v"):
            setattr(
                self,
                name,
                Tensor(
                    _draw(rng, (embed_dim, key_dim), embed_dim, key_dim),
                    requires_grad=True,
                ),
            )

    def __call__(self, tokens) -> Tensor:
        tokens = ad.as_tensor(tokens)
        if tokens.shape[-1] != self.embed_dim:
            raise DimensionError(
                f"attention expects embedding width {self.embed_dim}, "
                f"got token shape {tokens.shape}"
            )
        q = ad.matmul(tokens, self.w_q)
        k = ad.matmul(tokens, self.w_k)
        v = ad.matmul(tokens, self.w_v)
        k_t = ad.transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
        scores = ad.matmul(q, k_t) * (1.0 / np.sqrt(self.key_dim))
        return ad.matmul(ad.softmax_rows(scores), v)


class EncoderBlock(Layer):
    """One-layer attention encoder: attention + residual norm + feed-forward.

    The head output is projected back to the embedding width so the residual
    addition is defined even when ``key_dim != embed_dim``; the feed-forward
    is dense -> ReLU -> dense.  Input and output shapes are identical.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        embed_dim: int,
        key_dim: Optional[int] = None,
        hidden_dim: Optional[int] = None,
    ):
        key_dim = embed_dim if key_dim is None else key_dim
        hidden_dim = 2 * embed_dim if hidden_dim is None else hidden_dim
        self.head = AttentionHead(rng, embed_dim, key_dim)
        self.w_out = Tensor(
            _draw(rng, (key_dim, embed_dim), key_dim, embed_dim),
            requires_grad=True,
        )
        self.norm_attn = LayerNorm(embed_dim)
        self.norm_ff = LayerNorm(embed_dim)
        self.ff_in = Dense(rng, embed_dim, hidden_dim, relu=True)
        self.ff_out = Dense(rng, hidden_dim, embed_dim)

    def __call__(self, tokens) -> Tensor:
        tokens = ad.as_tensor(tokens)
        attended = ad.matmul(self.head(tokens), self.w_out)
        x = self.norm_attn(tokens + attended)
        return self.norm_ff(x + self.ff_out(self.ff_in(x)))

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

    def count_params(self) -> int:
        return sum(p.size for p in self.parameters())

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
    """Fully connected layer ``act(x W + b)`` applied over the last axis."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_in: int,
        n_out: int,
        activation: Optional[str] = None,
    ):
        self.weight = Tensor(
            glorot_uniform(rng, (n_in, n_out), n_in, n_out), requires_grad=True
        )
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)
        self.activation = activation

    def __call__(self, x) -> Tensor:
        x = ad.as_tensor(x)
        if x.shape[-1] != self.weight.shape[0]:
            raise DimensionError(
                f"dense input width {x.shape[-1]} does not match "
                f"weight shape {self.weight.shape}"
            )
        y = ad.matmul(x, self.weight) + self.bias
        return ad.activation(y, self.activation) if self.activation else y


class LayerNorm(Layer):
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    The epsilon is small enough that unit-variance inputs come back with
    variance 1 to well under 1e-6.
    """

    def __init__(self, dim: int, eps: float = 1e-8):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def normalized(self, x) -> Tensor:
        x = ad.as_tensor(x)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / ad.sqrt(var + self.eps)

    def __call__(self, x) -> Tensor:
        return self.normalized(x) * self.gain + self.bias


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics.

    Accepts ``(B, C, H, W)``; channels are axis 1.  Train mode normalizes
    over the batch and spatial axes and updates the running
    mean/variance with the configured momentum; infer mode applies the frozen
    affine map derived from the running statistics.
    """

    def __init__(self, channels: int, momentum: float = 0.99, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.momentum = momentum
        self.eps = eps
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
            normalized = centered / ad.sqrt(var + self.eps)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mu.data.reshape(
                channels
            )
            self.running_var = m * self.running_var + (1 - m) * var.data.reshape(
                channels
            )
        else:
            mu = Tensor(self.running_mean.reshape(param_shape))
            sd = Tensor(np.sqrt(self.running_var + self.eps).reshape(param_shape))
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
    peephole terms.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_channels: int,
        filters: int,
        kernel: tuple[int, int] = (3, 3),
        return_sequence: bool = False,
    ):
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = tuple(kernel)
        self.return_sequence = return_sequence
        kh, kw = self.kernel
        taps = kh * kw

        def conv_kernel(cin):
            return Tensor(
                glorot_uniform(
                    rng, (filters, cin, kh, kw), cin * taps, filters * taps
                ),
                requires_grad=True,
            )

        for gate in ("i", "f", "c", "o"):
            setattr(self, f"w_x{gate}", conv_kernel(in_channels))
            setattr(self, f"w_h{gate}", conv_kernel(filters))
            setattr(self, f"b_{gate}", Tensor(np.zeros(filters), requires_grad=True))

    def step(self, x_t, h_prev, c_prev) -> tuple[Tensor, Tensor]:
        """One recurrence step over ``(B, Cin, F, C)`` input and
        ``(B, filters, F, C)`` states.

        The gate kernels are stacked at call time (gates on the output axis,
        x | h on the input axis) so all four gates are one convolution.
        """
        x_t, h_prev, c_prev = map(ad.as_tensor, (x_t, h_prev, c_prev))
        if x_t.shape[-2:] != h_prev.shape[-2:] or h_prev.shape != c_prev.shape:
            raise DimensionError(
                f"convlstm state shapes disagree: x {x_t.shape}, "
                f"h {h_prev.shape}, c {c_prev.shape}"
            )
        n = self.filters
        wx = ad.concat([self.w_xi, self.w_xf, self.w_xc, self.w_xo])
        wh = ad.concat([self.w_hi, self.w_hf, self.w_hc, self.w_ho])
        bias = ad.concat([self.b_i, self.b_f, self.b_c, self.b_o])
        xh = ad.concat([x_t, h_prev], axis=1)
        pre = ad.conv2d(xh, ad.concat([wx, wh], axis=1))
        pre = pre + ad.reshape(bias, (4 * n, 1, 1))
        i, f, candidate, o = (pre[:, k * n : (k + 1) * n] for k in range(4))
        c_new = ad.sigmoid(f) * c_prev + ad.sigmoid(i) * ad.tanh(candidate)
        h_new = ad.sigmoid(o) * ad.tanh(c_new)
        return h_new, c_new

    def __call__(self, sequence) -> Tensor:
        """Run the cell over a lag sequence from zero initial states.

        ``sequence`` is ``(B, V, Cin, F, C)``.  Returns the final hidden state,
        or the stacked hidden sequence when ``return_sequence`` is set.
        """
        sequence = ad.as_tensor(sequence)
        if sequence.ndim != 5:
            raise DimensionError(
                f"convlstm sequence must be 5-D, got shape {sequence.shape}"
            )
        nb, steps = sequence.shape[0], sequence.shape[1]
        if steps == 0:
            raise ContractError("convlstm requires a non-empty sequence")
        grid = sequence.shape[-2:]
        h = ad.zeros((nb, self.filters) + grid)
        c = ad.zeros((nb, self.filters) + grid)
        outputs = []
        for t in range(steps):
            h, c = self.step(sequence[:, t], h, c)
            if self.return_sequence:
                outputs.append(ad.reshape(h, (nb, 1) + h.shape[1:]))
        return ad.concat(outputs, axis=1) if self.return_sequence else h


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
                    glorot_uniform(rng, (embed_dim, key_dim), embed_dim, key_dim),
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
        scores = ad.matmul(q, ad.swap_last(k)) * (1.0 / np.sqrt(self.key_dim))
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
            glorot_uniform(rng, (key_dim, embed_dim), key_dim, embed_dim),
            requires_grad=True,
        )
        self.norm_attn = LayerNorm(embed_dim)
        self.norm_ff = LayerNorm(embed_dim)
        self.ff_in = Dense(rng, embed_dim, hidden_dim, activation="relu")
        self.ff_out = Dense(rng, hidden_dim, embed_dim)

    def __call__(self, tokens) -> Tensor:
        tokens = ad.as_tensor(tokens)
        attended = ad.matmul(self.head(tokens), self.w_out)
        x = self.norm_attn(tokens + attended)
        return self.norm_ff(x + self.ff_out(self.ff_in(x)))

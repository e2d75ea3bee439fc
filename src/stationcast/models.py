"""The four forecasting architectures and their parameter-count parity.

Every model maps a batch of lag windows ``(B, L, F, C)`` — L daily lags of an
F-feature x C-city grid — to one prediction per target city ``(B, n)``.

* ``unistream``: one ConvLSTM over all L lags, batch norm, flatten, two
  ReLU dense layers, linear head.
* ``multistream``: the lags are split across two streams (older half, newer
  half), each runs two stacked ConvLSTMs; the stream outputs are concatenated
  on the channel axis, then batch norm, flatten, one ReLU dense layer, linear
  head.
* ``att_*``: same, with a self-attention encoder block inserted right after
  the (merged) ConvLSTM output, operating on one token per city.

Default dense widths differ per variant so that all four land within a few
percent of the same learnable-parameter count (the encoder block is worth
~2.66M parameters at the default grid, which the first dense layer absorbs).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, DimensionError
from .layers import BatchNorm, ConvLSTM, Dense, EncoderBlock, Layer
from .serialize import load_arrays, parse_key_values, save_arrays

VARIANTS = ("unistream", "att_unistream", "multistream", "att_multistream")

_DEFAULT_FILTERS = {
    "unistream": 32,
    "att_unistream": 32,
    "multistream": 16,
    "att_multistream": 16,
}

# Tuned so the four defaults sit within ~1% of each other (~5.4M parameters):
# the non-att variants spend the encoder block's budget on a wider first
# dense layer instead.
_DEFAULT_DENSE = {
    "unistream": (512, 128),
    "att_unistream": (256, 128),
    "multistream": (512,),
    "att_multistream": (256,),
}

# Rows per forward slice in ``predict`` and in both occlusion sweeps, which
# stack their rows and pad the last slice to full (:func:`in_full_slices`).
PREDICT_BATCH = 16


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults give the full-size 18x18 setup."""

    variant: str = "unistream"
    lags: int = 10
    features: int = 18
    cities: int = 18
    n_targets: int = 6
    streams: Optional[int] = None
    filters: Optional[int] = None
    kernel: tuple[int, int] = (3, 3)
    dense: Optional[tuple[int, ...]] = None
    seed: int = 0
    key_dim: Optional[int] = None
    ff_dim: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.streams is None:
            self.streams = 2 if self.multistream else 1
        if self.filters is None:
            self.filters = _DEFAULT_FILTERS[self.variant]
        if self.dense is None:
            self.dense = _DEFAULT_DENSE[self.variant]
        self.dense = tuple(int(d) for d in self.dense)
        self.kernel = tuple(int(k) for k in self.kernel)
        for name in ("lags", "features", "cities", "n_targets", "filters",
                     "key_dim", "ff_dim"):
            value = getattr(self, name)  # only key_dim and ff_dim may be None
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.multistream:
            if self.streams < 2:
                raise ConfigurationError(
                    f"multistream needs at least 2 streams, got {self.streams}"
                )
        elif self.streams != 1:
            raise ConfigurationError(
                f"unistream variants use 1 stream, got {self.streams}"
            )
        if self.lags % self.streams != 0:
            raise ConfigurationError(
                f"streams must evenly divide the lags: "
                f"{self.streams} does not divide {self.lags}"
            )
        if self.n_targets > self.cities:
            raise ConfigurationError(
                f"cannot target {self.n_targets} of {self.cities} cities"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if any(d < 1 for d in self.dense):
            raise ConfigurationError(f"dense widths must be positive, got {self.dense}")
        if len(self.kernel) != 2 or any(k < 1 or k % 2 == 0 for k in self.kernel):
            raise ConfigurationError(
                f"kernel needs two odd positive extents, got {self.kernel}"
            )

    @property
    def multistream(self) -> bool:
        return self.variant in ("multistream", "att_multistream")

    @property
    def attention(self) -> bool:
        return self.variant.startswith("att_")

    @property
    def lags_per_stream(self) -> int:
        return self.lags // self.streams

    @property
    def merged_channels(self) -> int:
        """Channel count of the map entering batch norm / attention."""
        return self.filters * self.streams

    @property
    def embed_dim(self) -> int:
        """Embedding width of one city token: channels x features."""
        return self.merged_channels * self.features

    def to_text(self) -> str:
        """One ``key = value`` line per set field, in field order."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            if value is not None:
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["ModelConfig", dict[str, str]]:
        """Parse a config block; unrecognized keys come back as extras."""
        pairs = parse_key_values(text, "model config")
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in pairs.items() if k in names}
        extras = {k: v for k, v in pairs.items() if k not in names}
        try:
            for key, value in kwargs.items():
                if key in ("kernel", "dense"):
                    kwargs[key] = tuple(int(p) for p in value.split())
                elif key != "variant":
                    kwargs[key] = int(value)
        except ValueError as exc:
            raise ConfigurationError(f"model config: bad value ({exc})") from None
        return cls(**kwargs), extras


class Stream(Layer):
    """One multistream branch: two stacked ConvLSTMs over a slice of the lags."""

    def __init__(self, rng: np.random.Generator, filters: int, kernel):
        self.conv = [
            ConvLSTM(rng, 1, filters, kernel, return_sequence=True),
            ConvLSTM(rng, filters, filters, kernel),
        ]


class ModelGraph(Layer):
    """One assembled architecture: layers, config and forward pass."""

    def __init__(self, cfg: ModelConfig, state: Optional[dict] = None):
        """Draw the initial weights from ``cfg.seed``, or draw none and load
        ``state``, which :meth:`Layer.load_state` refuses if it misses a slot:
        ``eval`` on such a checkpoint exits 1 and names the slot."""
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed) if state is None else None
        kernel = cfg.kernel
        if cfg.multistream:
            self.streams = [Stream(rng, cfg.filters, kernel) for _ in range(cfg.streams)]
        else:
            self.backbone = ConvLSTM(rng, 1, cfg.filters, kernel)
        if cfg.attention:
            self.encoder = EncoderBlock(
                rng, cfg.embed_dim, cfg.key_dim, cfg.ff_dim
            )
        self.norm = BatchNorm(cfg.merged_channels)
        head: list[Dense] = []
        width = cfg.merged_channels * cfg.features * cfg.cities
        for out_width in cfg.dense:
            head.append(Dense(rng, width, out_width, relu=True))
            width = out_width
        head.append(Dense(rng, width, cfg.n_targets))
        self.head = head
        if state is not None:
            self.load_state(state)

    def _stack(self, stream: int) -> list[ConvLSTM]:
        """The ConvLSTMs of one stream, input side first."""
        return self.streams[stream].conv if self.cfg.multistream else [self.backbone]

    def _front(self, stream: int, lags, states=None) -> Tensor:
        """Run one stream over ``(B, V', F, C)`` lags; returns its final map.

        ``states`` holds each ConvLSTM's initial ``(h, c)``, ``None`` for
        zeros; without it every layer starts from zeros, as in ``forward``.
        """
        layers = self._stack(stream)
        nb, steps, nf, nc = lags.shape
        x = ad.reshape(lags, (nb, steps, 1, nf, nc))
        for layer, state in zip(layers, states or [None] * len(layers)):
            x = layer(x, state)
        return x

    def _convolve(self, batch: Tensor) -> Tensor:
        """Run the recurrent front end; returns the merged (B, ch, F, C) map,
        the streams' final maps stacked on the channel axis."""
        v = self.cfg.lags_per_stream
        maps = [
            self._front(s, batch[:, s * v : (s + 1) * v])
            for s in range(self.cfg.streams)
        ]
        return maps[0] if len(maps) == 1 else ad.concat(maps, axis=1)

    def _attend(self, grid: Tensor) -> Tensor:
        """Encoder block over city tokens: (B, ch, F, C) -> same shape."""
        nb, ch, nf, nc = grid.shape
        tokens = ad.reshape(ad.transpose(grid, (0, 3, 1, 2)), (nb, nc, ch * nf))
        attended = self.encoder(tokens)
        return ad.transpose(
            ad.reshape(attended, (nb, nc, ch, nf)), (0, 2, 3, 1)
        )

    def _back(self, grid: Tensor, training: bool = False) -> Tensor:
        """The shared back end: attention (att_*), batch norm, the dense head."""
        if self.cfg.attention:
            grid = self._attend(grid)
        x = ad.reshape(self.norm(grid, training=training), (grid.shape[0], -1))
        for layer in self.head:
            x = layer(x)
        return x

    def forward(self, batch, mode: str = "infer") -> Tensor:
        if mode not in ("train", "infer"):
            raise ConfigurationError(f"mode must be train or infer, got {mode!r}")
        batch = ad.as_tensor(batch)
        self._check_batch(batch.shape)
        return self._back(self._convolve(batch), training=mode == "train")

    def _check_batch(self, shape: tuple[int, ...]) -> None:
        """Reject inputs that are not ``(B, L, F, C)`` for this model."""
        cfg = self.cfg
        if len(shape) != 4 or shape[1:] != (cfg.lags, cfg.features, cfg.cities):
            raise DimensionError(
                f"expected batch of shape (B, {cfg.lags}, {cfg.features}, "
                f"{cfg.cities}), got {shape}"
            )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Infer-mode predictions ``(N, n)`` for ``(N, L, F, C)`` inputs.

        The inputs go through :meth:`forward` in slices of ``PREDICT_BATCH``
        with taping off.
        """
        with ad.no_grad():
            parts = [
                self.forward(Tensor(inputs[s : s + PREDICT_BATCH]), "infer").data
                for s in range(0, len(inputs), PREDICT_BATCH)
            ]
        return np.concatenate(parts, axis=0)

    def predict_masked_lags(
        self, inputs: np.ndarray, fill: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predictions for ``inputs`` and for each copy with one lag masked.

        ``inputs`` is ``(N, L, F, C)`` and ``fill`` the ``(F, C)`` grid that
        overwrites the masked lag.  Returns the unmasked predictions
        ``(N, n)`` and the masked ones ``(L, N, n)``, lag ``t`` masked in
        entry ``t``; they equal, bitwise, :meth:`predict` of the stacked
        unmasked and lag-masked copies in :func:`in_full_slices`.

        Each slice of ``PREDICT_BATCH`` samples, padded to whole 8-column
        blocks (:func:`autodiff._block_unit`), walks each stream forward once
        from zeros, one :meth:`ConvLSTM.step` per lag.  Before stepping lag
        ``t``, the walk reruns lags ``t..`` of that stream from its current
        states with lag ``t`` masked, and copies out the rerun's final map.
        The back end then runs once over the slice's (L + 1) stacked maps.
        """
        cfg = self.cfg
        self._check_batch(inputs.shape)
        if fill.shape != inputs.shape[2:]:
            raise DimensionError(
                f"fill {fill.shape} does not match the {inputs.shape[2:]} grid"
            )
        v, width = cfg.lags_per_stream, cfg.filters
        unit = ad._block_unit(cfg.features * cfg.cities)
        parts = []
        with ad.no_grad():
            for start in range(0, len(inputs), PREDICT_BATCH):
                chunk = inputs[start : start + PREDICT_BATCH]
                m = len(chunk)
                chunk = pad_rows(chunk, -(-m // unit) * unit)
                # Entry 0 holds the unmasked merged final maps, entry t + 1
                # those with lag t masked; each stream fills its channels.
                grids = np.empty((cfg.lags + 1, m, cfg.merged_channels) + fill.shape)
                for s in range(cfg.streams):
                    layers = self._stack(s)
                    states = [None] * len(layers)
                    own = slice(s * width, (s + 1) * width)
                    for t in range(s * v, (s + 1) * v):
                        lags = chunk[:, t : (s + 1) * v].copy()
                        lags[:, 0] = fill
                        rerun = self._front(s, Tensor(lags), states)
                        grids[t + 1, :, own] = rerun.data[:m]
                        x = Tensor(chunk[:, t : t + 1])
                        for k, layer in enumerate(layers):
                            states[k] = layer.step(x, states[k])
                            x = states[k][0]
                    unmasked = [0] + [u + 1 for u in range(cfg.lags) if u // v != s]
                    grids[unmasked, :, own] = x.data[:m]
                stack = grids.reshape((-1,) + grids.shape[2:])
                parts.append(in_full_slices(
                    lambda rows: self._back(Tensor(rows)).data, len(stack),
                    lambda lo, hi: stack[lo:hi]).reshape(cfg.lags + 1, m, -1))
        predictions = np.concatenate(parts, axis=1)
        return predictions[0], predictions[1:]


def pad_rows(rows: np.ndarray, count: int) -> np.ndarray:
    """``rows`` with its last row repeated up to ``count`` rows."""
    padding = [(0, count - len(rows))] + [(0, 0)] * (rows.ndim - 1)
    return np.pad(rows, padding, mode="edge")


def in_full_slices(run, total: int, rows) -> np.ndarray:
    """``run`` over ``rows(start, stop)`` of ``total`` rows in slices of
    ``PREDICT_BATCH``, each built only when it runs.  The last slice repeats
    its last row up to a full one, so every product has the same row count
    wherever a row lands; the padding's outputs are dropped."""
    parts = []
    for start in range(0, total, PREDICT_BATCH):
        stop = min(start + PREDICT_BATCH, total)
        parts.append(run(pad_rows(rows(start, stop), PREDICT_BATCH))[: stop - start])
    return np.concatenate(parts)


def save_checkpoint(model: ModelGraph, path, extras: Optional[dict] = None):
    """Write parameters + running stats with a self-describing config block."""
    meta = model.cfg.to_text()
    for key, value in (extras or {}).items():
        meta += f"{key} = {value}\n"
    save_arrays(path, dict(model.named_state()), meta)


def load_checkpoint(path) -> tuple[ModelGraph, dict[str, str]]:
    """Rebuild a model from a checkpoint; returns it plus the extra meta."""
    arrays, meta = load_arrays(path)
    cfg, extras = ModelConfig.from_text(meta)
    return ModelGraph(cfg, arrays), extras

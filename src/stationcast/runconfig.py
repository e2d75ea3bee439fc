"""Flat ``key = value`` run configuration shared by every CLI command.

One RunConfig fully determines a training run; its canonical text form is
hashed to name the output directory, so identical configurations land in
identical places with identical artifacts.  Unknown keys are rejected rather
than ignored — a typo should fail loudly, not silently train the default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .data import TARGET_CITIES
from .errors import ConfigurationError
from .serialize import parse_key_values


def _optional(parser):
    def parse(text: str):
        return None if text.lower() == "none" else parser(text)

    return parse


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def _parse_strs(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


# Every run key: its parser and the help text of its ``train`` flag, in flag
# order.  The flag is the key with ``-`` for ``_``, except ``target_feature``,
# whose flag is ``--target``.  Flags, config files and checkpoint run meta all
# parse their raw text through this table.
RUN_KEYS = {
    "data": (_optional(str), "long-form dataset CSV"),
    "variant": (str, "unistream | att_unistream | multistream | att_multistream"),
    "horizon": (int, "days ahead to predict"),
    "target_feature": (str, "target weather feature (e.g. avg_temp, wind_speed)"),
    "target_cities": (_parse_strs, "comma-separated target city list"),
    "lags": (int, "input window length in days"),
    "seed": (int, "run seed"),
    "lr": (float, "learning rate"),
    "batch_size": (int, "training batch size"),
    "max_epochs": (int, "epoch budget"),
    "patience": (int, "early-stop patience in epochs"),
    "filters": (_optional(int), "ConvLSTM filter count"),
    "dense": (_optional(_parse_ints), "comma-separated dense-layer widths"),
    "streams": (_optional(int), "stream count (multistream variants)"),
    "kernel": (_parse_ints, "convolution kernel, e.g. 3,3"),
    "key_dim": (_optional(int), "attention key dimension"),
    "ff_dim": (_optional(int), "encoder feed-forward width"),
    "split_ratio": (float, "train+val fraction of days"),
    "val_fraction": (float, "validation fraction of the train block"),
    "stop_train_mse": (_optional(float), "stop once train MSE dips below this"),
    "out": (str, "output directory root"),
}

# The run keys a checkpoint records so that eval, occlude and scoremax cut
# the same test windows as training did.
RUN_META = ("horizon", "target_feature", "target_cities", "split_ratio", "val_fraction")


@dataclass
class RunConfig:
    """Every knob of the pipeline, with the reference defaults."""

    data: Optional[str] = None
    lags: int = 10
    horizon: int = 2
    target_feature: str = "avg_temp"
    target_cities: tuple[str, ...] = TARGET_CITIES
    split_ratio: float = 0.9
    val_fraction: float = 0.1
    variant: str = "unistream"
    filters: Optional[int] = None
    kernel: tuple[int, ...] = (3, 3)
    dense: Optional[tuple[int, ...]] = None
    key_dim: Optional[int] = None
    ff_dim: Optional[int] = None
    streams: Optional[int] = None
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    stop_train_mse: Optional[float] = None
    out: str = "runs"

    def apply(self, assignments: dict[str, str], source: str) -> None:
        """Parse and set ``key -> raw text`` pairs; unknown keys are fatal."""
        for key, raw in assignments.items():
            if key not in RUN_KEYS:
                raise ConfigurationError(
                    f"{source}: unknown config key {key!r}"
                )
            try:
                setattr(self, key, RUN_KEYS[key][0](raw))
            except (ValueError, TypeError):
                raise ConfigurationError(
                    f"{source}: bad value {raw!r} for key {key!r}"
                ) from None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"{path}: not UTF-8 text (byte {exc.start})"
            ) from None
        cfg = cls()
        cfg.apply(parse_key_values(text, str(path)), str(path))
        return cfg

    def _format(self, value) -> str:
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def texts(self, keys) -> dict[str, str]:
        """Each key's value as the text that ``apply`` parses back."""
        return {key: self._format(getattr(self, key)) for key in keys}

    def sub_config(self, cls, **given):
        """Build dataclass ``cls`` from the run keys it shares by name."""
        shared = {
            f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given
        }
        return cls(**shared, **given)

    def to_text(self) -> str:
        """Canonical form: every field but the output root, sorted by name.

        The output root is a destination, not part of the experiment, so the
        same configuration written anywhere keeps the same digest (and the
        recorded config stays byte-identical across destinations).
        """
        keys = sorted(f.name for f in fields(self) if f.name != "out")
        return "".join(f"{k} = {v}\n" for k, v in self.texts(keys).items())

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]

"""Flat ``key = value`` run configuration shared by every CLI command.

One RunConfig fully determines a training run; its canonical text form is
hashed to name the output directory, so identical configurations land in
identical places with identical artifacts.  Unknown keys are rejected rather
than ignored — a typo should fail loudly, not silently train the default.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

from .data import TARGET_CITIES
from .errors import ConfigurationError
from .models import ModelConfig
from .serialize import parse_key_values
from .training import TrainConfig


def _optional(parser):
    def parse(text: str):
        return None if text.lower() == "none" else parser(text)

    return parse


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def _parse_strs(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise ValueError("no names")
    return names


# Every run key: its parser, its default and the help text of its ``train``
# flag, in flag order.  A model or training key's default is the field of
# ModelConfig or TrainConfig it fills.  The flag is the key with ``-`` for
# ``_``, except ``target_feature``, whose flag is ``--target``.  Flags, config
# files and checkpoint run meta all parse their raw text through this table.
RUN_KEYS = {
    "data": (_optional(str), None, "long-form dataset CSV"),
    "variant": (str, ModelConfig.variant,
                "unistream | att_unistream | multistream | att_multistream"),
    "horizon": (int, 2, "days ahead to predict"),
    "target_feature": (str, "avg_temp",
                       "target weather feature (e.g. avg_temp, wind_speed)"),
    "target_cities": (_parse_strs, TARGET_CITIES, "comma-separated target city list"),
    "lags": (int, ModelConfig.lags, "input window length in days"),
    "seed": (int, ModelConfig.seed, "run seed"),
    "lr": (float, TrainConfig.lr, "learning rate"),
    "batch_size": (int, TrainConfig.batch_size, "training batch size"),
    "max_epochs": (int, TrainConfig.max_epochs, "epoch budget"),
    "patience": (int, TrainConfig.patience, "early-stop patience in epochs"),
    "filters": (_optional(int), ModelConfig.filters, "ConvLSTM filter count"),
    "dense": (_optional(_parse_ints), ModelConfig.dense,
              "comma-separated dense-layer widths"),
    "streams": (_optional(int), ModelConfig.streams,
                "stream count (multistream variants)"),
    "kernel": (_parse_ints, ModelConfig.kernel, "convolution kernel, e.g. 3,3"),
    "key_dim": (_optional(int), ModelConfig.key_dim, "attention key dimension"),
    "ff_dim": (_optional(int), ModelConfig.ff_dim, "encoder feed-forward width"),
    "split_ratio": (float, 0.9, "train+val fraction of days"),
    "val_fraction": (float, 0.1, "validation fraction of the train block"),
    "stop_train_mse": (_optional(float), TrainConfig.stop_train_mse,
                       "stop once train MSE dips below this"),
    "out": (str, "runs", "output directory root"),
}

# The run keys a checkpoint records so that eval, occlude and scoremax cut
# the same test windows as training did.
RUN_META = ("horizon", "target_feature", "target_cities", "split_ratio", "val_fraction")


class RunConfig:
    """Every run key, set to its ``RUN_KEYS`` default."""

    def __init__(self):
        for key, (_, default, _) in RUN_KEYS.items():
            setattr(self, key, default)

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
        """Canonical form: every run key but the output root, sorted by name.

        The output root is a destination, not part of the experiment, so the
        same configuration written anywhere keeps the same digest (and the
        recorded config stays byte-identical across destinations).
        """
        keys = sorted(key for key in RUN_KEYS if key != "out")
        return "".join(f"{k} = {v}\n" for k, v in self.texts(keys).items())

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]

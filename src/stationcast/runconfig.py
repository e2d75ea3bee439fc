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


_PARSERS = {
    "data": _optional(str),
    "lags": int,
    "horizon": int,
    "target_feature": str,
    "target_cities": _parse_strs,
    "split_ratio": float,
    "val_fraction": float,
    "variant": str,
    "filters": _optional(int),
    "kernel": _parse_ints,
    "dense": _optional(_parse_ints),
    "key_dim": _optional(int),
    "ff_dim": _optional(int),
    "streams": _optional(int),
    "lr": float,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "stop_train_mse": _optional(float),
    "out": str,
}


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
            parser = _PARSERS.get(key)
            if parser is None:
                raise ConfigurationError(
                    f"{source}: unknown config key {key!r}"
                )
            try:
                setattr(self, key, parser(raw))
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

    def to_text(self) -> str:
        """Canonical form: every field but the output root, sorted by name.

        The output root is a destination, not part of the experiment, so the
        same configuration written anywhere keeps the same digest (and the
        recorded config stays byte-identical across destinations).
        """
        lines = [
            f"{f.name} = {self._format(getattr(self, f.name))}"
            for f in sorted(fields(self), key=lambda f: f.name)
            if f.name != "out"
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]

"""Dataset ingestion, min-max scaling, lag windowing, and chronological splits.

The dataset is a daily cube ``(T, F, C)``: T consecutive days, F = 18 weather
features, C = 18 European cities.  On disk it is a long-form CSV, one row per
(date, city), columns ``date,city,<the 18 features>``.  The two categorical
features (wind direction, condition) are stored as symbols from fixed
vocabularies and integer-coded on load so every column is numeric.

Scaling is per (feature, city) min-max fitted on the training days only;
windows of L lags predict one feature at n target cities `horizon` days after
the window's last day; the split is chronological (train, then validation,
then test) so no window leaks across a boundary.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, IngestionError, TooFewDaysError
from .serialize import load_arrays, parse_key_values, save_arrays

FEATURES = (
    "high_temp",
    "low_temp",
    "avg_temp",
    "dew_point",
    "high_dew_point",
    "low_dew_point",
    "avg_dew_point",
    "max_wind_speed",
    "visibility",
    "sea_level_pressure",
    "observed_temp",
    "observed_dew_point",
    "humidity",
    "wind_direction",
    "wind_speed",
    "wind_gust",
    "pressure",
    "condition",
)

CITIES = (
    "Amsterdam",
    "Antwerp",
    "Barcelona",
    "Berlin",
    "Brussels",
    "Cologne",
    "Frankfurt",
    "Geneva",
    "Hamburg",
    "London",
    "Luxembourg",
    "Lyon",
    "Madrid",
    "Milan",
    "Munich",
    "Paris",
    "Rotterdam",
    "Zurich",
)

TARGET_CITIES = ("Paris", "Luxembourg", "London", "Brussels", "Frankfurt", "Rotterdam")

# Per-city MSE tables are reported in this fixed order.
TABLE_CITY_ORDER = ("Luxembourg", "Rotterdam", "Frankfurt", "Brussels", "London", "Paris")

WIND_DIRECTIONS = (
    "N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE",
    "S", "SSW", "SW", "WSW", "W", "WNW", "NW", "NNW",
)

CONDITIONS = (
    "Clear",
    "Mostly Clear",
    "Partly Cloudy",
    "Mostly Cloudy",
    "Cloudy",
    "Overcast",
    "Fog",
    "Mist",
    "Haze",
    "Drizzle",
    "Light Rain",
    "Rain",
    "Heavy Rain",
    "Thunderstorm",
    "Light Snow",
    "Snow",
    "Heavy Snow",
    "Sleet",
    "Hail",
    "Windy",
    "Blowing Dust",
)

VOCABULARIES = {"wind_direction": WIND_DIRECTIONS, "condition": CONDITIONS}


@dataclass(frozen=True)
class WeatherCube:
    """An immutable ``(T, F, C)`` daily value cube with its axis labels."""

    values: np.ndarray
    dates: tuple[datetime.date, ...]
    features: tuple[str, ...]
    cities: tuple[str, ...]
    imputed: int = 0

    def __post_init__(self):
        t, f, c = self.values.shape
        if t != len(self.dates) or f != len(self.features) or c != len(self.cities):
            raise ConfigurationError(
                f"cube axes disagree with labels: values {self.values.shape}, "
                f"{len(self.dates)} dates, {len(self.features)} features, "
                f"{len(self.cities)} cities"
            )

    @property
    def days(self) -> int:
        return self.values.shape[0]


def _parse_date(text: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise IngestionError(f"line {line}: bad date {text!r} (expected ISO-8601)")


def _parse_cell(feature: str, text: str, line: int) -> float:
    if text == "":
        return np.nan
    vocab = VOCABULARIES.get(feature)
    if vocab is not None:
        try:
            return float(vocab.index(text))
        except ValueError:
            raise IngestionError(
                f"line {line}: unknown {feature} symbol {text!r}"
            ) from None
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"line {line}: non-numeric {feature} value {text!r}"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"line {line}: non-finite {feature} value {text!r} "
            "(a missing cell is left blank)"
        )
    return value


def _fill_forward(flat: np.ndarray) -> np.ndarray:
    """Propagate the last seen value down each column of a (T, K) array."""
    missing = np.isnan(flat)
    rows = np.arange(flat.shape[0])[:, None]
    index = np.where(missing, 0, rows)
    np.maximum.accumulate(index, axis=0, out=index)
    return flat[index, np.arange(flat.shape[1])[None, :]]


def _missing_dates_message(seen: list[datetime.date], span: int) -> str:
    """Name the first few calendar days absent between sorted ``seen`` dates."""
    shown = []
    for before, after in zip(seen, seen[1:]):
        day = before + datetime.timedelta(days=1)
        while day < after and len(shown) < 10:
            shown.append(day.isoformat())
            day += datetime.timedelta(days=1)
    more = span - len(seen) - len(shown)
    return "missing dates (non-daily gap): " + ", ".join(shown) + (
        f" and {more} more" if more else ""
    )


def load_dataset(
    path,
    cities: Sequence[str] = CITIES,
    features: Sequence[str] = FEATURES,
) -> WeatherCube:
    """Read a long-form CSV into a cube; impute gaps forward- then back-fill.

    Every date in the file's min..max range must appear for at least one city
    (a fully absent day is unrecoverable and reported with the list of missing
    dates).  Individual missing cells or missing (date, city) rows are filled
    from the nearest earlier day, falling back to the nearest later one.
    """
    cities = tuple(cities)
    features = tuple(features)
    expected_header = ["date", "city", *features]
    city_pos = {name: j for j, name in enumerate(cities)}

    rows: dict[tuple[datetime.date, str], list[float]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != expected_header:
                raise IngestionError(
                    f"bad header: expected {expected_header}, got {header}"
                )
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise IngestionError(
                        f"line {line}: expected {len(expected_header)} fields, "
                        f"got {len(row)}"
                    )
                date = _parse_date(row[0], line)
                city = row[1]
                if city not in city_pos:
                    raise IngestionError(f"line {line}: unknown city {city!r}")
                key = (date, city)
                if key in rows:
                    raise IngestionError(
                        f"line {line}: duplicate row for {date} / {city}"
                    )
                rows[key] = [
                    _parse_cell(f, cell, line) for f, cell in zip(features, row[2:])
                ]
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: not UTF-8 text (byte {exc.start} of a read block)"
            ) from None
        except csv.Error as exc:
            raise IngestionError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    seen_dates = sorted({date for date, _ in rows})
    first, last = seen_dates[0], seen_dates[-1]
    span = (last - first).days + 1
    if len(seen_dates) < span:
        raise IngestionError(_missing_dates_message(seen_dates, span))
    dates = tuple(first + datetime.timedelta(days=i) for i in range(span))

    values = np.full((span, len(features), len(cities)), np.nan)
    for (date, city), cells in rows.items():
        values[(date - first).days, :, city_pos[city]] = cells

    flat = values.reshape(span, -1)
    imputed = int(np.isnan(flat).sum())
    if imputed:
        flat = _fill_forward(flat)
        flat = _fill_forward(flat[::-1])[::-1]
        if np.isnan(flat).any():
            f_idx, c_idx = np.divmod(
                np.unique(np.where(np.isnan(flat))[1]), len(cities)
            )
            holes = [f"{features[f]}/{cities[c]}" for f, c in zip(f_idx, c_idx)]
            raise IngestionError(
                f"columns with no data at all: {', '.join(holes)}"
            )
        values = flat.reshape(values.shape)

    return WeatherCube(
        np.ascontiguousarray(values), dates, features, cities, imputed
    )


def emit_csv(cube: WeatherCube, path) -> None:
    """Write the canonical long-form CSV; reloading it reproduces the cube.

    Floats are written with ``repr`` so the round trip is bitwise; categorical
    codes are written back as their vocabulary symbols; NaN cells are left
    blank.
    """
    vocabs = [VOCABULARIES.get(feature) for feature in cube.features]
    days = cube.values.transpose(0, 2, 1).tolist()  # (T, C, F) python floats
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "city", *cube.features])
        for date, day in zip(cube.dates, days):
            for city, row in zip(cube.cities, day):
                cells = [
                    "" if math.isnan(v) else repr(v) if vocab is None else vocab[int(v)]
                    for v, vocab in zip(row, vocabs)
                ]
                writer.writerow([date.isoformat(), city, *cells])


# -- scaling -----------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    """Per-(feature, city) min-max transform fitted on the training days."""

    mins: np.ndarray
    maxs: np.ndarray
    features: tuple[str, ...]
    cities: tuple[str, ...]

    def __post_init__(self):
        shape = (len(self.features), len(self.cities))
        if self.mins.shape != shape or self.maxs.shape != shape:
            raise ConfigurationError(
                f"scaler arrays {self.mins.shape} and {self.maxs.shape} disagree "
                f"with its {shape[0]} features and {shape[1]} cities"
            )

    @property
    def spans(self) -> np.ndarray:
        return self.maxs - self.mins

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(x - min) / (max - min); constant columns map to 0, never NaN."""
        spans = self.spans
        degenerate = spans == 0
        safe = np.where(degenerate, 1.0, spans)
        scaled = (values - self.mins) / safe
        return np.where(degenerate, 0.0, scaled)

    def inverse(self, values: np.ndarray, feature: str, cities: Sequence[str]):
        """Scaled ``(..., n)`` values of ``feature`` at ``cities``, in its units."""
        mins, spans = self.target_columns(feature, cities)
        return values * spans + mins

    def target_columns(self, feature: str, cities: Sequence[str]):
        missing = [] if feature in self.features else [f"feature {feature!r}"]
        missing += [f"city {c!r}" for c in cities if c not in self.cities]
        if missing:
            raise ConfigurationError(f"scaler does not cover {', '.join(missing)}")
        i = self.features.index(feature)
        cols = [self.cities.index(c) for c in cities]
        return self.mins[i, cols], self.spans[i, cols]

    def save(self, path) -> None:
        meta = (
            "features = " + " ".join(self.features) + "\n"
            "cities = " + " ".join(self.cities) + "\n"
        )
        save_arrays(path, {"mins": self.mins, "maxs": self.maxs}, meta)

    @classmethod
    def load(cls, path) -> "Scaler":
        arrays, meta = load_arrays(path)
        labels = parse_key_values(meta, f"{path} metadata")
        missing = ({"features", "cities"} - labels.keys()) | (
            {"mins", "maxs"} - arrays.keys()
        )
        if missing:
            raise ConfigurationError(f"{path}: scaler lacks {sorted(missing)}")
        return cls(
            arrays["mins"],
            arrays["maxs"],
            tuple(labels["features"].split()),
            tuple(labels["cities"].split()),
        )


def fit_scaler(cube: WeatherCube, train_days: range) -> Scaler:
    block = cube.values[train_days.start : train_days.stop]
    if block.shape[0] == 0:
        raise ConfigurationError("cannot fit a scaler on an empty training range")
    return Scaler(
        block.min(axis=0), block.max(axis=0), cube.features, cube.cities
    )


def scale_cube(cube: WeatherCube, scaler: Scaler) -> WeatherCube:
    for axis in ("features", "cities"):
        if getattr(scaler, axis) != getattr(cube, axis):
            raise ConfigurationError(
                f"scaler {axis} {list(getattr(scaler, axis))} differ from "
                f"the data's {list(getattr(cube, axis))}"
            )
    return replace(cube, values=scaler.transform(cube.values))


# -- windowing and splitting -------------------------------------------------


@dataclass(frozen=True)
class WindowedSet:
    """Paired (lag window, future target) samples from one chronological block."""

    inputs: np.ndarray  # (N, L, F, C) scaled
    targets: np.ndarray  # (N, n) scaled
    target_feature: str
    target_cities: tuple[str, ...]
    features: tuple[str, ...]  # the labels of the grid the windows come from
    cities: tuple[str, ...]

    def __post_init__(self):
        n, grid = len(self.target_cities), self.inputs.shape[2:]
        if self.inputs.ndim != 4 or self.targets.shape != (len(self.inputs), n):
            raise ConfigurationError(
                f"need (N, L, F, C) inputs and (N, {n}) targets, "
                f"got {self.inputs.shape} and {self.targets.shape}"
            )
        if grid != (len(self.features), len(self.cities)):
            raise ConfigurationError(
                f"{len(self.features)} feature and {len(self.cities)} city names "
                f"do not match the {grid[0]} x {grid[1]} grid"
            )

    def __len__(self) -> int:
        return self.inputs.shape[0]


def split_days(total: int, ratio: float, val_fraction: float):
    """Chronological (train, val, test) day ranges.

    The first ``ratio`` of days form the train+validation block, of which the
    last ``val_fraction`` is validation; the remaining days are test.  Both
    fractions lie in (0, 1): training needs a validation block.
    """
    if not 0 < ratio < 1:
        raise ConfigurationError(f"split ratio must be in (0, 1), got {ratio}")
    if not 0 < val_fraction < 1:
        raise ConfigurationError(
            f"validation fraction must be in (0, 1), got {val_fraction}"
        )
    trainval = int(total * ratio)
    n_val = int(trainval * val_fraction)
    return (
        range(0, trainval - n_val),
        range(trainval - n_val, trainval),
        range(trainval, total),
    )


def prepare(
    cube: WeatherCube,
    lags: int,
    horizon: int,
    target_feature: str,
    target_cities: Sequence[str] = TARGET_CITIES,
    *,
    ratio: float,
    val_fraction: float,
) -> tuple[WindowedSet, WindowedSet, WindowedSet, Scaler]:
    """Split chronologically, fit the scaler on train days only, window each
    block; returns ``(train, val, test, scaler)``.

    Windows are built inside each block independently, so no window's input
    days or target day cross a split boundary.
    """
    train_days, val_days, test_days = split_days(cube.days, ratio, val_fraction)
    scaler = fit_scaler(cube, train_days)
    scaled = scale_cube(cube, scaler)

    def block(days: range, name: str) -> WindowedSet:
        try:
            return window_block(
                scaled, days, lags, horizon, target_feature, target_cities
            )
        except TooFewDaysError as exc:
            raise ConfigurationError(f"{name} block too short: {exc}") from None

    return (
        block(train_days, "train"),
        block(val_days, "validation"),
        block(test_days, "test"),
        scaler,
    )


def window_block(
    scaled: WeatherCube,
    days: range,
    lags: int,
    horizon: int,
    target_feature: str,
    target_cities: Sequence[str] = TARGET_CITIES,
) -> WindowedSet:
    """Every valid (L consecutive days, day + horizon target) pair inside
    one contiguous day range of an already-scaled cube.

    Window i has input days s+i..s+i+L-1 and its target on day s+i+L-1+horizon,
    where s = ``days.start``, so a range of T days yields N = T - L - horizon + 1
    windows.
    """
    if lags < 1 or horizon < 1:
        raise ConfigurationError(
            f"lags and horizon must be >= 1, got {lags} and {horizon}"
        )
    n = len(days) - lags - horizon + 1
    if n < 1:
        raise TooFewDaysError(
            f"{len(days)} days cannot fit even one window of {lags} lags "
            f"+ horizon {horizon}"
        )

    def index(labels: tuple[str, ...], name: str, axis: str) -> int:
        if name not in labels:
            raise ConfigurationError(f"unknown {axis} {name!r}; cube has {list(labels)}")
        return labels.index(name)

    f_idx = index(scaled.features, target_feature, "feature")
    c_idx = [index(scaled.cities, c, "city") for c in target_cities]
    if len(set(c_idx)) < len(c_idx):
        raise ConfigurationError(f"target cities repeat: {list(target_cities)}")
    starts = np.arange(days.start, days.start + n)
    inputs = scaled.values[starts[:, None] + np.arange(lags)[None, :]]
    targets = scaled.values[starts + lags - 1 + horizon][:, f_idx][:, c_idx]
    return WindowedSet(
        inputs, targets, target_feature, tuple(target_cities), scaled.features,
        scaled.cities,
    )


# -- synthetic data ----------------------------------------------------------


# First date and noise level of every synthetic cube.
SYNTHETIC_START = datetime.date(2005, 5, 1)
SYNTHETIC_NOISE = 0.05


def synthetic_cube(
    days: int,
    features: Sequence[str] = FEATURES,
    cities: Sequence[str] = CITIES,
    seed: int = 0,
) -> WeatherCube:
    """A smooth, deterministic stand-in cube: per-column sinusoids plus noise.

    Columns get random phases/periods/offsets from the seed, so the cube has
    non-constant columns with distinct mins and maxes.
    """
    rng = np.random.default_rng(seed)
    n_f, n_c = len(features), len(cities)
    t = np.arange(days)[:, None, None]
    period = rng.uniform(20.0, 90.0, size=(1, n_f, n_c))
    phase = rng.uniform(0.0, 2 * np.pi, size=(1, n_f, n_c))
    offset = rng.uniform(-5.0, 40.0, size=(1, n_f, n_c))
    amplitude = rng.uniform(2.0, 15.0, size=(1, n_f, n_c))
    values = offset + amplitude * np.sin(2 * np.pi * t / period + phase)
    values += SYNTHETIC_NOISE * rng.standard_normal(values.shape)
    dates = tuple(SYNTHETIC_START + datetime.timedelta(days=i) for i in range(days))
    return WeatherCube(values, dates, tuple(features), tuple(cities))


def write_demo_csv(path, days: int = 120, seed: int = 0, missing: int = 0) -> int:
    """Generate a schema-complete demo CSV; returns the number of blanked cells.

    Values land in plausible per-feature ranges and the categorical columns
    carry real vocabulary symbols.  With ``missing > 0`` that many numeric
    cells are blanked (never on the first or last day, so imputation can
    always recover them).
    """
    if days < 1:
        raise ConfigurationError(f"a demo CSV needs at least 1 day, got {days}")
    numeric = [i for i, f in enumerate(FEATURES) if f not in VOCABULARIES]
    interior = max(days - 2, 0) * len(numeric) * len(CITIES)
    if not 0 <= missing <= interior:
        raise ConfigurationError(
            f"cannot blank {missing} cells: a {days}-day demo has {interior} "
            "numeric cells off its first and last day"
        )
    rng = np.random.default_rng(seed)
    cube = synthetic_cube(days, seed=seed)
    values = cube.values.copy()
    for name, vocab in VOCABULARIES.items():
        i = cube.features.index(name)
        values[:, i, :] = rng.integers(0, len(vocab), size=(days, len(CITIES)))
    blanked = set()
    if missing:
        while len(blanked) < missing:
            cell = (
                int(rng.integers(1, days - 1)),
                int(rng.choice(numeric)),
                int(rng.integers(0, len(CITIES))),
            )
            blanked.add(cell)
    for cell in blanked:
        values[cell] = np.nan
    emit_csv(replace(cube, values=values), path)
    return len(blanked)

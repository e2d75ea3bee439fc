"""The benchmark workloads: set-up, the timed CLI commands and their checks.

Every workload drives ``stationcast.cli.main(argv)`` in-process, one command
at a time (one client, closed loop), on the default 18 x 18 grid. Inputs are
made by ``stationcast.data.write_demo_csv`` from the run's seed. The
checkpoints that ``occlude`` and ``scoremax`` read are written during set-up
by the CLI's own ``train``.

A *unit* is the group of commands a run starts or skips as a whole: one
command for ``train`` and ``scoremax``, and a ``feature_row`` + ``temporal``
pair for ``occlude``, so that every run weighs the two modes alike.

Each command's outputs are checked after it ends, outside the timed region.
A check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from stationcast.autodiff import Tensor, no_grad
from stationcast.cli import main as cli_main
from stationcast.data import (
    TARGET_CITIES,
    Scaler,
    load_dataset,
    scale_cube,
    split_days,
    window_block,
    write_demo_csv,
)
from stationcast.models import load_checkpoint

# The CLI defaults the train op relies on: lags, horizon, the 90/10 split
# with 10% of the train block held out for validation, and six targets.
LAGS, HORIZON, SPLIT_RATIO, VAL_FRACTION, TARGETS = 10, 2, 0.9, 0.1, 6

# The checkpoints for occlude and scoremax train on an even split so that a
# short CSV still gives a train batch, a validation window and test samples.
EXPLAIN_SPLIT = ("--split-ratio", "0.5", "--val-fraction", "0.5")

TRAIN_ARTIFACTS = (
    "checkpoint.wxtn",
    "scaler.wxtn",
    "config.txt",
    "training_log.csv",
    "eval_table.csv",
    "manifest.txt",
)

# Relative tolerance of the cross-checks: far above float64 rounding, far
# below any real disagreement.
RTOL = 1e-9


class CheckFailed(Exception):
    """A command's outputs are missing, malformed or wrong."""


@dataclass(frozen=True)
class Size:
    """Input and op sizes; ``FULL`` is the benchmark, ``SMOKE`` a self-test."""

    train_days: int = 140  # 103 training windows: 7 Adam steps at batch 16
    explain_days: int = 60  # 19 test windows on the even split
    samples: int = 4
    iterations: int = 40
    model_flags: tuple[str, ...] = ()
    setup_repeats: int = 3


FULL = Size()
SMOKE = Size(
    samples=2,
    iterations=3,
    model_flags=("--filters", "2", "--dense", "8", "--key-dim", "4", "--ff-dim", "8"),
    setup_repeats=1,
)


@dataclass
class Command:
    """One CLI call: its argv, its output directory and its output check.

    ``check(out)`` returns the work the command did, in the workload's unit.
    """

    argv: list[str]
    out: Path
    check: Callable[[Path], float]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and its standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _exists(path: Path) -> Path:
    _expect(path.is_file(), f"missing output {path.name}")
    return path


def read_grid(path: Path) -> np.ndarray:
    """The values of a CSV with a header row and a label column; all finite."""
    with open(_exists(path), newline="") as handle:
        rows = list(csv.reader(handle))
    _expect(len(rows) >= 2, f"{path.name} has no data rows")
    try:
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _expect(
        values.ndim == 2 and values.shape[1] == len(rows[0]) - 1,
        f"{path.name} is ragged",
    )
    _expect(bool(np.isfinite(values).all()), f"{path.name} has non-finite values")
    return values


def _close(got: float, want: float, what: str) -> None:
    _expect(
        abs(got - want) <= RTOL * max(1.0, abs(want)),
        f"{what}: output {got!r}, recomputed {want!r}",
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """Set-up, the commands of one unit, and the checks of their outputs."""

    name = ""
    label = ""  # the figure's name for this workload, printed beside work_per_s
    label_unit = ""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def setup(self, where: Path) -> None:
        """Make the inputs from the seed, then warm up; timed as ``setup_s``.

        The warm-up is a short command of the unit's last kind, so that no
        timed command is the first of its kind in this process. It also
        makes every set-up mostly numpy work: the CSV writer alone is plain
        Python, whose speed swings far more with the load on a shared host.
        """
        self.make_inputs(where)
        out = where / "warm-up"
        out.mkdir()
        code, err = run_cli(self.unit(out)[-1].argv + self.warm_up_flags())
        if code != 0:
            raise CheckFailed(f"warm-up exited {code}: {err.strip()}")

    def make_inputs(self, where: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build what the checks compare against; not timed."""

    def unit(self, out: Path) -> list[Command]:
        raise NotImplementedError

    def warm_up_flags(self) -> list[str]:
        """Flags that shrink the unit's last command into a short warm-up;
        they come after the unit's own and override them."""
        raise NotImplementedError


class Train(Workload):
    """``train --variant att_multistream --max-epochs 1`` on a seeded CSV."""

    name = "train"
    label = "train_samples_per_s"
    label_unit = "samples/s"

    def make_inputs(self, where):
        self.csv = where / "train.csv"
        write_demo_csv(self.csv, days=self.size.train_days, seed=self.seed)
        self.warm_up_csv = where / "warm-up.csv"
        write_demo_csv(self.warm_up_csv, days=self.size.explain_days, seed=self.seed)

    def prepare(self):
        trainval = int(self.size.train_days * SPLIT_RATIO)
        train_days = trainval - int(trainval * VAL_FRACTION)
        self.windows = train_days - LAGS - HORIZON + 1
        self.checkpoint_digest = None

    def unit(self, out):
        argv = [
            "train",
            "--data", str(self.csv),
            "--variant", "att_multistream",
            "--max-epochs", "1",
            "--out", str(out),
            *self.size.model_flags,
        ]
        return [Command(argv, out, self.check)]

    def warm_up_flags(self):
        # The short CSV on the even split: 4 training windows, one Adam step.
        return ["--data", str(self.warm_up_csv), *EXPLAIN_SPLIT]

    def check(self, out: Path) -> float:
        runs = sorted(out.glob("run-*"))
        _expect(len(runs) == 1, f"expected one run directory, found {len(runs)}")
        for name in TRAIN_ARTIFACTS:
            _exists(runs[0] / name)
        mse = read_grid(runs[0] / "eval_table.csv")
        _expect(mse.shape == (TARGETS, 1), f"eval table has shape {mse.shape}")
        _expect(bool((mse >= 0).all()), "eval table has a negative MSE")
        epochs = len(read_grid(runs[0] / "training_log.csv"))
        _expect(epochs == 1, f"training log has {epochs} epochs")
        digest = _sha256(runs[0] / "checkpoint.wxtn")
        if self.checkpoint_digest is None:
            self.checkpoint_digest = digest
        _expect(
            digest == self.checkpoint_digest,
            "checkpoint differs from the first train op's on the same inputs",
        )
        return float(self.windows * epochs)


class _Explain(Workload):
    """Shared set-up of occlude and scoremax: a CSV and a checkpoint."""

    variant = ""

    def make_inputs(self, where):
        self.csv = where / "explain.csv"
        write_demo_csv(self.csv, days=self.size.explain_days, seed=self.seed)
        argv = [
            "train",
            "--data", str(self.csv),
            "--variant", self.variant,
            "--max-epochs", "1",
            *EXPLAIN_SPLIT,
            "--out", str(where / "runs"),
            *self.size.model_flags,
        ]
        code, err = run_cli(argv)
        if code != 0:
            raise CheckFailed(f"set-up train exited {code}: {err.strip()}")
        (self.checkpoint,) = (where / "runs").glob("run-*/checkpoint.wxtn")

    def prepare(self):
        """Reload the model and the test windows through the public API."""
        self.model, extras = load_checkpoint(self.checkpoint)
        scaler = Scaler.load(self.checkpoint.parent / extras["scaler_file"])
        cube = load_dataset(self.csv)
        _, _, test_days = split_days(
            cube.days, float(extras["split_ratio"]), float(extras["val_fraction"])
        )
        self.grid = (len(cube.features), len(cube.cities))
        self.cities = extras["target_cities"].split(",")
        self.test = window_block(
            scale_cube(cube, scaler),
            test_days,
            self.model.cfg.lags,
            int(extras["horizon"]),
            extras["target_feature"],
            self.cities,
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.model.forward(Tensor(inputs), mode="infer").data

    def _command(self, out: Path, check, *flags: str) -> Command:
        argv = [
            self.name,
            "--checkpoint", str(self.checkpoint),
            "--data", str(self.csv),
            "--out", str(out),
            *flags,
        ]
        return Command(argv, out, check)


class Occlude(_Explain):
    """``occlude --mode feature_row`` then ``--mode temporal``, six maps each.

    The work of a command is the user's request: for every written map, its
    mask positions times the samples averaged over.
    """

    name = "occlude"
    label = "occlude_cells_per_s"
    label_unit = "cells/s"
    variant = "att_multistream"
    modes = ("feature_row", "temporal")

    def prepare(self):
        super().prepare()
        self.inputs = self.test.inputs[: self.size.samples]
        self.truths = self.test.targets[: self.size.samples]
        self.reference = self.predict(self.inputs)
        self.rng = np.random.default_rng(self.seed)
        self.masked = {}

    def unit(self, out):
        return [
            self._command(
                out / mode,
                partial(self.check, mode),
                "--mode", mode,
                "--samples", str(self.size.samples),
            )
            for mode in self.modes
        ]

    def warm_up_flags(self):
        return ["--city", TARGET_CITIES[0], "--samples", "1"]

    def _masked_prediction(self, mode: str, position: int) -> np.ndarray:
        """Predictions with one position zeroed: a feature row or a lag."""
        if (mode, position) not in self.masked:
            masked = self.inputs.copy()
            if mode == "feature_row":
                masked[:, :, position, :] = 0.0
            else:
                masked[:, position] = 0.0
            self.masked[mode, position] = self.predict(masked)
        return self.masked[mode, position]

    def check(self, mode: str, out: Path) -> float:
        lags = self.inputs.shape[1]
        shape = (self.grid[0], 1) if mode == "feature_row" else (1, lags)
        position = int(self.rng.integers(max(shape)))
        masked = self._masked_prediction(mode, position)
        cells = 0
        for j, city in enumerate(self.cities):
            stem = out / f"occlusion_{mode}_{city}"
            _exists(stem.with_suffix(".svg"))
            values = read_grid(stem.with_suffix(".csv"))
            _expect(values.shape == shape, f"{stem.name} has shape {values.shape}")
            ref = (self.reference[:, j] - self.truths[:, j]) ** 2
            new = (masked[:, j] - self.truths[:, j]) ** 2
            want = float(np.mean(100.0 * (new - ref) / ref))
            _close(float(values.flat[position]), want, f"{stem.name}[{position}]")
            cells += values.size * len(self.inputs)
        return float(cells)


class Scoremax(_Explain):
    """``scoremax --iterations 40`` on a unistream checkpoint."""

    name = "scoremax"
    label = "scoremax_iters_per_s"
    label_unit = "iter/s"
    variant = "unistream"
    lag_maps = (1, 5, 10)  # the CLI's default --lags

    def prepare(self):
        super().prepare()
        anchor = np.clip(self.test.inputs[0], 0.0, 1.0)
        pred = self.predict(anchor[None])[0]
        self.initial_score = 1.0 / float(((pred - self.test.targets[0]) ** 2).mean())

    def unit(self, out):
        return [
            self._command(
                out, self.check, "--iterations", str(self.size.iterations)
            )
        ]

    def warm_up_flags(self):
        return ["--iterations", "2"]

    def check(self, out: Path) -> float:
        for lag in self.lag_maps:
            _exists(out / f"scoremax_lag{lag}.svg")
            grid = read_grid(out / f"scoremax_lag{lag}.csv")
            _expect(grid.shape == self.grid, f"lag {lag} map has shape {grid.shape}")
            _expect(
                bool(((grid >= 0) & (grid <= 1)).all()),
                f"lag {lag} map leaves the [0, 1] bounds",
            )
        scores = read_grid(out / "scoremax_scores.csv")
        iterations = self.size.iterations
        _expect(
            scores.shape == (iterations + 1, 1),
            f"trajectory has {scores.shape[0]} rows, expected {iterations + 1}",
        )
        _expect(bool((scores > 0).all()), "trajectory has a non-positive score")
        _close(float(scores[0, 0]), self.initial_score, "initial score")
        return float(iterations)


WORKLOADS = {w.name: w for w in (Train, Occlude, Scoremax)}

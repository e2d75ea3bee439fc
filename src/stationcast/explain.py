"""Post-hoc explainability over a frozen model.

Two techniques:

* Occlusion analysis: slide a mask over the input (a feature row, a city
  column, a p x p patch of the feature/city grid, or one whole lag slice),
  overwrite the masked region with a fill value, and record the percentage
  change of the prediction MSE against the unmasked reference, averaged over
  a set of samples.  Bigger positive change = the region mattered more.
  One sweep forwards each masked input once and scores every requested
  target (one city, or the whole output vector) from those predictions.
  The spatial sweep stacks the unmasked inputs and every masked copy and
  forwards the stack in slices of exactly ``PREDICT_BATCH`` rows, the last
  one padded.
  The temporal sweep reruns only the ConvLSTM steps a masked lag changes:
  the steps before it and the other streams come from the unmasked pass.
* Score maximization: gradient ascent on the input itself to maximize
  h = 1 / MSE against an anchor sample's truth, yielding an input map whose
  bright cells show what the model wants to see.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Scaler, WindowedSet
from .errors import (
    ConfigurationError,
    ContractError,
    InfiniteScoreError,
    NumericalError,
)
from .models import ModelGraph, in_full_slices
from .training import mse

OCCLUSION_MODES = ("feature_row", "city_column", "patch", "temporal")


def _block_labels(names: Sequence[str], size: int) -> tuple[str, ...]:
    if size == 1:
        return tuple(names)
    return tuple(
        f"{names[k]}..{names[k + size - 1]}" for k in range(0, len(names), size)
    )


def mask_layout(
    mode: str,
    lags: int,
    feature_names: Sequence[str],
    city_names: Sequence[str],
    patch_size: int = 1,
) -> tuple[list[tuple], tuple[str, ...], tuple[str, ...]]:
    """Every mask position and the row and column labels of its map.

    Positions are index expressions into an ``(N, L, F, C)`` array, in the
    row-major order of the ``(rows, cols)`` map.  They tile the grid without
    overlap: feature_row gives F rows, city_column C rows, temporal L
    columns, and patch an (F/p) x (C/p) grid.
    """
    everything = slice(None)
    score = ("mean_pct_change",)
    features, cities = len(feature_names), len(city_names)
    if mode == "feature_row":
        positions = [(everything, everything, i, everything) for i in range(features)]
        return positions, tuple(feature_names), score
    if mode == "city_column":
        positions = [(everything, everything, everything, j) for j in range(cities)]
        return positions, tuple(city_names), score
    if mode == "temporal":
        positions = [(everything, t, everything, everything) for t in range(lags)]
        return positions, score, tuple(f"lag_{t + 1}" for t in range(lags))
    if mode == "patch":
        p = patch_size
        if features % p or cities % p:
            valid = [
                q
                for q in range(1, min(features, cities) + 1)
                if features % q == 0 and cities % q == 0
            ]
            raise ConfigurationError(
                f"patch size {p} must divide both {features} and {cities}; "
                f"valid sizes: {valid}"
            )
        positions = [
            (everything, everything, slice(a * p, (a + 1) * p), slice(b * p, (b + 1) * p))
            for a in range(features // p)
            for b in range(cities // p)
        ]
        return positions, _block_labels(feature_names, p), _block_labels(city_names, p)
    raise ConfigurationError(
        f"unknown occlusion mode {mode!r}; expected one of {OCCLUSION_MODES}"
    )


@dataclass(frozen=True)
class SaliencyMap:
    """A labeled grid of values ready for CSV and heatmap export.

    ``values`` is (rows, cols); 1-D analyses use a single column (feature/
    city modes) or a single row (temporal).  ``samples_used`` counts the
    samples an occlusion map averages over.
    """

    values: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    samples_used: int = 0

    def __post_init__(self):
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ConfigurationError(
                f"saliency grid {self.values.shape} does not match "
                f"{len(self.row_labels)} x {len(self.col_labels)} labels"
            )


def _predict_masked_positions(
    model: ModelGraph, inputs: np.ndarray, positions: list[tuple], fill_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions ``(N, n)`` for ``inputs`` and ``(P, N, n)`` for each copy
    with one spatial position set to the fill.

    The rows are the N inputs, then N masked copies per position.  They go
    through ``model.predict`` in full slices (:func:`in_full_slices`), so a
    mask that leaves its inputs as they were reads exactly 0.
    """
    n = len(inputs)

    def masked_rows(start: int, stop: int) -> np.ndarray:
        chunk = inputs[np.arange(start, stop) % n]
        for block in range(max(start // n, 1), (stop - 1) // n + 1):
            index = positions[block - 1]
            lo, hi = max(block * n, start), min(block * n + n, stop)
            chunk[lo - start : hi - start][index] = fill_grid[index[2], index[3]]
        return chunk

    total = n * (len(positions) + 1)
    predictions = in_full_slices(model.predict, total, masked_rows)
    return predictions[:n], predictions[n:].reshape(len(positions), n, -1)


def occlusion_map(
    model: ModelGraph,
    windows: WindowedSet,
    scaler: Scaler,
    *,
    mode: str,
    patch_size: int = 1,
    fill: str = "zero",
    targets: Sequence[Optional[str]] = (None,),
) -> list[SaliencyMap]:
    """Average percentage MSE change per mask position, one map per target.

    ``windows`` holds the scaled ``(N, L, F, C)`` samples, their ``(N, n)``
    targets and the grid labels the maps are named by.  Each entry of
    ``targets`` is one of its target cities scored alone, or ``None`` for the
    whole output vector; all maps come from one sweep that forwards each
    masked input once.  Spatial masks cover all L lags at once; the temporal
    mask blanks one whole lag, and its predictions come from
    ``model.predict_masked_lags``.  ``fill`` is
    ``"zero"`` (scaled-space 0, the column minimum in raw units) or ``"mean"``
    (per-column mean of the sample set).  The MSEs are on values descaled by
    ``scaler`` for the target feature (identical Δ for single-city maps,
    weighted by the column spans for aggregate ones).  Each map skips, with a
    warning, the samples whose reference MSE for its target is exactly zero;
    the reference comes from the same pass as the masked predictions, so a
    sweep in which every sample is skipped raises after the masked passes.
    """
    if patch_size < 1:
        raise ConfigurationError(f"patch size must be >= 1, got {patch_size}")
    if fill not in ("zero", "mean"):
        raise ConfigurationError(f"fill must be 'zero' or 'mean', got {fill!r}")
    if len(windows) == 0:
        raise ContractError("occlusion needs at least one sample")
    inputs, truths = windows.inputs, windows.targets
    target_cities = windows.target_cities
    n_samples, lags = inputs.shape[:2]

    columns = []
    for target in targets:
        if target is None:
            columns.append(list(range(len(target_cities))))
        elif target in target_cities:
            columns.append([target_cities.index(target)])
        else:
            raise ConfigurationError(
                f"{target!r} is not a target city ({list(target_cities)})"
            )

    # Raw-unit errors: multiply per-column errors by the column spans before
    # squaring (the offset cancels in pred - truth).
    _, weights = scaler.target_columns(windows.target_feature, target_cities)

    positions, rows, cols = mask_layout(
        mode, lags, windows.features, windows.cities, patch_size
    )
    if fill == "mean":
        fill_grid = inputs.mean(axis=(0, 1))
    else:
        fill_grid = np.zeros(inputs.shape[2:])
    if mode == "temporal":
        # A masked lag leaves every ConvLSTM step before it unchanged; the
        # model reuses the unmasked steps, so all predictions come at once.
        reference, masked_preds = model.predict_masked_lags(inputs, fill_grid)
    else:
        reference, masked_preds = _predict_masked_positions(
            model, inputs, positions, fill_grid
        )

    def squared_errors(pred: np.ndarray) -> np.ndarray:
        return ((pred - truths) * weights) ** 2

    ref_errors = squared_errors(reference)
    masked_errors = [squared_errors(pred) for pred in masked_preds]
    maps = []
    for out_cols in columns:
        ref = ref_errors[:, out_cols].mean(axis=1)
        keep = ref > 0
        skipped = int(n_samples - keep.sum())
        if skipped:
            warnings.warn(
                f"skipped {skipped} of {n_samples} occlusion samples with zero "
                "reference MSE (perfect predictions)",
                stacklevel=2,
            )
        if not keep.any():
            raise ContractError(
                "every sample had zero reference MSE; nothing to occlude"
            )
        ref = ref[keep]
        # Reduce one position at a time: a mean over the whole (P, N) block
        # rounds differently in the last digit.
        deltas = [
            (100.0 * (err[:, out_cols].mean(axis=1)[keep] - ref) / ref).mean()
            for err in masked_errors
        ]
        values = np.reshape(deltas, (len(rows), len(cols)))
        maps.append(SaliencyMap(values, rows, cols, int(keep.sum())))
    return maps


# -- score maximization ------------------------------------------------------


@dataclass(frozen=True)
class ScoreMaxResult:
    """The ascended input map plus the score trajectory that produced it."""

    input_map: np.ndarray  # (L, F, C), clipped into [0, 1]
    scores: tuple[float, ...]  # h before each step, then h of the final map


def check_ascent(iterations: int, lr: float) -> None:
    """Refuse an ascent of fewer than one iteration or a rate that is not
    finite and >= 0, naming the ``scoremax`` flag."""
    if iterations < 1:
        raise ConfigurationError(f"--iterations must be >= 1, got {iterations}")
    if not (np.isfinite(lr) and lr >= 0):
        raise ConfigurationError(f"--lr: ascent rate must be finite and >= 0, got {lr}")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def score_maximize(
    model: ModelGraph,
    sample: np.ndarray,
    truth: np.ndarray,
    iterations: int = 100,
    lr: float = 0.01,
) -> ScoreMaxResult:
    """Gradient-ascend h = 1/MSE on the input; clip into the scaled range
    [0, 1] at the end.

    Each iteration computes dh/dI, L2-normalizes that gradient, and takes a
    step of length ``lr`` along it.  The model is used frozen (parameter
    gradient flags are saved and restored).
    """
    sample = np.array(sample, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    check_ascent(iterations, lr)
    if sample.min() < 0.0 or sample.max() > 1.0:
        raise ConfigurationError(
            "starting sample exceeds bounds [0.0, 1.0]: "
            f"range [{sample.min()}, {sample.max()}]"
        )

    cfg = model.cfg
    if sample.shape != (cfg.lags, cfg.features, cfg.cities):
        raise ConfigurationError(
            f"sample shape {sample.shape} does not match the model input "
            f"({cfg.lags}, {cfg.features}, {cfg.cities})"
        )
    if truth.shape != (cfg.n_targets,):
        raise ConfigurationError(
            f"truth must have shape ({cfg.n_targets},), got {truth.shape}"
        )

    flags = [(p, p.requires_grad) for p in model.parameters()]
    for p, _ in flags:
        p.requires_grad = False
    truth_row = truth[None, :]
    history = []
    try:
        current = Tensor(sample, requires_grad=True)
        for iteration in range(1, iterations + 1):
            current.zero_grad()
            h = 1.0 / mse(
                model.forward(ad.reshape(current, (1,) + current.shape), mode="infer"),
                truth_row,
            )
            value = h.item()
            if not np.isfinite(value):
                raise InfiniteScoreError(
                    f"score became non-finite at iteration {iteration} "
                    "(prediction matched truth exactly)"
                )
            history.append(value)
            h.backward()
            grad = current.grad
            if grad is None or not np.isfinite(grad).all():
                raise NumericalError(
                    f"non-finite input gradient at iteration {iteration}"
                )
            norm = float(np.sqrt((grad**2).sum()))
            if norm > 0:
                current = Tensor(
                    current.data + lr * (grad / norm), requires_grad=True
                )
    finally:
        for p, was in flags:
            p.requires_grad = was

    final = np.clip(current.data, 0.0, 1.0)
    pred = model.predict(final[None])[0]
    final_mse = float(((pred - truth) ** 2).mean())
    if final_mse == 0:
        raise InfiniteScoreError("final map predicts the truth exactly; h infinite")
    history.append(1.0 / final_mse)
    return ScoreMaxResult(final, tuple(history))

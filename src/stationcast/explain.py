"""Post-hoc explainability over a frozen model.

Two techniques:

* Occlusion analysis: slide a mask over the input (a feature row, a city
  column, a p x p patch of the feature/city grid, or one whole lag slice),
  overwrite the masked region with a fill value, and record the percentage
  change of the prediction MSE against the unmasked reference, averaged over
  a set of samples.  Bigger positive change = the region mattered more.
  One sweep forwards each masked input once and scores every requested
  target (one city, or the whole output vector) from those predictions.
* Score maximization: gradient ascent on the input itself to maximize
  h = 1 / MSE against an anchor sample's truth, yielding an input map whose
  bright cells show what the model wants to see.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .data import Scaler
from .errors import (
    ConfigurationError,
    ContractError,
    InfiniteScoreError,
    NumericalError,
)
from .models import ModelGraph

OCCLUSION_MODES = ("feature_row", "city_column", "patch", "temporal")


@dataclass(frozen=True)
class OcclusionSpec:
    """What to mask and what to fill it with.

    ``fill`` is ``"zero"`` (scaled-space 0, the column minimum in raw units)
    or ``"mean"`` (per-column mean of the sample set).  Which outputs are
    scored is not part of the spec: :func:`occlusion_map` takes a list of
    targets and scores them all from one sweep.
    """

    mode: str
    patch_size: int = 1
    fill: str = "zero"

    def __post_init__(self):
        if self.mode not in OCCLUSION_MODES:
            raise ConfigurationError(
                f"unknown occlusion mode {self.mode!r}; "
                f"expected one of {OCCLUSION_MODES}"
            )
        if self.patch_size < 1:
            raise ConfigurationError(
                f"patch size must be >= 1, got {self.patch_size}"
            )
        if self.fill not in ("zero", "mean"):
            raise ConfigurationError(
                f"fill must be 'zero' or 'mean', got {self.fill!r}"
            )


def mask_slices(
    mode: str, lags: int, features: int, cities: int, patch_size: int = 1
) -> list[tuple]:
    """Index expressions (into an ``(N, L, F, C)`` array) for every mask position.

    Positions tile the grid without overlap: feature_row gives F positions,
    city_column C, temporal L, and patch an (F/p) x (C/p) grid.
    """
    everything = slice(None)
    if mode == "feature_row":
        return [(everything, everything, i, everything) for i in range(features)]
    if mode == "city_column":
        return [(everything, everything, everything, j) for j in range(cities)]
    if mode == "temporal":
        return [(everything, t, everything, everything) for t in range(lags)]
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
        return [
            (everything, everything, slice(a * p, (a + 1) * p), slice(b * p, (b + 1) * p))
            for a in range(features // p)
            for b in range(cities // p)
        ]
    raise ConfigurationError(f"unknown occlusion mode {mode!r}")


@dataclass(frozen=True)
class SaliencyMap:
    """A labeled grid of values ready for CSV and heatmap export.

    ``values`` is (rows, cols); 1-D analyses use a single column (feature/
    city modes) or a single row (temporal).  ``meta`` carries free-form
    provenance strings (variant, mode, target, horizon) for titles.
    """

    values: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    mode: str
    samples_used: int = 0
    samples_skipped: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ConfigurationError(
                f"saliency grid {self.values.shape} does not match "
                f"{len(self.row_labels)} x {len(self.col_labels)} labels"
            )

    def to_csv(self) -> str:
        header = "," + ",".join(self.col_labels)
        lines = [header]
        for label, row in zip(self.row_labels, self.values):
            lines.append(label + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def _block_labels(names: Sequence[str], size: int) -> tuple[str, ...]:
    if size == 1:
        return tuple(names)
    return tuple(
        f"{names[k]}..{names[k + size - 1]}" for k in range(0, len(names), size)
    )


def occlusion_map(
    model: ModelGraph,
    spec: OcclusionSpec,
    inputs: np.ndarray,
    truths: np.ndarray,
    feature_names: Sequence[str],
    city_names: Sequence[str],
    target_cities: Sequence[str],
    scaler: Optional[Scaler] = None,
    target_feature: Optional[str] = None,
    targets: Sequence[Optional[str]] = (None,),
) -> list[SaliencyMap]:
    """Average percentage MSE change per mask position, one map per target.

    ``inputs`` is the scaled ``(N, L, F, C)`` sample stack with ``truths``
    ``(N, n)``, one column per target city.  Each entry of ``targets`` is a
    target city scored alone, or ``None`` for the whole output vector; all
    maps come from one sweep that forwards each masked input once.  Spatial
    masks cover all L lags at once; the temporal mask blanks one whole lag.
    Passing a scaler computes the MSEs on descaled values (identical Δ for
    single-city maps, reweighted for aggregate ones).  Each map skips, with a
    warning, the samples whose reference MSE for its target is exactly zero.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    target_cities = tuple(target_cities)
    if inputs.ndim != 4 or truths.shape != (len(inputs), len(target_cities)):
        raise ConfigurationError(
            f"need (N, L, F, C) inputs and (N, {len(target_cities)}) truths, "
            f"got {inputs.shape} and {truths.shape}"
        )
    if inputs.shape[0] == 0:
        raise ContractError("occlusion needs at least one sample")
    n_samples, lags, n_feat, n_city = inputs.shape

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

    # Optional raw-unit error weighting: multiply per-column errors by the
    # column spans before squaring (the offset cancels in pred - truth).
    if scaler is not None:
        if target_feature is None:
            raise ConfigurationError("a scaler needs target_feature to descale")
        _, weights = scaler.target_columns(target_feature, target_cities)
    else:
        weights = np.ones(len(target_cities))

    def squared_errors(batch: np.ndarray) -> np.ndarray:
        return ((model.predict(batch) - truths) * weights) ** 2

    ref_errors = squared_errors(inputs)
    references = []
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
        references.append((ref[keep], keep, skipped))

    positions = mask_slices(spec.mode, lags, n_feat, n_city, spec.patch_size)
    if spec.fill == "mean":
        fill_grid = inputs.mean(axis=(0, 1))
    else:
        fill_grid = np.zeros((n_feat, n_city))
    masked_errors = []
    for index in positions:
        masked = inputs.copy()
        masked[index] = fill_grid[index[2], index[3]]
        masked_errors.append(squared_errors(masked))

    meta = {"mode": spec.mode, "fill": spec.fill, "variant": model.cfg.variant}
    if spec.mode == "feature_row":
        shape = (n_feat, 1)
        rows, cols = tuple(feature_names), ("mean_pct_change",)
    elif spec.mode == "city_column":
        shape = (n_city, 1)
        rows, cols = tuple(city_names), ("mean_pct_change",)
    elif spec.mode == "temporal":
        shape = (1, lags)
        rows = ("mean_pct_change",)
        cols = tuple(f"lag_{t + 1}" for t in range(lags))
    else:
        p = spec.patch_size
        shape = (n_feat // p, n_city // p)
        rows = _block_labels(feature_names, p)
        cols = _block_labels(city_names, p)
        meta["patch_size"] = str(p)

    maps = []
    for target, out_cols, (ref, keep, skipped) in zip(
        targets, columns, references
    ):
        # Reduce one position at a time: a mean over the whole (P, N) block
        # rounds differently in the last digit.
        deltas = [
            (100.0 * (err[:, out_cols].mean(axis=1)[keep] - ref) / ref).mean()
            for err in masked_errors
        ]
        target_meta = {**meta, "target": target or "all targets"}
        maps.append(
            SaliencyMap(
                np.reshape(deltas, shape), rows, cols, spec.mode,
                int(keep.sum()), skipped, target_meta,
            )
        )
    return maps


# -- score maximization ------------------------------------------------------


@dataclass(frozen=True)
class ScoreMaxResult:
    """The ascended input map plus the score trajectory that produced it."""

    input_map: np.ndarray  # (L, F, C), clipped into bounds
    scores: tuple[float, ...]  # h before each step, then h of the final map
    iterations: int
    lr: float
    bounds: tuple[float, float]

    @property
    def initial_score(self) -> float:
        return self.scores[0]

    @property
    def final_score(self) -> float:
        return self.scores[-1]


def score_maximize(
    model: ModelGraph,
    sample: np.ndarray,
    truth: np.ndarray,
    iterations: int = 100,
    lr: float = 0.01,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> ScoreMaxResult:
    """Gradient-ascend h = 1/MSE on the input; clip into bounds at the end.

    Each iteration computes dh/dI, L2-normalizes that gradient, and takes a
    step of length ``lr`` along it.  The model is used frozen (parameter
    gradient flags are saved and restored).
    """
    sample = np.array(sample, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    lo, hi = float(bounds[0]), float(bounds[1])
    if lo >= hi:
        raise ConfigurationError(f"bounds must satisfy lo < hi, got {bounds}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if lr < 0:
        raise ConfigurationError(f"ascent rate must be >= 0, got {lr}")
    if sample.min() < lo or sample.max() > hi:
        raise ConfigurationError(
            f"starting sample exceeds bounds [{lo}, {hi}]: "
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
            pred = model.forward(
                ad.reshape(current, (1,) + current.shape), mode="infer"
            )
            diff = pred - Tensor(truth_row)
            h = 1.0 / (diff * diff).mean()
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

    final = np.clip(current.data, lo, hi)
    with no_grad():
        pred = model.forward(Tensor(final[None]), mode="infer").data[0]
    final_mse = float(((pred - truth) ** 2).mean())
    if final_mse == 0:
        raise InfiniteScoreError("final map predicts the truth exactly; h infinite")
    history.append(1.0 / final_mse)
    return ScoreMaxResult(
        final, tuple(history), iterations, lr, (lo, hi)
    )


def scoremax_lag_maps(
    result: ScoreMaxResult,
    feature_names: Sequence[str],
    city_names: Sequence[str],
    lag_numbers: Sequence[int],
    meta: Optional[dict] = None,
) -> list[SaliencyMap]:
    """One feature x city SaliencyMap per requested 1-indexed lag."""
    total = result.input_map.shape[0]
    maps = []
    for lag in lag_numbers:
        if not 1 <= lag <= total:
            raise ConfigurationError(
                f"lag {lag} outside 1..{total}"
            )
        lag_meta = {"mode": "scoremax", "lag": str(lag)}
        lag_meta.update(meta or {})
        maps.append(
            SaliencyMap(
                result.input_map[lag - 1],
                tuple(feature_names),
                tuple(city_names),
                "scoremax",
                meta=lag_meta,
            )
        )
    return maps

"""Adam training on MSE loss, early stopping, and per-city descaled evaluation.

Training shuffles the windowed samples each epoch with a seeded generator,
logs scaled train/validation MSE per epoch, keeps the best-validation
parameter snapshot, and restores it when training stops.
Evaluation reports one MSE per target city in the target feature's physical
units (predictions and truths are descaled first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TABLE_CITY_ORDER, Scaler, WindowedSet
from .errors import ConfigurationError, ContractError, DimensionError, NumericalError
from .models import ModelConfig, ModelGraph


def mse(pred, truth) -> Tensor:
    """Mean of all squared differences (scalar, differentiable)."""
    pred, truth = ad.as_tensor(pred), ad.as_tensor(truth)
    if pred.shape != truth.shape:
        raise DimensionError(
            f"mse shapes differ: {pred.shape} vs {truth.shape}"
        )
    diff = pred - truth
    return (diff * diff).mean()


class Adam:
    """Adam optimizer with the standard bias-corrected moment estimates.

    Update per parameter: m <- b1 m + (1-b1) g; v <- b2 v + (1-b2) g^2;
    p <- p - lr * m_hat / (sqrt(v_hat) + eps).  A parameter with no gradient
    this step contributes g = 0 (its moments keep decaying).  A step walks
    the parameters in chunks of ``CHUNK`` elements, shared out in two halves
    (:func:`autodiff.run_halves`).
    """

    # Elements per update chunk: the chunk's six arrays stay in cache.
    CHUNK = 1 << 15
    # The update's work per element for the split gate, in convolution
    # multiply-adds: one element takes about 12.6 ns, as long as 200-250
    # multiply-adds of a convolution's matrix product (one BLAS thread).
    ELEMENT_WORK = 256
    # b1, b2 and eps above: the defaults of Kingma & Ba (2015).
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not self.params:
            raise ContractError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        chunks = []
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            flat = tuple(a.reshape(-1) for a in (p.data, m, v, g))
            chunks.extend(
                tuple(a[s : s + self.CHUNK] for a in flat)
                for s in range(0, p.size, self.CHUNK)
            )
        work = self.ELEMENT_WORK * sum(p.size for p in self.params)
        ad.run_halves(len(chunks), work, lambda lo, hi: self._update(chunks[lo:hi]))

    def _update(self, chunks) -> None:
        # In place, in the operation order of the formula above, so the
        # update is bitwise what the out-of-place expression gives.
        correct1 = 1.0 - self.BETA1**self.t
        correct2 = 1.0 - self.BETA2**self.t
        scratch = np.empty((2, self.CHUNK))
        for p, m, v, g in chunks:
            a, b = scratch[:, : p.size]
            m *= self.BETA1
            m += np.multiply(g, 1.0 - self.BETA1, out=a)
            v *= self.BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.BETA2
            v += a
            np.divide(v, correct2, out=a)
            np.sqrt(a, out=a)
            a += self.EPS
            np.divide(m, correct1, out=b)
            b /= a
            b *= self.lr
            p -= b


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    seed: int = ModelConfig.seed
    stop_train_mse: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigurationError(
                f"learning rate must be finite and >= 0, got {self.lr}"
            )
        if self.stop_train_mse is not None and not np.isfinite(self.stop_train_mse):
            raise ConfigurationError(
                f"stop_train_mse must be finite, got {self.stop_train_mse}"
            )
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch size must be >= 2 for batch norm, got {self.batch_size}"
            )
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigurationError("max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainingLog:
    """Per-epoch scaled MSEs plus where training stopped and which epoch won."""

    entries: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.entries)


def _epoch_mse(model: ModelGraph, windows: WindowedSet) -> float:
    """Scaled MSE over a whole set, in fixed order, infer mode, no gradients."""
    pred = model.predict(windows.inputs)
    return float(((pred - windows.targets) ** 2).mean())


# A diverging run overflows inside the ops; the finite-loss checks report it,
# so numpy's own warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: ModelGraph,
    train_set: WindowedSet,
    val_set: WindowedSet,
    cfg: TrainConfig,
) -> TrainingLog:
    """Mini-batch Adam on MSE with early stopping on validation MSE.

    Batches that would reach batch norm with fewer than 2 samples (a trailing
    remainder of 1) are dropped, so a set of 1 window is rejected.  The
    validation set needs at least 1 window.  The best-validation parameter
    snapshot is restored before returning.
    """
    if len(train_set) < 2:
        raise ContractError(f"training set needs 2 windows, has {len(train_set)}")
    if val_set is None or len(val_set) == 0:
        raise ContractError("training needs a validation set of at least 1 window")
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(
        [p for p in model.parameters() if p.requires_grad], lr=cfg.lr
    )
    log = TrainingLog()
    # Validation MSEs are finite, so epoch 1 always takes the first snapshot.
    best_val = float("inf")
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_set))
        total = 0.0
        count = 0
        for batch_index, start in enumerate(
            range(0, len(order), cfg.batch_size)
        ):
            chosen = order[start : start + cfg.batch_size]
            if len(chosen) < 2:
                continue
            xb = Tensor(train_set.inputs[chosen])
            yb = Tensor(train_set.targets[chosen])
            loss = mse(model.forward(xb, mode="train"), yb)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch {batch_index}"
                )
            model.zero_grad()
            loss.backward()
            optimizer.step()
            total += value * yb.size
            count += yb.size
        train_mse = total / count

        val_mse = _epoch_mse(model, val_set)
        if not np.isfinite(val_mse):
            raise NumericalError(f"non-finite validation MSE at epoch {epoch}")
        log.entries.append((epoch, train_mse, val_mse))
        if val_mse < best_val:
            best_val = val_mse
            log.best_epoch = epoch
            best_state = {name: arr.copy() for name, arr in model.named_state()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
        if cfg.stop_train_mse is not None and train_mse < cfg.stop_train_mse:
            break

    model.load_state(best_state)
    return log


def _report_order(cities: Sequence[str]) -> list[str]:
    ordered = [c for c in TABLE_CITY_ORDER if c in cities]
    ordered.extend(c for c in cities if c not in ordered)
    return ordered


def descaled_predictions(
    model: ModelGraph,
    windows: WindowedSet,
    scaler: Scaler,
) -> tuple[np.ndarray, np.ndarray]:
    """Descaled (predictions, truths) of the frozen model, each ``(N, n)``."""
    if len(windows) == 0:
        raise ContractError("evaluation set is empty")
    if model.cfg.n_targets != len(windows.target_cities):
        raise ConfigurationError(
            f"model predicts {model.cfg.n_targets} cities but the windows "
            f"target {len(windows.target_cities)}"
        )
    feature, cities = windows.target_feature, windows.target_cities
    # The truths first: a scaler that does not cover them fails before predict.
    truth = scaler.inverse(windows.targets, feature, cities)
    return scaler.inverse(model.predict(windows.inputs), feature, cities), truth


def eval_table(pred: np.ndarray, truth: np.ndarray, windows: WindowedSet) -> list:
    """Per-city ``(city, mse)`` rows of descaled predictions against the
    windows' truths, in the fixed reporting order."""
    cities = windows.target_cities
    per_city = ((pred - truth) ** 2).sum(axis=0) / len(windows)
    by_name = dict(zip(cities, per_city.tolist()))
    return [(city, by_name[city]) for city in _report_order(cities)]


def evaluate(model: ModelGraph, windows: WindowedSet, scaler: Scaler) -> list:
    """:func:`eval_table` of the frozen model over a windowed set."""
    pred, truth = descaled_predictions(model, windows, scaler)
    return eval_table(pred, truth, windows)


"""Recurrent-convolutional multi-station weather forecasting with explainability.

Four architectures (one- and two-stream ConvLSTM forecasters, each with an
optional self-attention encoder) built on a small float64 reverse-mode
autodiff core, trained with Adam on min-max-scaled daily station data, and
explained through occlusion analysis and score maximization.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, grad_check, no_grad
from .data import (
    CITIES,
    FEATURES,
    TARGET_CITIES,
    DataBundle,
    Scaler,
    WeatherCube,
    WindowedSet,
    fit_scaler,
    load_dataset,
    make_windows,
    prepare,
    scale_cube,
    split_days,
    synthetic_cube,
)
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    IngestionError,
    NumericalError,
    StationcastError,
    UsageError,
)
from .explain import (
    OcclusionSpec,
    SaliencyMap,
    ScoreMaxResult,
    occlusion_map,
    percentage_change,
    score,
    score_maximize,
)
from .layers import AttentionHead, BatchNorm, ConvLSTM, Dense, EncoderBlock, LayerNorm
from .models import (
    ModelConfig,
    ModelGraph,
    load_checkpoint,
    save_checkpoint,
)
from .training import Adam, EvalTable, TrainConfig, TrainingLog, evaluate, mse, train

__all__ = [
    "__version__",
    "Tensor",
    "grad_check",
    "no_grad",
    "CITIES",
    "FEATURES",
    "TARGET_CITIES",
    "DataBundle",
    "Scaler",
    "WeatherCube",
    "WindowedSet",
    "fit_scaler",
    "load_dataset",
    "make_windows",
    "prepare",
    "scale_cube",
    "split_days",
    "synthetic_cube",
    "ConfigurationError",
    "ContractError",
    "DimensionError",
    "IngestionError",
    "NumericalError",
    "StationcastError",
    "UsageError",
    "OcclusionSpec",
    "SaliencyMap",
    "ScoreMaxResult",
    "occlusion_map",
    "percentage_change",
    "score",
    "score_maximize",
    "AttentionHead",
    "BatchNorm",
    "ConvLSTM",
    "Dense",
    "EncoderBlock",
    "LayerNorm",
    "ModelConfig",
    "ModelGraph",
    "load_checkpoint",
    "save_checkpoint",
    "Adam",
    "EvalTable",
    "TrainConfig",
    "TrainingLog",
    "evaluate",
    "mse",
    "train",
]

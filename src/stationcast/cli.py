"""Command-line front end: ingest, train, eval, occlude, scoremax.

Every command is deterministic for a fixed configuration and seed: training
runs land in a directory named by the configuration digest, artifacts carry
no timestamps, and re-running a command overwrites byte-identical files.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Scaler,
    emit_csv,
    load_dataset,
    prepare,
    scale_cube,
    split_days,
    window_block,
)
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    IngestionError,
    NumericalError,
    UsageError,
)
from .explain import OcclusionSpec, occlusion_map, score_maximize, scoremax_lag_maps
from .heatmap import svg_heatmap
from .models import ModelConfig, ModelGraph, load_checkpoint, save_checkpoint
from .runconfig import RunConfig
from .training import (
    TrainConfig, descaled_predictions, eval_table, evaluate, prediction_series, train
)

# Training flags that mirror RunConfig keys; values stay raw strings and go
# through the same parser as config-file lines.
_TRAIN_OVERRIDES = (
    ("--data", "data", "long-form dataset CSV"),
    ("--variant", "variant", "unistream | att_unistream | multistream | att_multistream"),
    ("--horizon", "horizon", "days ahead to predict"),
    ("--target", "target_feature", "target weather feature (e.g. avg_temp, wind_speed)"),
    ("--target-cities", "target_cities", "comma-separated target city list"),
    ("--lags", "lags", "input window length in days"),
    ("--seed", "seed", "run seed"),
    ("--lr", "lr", "learning rate"),
    ("--batch-size", "batch_size", "training batch size"),
    ("--max-epochs", "max_epochs", "epoch budget"),
    ("--patience", "patience", "early-stop patience in epochs"),
    ("--filters", "filters", "ConvLSTM filter count"),
    ("--dense", "dense", "comma-separated dense-layer widths"),
    ("--streams", "streams", "stream count (multistream variants)"),
    ("--kernel", "kernel", "convolution kernel, e.g. 3,3"),
    ("--key-dim", "key_dim", "attention key dimension"),
    ("--ff-dim", "ff_dim", "encoder feed-forward width"),
    ("--split-ratio", "split_ratio", "train+val fraction of days"),
    ("--val-fraction", "val_fraction", "validation fraction of the train block"),
    ("--stop-train-mse", "stop_train_mse", "stop once train MSE dips below this"),
    ("--out", "out", "output directory root"),
)


class _Parser(argparse.ArgumentParser):
    """argparse with the error channel rerouted to the exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def _add_run_inputs(parser) -> None:
    parser.add_argument("--checkpoint", required=True, help="trained model file")
    parser.add_argument("--data", required=True, help="long-form dataset CSV")
    parser.add_argument(
        "--scaler",
        default=None,
        help="scaler file (default: the one referenced by the checkpoint)",
    )
    parser.add_argument(
        "--out", default=None, help="artifact directory (default: checkpoint's)"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stationcast",
        description="Multi-station weather forecasting with explainability.",
    )
    parser.add_argument(
        "--version", action="version", version=f"stationcast {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser(
        "ingest", help="validate a raw CSV and emit the canonical form"
    )
    ingest.add_argument("raw", help="input long-form CSV")
    ingest.add_argument("out", help="canonical CSV to write")
    ingest.set_defaults(func=cmd_ingest)

    trainer = sub.add_parser("train", help="train one variant and evaluate it")
    trainer.add_argument(
        "--config", default=None, help="key = value run configuration file"
    )
    for flag, dest, help_text in _TRAIN_OVERRIDES:
        trainer.add_argument(flag, dest=dest, default=None, help=help_text)
    trainer.set_defaults(func=cmd_train)

    evaler = sub.add_parser(
        "eval", help="per-city descaled MSE of a checkpoint on the test split"
    )
    _add_run_inputs(evaler)
    evaler.set_defaults(func=cmd_eval)

    occluder = sub.add_parser("occlude", help="occlusion saliency maps")
    _add_run_inputs(occluder)
    occluder.add_argument(
        "--mode",
        default="feature_row",
        choices=("feature_row", "city_column", "patch", "temporal"),
        help="mask shape",
    )
    occluder.add_argument(
        "--patch-size", type=int, default=1, help="square patch edge (patch mode)"
    )
    occluder.add_argument(
        "--fill", default="zero", choices=("zero", "mean"), help="mask fill value"
    )
    occluder.add_argument(
        "--city", default=None, help="restrict to one target city"
    )
    occluder.add_argument(
        "--aggregate",
        action="store_true",
        help="score the whole output vector instead of per-city",
    )
    occluder.add_argument(
        "--samples", type=int, default=32, help="test samples to average over"
    )
    occluder.set_defaults(func=cmd_occlude)

    scoremax = sub.add_parser(
        "scoremax", help="gradient-ascent input maps (h = 1/MSE)"
    )
    _add_run_inputs(scoremax)
    scoremax.add_argument(
        "--iterations", type=int, default=100, help="ascent iterations"
    )
    scoremax.add_argument(
        "--lr", type=float, default=0.01, help="ascent step size"
    )
    scoremax.add_argument(
        "--lags",
        default="1,5,10",
        help="comma-separated 1-indexed lags to render",
    )
    scoremax.add_argument(
        "--sample-index", type=int, default=0, help="test sample to anchor on"
    )
    scoremax.add_argument(
        "--random-init",
        action="store_true",
        help="start from uniform noise instead of the anchor sample",
    )
    scoremax.add_argument(
        "--seed", type=int, default=0, help="seed for --random-init"
    )
    scoremax.set_defaults(func=cmd_scoremax)
    return parser


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(run_dir: Path, command: str, details: list[str]) -> None:
    lines = [f"tool = stationcast {__version__}", f"command = {command}"]
    lines.extend(details)
    for artifact in sorted(run_dir.iterdir()):
        if artifact.name == "manifest.txt" or artifact.is_dir():
            continue
        lines.append(f"artifact = {artifact.name} sha256={_sha256(artifact)}")
    (run_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_map(out_dir: Path, stem: str, saliency, title: str, subtitle: str) -> None:
    """Write ``<stem>.csv`` and its ``<stem>.svg`` heatmap, and say so."""
    (out_dir / f"{stem}.csv").write_text(saliency.to_csv())
    svg = svg_heatmap(
        saliency.values, saliency.row_labels, saliency.col_labels, title, subtitle
    )
    (out_dir / f"{stem}.svg").write_text(svg)
    print(f"wrote {out_dir / stem}.csv / .svg")


def cmd_ingest(args) -> int:
    cube = load_dataset(args.raw)
    emit_csv(cube, args.out)
    print(
        f"days: {cube.days} ({cube.dates[0].isoformat()}"
        f"..{cube.dates[-1].isoformat()})"
    )
    print(f"cities: {len(cube.cities)}  features: {len(cube.features)}")
    print(f"rows emitted: {cube.days * len(cube.cities)}")
    print(f"imputations: {cube.imputed}")
    print(f"canonical csv: {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        dest: getattr(args, dest)
        for _, dest, _ in _TRAIN_OVERRIDES
        if getattr(args, dest) is not None
    }
    cfg.apply(overrides, "command line")
    if cfg.data is None:
        raise UsageError("a dataset is required: pass --data or set it in --config")
    if len(cfg.kernel) != 2:
        raise UsageError(f"kernel needs exactly two extents, got {cfg.kernel}")

    cube = load_dataset(cfg.data)
    bundle = prepare(
        cube,
        cfg.lags,
        cfg.horizon,
        cfg.target_feature,
        cfg.target_cities,
        cfg.split_ratio,
        cfg.val_fraction,
    )
    model_cfg = ModelConfig(
        variant=cfg.variant,
        lags=cfg.lags,
        features=len(cube.features),
        cities=len(cube.cities),
        n_targets=len(cfg.target_cities),
        streams=cfg.streams,
        filters=cfg.filters,
        kernel=(cfg.kernel[0], cfg.kernel[1]),
        dense=cfg.dense,
        key_dim=cfg.key_dim,
        ff_dim=cfg.ff_dim,
        seed=cfg.seed,
    )
    model = ModelGraph(model_cfg)
    train_cfg = TrainConfig(
        lr=cfg.lr,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        seed=cfg.seed,
        stop_train_mse=cfg.stop_train_mse,
    )
    log = train(model, bundle.train, bundle.val, train_cfg)
    table = evaluate(model, bundle.test, bundle.scaler)

    run_dir = Path(cfg.out) / f"run-{cfg.digest()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(cfg.to_text())
    (run_dir / "training_log.csv").write_text(log.to_text())
    (run_dir / "eval_table.csv").write_text(table.to_csv())
    bundle.scaler.save(run_dir / "scaler.wxtn")
    save_checkpoint(
        model,
        run_dir / "checkpoint.wxtn",
        {
            "horizon": cfg.horizon,
            "target_feature": cfg.target_feature,
            "target_cities": ",".join(cfg.target_cities),
            "split_ratio": repr(cfg.split_ratio),
            "val_fraction": repr(cfg.val_fraction),
            "scaler_file": "scaler.wxtn",
        },
    )
    _write_manifest(
        run_dir,
        "train",
        [
            f"config_digest = {cfg.digest()}",
            f"data = {cfg.data}",
            f"data_sha256 = {_sha256(Path(cfg.data))}",
        ],
    )
    print(f"run directory: {run_dir}")
    print(
        f"epochs run: {log.epochs_run}"
        + (f" (best epoch {log.best_epoch})" if log.best_epoch else "")
    )
    sys.stdout.write(table.to_csv())
    return 0


def _load_run(args):
    """Shared eval/occlude/scoremax setup: model, scaler, test windows."""
    ckpt = Path(args.checkpoint)
    if not ckpt.is_file():
        raise UsageError(f"checkpoint not found: {ckpt}")
    model, extras = load_checkpoint(ckpt)
    scaler_name = extras.get("scaler_file", "scaler.wxtn")
    scaler_path = Path(args.scaler) if args.scaler else ckpt.parent / scaler_name
    if not scaler_path.is_file():
        raise UsageError(
            f"scaler not found: {scaler_path} (pass --scaler explicitly)"
        )
    scaler = Scaler.load(scaler_path)
    for key in ("horizon", "target_feature", "target_cities"):
        if key not in extras:
            raise ConfigurationError(
                f"checkpoint meta lacks {key!r}; was it written by this tool?"
            )
    horizon = int(extras["horizon"])
    feature = extras["target_feature"]
    cities = tuple(extras["target_cities"].split(","))
    ratio = float(extras.get("split_ratio", "0.9"))
    val_fraction = float(extras.get("val_fraction", "0.1"))

    cube = load_dataset(args.data)
    scaled = scale_cube(cube, scaler)
    _, _, test_days = split_days(cube.days, ratio, val_fraction)
    windows = window_block(
        scaled, test_days, model.cfg.lags, horizon, feature, cities
    )
    out_dir = Path(args.out) if args.out else ckpt.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    return model, scaler, cube, windows, feature, cities, horizon, out_dir


def cmd_eval(args) -> int:
    model, scaler, _, windows, _, _, _, out_dir = _load_run(args)
    pred, truth = descaled_predictions(model, windows, scaler)
    table = eval_table(pred, truth, windows)
    (out_dir / "eval_table.csv").write_text(table.to_csv())
    series = prediction_series(pred, truth, windows.target_cities)
    for city, pairs in series.items():
        lines = ["index,actual,predicted"]
        for i, (actual, predicted) in enumerate(pairs.tolist()):
            lines.append(f"{i},{actual!r},{predicted!r}")
        (out_dir / f"predictions_{city}.csv").write_text("\n".join(lines) + "\n")
    sys.stdout.write(table.to_csv())
    print(f"artifacts in: {out_dir}")
    return 0


def cmd_occlude(args) -> int:
    model, scaler, cube, windows, feature, cities, horizon, out_dir = _load_run(
        args
    )
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    inputs = windows.inputs[: args.samples]
    truths = windows.targets[: args.samples]
    if args.aggregate:
        requested = [None]
    elif args.city is not None:
        requested = [args.city]
    else:
        requested = list(cities)

    spec = OcclusionSpec(mode=args.mode, patch_size=args.patch_size, fill=args.fill)
    maps = occlusion_map(
        model, spec, inputs, truths, cube.features, cube.cities, cities,
        scaler=scaler, target_feature=feature, targets=requested,
    )
    title = f"Occlusion analysis ({args.mode})"
    for target, saliency in zip(requested, maps):
        label = target if target is not None else "all_targets"
        subtitle = (
            f"{model.cfg.variant}, target {label}, {feature} +{horizon}d, "
            f"fill {args.fill}, samples {saliency.samples_used}"
        )
        _write_map(out_dir, f"occlusion_{args.mode}_{label}", saliency, title, subtitle)
    return 0


def cmd_scoremax(args) -> int:
    model, scaler, cube, windows, feature, cities, horizon, out_dir = _load_run(
        args
    )
    if not 0 <= args.sample_index < len(windows):
        raise UsageError(
            f"--sample-index {args.sample_index} outside the test set "
            f"(0..{len(windows) - 1})"
        )
    truth = windows.targets[args.sample_index]
    if args.random_init:
        rng = np.random.default_rng(args.seed)
        sample = rng.uniform(0.0, 1.0, size=windows.inputs[args.sample_index].shape)
    else:
        # Test-split values can stray slightly outside the train-fitted [0, 1]
        # scaling; the ascent bounds are hard, so anchor inside them.
        sample = np.clip(windows.inputs[args.sample_index], 0.0, 1.0)
    try:
        lag_numbers = [int(p) for p in args.lags.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"--lags must be comma-separated integers: {args.lags!r}")
    if not lag_numbers:
        raise UsageError("--lags selected no lags")
    for lag in lag_numbers:
        if not 1 <= lag <= model.cfg.lags:
            raise UsageError(f"--lags: lag {lag} outside 1..{model.cfg.lags}")

    result = score_maximize(
        model,
        sample,
        truth,
        iterations=args.iterations,
        lr=args.lr,
        bounds=(0.0, 1.0),
    )
    maps = scoremax_lag_maps(
        result,
        cube.features,
        cube.cities,
        lag_numbers,
        meta={"variant": model.cfg.variant, "feature": feature},
    )
    for lag, saliency in zip(lag_numbers, maps):
        subtitle = (
            f"{model.cfg.variant}, {feature} +{horizon}d, lag {lag}/{model.cfg.lags}, "
            f"{args.iterations} iterations"
        )
        _write_map(
            out_dir, f"scoremax_lag{lag}", saliency, "Score maximization map", subtitle
        )
    trajectory = ["iteration,h"]
    trajectory.extend(f"{i},{h!r}" for i, h in enumerate(result.scores))
    (out_dir / "scoremax_scores.csv").write_text("\n".join(trajectory) + "\n")
    print(
        f"score: {result.initial_score!r} -> {result.final_score!r} "
        f"({args.iterations} iterations)"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ContractError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except IngestionError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

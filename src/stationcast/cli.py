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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    CITIES,
    FEATURES,
    Scaler,
    emit_csv,
    load_dataset,
    prepare,
    scale_cube,
    split_block,
    split_days,
)
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    IngestionError,
    NumericalError,
    UsageError,
)
from .explain import (
    OCCLUSION_MODES, SaliencyMap, check_ascent, occlusion_map, score_maximize
)
from .heatmap import svg_heatmap
from .models import ModelConfig, ModelGraph, load_checkpoint, save_checkpoint
from .runconfig import RUN_KEYS, RUN_META, RunConfig, _parse_ints
from .serialize import csv_text, write_text
from .training import (
    TrainConfig, descaled_predictions, eval_table, evaluate, train
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
    for key, (_, _, help_text) in RUN_KEYS.items():
        flag = "--target" if key == "target_feature" else "--" + key.replace("_", "-")
        trainer.add_argument(flag, dest=key, default=None, help=help_text)
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
        choices=OCCLUSION_MODES,
        help="mask shape",
    )
    occluder.add_argument(
        "--patch-size", type=int, default=1, help="square patch edge (patch mode)"
    )
    occluder.add_argument(
        "--fill", default="zero", choices=("zero", "mean"), help="mask fill value"
    )
    scored = occluder.add_mutually_exclusive_group()
    scored.add_argument(
        "--city", default=None, help="restrict to one target city"
    )
    scored.add_argument(
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
        help="comma-separated 1-indexed lags to render "
        "(default: the model's first, middle and last lag)",
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
        "--seed", type=int, default=None, help="seed for --random-init (default 0)"
    )
    scoremax.set_defaults(func=cmd_scoremax)
    return parser


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(run_dir: Path, details: list[str]) -> None:
    """Hash the five files ``train`` writes, not what later commands add."""
    lines = [f"tool = stationcast {__version__}", "command = train"]
    lines.extend(details)
    for name in (
        "checkpoint.wxtn", "config.txt", "eval_table.csv", "scaler.wxtn",
        "training_log.csv",
    ):
        lines.append(f"artifact = {name} sha256={_sha256(run_dir / name)}")
    write_text(run_dir / "manifest.txt", "\n".join(lines) + "\n")


def _write_map(out_dir: Path, stem: str, saliency, title: str, subtitle: str) -> None:
    """Write ``<stem>.csv`` and its ``<stem>.svg`` heatmap, and say so."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ((r, *v) for r, v in zip(saliency.row_labels, saliency.values))
    write_text(out_dir / f"{stem}.csv", csv_text(("", *saliency.col_labels), rows))
    svg = svg_heatmap(
        saliency.values, saliency.row_labels, saliency.col_labels, title, subtitle
    )
    write_text(out_dir / f"{stem}.svg", svg)
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
    if args.config and not Path(args.config).is_file():
        raise UsageError(f"config not found: {args.config}")
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        key: getattr(args, key) for key in RUN_KEYS if getattr(args, key) is not None
    }
    cfg.apply(overrides, "command line")
    if cfg.data is None:
        raise UsageError("a dataset is required: pass --data or set it in --config")
    train_cfg = cfg.sub_config(TrainConfig)
    # Every train cube carries the default labels, so the model and split
    # flags (``split_days`` of no days checks the fractions) fail before the
    # read; the target names and the horizon wait for the data.
    model_cfg = cfg.sub_config(
        ModelConfig,
        features=len(FEATURES),
        cities=len(CITIES),
        n_targets=len(cfg.target_cities),
    )
    split_days(0, cfg.split_ratio, cfg.val_fraction)

    cube = load_dataset(cfg.data)
    train_set, val_set, test_set, scaler = prepare(
        cube,
        cfg.lags,
        cfg.horizon,
        cfg.target_feature,
        cfg.target_cities,
        ratio=cfg.split_ratio,
        val_fraction=cfg.val_fraction,
    )
    model = ModelGraph(model_cfg)
    log = train(model, train_set, val_set, train_cfg)
    table = csv_text(("city", "mse"), evaluate(model, test_set, scaler))

    run_dir = Path(cfg.out) / f"run-{cfg.digest()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_text(run_dir / "config.txt", cfg.to_text())
    header = ("epoch", "train_mse", "val_mse")
    write_text(run_dir / "training_log.csv", csv_text(header, log.entries))
    write_text(run_dir / "eval_table.csv", table)
    scaler.save(run_dir / "scaler.wxtn")
    save_checkpoint(
        model,
        run_dir / "checkpoint.wxtn",
        {**cfg.texts(RUN_META), "scaler_file": "scaler.wxtn"},
    )
    _write_manifest(
        run_dir,
        [
            f"config_digest = {cfg.digest()}",
            f"data = {cfg.data}",
            f"data_sha256 = {_sha256(Path(cfg.data))}",
        ],
    )
    print(f"run directory: {run_dir}")
    print(f"epochs run: {log.epochs_run} (best epoch {log.best_epoch})")
    sys.stdout.write(table)
    return 0


def _warn_on_other_data(manifest: Path, data: Path) -> None:
    """One stderr warning if the run's manifest hashed another ``--data``."""
    if not manifest.is_file():
        return
    for line in manifest.read_text(encoding="utf-8", errors="replace").splitlines():
        key, _, recorded = line.partition(" = ")
        if key == "data_sha256" and recorded != _sha256(data):
            print(
                f"warning: {data} is not the data this run was trained on "
                f"(sha256 differs from the manifest's data_sha256 {recorded})",
                file=sys.stderr,
            )


def _load_run(args):
    """Shared eval/occlude/scoremax setup: model, scaler, test windows."""
    ckpt = Path(args.checkpoint)
    if not ckpt.is_file():
        raise UsageError(f"checkpoint not found: {ckpt}")
    model, extras = load_checkpoint(ckpt)
    for key in (*RUN_META, "scaler_file"):
        if key not in extras:
            raise ConfigurationError(
                f"checkpoint meta lacks {key!r}; was it written by this tool?"
            )
    scaler_path = Path(args.scaler or ckpt.parent / extras["scaler_file"])
    if not scaler_path.is_file():
        raise UsageError(
            f"scaler not found: {scaler_path} (pass --scaler explicitly)"
        )
    scaler = Scaler.load(scaler_path)
    run = RunConfig()
    run.apply({k: extras[k] for k in RUN_META}, f"{ckpt} metadata")

    cube = load_dataset(args.data)
    _warn_on_other_data(ckpt.parent / "manifest.txt", Path(args.data))
    scaled = scale_cube(cube, scaler)
    _, _, test_days = split_days(cube.days, run.split_ratio, run.val_fraction)
    windows = split_block(
        "test", scaled, test_days, model.cfg.lags, run.horizon, run.target_feature,
        run.target_cities,
    )
    # Commands create the directory at their first write, so a refused run
    # leaves none behind.
    return model, scaler, windows, run, Path(args.out) if args.out else ckpt.parent


def cmd_eval(args) -> int:
    model, scaler, windows, _, out_dir = _load_run(args)
    pred, truth = descaled_predictions(model, windows, scaler)
    table = csv_text(("city", "mse"), eval_table(pred, truth, windows))
    target = out_dir / "eval_table.csv"
    # In a run directory that is the table train wrote and its manifest hashes.
    in_run = (
        out_dir.resolve() == Path(args.checkpoint).parent.resolve()
        or (out_dir / "manifest.txt").is_file()
    )
    if in_run and target.is_file() and target.read_bytes() != table.encode():
        raise UsageError(
            f"{target} holds another table, which the run manifest hashes; "
            "pass --out with another directory to write this one elsewhere"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(target, table)
    for j, city in enumerate(windows.target_cities):
        rows = zip(range(len(truth)), truth[:, j], pred[:, j])
        text = csv_text(("index", "actual", "predicted"), rows)
        write_text(out_dir / f"predictions_{city}.csv", text)
    sys.stdout.write(table)
    print(f"artifacts in: {out_dir}")
    return 0


def cmd_occlude(args) -> int:
    # Sizes below 1 are the library's error in every mode.
    if args.patch_size > 1 and args.mode != "patch":
        raise UsageError(f"--patch-size {args.patch_size} applies only to --mode patch")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    model, scaler, windows, run, out_dir = _load_run(args)
    if args.samples > len(windows):
        print(
            f"warning: --samples {args.samples} exceeds the {len(windows)} "
            f"test windows; the maps average over {len(windows)}",
            file=sys.stderr,
        )
    if args.aggregate:
        requested = [None]
    elif args.city is not None:
        requested = [args.city]
    else:
        requested = list(run.target_cities)

    k = args.samples
    first = replace(windows, inputs=windows.inputs[:k], targets=windows.targets[:k])
    maps = occlusion_map(
        model, first, scaler, mode=args.mode, patch_size=args.patch_size,
        fill=args.fill, targets=requested,
    )
    title = f"Occlusion analysis ({args.mode})"
    for target, saliency in zip(requested, maps):
        label = target if target is not None else "all_targets"
        subtitle = (
            f"{model.cfg.variant}, target {label}, "
            f"{run.target_feature} +{run.horizon}d, "
            f"fill {args.fill}, samples {saliency.samples_used}"
        )
        _write_map(out_dir, f"occlusion_{args.mode}_{label}", saliency, title, subtitle)
    return 0


def cmd_scoremax(args) -> int:
    if args.seed is not None and not args.random_init:
        raise UsageError("--seed applies only with --random-init")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        lag_numbers = None if args.lags is None else _parse_ints(args.lags)
    except ValueError:
        raise UsageError(f"--lags must be comma-separated integers: {args.lags!r}")
    if lag_numbers == ():
        raise UsageError("--lags selected no lags")
    if lag_numbers and len(set(lag_numbers)) < len(lag_numbers):
        raise UsageError(f"--lags repeats a lag: {args.lags!r}")
    check_ascent(args.iterations, args.lr)
    model, _, windows, run, out_dir = _load_run(args)
    if not 0 <= args.sample_index < len(windows):
        raise UsageError(
            f"--sample-index {args.sample_index} outside the test set "
            f"(0..{len(windows) - 1})"
        )
    truth = windows.targets[args.sample_index]
    if args.random_init:
        rng = np.random.default_rng(args.seed or 0)
        sample = rng.uniform(0.0, 1.0, size=windows.inputs[args.sample_index].shape)
    else:
        # Test-split values can stray slightly outside the train-fitted [0, 1]
        # scaling; the ascent bounds are hard, so anchor inside them.
        sample = np.clip(windows.inputs[args.sample_index], 0.0, 1.0)
    lags = model.cfg.lags
    if lag_numbers is None:  # the first, middle and last lag
        lag_numbers = sorted({1, lags // 2 or 1, lags})
    for lag in lag_numbers:
        if not 1 <= lag <= lags:
            raise UsageError(f"--lags: lag {lag} outside 1..{lags}")

    result = score_maximize(
        model, sample, truth, iterations=args.iterations, lr=args.lr
    )
    for lag in lag_numbers:
        saliency = SaliencyMap(
            result.input_map[lag - 1], windows.features, windows.cities
        )
        subtitle = (
            f"{model.cfg.variant}, {run.target_feature} +{run.horizon}d, "
            f"lag {lag}/{model.cfg.lags}, "
            f"{args.iterations} iterations"
        )
        _write_map(
            out_dir, f"scoremax_lag{lag}", saliency, "Score maximization map", subtitle
        )
    scores = csv_text(("iteration", "h"), enumerate(result.scores))
    write_text(out_dir / "scoremax_scores.csv", scores)
    print(
        f"score: {result.scores[0]!r} -> {result.scores[-1]!r} "
        f"({args.iterations} iterations)"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        UsageError, ConfigurationError, ContractError, DimensionError, MemoryError
    ) as exc:
        kind = "usage" if isinstance(exc, UsageError) else "configuration"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    except (IngestionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

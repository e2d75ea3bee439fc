"""End-to-end command-line tests: exit codes, artifacts, determinism.

A single small training run (60 synthetic days, 2 epochs) is shared by the
eval/occlude/scoremax tests; determinism gets its own pair of runs.
"""

import argparse
import dataclasses
import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from stationcast import cli
from stationcast.cli import main
from stationcast.data import TABLE_CITY_ORDER, write_demo_csv
from stationcast.explain import score_maximize
from stationcast.models import ModelConfig, ModelGraph, load_checkpoint, save_checkpoint
from stationcast.runconfig import RUN_KEYS, RUN_META, RunConfig
from stationcast.serialize import load_arrays, save_arrays
from stationcast.training import TrainConfig, descaled_predictions

TRAIN_FLAGS = [
    "--lags", "4", "--horizon", "1", "--variant", "unistream",
    "--filters", "2", "--dense", "4", "--batch-size", "4",
    "--max-epochs", "2", "--patience", "5", "--seed", "3",
]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "demo.csv"
    write_demo_csv(data, days=60, seed=0, missing=3)
    out = root / "runs"
    code = main(["train", "--data", str(data), "--out", str(out), *TRAIN_FLAGS])
    assert code == 0
    (run_dir,) = list(out.iterdir())
    return {"root": root, "data": data, "run": run_dir}


def run_inputs(demo, extra=()):
    return [
        "--checkpoint", str(demo["run"] / "checkpoint.wxtn"),
        "--data", str(demo["data"]),
        *extra,
    ]


# -- ingest ------------------------------------------------------------------


def test_ingest_reports_and_canonicalizes(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_demo_csv(raw, days=30, seed=1, missing=4)
    out = tmp_path / "canonical.csv"
    assert main(["ingest", str(raw), str(out)]) == 0
    report = capsys.readouterr().out
    assert "days: 30" in report
    assert "cities: 18  features: 18" in report
    assert f"rows emitted: {30 * 18}" in report
    assert "imputations: 4" in report
    assert out.is_file()
    # the canonical file is complete: ingesting it again imputes nothing
    again = tmp_path / "twice.csv"
    assert main(["ingest", str(out), str(again)]) == 0
    assert "imputations: 0" in capsys.readouterr().out
    assert out.read_bytes() == again.read_bytes()


def test_ingest_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "no.csv"), str(tmp_path / "o.csv")]) == 2
    assert "data error" in capsys.readouterr().err


def test_ingest_names_the_missing_dates(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_demo_csv(raw, days=20, seed=2)
    lines = raw.read_text().splitlines()
    gapped = [line for line in lines if not line.startswith("2005-05-10")]
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(gapped) + "\n")
    assert main(["ingest", str(holed), str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert "missing dates" in err and "2005-05-10" in err


def test_ingest_skips_blank_lines(tmp_path):
    raw = tmp_path / "raw.csv"
    write_demo_csv(raw, days=10, seed=5)
    lines = raw.read_text().splitlines(keepends=True)
    blanked = tmp_path / "blanked.csv"
    blanked.write_text("".join([*lines[:3], "\n", *lines[3:], "\n"]))
    out = tmp_path / "canonical.csv"
    assert main(["ingest", str(blanked), str(out)]) == 0
    assert out.read_bytes() == raw.read_bytes()


# -- train -------------------------------------------------------------------


def test_train_writes_the_full_artifact_set(demo, capsys):
    run = demo["run"]
    assert re.fullmatch(r"run-[0-9a-f]{12}", run.name)
    for name in (
        "config.txt",
        "training_log.csv",
        "eval_table.csv",
        "scaler.wxtn",
        "checkpoint.wxtn",
        "manifest.txt",
    ):
        assert (run / name).is_file(), name

    table = (run / "eval_table.csv").read_text().splitlines()
    assert table[0] == "city,mse"
    assert tuple(line.split(",")[0] for line in table[1:]) == TABLE_CITY_ORDER
    for line in table[1:]:
        value = float(line.split(",")[1])
        assert np.isfinite(value) and value >= 0

    log = (run / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_mse,val_mse"
    assert len(log) == 3  # two epochs

    manifest = (run / "manifest.txt").read_text()
    assert "command = train" in manifest
    assert manifest.count("sha256") >= 6
    assert "config_digest = " + run.name.removeprefix("run-") in manifest


def test_train_is_bitwise_deterministic(tmp_path, demo):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(
            ["train", "--data", str(demo["data"]), "--out", str(out), *TRAIN_FLAGS]
        )
        assert code == 0
    (run_a,) = list(outs[0].iterdir())
    (run_b,) = list(outs[1].iterdir())
    assert run_a.name == run_b.name
    files_a = sorted(p.name for p in run_a.iterdir())
    assert files_a == sorted(p.name for p in run_b.iterdir())
    for name in files_a:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_rerunning_train_after_eval_keeps_the_manifest(tmp_path, demo):
    # eval writes into the run directory, which train's manifest must ignore.
    argv = ["train", "--data", str(demo["data"]), "--out", str(tmp_path), *TRAIN_FLAGS]
    assert main(argv) == 0
    (run_dir,) = list(tmp_path.iterdir())
    first = (run_dir / "manifest.txt").read_bytes()
    checkpoint = str(run_dir / "checkpoint.wxtn")
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(demo["data"])]) == 0
    assert main(argv) == 0
    assert (run_dir / "manifest.txt").read_bytes() == first


def test_eval_on_other_data_keeps_the_hashed_table(demo, tmp_path, capsys):
    table = demo["run"] / "eval_table.csv"
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    manifest = (demo["run"] / "manifest.txt").read_text()
    assert f"artifact = eval_table.csv sha256={digest}" in manifest
    other = tmp_path / "other.csv"
    write_demo_csv(other, days=60, seed=1, missing=3)
    checkpoint = str(demo["run"] / "checkpoint.wxtn")
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(other)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "pass --out" in err
    assert hashlib.sha256(table.read_bytes()).hexdigest() == digest
    # Naming the run directory as --out, under any spelling, is refused too.
    run_dir = demo["run"].parent / ".." / demo["run"].parent.name / demo["run"].name
    argv = ["eval", "--checkpoint", checkpoint, "--data", str(other), "--out", str(run_dir)]
    assert main(argv) == 1
    assert "pass --out" in capsys.readouterr().err
    # So is any directory that holds a run manifest.
    copy = tmp_path / "copy"
    shutil.copytree(demo["run"], copy)
    (copy / "manifest.txt").unlink()
    argv = ["eval", "--checkpoint", str(copy / "checkpoint.wxtn"), "--data", str(other),
            "--out", str(demo["run"])]
    assert main(argv) == 1
    assert "pass --out" in capsys.readouterr().err
    assert hashlib.sha256(table.read_bytes()).hexdigest() == digest
    out = tmp_path / "elsewhere"
    argv = ["eval", "--checkpoint", checkpoint, "--data", str(other), "--out", str(out)]
    assert main(argv) == 0
    assert (out / "eval_table.csv").read_bytes() != table.read_bytes()


def test_train_config_file_with_cli_override(tmp_path, demo, capsys):
    config = tmp_path / "run.txt"
    config.write_text(
        "data = {}\nlags = 4\nhorizon = 1\nfilters = 2\ndense = 4\n"
        "batch_size = 4\nmax_epochs = 1\npatience = 5\nseed = 3\n"
        "out = {}\n".format(demo["data"], tmp_path / "out")
    )
    assert main(["train", "--config", str(config), "--max-epochs", "2"]) == 0
    (run_dir,) = list((tmp_path / "out").iterdir())
    log = (run_dir / "training_log.csv").read_text().splitlines()
    assert len(log) == 3  # the command line overrode max_epochs = 1


def test_train_requires_a_dataset(capsys):
    assert main(["train", "--max-epochs", "1"]) == 1
    assert "dataset is required" in capsys.readouterr().err


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("lerning_rate = 0.1\n")
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unknown config key" in err and "lerning_rate" in err


def test_train_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "latin1.txt"
    config.write_bytes(b"seed = \xff\n")
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(config) in err
    assert "not UTF-8" in err


def test_train_rejects_a_config_that_is_not_a_file(tmp_path, capsys):
    for config in (tmp_path / "missing.cfg", tmp_path):
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: config not found: {config}\n"


def test_default_run_config_text_and_digest_are_pinned():
    """The digest names every run directory; a refactor must not move it."""
    cfg = RunConfig()
    assert cfg.to_text() == (
        "batch_size = 16\n"
        "data = none\n"
        "dense = none\n"
        "ff_dim = none\n"
        "filters = none\n"
        "horizon = 2\n"
        "kernel = 3,3\n"
        "key_dim = none\n"
        "lags = 10\n"
        "lr = 0.0001\n"
        "max_epochs = 100\n"
        "patience = 10\n"
        "seed = 0\n"
        "split_ratio = 0.9\n"
        "stop_train_mse = none\n"
        "streams = none\n"
        "target_cities = Paris,Luxembourg,London,Brussels,Frankfurt,Rotterdam\n"
        "target_feature = avg_temp\n"
        "val_fraction = 0.1\n"
        "variant = unistream\n"
    )
    assert cfg.digest() == "ae9fcf2171f8"
    cfg.data, cfg.variant = "demo.csv", "att_multistream"
    assert cfg.digest() == "eda278d5e7d4"


def test_config_keys_are_exactly_the_train_flags():
    """A config key that no train flag mirrors is a key nothing reads."""
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = [
        action for action in sub.choices["train"]._actions
        if action.dest not in ("help", "config")
    ]
    assert [action.dest for action in flags] == list(RUN_KEYS)
    for action in flags:
        expected = "--" + action.dest.replace("_", "-")
        if action.dest == "target_feature":
            expected = "--target"
        assert action.option_strings == [expected]


def test_sub_configs_take_only_run_keys():
    """Sub-configs are built from the run keys they name; a field that is
    not a run key would be silently dropped, so none may exist."""
    from_data = {"features", "cities", "n_targets"}
    assert {f.name for f in dataclasses.fields(TrainConfig)} <= set(RUN_KEYS)
    model_fields = {f.name for f in dataclasses.fields(ModelConfig)}
    assert from_data <= model_fields
    assert model_fields - from_data <= set(RUN_KEYS)
    assert not from_data & set(RUN_KEYS)


def test_train_writes_the_run_meta_after_the_model_config(demo):
    model, _ = load_checkpoint(demo["run"] / "checkpoint.wxtn")
    _, meta = load_arrays(demo["run"] / "checkpoint.wxtn")
    assert meta == model.cfg.to_text() + (
        "horizon = 1\n"
        "target_feature = avg_temp\n"
        "target_cities = Paris,Luxembourg,London,Brussels,Frankfurt,Rotterdam\n"
        "split_ratio = 0.9\n"
        "val_fraction = 0.1\n"
        "scaler_file = scaler.wxtn\n"
    )


def test_train_reports_an_allocation_that_cannot_be_made(tmp_path, demo, capsys):
    # 648 inputs x 1e14 float64 weights is about 460 PiB: beyond any address
    # space, so the allocation fails before a byte is touched.
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out),
            *TRAIN_FLAGS, "--dense", "100000000000000"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error: Unable to allocate" in err
    assert "(648, 100000000000000)" in err


def test_train_rejects_bad_values(tmp_path, demo, capsys):
    assert main(["train", "--data", str(demo["data"]), "--lags", "many"]) == 1
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--stop-train-mse", "nan")]
)
def test_train_rejects_non_finite_hyperparameters_before_reading_data(
    tmp_path, demo, capsys, monkeypatch, flag, value
):
    def no_read(path):
        raise AssertionError("the dataset was read before the config was checked")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out), flag, value]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--variant", "nope"], "unknown variant 'nope'"),
        (["--split-ratio", "2"], "split ratio must be in (0, 1)"),
        (["--val-fraction", "0"], "validation fraction must be in (0, 1)"),
        (["--lags", "0"], "lags must be positive"),
        (["--filters", "0"], "filters must be positive"),
        (["--kernel", "2,2"], "kernel needs two odd positive extents"),
    ],
)
def test_train_checks_flags_before_reading_data(tmp_path, capsys, flags, message):
    """A missing dataset would exit 2; a bad flag is found before the read."""
    out = tmp_path / "o"
    argv = ["train", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
            *flags]
    assert main(argv) == 1
    assert "configuration error: " + message in capsys.readouterr().err
    assert not out.exists()


def test_a_diverging_run_reports_one_numerical_failure_line(tmp_path, demo):
    # In a child process, so numpy's warnings would print as they do for a
    # user instead of failing the test run.
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out),
            *TRAIN_FLAGS, "--lr", "1e300"]
    source = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source))
    done = subprocess.run(
        [sys.executable, "-m", "stationcast.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 3
    assert done.stderr == (
        "numerical failure: non-finite training loss at epoch 1, batch 1\n"
    )
    assert not out.exists()


def test_a_numerical_failure_exits_3_in_process(tmp_path, demo, capsys):
    # The run above, in process: train keeps numpy's overflow warnings off,
    # and main() maps the failure to exit 3.
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out),
            *TRAIN_FLAGS, "--lr", "1e300"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite training loss at epoch 1, batch 1\n"
    )
    assert not out.exists()


def test_train_rejects_a_zero_validation_fraction(tmp_path, demo, capsys):
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out),
            *TRAIN_FLAGS, "--val-fraction", "0"]
    assert main(argv) == 1
    assert "validation fraction must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dense", "0"], "dense widths must be positive"),
        (["--dense", "-1"], "dense widths must be positive"),
        (["--variant", "att_unistream", "--key-dim", "0"], "key_dim must be positive"),
        (["--variant", "att_unistream", "--ff-dim", "-2"], "ff_dim must be positive"),
        (["--kernel", "0,3"], "kernel needs two odd positive extents"),
    ],
)
def test_train_rejects_layer_widths_below_one(tmp_path, demo, capsys, flags, message):
    argv = ["train", "--data", str(demo["data"]), "--out", str(tmp_path / "o"),
            *TRAIN_FLAGS, *flags]
    assert main(argv) == 1
    assert "configuration error: " + message in capsys.readouterr().err


def test_a_single_training_window_is_rejected(tmp_path, capsys):
    # Half of the first 10 days validate, leaving 5 training days: one window
    # of 4 lags and a 1-day horizon, a batch that batch norm cannot take.
    data = tmp_path / "demo.csv"
    write_demo_csv(data, days=20, seed=3)
    out = tmp_path / "runs"
    flags = [
        "--lags", "4", "--horizon", "1", "--filters", "2", "--dense", "4",
        "--max-epochs", "2", "--split-ratio", "0.5", "--val-fraction", "0.5",
    ]
    assert main(["train", "--data", str(data), "--out", str(out), *flags]) == 1
    assert "training set needs 2 windows, has 1" in capsys.readouterr().err
    assert not out.exists()


def test_data_too_short_for_windows(tmp_path, capsys):
    data = tmp_path / "short.csv"
    write_demo_csv(data, days=30, seed=4)
    code = main(
        ["train", "--data", str(data), "--out", str(tmp_path / "o"),
         "--lags", "10", "--horizon", "2", "--max-epochs", "1"]
    )
    assert code == 1
    assert "block too short" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--target", "nosuch"], "unknown feature 'nosuch'"),
        (["--target-cities", "Paris,Atlantis"], "unknown city 'Atlantis'"),
        (["--horizon", "0"], "lags and horizon must be >= 1"),
    ],
)
def test_window_errors_that_no_block_length_mends_are_not_called_short(
    tmp_path, demo, capsys, flags, message
):
    argv = ["train", "--data", str(demo["data"]), "--out", str(tmp_path / "o"),
            *TRAIN_FLAGS, *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error: " + message in err
    assert "too short" not in err


@pytest.mark.parametrize("value", ["", ","])
def test_train_rejects_an_empty_target_city_list(tmp_path, capsys, value):
    config = tmp_path / "run.txt"
    config.write_text(f"target_cities = {value}\n")
    for flags, source in (
        (["--target-cities", value], "command line"),
        (["--config", str(config)], str(config)),
    ):
        assert main(["train", "--data", "unread.csv", *flags]) == 1
        err = capsys.readouterr().err
        assert f"{source}: bad value {value!r} for key 'target_cities'" in err


def test_train_rejects_a_repeated_target_city(tmp_path, demo, capsys):
    out = tmp_path / "o"
    argv = ["train", "--data", str(demo["data"]), "--out", str(out),
            *TRAIN_FLAGS, "--target-cities", "Paris,Paris"]
    assert main(argv) == 1
    assert "configuration error: target cities repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, error",
    [("train", "configuration error: seed must be >= 0"),
     ("scoremax", "usage error: --seed must be >= 0")],
)
def test_a_negative_seed_is_rejected(tmp_path, demo, capsys, command, error):
    out = tmp_path / "o"
    if command == "train":
        argv = ["train", "--data", str(demo["data"]), "--out", str(out), *TRAIN_FLAGS]
    else:
        argv = ["scoremax", *run_inputs(demo, ["--out", str(out)]), "--random-init"]
    assert main([*argv, "--seed", "-1"]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


# -- eval --------------------------------------------------------------------


def test_eval_reproduces_the_training_table(demo, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", *run_inputs(demo, ["--out", str(out)])]) == 0
    assert (out / "eval_table.csv").read_bytes() == (
        demo["run"] / "eval_table.csv"
    ).read_bytes()
    predictions = sorted(p.name for p in out.glob("predictions_*.csv"))
    assert len(predictions) == 6
    lines = (out / predictions[0]).read_text().splitlines()
    assert lines[0] == "index,actual,predicted"
    assert len(lines) == 3  # two test windows
    for name in predictions:
        for line in (out / name).read_text().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)  # np.float64(...) reprs raise ValueError
    assert "city,mse" in capsys.readouterr().out
    # Each city's file holds that city's descaled truth and prediction.
    args = argparse.Namespace(
        checkpoint=demo["run"] / "checkpoint.wxtn", data=demo["data"], scaler=None,
        out=out,
    )
    model, scaler, windows, _, _ = cli._load_run(args)
    pred, truth = descaled_predictions(model, windows, scaler)
    for j, city in enumerate(windows.target_cities):
        rows = np.loadtxt(
            out / f"predictions_{city}.csv", delimiter=",", skiprows=1, ndmin=2
        )
        np.testing.assert_array_equal(rows[:, 0], np.arange(len(windows)))
        np.testing.assert_array_equal(rows[:, 1], truth[:, j])
        np.testing.assert_array_equal(rows[:, 2], pred[:, j])


@pytest.mark.parametrize(
    "command",
    [["eval"], ["occlude", "--mode", "temporal", "--samples", "1"],
     ["scoremax", "--iterations", "1", "--lags", "1"]],
    ids=["eval", "occlude", "scoremax"],
)
def test_data_other_than_the_manifest_hashed_is_reported(
    demo, tmp_path, capsys, command
):
    assert main([*command, *run_inputs(demo, ["--out", str(tmp_path / "same")])]) == 0
    assert "warning" not in capsys.readouterr().err
    # One edited temperature: the same grid and split, another file.
    lines = demo["data"].read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    argv = [
        *command, "--checkpoint", str(demo["run"] / "checkpoint.wxtn"),
        "--data", str(edited), "--out", str(tmp_path / "edited"),
    ]
    assert main(argv) == 0
    (warning,) = capsys.readouterr().err.splitlines()
    assert warning.startswith(f"warning: {edited} is not the data")


def test_eval_missing_checkpoint(demo, capsys):
    code = main(
        ["eval", "--checkpoint", "nowhere.wxtn", "--data", str(demo["data"])]
    )
    assert code == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_eval_missing_scaler(demo, tmp_path, capsys):
    stray = tmp_path / "ckpt.wxtn"
    stray.write_bytes((demo["run"] / "checkpoint.wxtn").read_bytes())
    assert main(["eval", "--checkpoint", str(stray), "--data", str(demo["data"])]) == 1
    assert "scaler not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "meta, message",
    [
        ("features = a b\n", "lacks ['cities']"),
        ("features a b\ncities = c\n", "expected 'key = value'"),
    ],
)
def test_eval_rejects_corrupt_scaler_meta(demo, tmp_path, capsys, meta, message):
    arrays, _ = load_arrays(demo["run"] / "scaler.wxtn")
    scaler = tmp_path / "scaler.wxtn"
    save_arrays(scaler, arrays, meta)
    assert main(["eval", *run_inputs(demo, ["--scaler", str(scaler)])]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def _cut_arrays(arrays, meta):
    return {k: v[:, :5] for k, v in arrays.items()}, meta


def _reversed_cities(arrays, meta):
    features, cities = meta.splitlines()
    key, names = cities.split(" = ")
    return arrays, f"{features}\n{key} = {' '.join(reversed(names.split()))}\n"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_cut_arrays, "scaler arrays (18, 5) and (18, 5) disagree"),
        (_reversed_cities, "scaler cities ['Zurich'"),
    ],
)
def test_eval_rejects_a_scaler_that_disagrees_with_the_data(
    demo, tmp_path, capsys, tamper, message
):
    scaler = tmp_path / "scaler.wxtn"
    save_arrays(scaler, *tamper(*load_arrays(demo["run"] / "scaler.wxtn")))
    assert main(["eval", *run_inputs(demo, ["--scaler", str(scaler)])]) == 1
    err = capsys.readouterr().err
    assert "configuration error: " + message in err


def _overflowing_extents(blob):
    """The first two extents of ``backbone.w_xi`` set to 2**32: their product
    wraps to 0 in int64 arithmetic."""
    at = blob.index(b"backbone.w_xi") + len(b"backbone.w_xi") + 4  # past ndim
    return blob[:at] + struct.pack("<2Q", 2**32, 2**32) + blob[at + 16 :]


def _too_many_axes(blob):
    """``backbone.w_xi`` given 65 axes: its own extents, then ones, so the
    payload size still matches."""
    at = blob.index(b"backbone.w_xi") + len(b"backbone.w_xi")
    (ndim,) = struct.unpack_from("<I", blob, at)
    shape = struct.unpack_from(f"<{ndim}Q", blob, at + 4)
    axes = struct.pack("<I65Q", 65, *shape, *[1] * (65 - ndim))
    return blob[:at] + axes + blob[at + 4 + 8 * ndim :]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob.replace(b"variant", b"vari\xffnt", 1),
        lambda blob: blob.replace(b"backbone.w_xi", b"backbone.w_\xffi", 1),
        lambda blob: blob + b"\0",
        _overflowing_extents,
        _too_many_axes,
    ],
    ids=[
        "meta-not-utf8", "name-not-utf8", "trailing-bytes", "extents-overflow",
        "too-many-axes",
    ],
)
def test_eval_rejects_a_corrupt_checkpoint(demo, tmp_path, capsys, corrupt):
    ckpt = tmp_path / "checkpoint.wxtn"
    ckpt.write_bytes(corrupt((demo["run"] / "checkpoint.wxtn").read_bytes()))
    (tmp_path / "scaler.wxtn").write_bytes((demo["run"] / "scaler.wxtn").read_bytes())
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(demo["data"])])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_eval_missing_data_file(demo, capsys):
    code = main(["eval", *run_inputs(demo)][:3] + ["--data", "void.csv"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("horizon", "abc"), ("split_ratio", "x"), ("val_fraction", "x")]
)
def test_eval_rejects_a_bad_run_meta_value(demo, tmp_path, capsys, key, value):
    arrays, meta = load_arrays(demo["run"] / "checkpoint.wxtn")
    lines = [
        f"{key} = {value}" if line.partition(" =")[0] == key else line
        for line in meta.splitlines()
    ]
    assert lines != meta.splitlines()
    ckpt = tmp_path / "checkpoint.wxtn"
    save_arrays(ckpt, arrays, "\n".join(lines) + "\n")
    (tmp_path / "scaler.wxtn").write_bytes((demo["run"] / "scaler.wxtn").read_bytes())
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(demo["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(key) in err and repr(value) in err


@pytest.mark.parametrize("key", (*RUN_META, "scaler_file"))
def test_eval_rejects_a_checkpoint_without_a_run_meta_key(demo, tmp_path, capsys, key):
    arrays, meta = load_arrays(demo["run"] / "checkpoint.wxtn")
    lines = [line for line in meta.splitlines() if line.partition(" =")[0] != key]
    assert len(lines) == len(meta.splitlines()) - 1
    ckpt = tmp_path / "checkpoint.wxtn"
    save_arrays(ckpt, arrays, "\n".join(lines) + "\n")
    (tmp_path / "scaler.wxtn").write_bytes((demo["run"] / "scaler.wxtn").read_bytes())
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(demo["data"]),
                 "--out", str(out)])
    assert code == 1
    assert f"checkpoint meta lacks {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_names_a_slot_the_checkpoint_lacks(demo, tmp_path, capsys):
    arrays, meta = load_arrays(demo["run"] / "checkpoint.wxtn")
    del arrays["norm.running_var"]
    ckpt = tmp_path / "checkpoint.wxtn"
    save_arrays(ckpt, arrays, meta)
    (tmp_path / "scaler.wxtn").write_bytes((demo["run"] / "scaler.wxtn").read_bytes())
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(demo["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing parameters in container: ['norm.running_var']" in err


@pytest.mark.parametrize("command", ["eval", "occlude", "scoremax"])
def test_a_test_block_too_short_is_named(demo, tmp_path, capsys, command):
    # At the run's 0.9 split, 8 days leave 1 test day: short of 4 lags + 1.
    data = tmp_path / "short.csv"
    write_demo_csv(data, days=8, seed=0)
    out = tmp_path / "out"
    argv = [command, *run_inputs(demo)[:2], "--data", str(data), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error: test block too short: 1 days cannot fit" in err
    assert not out.exists()


def test_foreign_checkpoint_meta_is_rejected(demo, tmp_path, capsys):
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    model = ModelGraph(
        ModelConfig(
            variant="unistream", lags=4, features=18, cities=18,
            n_targets=6, filters=2, dense=(4,), seed=0,
        )
    )
    save_checkpoint(model, foreign / "checkpoint.wxtn")  # no run meta
    (foreign / "scaler.wxtn").write_bytes((demo["run"] / "scaler.wxtn").read_bytes())
    code = main(
        ["eval", "--checkpoint", str(foreign / "checkpoint.wxtn"),
         "--data", str(demo["data"])]
    )
    assert code == 1
    assert "checkpoint meta lacks" in capsys.readouterr().err


def test_checkpoint_without_meta_or_scaler_names_the_meta(tmp_path, capsys, demo):
    # Without run metadata the checkpoint names no scaler: the missing
    # metadata is the cause, not the missing scaler.
    model = ModelGraph(
        ModelConfig(
            variant="unistream", lags=4, features=18, cities=18,
            n_targets=6, filters=2, dense=(4,), seed=0,
        )
    )
    save_checkpoint(model, tmp_path / "checkpoint.wxtn")
    code = main(
        ["eval", "--checkpoint", str(tmp_path / "checkpoint.wxtn"),
         "--data", str(demo["data"])]
    )
    assert code == 1
    assert "checkpoint meta lacks" in capsys.readouterr().err


# -- occlude -----------------------------------------------------------------


def test_occlude_aggregate_temporal(demo, tmp_path, capsys):
    out = tmp_path / "occ"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--mode", "temporal", "--aggregate", "--samples", "2"]
    )
    assert code == 0
    csv_path = out / "occlusion_temporal_all_targets.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",lag_1,lag_2,lag_3,lag_4"
    assert lines[1].startswith("mean_pct_change,")
    svg = (out / "occlusion_temporal_all_targets.svg").read_text()
    minidom.parseString(svg)
    assert "Occlusion analysis (temporal)" in svg


def test_failed_map_write_keeps_earlier_maps_and_leaves_no_temp_file(
    demo, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "occ"
    argv = ["occlude", *run_inputs(demo, ["--out", str(out)]),
            "--mode", "temporal", "--aggregate", "--samples", "2"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_open = open

    def full_disk_on_svg(path, *args, **kwargs):
        handle = real_open(path, *args, **kwargs)
        if ".svg." in Path(path).name:  # the SVG's temporary file
            handle.write("<svg")
            handle.close()
            raise OSError(28, "No space left on device")
        return handle

    monkeypatch.setattr("builtins.open", full_disk_on_svg)
    assert main([*argv, "--fill", "mean"]) == 2
    monkeypatch.undo()
    assert "No space left" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(before)  # no temporary file left behind
    svg = "occlusion_temporal_all_targets.svg"
    assert after[svg] == before[svg]
    # The CSV went through before the SVG failed: it holds the mean-fill map.
    csv = "occlusion_temporal_all_targets.csv"
    assert after[csv] != before[csv]


def test_occlude_single_city_feature_rows(demo, tmp_path):
    out = tmp_path / "occ"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--mode", "feature_row", "--city", "Paris", "--samples", "2"]
    )
    assert code == 0
    lines = (out / "occlusion_feature_row_Paris.csv").read_text().splitlines()
    assert lines[0] == ",mean_pct_change"
    assert len(lines) == 19  # 18 feature rows
    assert lines[1].split(",")[0] == "high_temp"


def test_occlude_writes_one_map_per_target_by_default(demo, tmp_path):
    out = tmp_path / "occ"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--mode", "city_column", "--samples", "2"]
    )
    assert code == 0
    assert len(list(out.glob("occlusion_city_column_*.csv"))) == 6
    assert len(list(out.glob("occlusion_city_column_*.svg"))) == 6


def test_occlude_patch_size_must_divide_the_grid(demo, tmp_path, capsys):
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--mode", "patch", "--patch-size", "5", "--samples", "2"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "valid sizes: [1, 2, 3, 6, 9, 18]" in err


@pytest.mark.parametrize("mode", ["feature_row", "temporal", "patch"])
def test_occlude_rejects_a_patch_size_below_one_in_every_mode(
    demo, tmp_path, capsys, mode
):
    out = tmp_path / "x"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--mode", mode, "--patch-size", "0", "--samples", "2"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: patch size must be >= 1, got 0" in err
    assert not list(out.glob("occlusion_*"))


@pytest.mark.parametrize("mode, code", [("feature_row", 1), ("patch", 0)])
def test_occlude_patch_size_applies_only_to_patch_mode(
    demo, tmp_path, capsys, mode, code
):
    out = tmp_path / "x"
    argv = ["occlude", *run_inputs(demo, ["--out", str(out)]), "--aggregate"]
    assert main([*argv, "--mode", mode, "--patch-size", "3", "--samples", "2"]) == code
    if code:
        err = capsys.readouterr().err
        assert "usage error: --patch-size 3 applies only to --mode patch" in err
        assert not out.exists()
    else:
        lines = (out / "occlusion_patch_all_targets.csv").read_text().splitlines()
        assert len(lines) == 7  # header + 18/3 block rows


def test_occlude_patch_grid_shape(demo, tmp_path):
    out = tmp_path / "occ"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--mode", "patch", "--patch-size", "6", "--aggregate", "--samples", "2"]
    )
    assert code == 0
    lines = (out / "occlusion_patch_all_targets.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 18/6 block rows
    assert lines[0].count(",") == 3


def test_occlude_unknown_city(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--city", "Atlantis", "--samples", "2"]
    )
    assert code == 1
    assert "not a target city" in capsys.readouterr().err
    assert not out.exists()


def test_occlude_city_and_aggregate_are_exclusive(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(out)]),
         "--city", "Paris", "--aggregate", "--samples", "2"]
    )
    assert code == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_occlude_warns_when_samples_exceed_the_test_windows(demo, tmp_path, capsys):
    args = argparse.Namespace(
        checkpoint=demo["run"] / "checkpoint.wxtn", data=demo["data"], scaler=None,
        out=None,
    )
    n = len(cli._load_run(args)[2])
    outputs = []
    for samples in (n, n + 5):
        out = tmp_path / str(samples)
        argv = ["occlude", *run_inputs(demo, ["--out", str(out)]),
                "--mode", "temporal", "--aggregate", "--samples", str(samples)]
        assert main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        err = capsys.readouterr().err
        if samples == n:
            assert "warning" not in err
        else:
            (warning,) = err.splitlines()
            assert warning == (
                f"warning: --samples {n + 5} exceeds the {n} test windows; "
                f"the maps average over {n}"
            )
    assert outputs[0] == outputs[1]


def test_occlude_needs_a_positive_sample_budget(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["occlude", *run_inputs(demo, ["--out", str(out)]), "--samples", "0"])
    assert code == 1
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


# -- scoremax ----------------------------------------------------------------


def test_scoremax_writes_maps_and_trajectory(demo, tmp_path, capsys):
    out = tmp_path / "sm"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--iterations", "3", "--lags", "1,4"]
    )
    assert code == 0
    for lag in (1, 4):
        lines = (out / f"scoremax_lag{lag}.csv").read_text().splitlines()
        assert len(lines) == 19  # header + 18 features
        minidom.parseString((out / f"scoremax_lag{lag}.svg").read_text())
    scores = (out / "scoremax_scores.csv").read_text().splitlines()
    assert scores[0] == "iteration,h"
    assert len(scores) == 5  # h before each of 3 steps + the final map's h
    assert all(float(line.split(",")[1]) > 0 for line in scores[1:])
    assert "score:" in capsys.readouterr().out


def test_scoremax_default_lags_are_the_models_first_middle_and_last(demo, tmp_path):
    out = tmp_path / "sm"
    argv = ["scoremax", *run_inputs(demo, ["--out", str(out)]), "--iterations", "2"]
    assert main(argv) == 0
    maps = sorted(p.name for p in out.glob("scoremax_lag*"))
    assert maps == [
        f"scoremax_lag{lag}.{ext}" for lag in (1, 2, 4) for ext in ("csv", "svg")
    ]


def test_scoremax_lag_map_is_that_lag_of_the_ascent(demo, tmp_path):
    out = tmp_path / "sm"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]), "--iterations", "3",
         "--lags", "1,4", "--random-init", "--seed", "4", "--sample-index", "1"]
    )
    assert code == 0
    args = argparse.Namespace(
        checkpoint=demo["run"] / "checkpoint.wxtn", data=demo["data"], scaler=None,
        out=tmp_path / "api",
    )
    model, _, windows, _, _ = cli._load_run(args)
    sample = np.random.default_rng(4).uniform(0.0, 1.0, size=windows.inputs[1].shape)
    result = score_maximize(model, sample, windows.targets[1], iterations=3)
    lines = (out / "scoremax_lag4.csv").read_text().splitlines()
    assert lines[0] == "," + ",".join(windows.cities)
    assert [line.partition(",")[0] for line in lines[1:]] == list(windows.features)
    written = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_array_equal(written, result.input_map[3])
    assert not np.array_equal(written, result.input_map[0])


def test_scoremax_is_deterministic(demo, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(
            ["scoremax", *run_inputs(demo, ["--out", str(out)]),
             "--iterations", "2", "--lags", "2", "--random-init", "--seed", "9"]
        )
        assert code == 0
    a = (outs[0] / "scoremax_lag2.csv").read_bytes()
    b = (outs[1] / "scoremax_lag2.csv").read_bytes()
    assert a == b


def test_scoremax_sample_index_bounds(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--sample-index", "99", "--iterations", "1"]
    )
    assert code == 1
    assert "--sample-index" in capsys.readouterr().err
    assert not out.exists()


def test_scoremax_lags_must_be_integers(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--lags", "one,two", "--iterations", "1"]
    )
    assert code == 1
    assert "--lags" in capsys.readouterr().err
    assert not out.exists()


def test_scoremax_lags_must_select_one(demo, tmp_path, capsys):
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--lags", ",", "--iterations", "1"]
    )
    assert code == 1
    assert "usage error: --lags selected no lags" in capsys.readouterr().err


def test_scoremax_rejects_a_repeated_lag_before_reading(tmp_path, capsys):
    code = main(
        ["scoremax", "--checkpoint", str(tmp_path / "missing.wxtn"),
         "--data", str(tmp_path / "missing.csv"), "--lags", "1,1"]
    )
    assert code == 1
    assert capsys.readouterr().err == "usage error: --lags repeats a lag: '1,1'\n"


def test_scoremax_seed_needs_random_init(demo, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--seed", "4", "--iterations", "1", "--lags", "1"]
    )
    assert code == 1
    assert "usage error: --seed applies only with --random-init" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_random_init_alone_seeds_zero(demo, tmp_path):
    outs = [tmp_path / "default", tmp_path / "zero"]
    for out, seed in zip(outs, [[], ["--seed", "0"]]):
        code = main(
            ["scoremax", *run_inputs(demo, ["--out", str(out)]),
             "--iterations", "2", "--lags", "2", "--random-init", *seed]
        )
        assert code == 0
    for name in ("scoremax_lag2.csv", "scoremax_scores.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_scoremax_lag_outside_window(demo, tmp_path, capsys):
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--lags", "9", "--iterations", "1"]
    )
    assert code == 1
    assert "outside" in capsys.readouterr().err


def test_scoremax_checks_lags_before_the_ascent(demo, tmp_path, capsys, monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("score_maximize ran before --lags was checked")

    monkeypatch.setattr("stationcast.cli.score_maximize", no_ascent)
    out = tmp_path / "x"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--lags", "1,5", "--iterations", "1"]
    )
    assert code == 1
    assert "outside 1..4" in capsys.readouterr().err
    assert not list(out.glob("scoremax_*"))


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_scoremax_rejects_a_non_finite_rate_before_the_ascent(
    demo, tmp_path, capsys, monkeypatch, rate
):
    def no_forward(*args, **kwargs):
        raise AssertionError("the model ran before --lr was checked")

    monkeypatch.setattr(ModelGraph, "forward", no_forward)
    out = tmp_path / "x"
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(out)]),
         "--lr", rate, "--iterations", "1", "--lags", "1"]
    )
    assert code == 1
    assert "ascent rate must be finite" in capsys.readouterr().err
    assert not list(out.glob("scoremax_*"))


@pytest.mark.parametrize(
    "flags, flag",
    [(["--iterations", "0"], "--iterations"), (["--lr", "nan"], "--lr"),
     (["--lr", "-0.5"], "--lr")],
    ids=["iterations", "nan-rate", "negative-rate"],
)
def test_scoremax_checks_the_ascent_before_loading_the_run(
    tmp_path, capsys, flags, flag
):
    out = tmp_path / "x"
    code = main(
        ["scoremax", "--checkpoint", str(tmp_path / "missing.wxtn"),
         "--data", str(tmp_path / "missing.csv"), "--out", str(out), *flags]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"configuration error: {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["occlude", "--samples", "0"], "--samples must be >= 1"),
        (["scoremax", "--lags", "one,two"], "--lags must be comma-separated"),
        (["scoremax", "--lags", ","], "--lags selected no lags"),
    ],
    ids=["samples", "lags", "no-lags"],
)
def test_explain_flags_are_checked_before_any_file_is_read(
    tmp_path, capsys, argv, message
):
    command, *flags = argv
    code = main(
        [command, "--checkpoint", str(tmp_path / "missing.wxtn"),
         "--data", str(tmp_path / "missing.csv"), *flags]
    )
    assert code == 1
    assert f"usage error: {message}" in capsys.readouterr().err


# -- parser-level behavior ---------------------------------------------------


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["train", "--turbo"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0

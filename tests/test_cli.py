"""End-to-end command-line tests: exit codes, artifacts, determinism.

A single small training run (60 synthetic days, 2 epochs) is shared by the
eval/occlude/scoremax tests; determinism gets its own pair of runs.
"""

import dataclasses
import re
import struct
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from stationcast.cli import _TRAIN_OVERRIDES, main
from stationcast.data import TABLE_CITY_ORDER, write_demo_csv
from stationcast.models import ModelConfig, ModelGraph, save_checkpoint
from stationcast.runconfig import RunConfig
from stationcast.serialize import load_arrays, save_arrays

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


def test_config_keys_are_exactly_the_train_flags():
    """A config key that no train flag mirrors is a key nothing reads."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert keys == {dest for _, dest, _ in _TRAIN_OVERRIDES}


def test_train_rejects_bad_values(tmp_path, demo, capsys):
    assert main(["train", "--data", str(demo["data"]), "--lags", "many"]) == 1
    assert "bad value" in capsys.readouterr().err


def test_data_too_short_for_windows(tmp_path, capsys):
    data = tmp_path / "short.csv"
    write_demo_csv(data, days=30, seed=4)
    code = main(
        ["train", "--data", str(data), "--out", str(tmp_path / "o"),
         "--lags", "10", "--horizon", "2", "--max-epochs", "1"]
    )
    assert code == 1
    assert "block too short" in capsys.readouterr().err


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


def _overflowing_extents(blob):
    """The first two extents of ``backbone.w_xi`` set to 2**32: their product
    wraps to 0 in int64 arithmetic."""
    at = blob.index(b"backbone.w_xi") + len(b"backbone.w_xi") + 4  # past ndim
    return blob[:at] + struct.pack("<2Q", 2**32, 2**32) + blob[at + 16 :]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob.replace(b"variant", b"vari\xffnt", 1),
        lambda blob: blob.replace(b"backbone.w_xi", b"backbone.w_\xffi", 1),
        lambda blob: blob + b"\0",
        _overflowing_extents,
    ],
    ids=["meta-not-utf8", "name-not-utf8", "trailing-bytes", "extents-overflow"],
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
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--city", "Atlantis", "--samples", "2"]
    )
    assert code == 1
    assert "not a target city" in capsys.readouterr().err


def test_occlude_needs_a_positive_sample_budget(demo, tmp_path, capsys):
    code = main(
        ["occlude", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--samples", "0"]
    )
    assert code == 1
    assert "--samples" in capsys.readouterr().err


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
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--sample-index", "99", "--iterations", "1"]
    )
    assert code == 1
    assert "--sample-index" in capsys.readouterr().err


def test_scoremax_lags_must_be_integers(demo, tmp_path, capsys):
    code = main(
        ["scoremax", *run_inputs(demo, ["--out", str(tmp_path / "x")]),
         "--lags", "one,two", "--iterations", "1"]
    )
    assert code == 1
    assert "--lags" in capsys.readouterr().err


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

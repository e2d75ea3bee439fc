"""Acceptance gate: ten verifiable properties of the whole system.

Each test covers one numbered criterion and prints a single PASS/FAIL
verdict line (visible with ``pytest -s`` or in captured output).  The
criteria are property-based — gradient integrity, hand oracles, parameter
parity, determinism, and an end-to-end dress rehearsal — rather than
numeric reproduction of any published experiment.

Criterion 10 runs on a full-size synthetic dataset by default; point
``STATIONCAST_DATA`` at a real long-form CSV (18 features x 18 cities,
daily rows) to rehearse on it instead.
"""

import datetime
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from xml.dom import minidom

import numpy as np
import pytest

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor, grad_check
from stationcast.cli import main
from stationcast.data import (
    CITIES,
    FEATURES,
    TABLE_CITY_ORDER,
    WeatherCube,
    fit_scaler,
    make_windows,
    scale_cube,
    synthetic_cube,
    write_demo_csv,
)
from stationcast.explain import OcclusionSpec, occlusion_map, score_maximize
from stationcast.layers import (
    AttentionHead,
    BatchNorm,
    ConvLSTM,
    Dense,
    EncoderBlock,
    Layer,
    LayerNorm,
)
from stationcast.models import VARIANTS, ModelConfig, ModelGraph
from stationcast.training import TrainConfig, mse, train


@contextmanager
def verdict(number, name, capsys=None):
    """Print one criterion verdict line, bypassing capture when possible."""

    def emit(status):
        line = f"criterion {number:2d} [{name}]: {status}"
        if capsys is None:
            print(line)
        else:
            with capsys.disabled():
                print(line, flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def toy_config(variant, seed=1):
    return ModelConfig(
        variant=variant,
        lags=4,
        features=4,
        cities=4,
        n_targets=2,
        filters=2,
        dense=(5,),
        seed=seed,
    )


# -- 1: gradient integrity ---------------------------------------------------


def test_criterion_01_gradient_integrity(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    failures = {}

    def check(name, fn, x, limit=1e-4):
        err = grad_check(fn, x)
        if not err < limit:
            failures[name] = err

    with verdict(1, "gradient integrity", capsys):
        w_dense = rng.standard_normal((3, 3))
        dense = Dense(rng, 4, 3, activation="relu")
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        check("dense/input", lambda t: (dense(t) * Tensor(w_dense)).sum(), x)
        check("dense/weight", lambda t: (dense(x) * Tensor(w_dense)).sum(), dense.weight)

        norm = LayerNorm(4)
        w_ln = rng.standard_normal((3, 4))
        check("layernorm/input", lambda t: (norm(t) * Tensor(w_ln)).sum(), x)
        check("layernorm/gain", lambda t: (norm(x) * Tensor(w_ln)).sum(), norm.gain)

        bn = BatchNorm(2)
        xb = Tensor(rng.uniform(-1, 1, (3, 2, 4, 4)))
        w_bn = rng.standard_normal((3, 2, 4, 4))
        check(
            "batchnorm/input",
            lambda t: (bn(t, training=True) * Tensor(w_bn)).sum(),
            xb,
        )

        cell = ConvLSTM(rng, 1, 2)
        seq = Tensor(rng.uniform(-1, 1, (2, 4, 1, 4, 4)))
        w_cell = rng.standard_normal((2, 2, 4, 4))
        check("convlstm/input", lambda t: (cell(t) * Tensor(w_cell)).sum(), seq)
        check("convlstm/w_xi", lambda t: (cell(seq) * Tensor(w_cell)).sum(), cell.w_xi)

        head = AttentionHead(rng, 4, 4)
        tokens = Tensor(rng.uniform(-1, 1, (4, 4)))
        w_att = rng.standard_normal((4, 4))
        check("attention/input", lambda t: (head(t) * Tensor(w_att)).sum(), tokens)
        check("attention/w_q", lambda t: (head(tokens) * Tensor(w_att)).sum(), head.w_q)

        block = EncoderBlock(rng, 4)
        check("encoder/input", lambda t: (block(t) * Tensor(w_att)).sum(), tokens)

        for variant in VARIANTS:
            model = ModelGraph(toy_config(variant))
            batch = Tensor(rng.uniform(0, 1, (3, 4, 4, 4)))
            truth = rng.uniform(0, 1, (3, 2))

            def loss(t, model=model, truth=truth):
                return mse(model.forward(t, mode="train"), truth)

            model.zero_grad()
            check(f"{variant}/input", loss, batch)
            first_conv = (
                model.backbone if not model.cfg.multistream else model.streams[0].conv[0]
            )
            model.zero_grad()
            check(
                f"{variant}/conv-weight",
                lambda t, model=model, batch=batch, truth=truth: mse(
                    model.forward(batch, mode="train"), truth
                ),
                first_conv.w_xc,
            )
            model.zero_grad()
            check(
                f"{variant}/head-weight",
                lambda t, model=model, batch=batch, truth=truth: mse(
                    model.forward(batch, mode="train"), truth
                ),
                model.head[-1].weight,
            )

        elapsed = time.monotonic() - start
        assert not failures, f"gradient mismatches: {failures}"
        assert elapsed < 120, f"gradient sweep took {elapsed:.0f}s (budget 120s)"


# -- 2: attention contract ---------------------------------------------------


def test_criterion_02_attention_contract(capsys):
    with verdict(2, "attention contract", capsys):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-5, 5, (5, 7))
        for offset in (0.0, 1000.0, -1000.0):
            rows = ad.softmax_rows(Tensor(logits + offset)).data
            assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-9

        head = AttentionHead(rng, 4, 4)
        tokens = Tensor(rng.uniform(-3, 3, (6, 4)))
        v = tokens.data @ head.w_v.data
        out = head(tokens).data
        assert (out <= v.max(axis=0) + 1e-12).all()
        assert (out >= v.min(axis=0) - 1e-12).all()

        two = AttentionHead(rng, 2, 2)
        two.w_q.data[...] = np.eye(2)
        two.w_k.data[...] = [[0.0, 1.0], [1.0, 0.0]]
        two.w_v.data[...] = [[1.0, 2.0], [3.0, 4.0]]
        expected = np.array(
            [
                [2.3395230986533138, 3.3395230986533138],
                [1.6604769013466862, 2.6604769013466862],
            ]
        )
        got = two(Tensor(np.eye(2))).data
        assert np.abs(got - expected).max() < 1e-12


# -- 3: the recurrent cell against a scalar oracle ---------------------------


def scalar_lstm(weights, xs):
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    (wxi, whi, bi), (wxf, whf, bf), (wxc, whc, bc), (wxo, who, bo) = weights
    h = c = 0.0
    for x in xs:
        i = sig(wxi * x + whi * h + bi)
        f = sig(wxf * x + whf * h + bf)
        o = sig(wxo * x + who * h + bo)
        c = f * c + i * math.tanh(wxc * x + whc * h + bc)
        h = o * math.tanh(c)
    return h, c


def test_criterion_03_convlstm_oracle(capsys):
    with verdict(3, "convlstm scalar oracle", capsys):
        for seed in range(10):
            layer = ConvLSTM(np.random.default_rng(seed), 1, 1, kernel=(1, 1))
            weights = [
                (
                    float(getattr(layer, f"w_x{g}").data[0, 0, 0, 0]),
                    float(getattr(layer, f"w_h{g}").data[0, 0, 0, 0]),
                    float(getattr(layer, f"b_{g}").data[0]),
                )
                for g in ("i", "f", "c", "o")
            ]
            xs = np.random.default_rng(seed + 50).uniform(-2, 2, 5)
            want_h, want_c = scalar_lstm(weights, xs)
            got_h = float(layer(Tensor(xs.reshape(1, 5, 1, 1, 1))).data[0, 0, 0, 0])
            assert abs(got_h - want_h) < 1e-12, f"seed {seed}"
            h = Tensor(np.zeros((1, 1, 1, 1)))
            c = Tensor(np.zeros((1, 1, 1, 1)))
            for x in xs:
                h, c = layer.step(Tensor(np.full((1, 1, 1, 1), x)), h, c)
            assert abs(float(c.data[0, 0, 0, 0]) - want_c) < 1e-12, f"seed {seed}"


# -- 4: overfit capacity -----------------------------------------------------


def sinus_cube(days, nf=4, nc=4, period=64.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days)[:, None, None]
    phase = rng.uniform(0, 2 * np.pi, size=(1, nf, nc))
    values = 0.5 + 0.4 * np.sin(2 * np.pi * t / period + phase)
    dates = tuple(
        datetime.date(2005, 5, 1) + datetime.timedelta(days=i) for i in range(days)
    )
    return WeatherCube(values, dates, FEATURES[:nf], CITIES[:nc])


def test_criterion_04_overfit_capacity(capsys):
    start = time.monotonic()
    with verdict(4, "overfit capacity", capsys):
        lags, horizon = 4, 1
        cube = sinus_cube(64 + lags + horizon - 1, seed=11)
        scaler = fit_scaler(cube, range(cube.days))
        windows = make_windows(
            scale_cube(cube, scaler), lags, horizon, FEATURES[0], CITIES[:2]
        )
        assert len(windows) == 64

        reached = {}
        for variant in VARIANTS:
            model = ModelGraph(
                ModelConfig(
                    variant=variant,
                    lags=lags,
                    features=4,
                    cities=4,
                    n_targets=2,
                    filters=8,
                    dense=(32,),
                    seed=5,
                )
            )
            log = train(
                model,
                windows,
                None,
                TrainConfig(
                    lr=1e-4,
                    batch_size=4,
                    max_epochs=200,
                    patience=200,
                    seed=5,
                    stop_train_mse=1e-3,
                ),
            )
            reached[variant] = (log.epochs_run, log.entries[-1][1])

        for variant, (epochs, final) in reached.items():
            assert final < 1e-3, (
                f"{variant} stuck at train MSE {final:.2e} after {epochs} epochs"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"overfit sweep took {elapsed:.0f}s (budget 600s)"


# -- 5: parameter parity -----------------------------------------------------


def test_criterion_05_parameter_parity(capsys):
    with verdict(5, "parameter parity", capsys):
        counts = {
            v: ModelGraph(ModelConfig(variant=v)).count_params() for v in VARIANTS
        }
        top, bottom = max(counts.values()), min(counts.values())
        for a in VARIANTS:
            for b in VARIANTS:
                ratio = counts[a] / counts[b]
                assert 0.8 <= ratio <= 1.2, f"{a}={counts[a]} vs {b}={counts[b]}"
        assert top / bottom < 1.2


# -- 6: occlusion oracle -----------------------------------------------------


def test_criterion_06_occlusion_oracle(capsys):
    with verdict(6, "occlusion oracle", capsys):
        model = ModelGraph(toy_config("unistream", seed=6))
        rng = np.random.default_rng(6)
        inputs = rng.uniform(0.1, 0.9, (4, 4, 4, 4))
        truths = rng.uniform(0.1, 0.9, (4, 2))
        spec = OcclusionSpec(mode="patch", patch_size=2)
        (grid,) = occlusion_map(
            model, spec, inputs, truths, FEATURES[:4], CITIES[:4], ("a", "b")
        )

        def predict(x):
            return model.forward(Tensor(x), mode="infer").data

        ref = ((predict(inputs) - truths) ** 2).mean(axis=1)
        brute = np.zeros((2, 2))
        for r in range(2):
            for c in range(2):
                masked = inputs.copy()
                masked[:, :, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = 0.0
                cur = ((predict(masked) - truths) ** 2).mean(axis=1)
                brute[r, c] = (100.0 * (cur - ref) / ref).mean()
        assert np.abs(grid.values - brute).max() < 1e-12

        (silent,) = occlusion_map(
            model,
            spec,
            np.zeros((4, 4, 4, 4)),
            truths,
            FEATURES[:4],
            CITIES[:4],
            ("a", "b"),
        )
        np.testing.assert_array_equal(silent.values, np.zeros((2, 2)))


# -- 7: score-maximization contract ------------------------------------------


class ToyLinear(Layer):
    """A purely linear map from the flattened window to the targets."""

    def __init__(self, seed=7):
        rng = np.random.default_rng(seed)
        self.cfg = SimpleNamespace(
            lags=2, features=3, cities=3, n_targets=2, variant="linear"
        )
        self.weight = Tensor(
            rng.standard_normal((2 * 3 * 3, 2)) * 0.3, requires_grad=True
        )

    def forward(self, batch, mode="infer"):
        flat = ad.reshape(batch, (batch.shape[0], -1))
        return ad.matmul(flat, self.weight)


def test_criterion_07_score_maximization_contract(capsys):
    with verdict(7, "score maximization contract", capsys):
        rng = np.random.default_rng(7)
        model = ModelGraph(toy_config("att_unistream", seed=7))
        sample = rng.uniform(0.2, 0.8, (4, 4, 4))
        truth = rng.uniform(0, 1, 2)
        frozen = score_maximize(model, sample, truth, iterations=5, lr=0.0)
        np.testing.assert_array_equal(frozen.input_map, sample)

        linear = ToyLinear()
        lin_sample = rng.uniform(0.2, 0.8, (2, 3, 3))
        lin_truth = rng.uniform(-1, 1, 2)
        result = score_maximize(linear, lin_sample, lin_truth, iterations=50, lr=0.01)
        assert result.final_score >= result.initial_score
        assert result.input_map.min() >= 0.0
        assert result.input_map.max() <= 1.0

        pushed = score_maximize(model, sample, truth, iterations=30, lr=0.3)
        assert pushed.input_map.min() >= 0.0
        assert pushed.input_map.max() <= 1.0


# -- 8: scaling round trip ---------------------------------------------------


def test_criterion_08_scaling_round_trip(capsys):
    with verdict(8, "scaling round trip", capsys):
        cube = synthetic_cube(90, seed=8)
        scaler = fit_scaler(cube, range(0, 70))
        back = scaler.inverse(scaler.transform(cube.values))
        assert np.abs(back - cube.values).max() < 1e-12

        values = cube.values.copy()
        values[:, 0, 0] = 42.0  # a constant column
        flat_cube = WeatherCube(values, cube.dates, cube.features, cube.cities)
        flat_scaler = fit_scaler(flat_cube, range(0, 70))
        scaled = scale_cube(flat_cube, flat_scaler)
        assert np.isfinite(scaled.values).all()
        np.testing.assert_array_equal(scaled.values[:, 0, 0], np.zeros(90))


# -- 9: determinism ----------------------------------------------------------


def test_criterion_09_training_determinism(tmp_path, capsys):
    with verdict(9, "training determinism", capsys):
        data = tmp_path / "demo.csv"
        write_demo_csv(data, days=60, seed=9)
        flags = [
            "--lags", "4", "--horizon", "1", "--filters", "2", "--dense", "4",
            "--batch-size", "4", "--max-epochs", "2", "--seed", "9",
        ]
        runs = []
        for leg in ("first", "second"):
            out = tmp_path / leg
            assert main(["train", "--data", str(data), "--out", str(out), *flags]) == 0
            (run_dir,) = list(out.iterdir())
            runs.append(run_dir)
        assert runs[0].name == runs[1].name
        for name in (
            "training_log.csv",
            "checkpoint.wxtn",
            "eval_table.csv",
            "scaler.wxtn",
            "config.txt",
            "manifest.txt",
        ):
            a = (runs[0] / name).read_bytes()
            b = (runs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


# -- 10: end-to-end dress rehearsal ------------------------------------------


def test_criterion_10_end_to_end(tmp_path, capsys):
    with verdict(10, "end-to-end dress rehearsal", capsys):
        external = os.environ.get("STATIONCAST_DATA")
        if external:
            data = Path(external)
            assert data.is_file(), f"STATIONCAST_DATA={external} not found"
        else:
            data = tmp_path / "rehearsal.csv"
            write_demo_csv(data, days=200, seed=10)

        quick = [
            "--filters", "4", "--dense", "32", "--batch-size", "16",
            "--max-epochs", "1", "--seed", "0",
        ]
        run_dirs = {}
        for feature in ("wind_speed", "avg_temp"):
            for horizon in (2, 4, 6):
                out = tmp_path / f"{feature}_h{horizon}"
                code = main(
                    ["train", "--data", str(data), "--out", str(out),
                     "--target", feature, "--horizon", str(horizon), *quick]
                )
                assert code == 0, f"{feature} horizon {horizon} failed"
                (run_dir,) = list(out.iterdir())
                run_dirs[(feature, horizon)] = run_dir
                rows = (run_dir / "eval_table.csv").read_text().splitlines()
                assert rows[0] == "city,mse"
                assert tuple(r.split(",")[0] for r in rows[1:]) == TABLE_CITY_ORDER
                for row in rows[1:]:
                    value = float(row.split(",")[1])
                    assert np.isfinite(value) and value > 0

        # Explainability artifacts for one representative run.
        anchor = run_dirs[("avg_temp", 2)]
        shared = [
            "--checkpoint", str(anchor / "checkpoint.wxtn"),
            "--data", str(data),
        ]
        viz = tmp_path / "viz"
        assert main(["eval", *shared, "--out", str(viz)]) == 0
        predictions = list(viz.glob("predictions_*.csv"))
        assert len(predictions) == 6
        for path in predictions:
            lines = path.read_text().splitlines()
            assert lines[0] == "index,actual,predicted"
            assert len(lines) > 1

        assert main(
            ["occlude", *shared, "--out", str(viz), "--mode", "feature_row",
             "--city", "Paris", "--samples", "8"]
        ) == 0
        assert main(
            ["occlude", *shared, "--out", str(viz), "--mode", "city_column",
             "--aggregate", "--samples", "8"]
        ) == 0
        assert main(
            ["scoremax", *shared, "--out", str(viz), "--iterations", "5",
             "--lags", "1,5,10"]
        ) == 0
        svgs = sorted(viz.glob("*.svg"))
        assert len(svgs) >= 5
        for svg in svgs:
            doc = minidom.parseString(svg.read_text())
            assert doc.documentElement.tagName == "svg"
        assert (viz / "occlusion_feature_row_Paris.csv").is_file()
        assert (viz / "scoremax_scores.csv").is_file()

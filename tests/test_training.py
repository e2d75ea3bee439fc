"""Training-loop tests: the loss and its gradient, Adam's update identities,
deterministic runs, early stopping with best-snapshot restore, one tape
alive at a time, and the descaled per-city evaluation table."""

import gc
import weakref

import numpy as np
import pytest

from stationcast import training
from stationcast.autodiff import Tensor
from stationcast.data import TABLE_CITY_ORDER, TARGET_CITIES, Scaler, WindowedSet
from stationcast.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    NumericalError,
)
from stationcast.models import ModelConfig, ModelGraph
from stationcast.serialize import csv_text
from stationcast.training import (
    Adam,
    TrainConfig,
    evaluate,
    mse,
    train,
)

from gradcheck import grad_check


def tiny_model(n_targets=2, cities=4, seed=1):
    return ModelGraph(
        ModelConfig(
            variant="unistream",
            lags=3,
            features=2,
            cities=cities,
            n_targets=n_targets,
            filters=2,
            dense=(5,),
            seed=seed,
        )
    )


def toy_windows(n=12, n_targets=2, cities=4, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    inputs = np.zeros((n, 3, 2, cities)) if zero else rng.uniform(0, 1, (n, 3, 2, cities))
    targets = np.zeros((n, n_targets)) if zero else rng.uniform(0, 1, (n, n_targets))
    return WindowedSet(
        inputs, targets, target_feature="f0",
        target_cities=tuple(f"c{i}" for i in range(n_targets)),
        features=("f0", "f1"), cities=tuple(f"c{i}" for i in range(cities)),
    )


def identity_scaler(feature="f0", cities=("c0", "c1")):
    n = len(cities)
    return Scaler(
        mins=np.zeros((1, n)), maxs=np.ones((1, n)),
        features=(feature,), cities=tuple(cities),
    )


# -- loss --------------------------------------------------------------------


def test_mse_zero_on_equal_inputs():
    x = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    assert mse(x, x.copy()).item() == 0.0


def test_mse_hand_value():
    assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])).item() == 2.5


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_gradient_is_scaled_residual():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    truth = rng.uniform(-1, 1, (4, 3))
    mse(pred, truth).backward()
    np.testing.assert_allclose(
        pred.grad, 2.0 * (pred.data - truth) / pred.data.size, atol=1e-15
    )
    pred.zero_grad()
    assert grad_check(lambda t: mse(t, truth), pred) < 1e-7


# -- optimizer ---------------------------------------------------------------


def test_adam_zero_gradient_is_a_bitwise_noop():
    p = Tensor(np.array([1.0, -2.0, 3.5]), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(3)
    opt.step()
    np.testing.assert_array_equal(p.data, before)
    opt.step()  # grad None behaves the same
    p.grad = None
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_has_learning_rate_magnitude():
    p = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([2.0, -0.25])
    opt.step()
    # bias correction makes the first step -lr * sign(g) up to the epsilon
    np.testing.assert_allclose(
        p.data, [0.5 - 1e-3, -0.5 + 1e-3], atol=1e-10
    )


def test_adam_steps_are_bounded_for_constant_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    for _ in range(50):
        before = p.data.copy()
        p.grad = np.array([3.7])
        opt.step()
        assert abs(p.data[0] - before[0]) <= 0.01 + 1e-9


def test_adam_descends_a_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        p.grad = 2.0 * p.data  # d/dp p^2
        opt.step()
    assert abs(p.data[0]) < 0.05


def check_adam_against_the_written_out_formula():
    rng = np.random.default_rng(5)
    shapes = [(3,), (4, 5), (2, 1, 3)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    expected = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    assert (Adam.BETA1, Adam.BETA2, Adam.EPS) == (b1, b2, eps)
    opt = Adam(params, lr=lr)
    for t in range(1, 7):
        for i, p in enumerate(params):
            p.grad = None if (t, i) == (3, 1) else rng.normal(size=p.shape)
            g = np.zeros(p.shape) if p.grad is None else p.grad
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            step = (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            expected[i] = expected[i] - lr * step
        opt.step()
        for p, e in zip(params, expected):
            np.testing.assert_array_equal(p.data, e)


def test_adam_update_is_bitwise_the_written_out_formula():
    check_adam_against_the_written_out_formula()


def test_chunked_adam_in_halves_is_bitwise_the_written_out_formula(halves, monkeypatch):
    # With 4-element chunks, parameters span several chunks and the two
    # halves of the chunks split the middle parameter.
    monkeypatch.setattr(Adam, "CHUNK", 4)
    check_adam_against_the_written_out_formula()
    assert halves


def test_adam_requires_parameters():
    with pytest.raises(ContractError):
        Adam([], lr=1e-4)


# -- config ------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigurationError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    assert TrainConfig(lr=0.0).lr == 0.0  # frozen-parameter runs are legal


# -- training loop -----------------------------------------------------------


def test_training_is_deterministic():
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=3, seed=7)
    logs = []
    finals = []
    for _ in range(2):
        model = tiny_model()
        log = train(model, toy_windows(), toy_windows(n=6, seed=3), cfg)
        logs.append(log.entries)
        finals.append({k: v.copy() for k, v in model.named_state()})
    assert logs[0] == logs[1]
    for name in finals[0]:
        np.testing.assert_array_equal(finals[0][name], finals[1][name], err_msg=name)


def test_zero_learning_rate_leaves_parameters_untouched():
    model = tiny_model()
    before = {k: v.data.copy() for k, v in model.named_parameters()}
    train(
        model, toy_windows(), toy_windows(n=6, seed=3),
        TrainConfig(lr=0.0, batch_size=4, max_epochs=2),
    )
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


def test_learning_moves_parameters_and_lowers_loss():
    model = tiny_model()
    windows = toy_windows(n=16)
    log = train(
        model, windows, windows,
        TrainConfig(lr=3e-3, batch_size=8, max_epochs=12, seed=2),
    )
    assert log.entries[-1][1] < log.entries[0][1]


def test_non_finite_loss_is_reported_with_location():
    model = tiny_model()
    windows = toy_windows()
    windows.inputs[0] = np.nan
    with pytest.raises(NumericalError, match="epoch 1"):
        train(
            model, windows, toy_windows(n=4), TrainConfig(batch_size=12, max_epochs=1)
        )


def test_non_finite_validation_mse_is_reported_with_location():
    model = tiny_model()
    val = toy_windows(n=4, seed=3)
    val.inputs[1, 0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="validation MSE at epoch 1"):
        train(
            model, toy_windows(), val,
            TrainConfig(batch_size=4, max_epochs=3, patience=1),
        )


def test_each_batch_tape_is_released_before_the_next_pass(monkeypatch):
    # Weak references to each batch's loss node; the cycle collector is off,
    # so a tape counts as released only once reference counts free it.
    model = tiny_model()
    losses, passes = [], []

    def recording_mse(pred, truth):
        loss = mse(pred, truth)
        losses.append(weakref.ref(loss.node))
        return loss

    def checking(name, run):
        def wrapped(*args, **kwargs):
            passes.append((name, sum(ref() is not None for ref in losses)))
            return run(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(training, "mse", recording_mse)
    monkeypatch.setattr(model, "predict", checking("validation", model.predict))
    monkeypatch.setattr(model, "forward", checking("forward", model.forward))
    gc.disable()
    try:
        train(model, toy_windows(n=12), toy_windows(n=4, seed=1),
              TrainConfig(batch_size=4, max_epochs=2, lr=1e-3))
    finally:
        gc.enable()
    assert len(losses) == 6
    # Each epoch: three batch forwards, then validation (whose own forward
    # passes follow its entry).
    epoch = [("forward", 0)] * 3 + [("validation", 0), ("forward", 0)]
    assert passes == epoch * 2


def test_backward_frees_the_tape_while_the_loss_is_still_bound():
    # With the cycle collector off, the model output's node dies only once
    # reference counts free it: the walk itself must let go of the tape.
    model = tiny_model()
    windows = toy_windows(n=4)
    gc.disable()
    try:
        pred = model.forward(Tensor(windows.inputs), mode="train")
        output = weakref.ref(pred.node)
        loss = mse(pred, Tensor(windows.targets))
        del pred
        loss.backward()
        assert output() is None
    finally:
        gc.enable()
    assert loss.node is None


def test_trailing_single_sample_batch_is_dropped():
    model = tiny_model()
    # 5 samples, batch 4: the leftover singleton would break batch norm.
    log = train(
        model, toy_windows(n=5), toy_windows(n=4),
        TrainConfig(batch_size=4, max_epochs=1),
    )
    assert log.epochs_run == 1


def test_empty_training_set_rejected():
    # One window makes a batch of 1, which batch norm cannot take.
    for n in (0, 1):
        with pytest.raises(ContractError, match="training set needs 2 windows"):
            train(tiny_model(), toy_windows(n=n), toy_windows(n=4), TrainConfig())


def test_training_without_a_validation_window_is_rejected():
    for val in (None, toy_windows(n=0)):
        with pytest.raises(ContractError, match="validation set of at least 1"):
            train(tiny_model(), toy_windows(), val, TrainConfig())


def test_stop_train_mse_halts_once_reached():
    model = tiny_model()
    windows = toy_windows(zero=True)  # all-zero task: already solved at init
    log = train(
        model,
        windows,
        windows,
        TrainConfig(batch_size=4, max_epochs=50, stop_train_mse=1e-12),
    )
    assert log.epochs_run == 1
    assert log.entries[0][1] == 0.0


def test_early_stopping_restores_best_snapshot(monkeypatch):
    scripted = iter([3.0, 1.0, 2.0, 2.5, 0.1])
    captured = {}

    def fake_epoch_mse(model, windows):
        value = next(scripted)
        if value == 1.0:
            captured.update({k: v.copy() for k, v in model.named_state()})
        return value

    monkeypatch.setattr(training, "_epoch_mse", fake_epoch_mse)
    model = tiny_model()
    log = train(
        model,
        toy_windows(),
        toy_windows(n=6, seed=3),
        TrainConfig(lr=1e-3, batch_size=4, max_epochs=10, patience=2, seed=1),
    )
    # epoch 2 wins; epochs 3 and 4 are stale, so patience=2 stops there and
    # the 0.1 scripted for epoch 5 is never consumed
    assert log.epochs_run == 4
    assert log.best_epoch == 2
    assert log.entries[log.best_epoch - 1][2] == 1.0
    for name, arr in model.named_state():
        np.testing.assert_array_equal(arr, captured[name], err_msg=name)


def test_log_text_round_trips_floats():
    model = tiny_model()
    log = train(
        model,
        toy_windows(),
        toy_windows(n=6, seed=3),
        TrainConfig(lr=1e-3, batch_size=4, max_epochs=2),
    )
    lines = csv_text(("epoch", "train_mse", "val_mse"), log.entries).splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    epoch, train_mse, val_mse = lines[1].split(",")
    assert float(train_mse) == log.entries[0][1]  # repr() survives the trip
    assert float(val_mse) == log.entries[0][2]


# -- evaluation --------------------------------------------------------------


def constant_output_model(values, cities=4):
    """Final dense layer rigged to ignore its input and emit ``values``."""
    model = tiny_model(n_targets=len(values), cities=cities)
    model.head[-1].weight.data[...] = 0.0
    model.head[-1].bias.data[...] = values
    return model


def test_perfect_predictions_score_zero():
    windows = toy_windows(zero=True)
    table = evaluate(tiny_model(), windows, identity_scaler())
    assert dict(table) == {"c0": 0.0, "c1": 0.0}


def test_constant_predictor_scores_the_per_city_variance():
    windows = toy_windows(n=20, seed=5)
    means = windows.targets.mean(axis=0)
    model = constant_output_model(means)
    table = evaluate(model, windows, identity_scaler())
    np.testing.assert_allclose(
        [dict(table)[city] for city in ("c0", "c1")],
        windows.targets.var(axis=0),
        atol=1e-12,
    )


def test_evaluation_is_batch_partition_invariant():
    """``evaluate`` forwards 17 windows in slices; its MSEs match those of
    one forward pass over all of them."""
    windows = toy_windows(n=17, seed=6)
    model = tiny_model()
    got = dict(evaluate(model, windows, identity_scaler()))
    whole = model.forward(Tensor(windows.inputs)).data
    want = ((whole - windows.targets) ** 2).mean(axis=0)
    for j, city in enumerate(windows.target_cities):
        assert abs(got[city] - want[j]) < 1e-10


def test_descaled_mse_scales_with_the_squared_span():
    windows = toy_windows(n=15, seed=7)
    model = tiny_model()
    base = dict(evaluate(model, windows, identity_scaler()))
    stretched = Scaler(
        mins=np.array([[10.0, -4.0]]),
        maxs=np.array([[13.0, 1.0]]),  # spans 3 and 5
        features=("f0",), cities=("c0", "c1"),
    )
    raw = dict(evaluate(model, windows, stretched))
    assert abs(raw["c0"] - 9.0 * base["c0"]) < 1e-9
    assert abs(raw["c1"] - 25.0 * base["c1"]) < 1e-9


def test_report_rows_follow_the_fixed_city_order():
    rng = np.random.default_rng(8)
    windows = WindowedSet(
        rng.uniform(0, 1, (6, 3, 2, 6)),
        rng.uniform(0, 1, (6, 6)),
        target_feature="f0",
        target_cities=TARGET_CITIES,  # alphabetical, unlike the report
        features=("f0", "f1"),
        cities=TARGET_CITIES,
    )
    scaler = Scaler(
        mins=np.zeros((1, 6)), maxs=np.ones((1, 6)),
        features=("f0",), cities=TARGET_CITIES,
    )
    table = evaluate(tiny_model(n_targets=6, cities=6), windows, scaler)
    assert tuple(city for city, _ in table) == TABLE_CITY_ORDER


def test_evaluate_validates_its_inputs():
    windows = toy_windows()
    with pytest.raises(ConfigurationError, match="predicts 3"):
        evaluate(tiny_model(n_targets=3), windows, identity_scaler())
    bad_scaler = identity_scaler(cities=("c0", "elsewhere"))
    with pytest.raises(ConfigurationError, match="does not cover"):
        evaluate(tiny_model(), windows, bad_scaler)
    with pytest.raises(ContractError):
        evaluate(tiny_model(), toy_windows(n=0), identity_scaler())


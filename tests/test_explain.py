"""Explainability tests: mask geometry, occlusion deltas against brute force
and a transparent single-cell model, one shared sweep for every target, and
gradient-ascent score maximization."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from stationcast.autodiff import Tensor
from stationcast.data import Scaler
from stationcast.errors import (
    ConfigurationError,
    ContractError,
    InfiniteScoreError,
)
from stationcast.explain import (
    OCCLUSION_MODES,
    OcclusionSpec,
    SaliencyMap,
    mask_slices,
    occlusion_map,
    score_maximize,
    scoremax_lag_maps,
)
from stationcast.models import ModelConfig, ModelGraph


def tiny_model(seed=3, n_targets=2):
    return ModelGraph(
        ModelConfig(
            variant="unistream",
            lags=2,
            features=4,
            cities=4,
            n_targets=n_targets,
            filters=2,
            dense=(5,),
            seed=seed,
        )
    )


FEATS = ("f0", "f1", "f2", "f3")
CITY_GRID = ("g0", "g1", "g2", "g3")


def samples(n=5, seed=0, lags=2):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.1, 0.9, (n, lags, 4, 4)),
        rng.uniform(0.1, 0.9, (n, 2)),
    )


class _PickModel:
    """Predicts exactly one input cell, so occlusion has a known answer."""

    def __init__(self, lag, feat, city):
        self.cfg = SimpleNamespace(variant="probe")
        self.idx = (lag, feat, city)

    def predict(self, inputs, batch_size=64):
        t, f, c = self.idx
        return inputs[:, t, f, c][:, None]


class _CountingModel(_PickModel):
    """Two outputs (the picked cell and twice it); counts forwarded samples."""

    def __init__(self, lag, feat, city):
        super().__init__(lag, feat, city)
        self.forwarded = 0

    def predict(self, inputs, batch_size=64):
        self.forwarded += len(inputs)
        cell = super().predict(inputs, batch_size)
        return np.concatenate([cell, 2.0 * cell], axis=1)


# -- mask geometry -----------------------------------------------------------


@pytest.mark.parametrize(
    "mode, patch, expected",
    [
        ("feature_row", 1, 4),
        ("city_column", 1, 6),
        ("temporal", 1, 3),
        ("patch", 2, 6),
    ],
)
def test_mask_positions_tile_the_grid_exactly_once(mode, patch, expected):
    lags, features, cities = 3, 4, 6
    positions = mask_slices(mode, lags, features, cities, patch)
    assert len(positions) == expected
    counts = np.zeros((1, lags, features, cities))
    for index in positions:
        counts[index] += 1
    np.testing.assert_array_equal(counts, np.ones_like(counts))


def test_patch_size_must_divide_both_axes():
    with pytest.raises(ConfigurationError, match=r"valid sizes: \[1, 2, 3, 6\]"):
        mask_slices("patch", 2, 6, 6, patch_size=5)
    with pytest.raises(ConfigurationError, match="divide"):
        mask_slices("patch", 2, 4, 6, patch_size=4)


def test_occlusion_spec_validation():
    with pytest.raises(ConfigurationError, match="unknown occlusion mode"):
        OcclusionSpec(mode="row")
    with pytest.raises(ConfigurationError, match="patch size"):
        OcclusionSpec(mode="patch", patch_size=0)
    with pytest.raises(ConfigurationError, match="fill"):
        OcclusionSpec(mode="temporal", fill="noise")
    assert OcclusionSpec(mode="feature_row").fill == "zero"
    assert set(OCCLUSION_MODES) == {"feature_row", "city_column", "patch", "temporal"}


# -- occlusion ---------------------------------------------------------------


def test_masking_with_the_existing_values_changes_nothing():
    model = tiny_model()
    truths = samples()[1]
    zeros = np.zeros((5, 2, 4, 4))
    for mode in OCCLUSION_MODES:
        (out,) = occlusion_map(
            model, OcclusionSpec(mode=mode), zeros, truths, FEATS, CITY_GRID,
            ("c0", "c1"),
        )
        np.testing.assert_array_equal(out.values, np.zeros_like(out.values))
        assert out.samples_used == 5 and out.samples_skipped == 0


def test_mean_fill_on_constant_inputs_changes_nothing():
    model = tiny_model()
    truths = samples()[1]
    constant = np.full((5, 2, 4, 4), 0.5)  # dyadic, so the mean is exact
    (out,) = occlusion_map(
        model,
        OcclusionSpec(mode="city_column", fill="mean"),
        constant, truths, FEATS, CITY_GRID, ("c0", "c1"),
    )
    np.testing.assert_array_equal(out.values, np.zeros((4, 1)))


def test_only_masks_covering_the_used_cell_matter():
    probe = _PickModel(lag=1, feat=2, city=3)
    inputs, _ = samples()
    truths = inputs[:, 1, 2, 3][:, None] + 0.25  # constant miss, never zero
    cases = {
        "feature_row": 2,
        "city_column": 3,
        "temporal": 1,
    }
    for mode, hot in cases.items():
        (out,) = occlusion_map(
            probe, OcclusionSpec(mode=mode), inputs, truths,
            FEATS, CITY_GRID, ("c0",),
        )
        flat = out.values.ravel()
        assert flat[hot] != 0.0
        cold = np.delete(flat, hot)
        np.testing.assert_array_equal(cold, np.zeros_like(cold))
    (patch,) = occlusion_map(
        probe, OcclusionSpec(mode="patch", patch_size=2), inputs, truths,
        FEATS, CITY_GRID, ("c0",),
    )
    assert patch.values.shape == (2, 2)
    assert patch.values[1, 1] != 0.0  # cell (2, 3) lives in block (1, 1)
    assert patch.values[0, 0] == patch.values[0, 1] == patch.values[1, 0] == 0.0


def test_patch_deltas_match_brute_force():
    model = tiny_model()
    inputs, truths = samples(seed=4)
    (out,) = occlusion_map(
        model, OcclusionSpec(mode="patch", patch_size=2), inputs, truths,
        FEATS, CITY_GRID, ("c0", "c1"),
    )

    def predict(x):
        return model.forward(Tensor(x), mode="infer").data

    ref = ((predict(inputs) - truths) ** 2).mean(axis=1)
    expected = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            masked = inputs.copy()
            masked[:, :, 2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = 0.0
            cur = ((predict(masked) - truths) ** 2).mean(axis=1)
            expected[a, b] = (100.0 * (cur - ref) / ref).mean()
    assert np.abs(out.values - expected).max() < 1e-12
    assert out.row_labels == ("f0..f1", "f2..f3")
    assert out.col_labels == ("g0..g1", "g2..g3")


def test_stacked_equals_per_sample_averaging():
    model = tiny_model()
    inputs, truths = samples(seed=5)
    (out,) = occlusion_map(
        model, OcclusionSpec(mode="feature_row"), inputs, truths,
        FEATS, CITY_GRID, ("c0", "c1"),
    )

    def predict(x):
        return model.forward(Tensor(x), mode="infer").data

    expected = np.zeros(4)
    for i in range(4):
        changes = []
        for k in range(5):
            one = inputs[k : k + 1]
            ref = ((predict(one) - truths[k]) ** 2).mean()
            masked = one.copy()
            masked[:, :, i, :] = 0.0
            cur = ((predict(masked) - truths[k]) ** 2).mean()
            changes.append(100.0 * (cur - ref) / ref)
        expected[i] = np.mean(changes)
    assert np.abs(out.values[:, 0] - expected).max() < 1e-12


def test_per_city_target_selects_one_output():
    probe = _PickModel(lag=0, feat=1, city=1)
    inputs, _ = samples()
    truths = np.stack(
        [inputs[:, 0, 1, 1] + 0.5, np.zeros(5)], axis=1
    )  # second column is a decoy
    spec = OcclusionSpec(mode="feature_row")
    with pytest.raises(ConfigurationError, match="not a target city"):
        occlusion_map(
            probe, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
            targets=("here",),
        )
    # probe output has one column; score only city c0 of a 1-target setup
    (out,) = occlusion_map(
        probe, spec, inputs, truths[:, :1], FEATS, CITY_GRID, ("c0",),
        targets=("c0",),
    )
    assert out.meta["target"] == "c0"
    assert out.values[1, 0] != 0.0


def test_one_sweep_maps_equal_single_target_calls():
    model = tiny_model()
    inputs, truths = samples(seed=13)
    scaler = Scaler(
        mins=np.array([[0.0, -1.0]]), maxs=np.array([[3.0, 4.0]]),
        features=("wind",), cities=("c0", "c1"),
    )
    targets = ("c0", "c1", None)
    for spec in (
        OcclusionSpec(mode="feature_row"),
        OcclusionSpec(mode="city_column", fill="mean"),
        OcclusionSpec(mode="patch", patch_size=2),
        OcclusionSpec(mode="temporal", fill="mean"),
    ):
        shared = occlusion_map(
            model, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
            scaler=scaler, target_feature="wind", targets=targets,
        )
        assert len(shared) == len(targets)
        for target, grid in zip(targets, shared):
            (alone,) = occlusion_map(
                model, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
                scaler=scaler, target_feature="wind", targets=(target,),
            )
            np.testing.assert_array_equal(grid.values, alone.values)
            assert grid.meta == alone.meta
            assert grid.meta["target"] == (target or "all targets")
            assert (grid.row_labels, grid.col_labels) == (
                alone.row_labels, alone.col_labels
            )


def test_every_target_shares_one_forward_pass_per_position():
    inputs, _ = samples()
    cell = inputs[:, 0, 1, 1]
    truths = np.stack([cell + 0.5, 2.0 * cell - 0.25], axis=1)
    spec = OcclusionSpec(mode="feature_row")  # 4 positions
    for targets in (("c0",), ("c0", "c1", None)):
        probe = _CountingModel(lag=0, feat=1, city=1)
        maps = occlusion_map(
            probe, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
            targets=targets,
        )
        assert len(maps) == len(targets)
        assert probe.forwarded == 5 * (4 + 1)  # N x (P + 1)


def test_unknown_target_fails_before_any_forward_pass():
    inputs, truths = samples()
    probe = _CountingModel(lag=0, feat=1, city=1)
    with pytest.raises(ConfigurationError, match="not a target city"):
        occlusion_map(
            probe, OcclusionSpec(mode="temporal"), inputs, truths,
            FEATS, CITY_GRID, ("c0", "c1"), targets=("c0", "Atlantis"),
        )
    assert probe.forwarded == 0


def test_zero_reference_samples_are_dropped_per_target():
    inputs, _ = samples()
    cell = inputs[:, 0, 1, 1]
    truths = np.stack([cell + 0.5, 2.0 * cell - 0.25], axis=1)
    truths[2, 0] = cell[2]  # sample 2 is perfect for c0 only
    targets = ("c0", "c1", None)
    with pytest.warns(UserWarning, match="skipped 1 of 5"):
        shared = occlusion_map(
            _CountingModel(lag=0, feat=1, city=1), OcclusionSpec(mode="feature_row"),
            inputs, truths, FEATS, CITY_GRID, ("c0", "c1"), targets=targets,
        )
    assert [grid.samples_skipped for grid in shared] == [1, 0, 0]
    assert [grid.samples_used for grid in shared] == [4, 5, 5]
    for target, grid in zip(targets, shared):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (alone,) = occlusion_map(
                _CountingModel(lag=0, feat=1, city=1),
                OcclusionSpec(mode="feature_row"),
                inputs, truths, FEATS, CITY_GRID, ("c0", "c1"), targets=(target,),
            )
        np.testing.assert_array_equal(grid.values, alone.values)


def test_zero_reference_samples_are_skipped_with_warning():
    probe = _PickModel(lag=0, feat=0, city=0)
    inputs, _ = samples()
    truths = inputs[:, 0, 0, 0][:, None] + 0.1
    truths[2, 0] = inputs[2, 0, 0, 0]  # sample 2 is predicted perfectly
    with pytest.warns(UserWarning, match="skipped 1 of 5"):
        (out,) = occlusion_map(
            probe, OcclusionSpec(mode="temporal"), inputs, truths,
            FEATS, CITY_GRID, ("c0",),
        )
    assert out.samples_used == 4
    assert out.samples_skipped == 1


def test_all_samples_perfect_is_an_error():
    probe = _PickModel(lag=0, feat=0, city=0)
    inputs, _ = samples()
    truths = inputs[:, 0, 0, 0][:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ContractError, match="zero reference MSE"):
            occlusion_map(
                probe, OcclusionSpec(mode="temporal"), inputs, truths,
                FEATS, CITY_GRID, ("c0",),
            )


def test_scaler_weighting_is_invariant_for_single_city_maps():
    model = tiny_model(n_targets=1)
    inputs, truths = samples(seed=6)
    truths = truths[:, :1]
    scaler = Scaler(
        mins=np.array([[5.0]]), maxs=np.array([[12.0]]),  # span 7
        features=("wind",), cities=("c0",),
    )
    spec = OcclusionSpec(mode="city_column")
    (scaled_units,) = occlusion_map(
        model, spec, inputs, truths, FEATS, CITY_GRID, ("c0",), targets=("c0",)
    )
    (raw_units,) = occlusion_map(
        model, spec, inputs, truths, FEATS, CITY_GRID, ("c0",),
        scaler=scaler, target_feature="wind", targets=("c0",),
    )
    assert np.abs(scaled_units.values - raw_units.values).max() < 1e-12


def test_scaler_weighting_changes_aggregate_maps():
    model = tiny_model()
    inputs, truths = samples(seed=7)
    scaler = Scaler(
        mins=np.array([[0.0, 0.0]]), maxs=np.array([[1.0, 100.0]]),
        features=("wind",), cities=("c0", "c1"),
    )
    spec = OcclusionSpec(mode="feature_row")
    (plain,) = occlusion_map(model, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"))
    (weighted,) = occlusion_map(
        model, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
        scaler=scaler, target_feature="wind",
    )
    assert np.abs(plain.values - weighted.values).max() > 1e-6


def test_occlusion_input_validation():
    model = tiny_model()
    inputs, truths = samples()
    spec = OcclusionSpec(mode="temporal")
    with pytest.raises(ConfigurationError, match=r"\(N, L, F, C\)"):
        occlusion_map(model, spec, inputs[0], truths, FEATS, CITY_GRID, ("c0", "c1"))
    with pytest.raises(ContractError, match="at least one sample"):
        occlusion_map(
            model, spec, inputs[:0], truths[:0], FEATS, CITY_GRID, ("c0", "c1")
        )
    with pytest.raises(ConfigurationError, match="target_feature"):
        occlusion_map(
            model, spec, inputs, truths, FEATS, CITY_GRID, ("c0", "c1"),
            scaler=Scaler(
                mins=np.zeros((1, 2)), maxs=np.ones((1, 2)),
                features=("wind",), cities=("c0", "c1"),
            ),
        )


def test_saliency_map_csv_layout():
    grid = SaliencyMap(
        np.array([[1.5, -2.25], [0.0, 10.0]]),
        ("alpha", "beta"),
        ("x", "y"),
        "patch",
    )
    lines = grid.to_csv().splitlines()
    assert lines[0] == ",x,y"
    assert lines[1] == "alpha,1.5,-2.25"
    assert lines[2] == "beta,0.0,10.0"
    with pytest.raises(ConfigurationError, match="does not match"):
        SaliencyMap(np.zeros((2, 2)), ("a",), ("x", "y"), "patch")


# -- score maximization ------------------------------------------------------


def test_zero_rate_ascent_returns_the_sample_unchanged():
    model = tiny_model()
    rng = np.random.default_rng(8)
    sample = rng.uniform(0.2, 0.8, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=3, lr=0.0)
    np.testing.assert_array_equal(result.input_map, sample)
    assert len(result.scores) == 4
    assert result.initial_score == result.final_score


def test_ascent_does_not_decrease_the_score():
    model = tiny_model()
    rng = np.random.default_rng(9)
    sample = rng.uniform(0.2, 0.8, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=50, lr=0.01)
    assert result.final_score >= result.initial_score
    assert result.final_score > 0


def test_ascended_map_respects_bounds():
    model = tiny_model()
    rng = np.random.default_rng(10)
    sample = rng.uniform(0.4, 0.6, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=40, lr=0.5)
    assert result.input_map.min() >= 0.0
    assert result.input_map.max() <= 1.0
    assert result.bounds == (0.0, 1.0)


def test_ascent_leaves_model_parameters_untouched():
    model = tiny_model()
    before = {k: v.data.copy() for k, v in model.named_parameters()}
    flags = [p.requires_grad for p in model.parameters()]
    rng = np.random.default_rng(11)
    score_maximize(
        model, rng.uniform(0.2, 0.8, (2, 4, 4)), rng.uniform(0, 1, 2),
        iterations=5, lr=0.05,
    )
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
    assert [p.requires_grad for p in model.parameters()] == flags


def test_perfect_initial_prediction_is_rejected():
    model = tiny_model()
    truth = np.array([0.3, 0.7])
    model.head[-1].weight.data[...] = 0.0
    model.head[-1].bias.data[...] = truth  # the model now always hits exactly
    with np.errstate(divide="ignore"):
        with pytest.raises(InfiniteScoreError, match="iteration 1"):
            score_maximize(
                model, np.full((2, 4, 4), 0.5), truth, iterations=3, lr=0.01
            )


def test_score_maximize_validation():
    model = tiny_model()
    good = np.full((2, 4, 4), 0.5)
    truth = np.array([0.1, 0.2])
    with pytest.raises(ConfigurationError, match="exceeds bounds"):
        score_maximize(model, good + 2.0, truth)
    with pytest.raises(ConfigurationError, match="lo < hi"):
        score_maximize(model, good, truth, bounds=(1.0, 0.0))
    with pytest.raises(ConfigurationError, match="iterations"):
        score_maximize(model, good, truth, iterations=0)
    with pytest.raises(ConfigurationError, match="ascent rate"):
        score_maximize(model, good, truth, lr=-0.1)
    with pytest.raises(ConfigurationError, match="sample shape"):
        score_maximize(model, np.full((3, 4, 4), 0.5), truth)
    with pytest.raises(ConfigurationError, match="truth"):
        score_maximize(model, good, np.zeros(3))


def test_scoremax_lag_maps_layout():
    model = tiny_model()
    rng = np.random.default_rng(12)
    result = score_maximize(
        model, rng.uniform(0.2, 0.8, (2, 4, 4)), rng.uniform(0, 1, 2),
        iterations=2, lr=0.01,
    )
    maps = scoremax_lag_maps(result, FEATS, CITY_GRID, (1, 2), meta={"variant": "x"})
    assert len(maps) == 2
    for lag, grid in zip((1, 2), maps):
        assert grid.values.shape == (4, 4)
        np.testing.assert_array_equal(grid.values, result.input_map[lag - 1])
        assert grid.meta["lag"] == str(lag)
        assert grid.meta["variant"] == "x"
    with pytest.raises(ConfigurationError, match="outside"):
        scoremax_lag_maps(result, FEATS, CITY_GRID, (3,))

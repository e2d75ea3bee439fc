"""Explainability tests: mask geometry, occlusion deltas against brute force
and a transparent single-cell model, one shared sweep for every target, and
gradient-ascent score maximization."""

import gc
import itertools
import re
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor
from stationcast.cli import _write_map
from stationcast.data import Scaler, WindowedSet
from stationcast.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    InfiniteScoreError,
    NumericalError,
)
from stationcast.explain import (
    OCCLUSION_MODES,
    SaliencyMap,
    _predict_masked_positions,
    mask_layout,
    occlusion_map,
    score_maximize,
)
from stationcast.layers import ConvLSTM
from stationcast.models import PREDICT_BATCH, VARIANTS, ModelConfig, ModelGraph


def tiny_model(seed=3, n_targets=2, variant="unistream", lags=2):
    return ModelGraph(
        ModelConfig(
            variant=variant,
            lags=lags,
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


def unit_scaler(cities=("c0", "c1")):
    """Spans of 1: raw-unit errors equal the scaled ones, bit for bit."""
    return Scaler(
        mins=np.zeros((1, len(cities))), maxs=np.ones((1, len(cities))),
        features=("wind",), cities=tuple(cities),
    )


def windowed(
    inputs, truths, cities=("c0", "c1"), feature="wind", features=FEATS,
    grid_cities=CITY_GRID,
):
    """Samples and truths as the windows of a run over the 4 x 4 test grid."""
    return WindowedSet(
        inputs, truths, feature, tuple(cities), tuple(features), tuple(grid_cities)
    )


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

    def predict(self, inputs):
        t, f, c = self.idx
        return inputs[:, t, f, c][:, None]

    def predict_masked_lags(self, inputs, fill):
        """Brute force: one :meth:`predict` per lag-masked copy."""
        masked = []
        for t in range(inputs.shape[1]):
            copy = inputs.copy()
            copy[:, t] = fill
            masked.append(self.predict(copy))
        return self.predict(inputs), np.stack(masked)


class _CountingModel(_PickModel):
    """Two outputs (the picked cell and twice it); counts forwarded samples."""

    def __init__(self, lag, feat, city):
        super().__init__(lag, feat, city)
        self.forwarded = 0

    def predict(self, inputs):
        self.forwarded += len(inputs)
        cell = super().predict(inputs)
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
    positions, rows, cols = mask_layout(mode, lags, "abcd", "abcdef", patch)
    assert len(positions) == expected == len(rows) * len(cols)
    counts = np.zeros((1, lags, features, cities))
    for index in positions:
        counts[index] += 1
    np.testing.assert_array_equal(counts, np.ones_like(counts))


def test_patch_size_must_divide_both_axes():
    with pytest.raises(ConfigurationError, match=r"valid sizes: \[1, 2, 3, 6\]"):
        mask_layout("patch", 2, "abcdef", "abcdef", patch_size=5)
    with pytest.raises(ConfigurationError, match="divide"):
        mask_layout("patch", 2, "abcd", "abcdef", patch_size=4)


def test_occlusion_arguments_are_checked_before_any_forward_pass():
    probe = _CountingModel(lag=0, feat=1, city=1)
    inputs, truths = samples()
    bad = [({"mode": "row"}, "unknown occlusion mode 'row'; expected one of")]
    for mode in OCCLUSION_MODES:
        bad.append(({"mode": mode, "patch_size": 0}, "patch size must be >= 1, got 0"))
        bad.append(({"mode": mode, "fill": "noise"}, "fill must be 'zero' or 'mean'"))
    for kwargs, message in bad:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            occlusion_map(probe, windowed(inputs, truths), unit_scaler(), **kwargs)
    assert probe.forwarded == 0
    assert set(OCCLUSION_MODES) == {"feature_row", "city_column", "patch", "temporal"}


# -- occlusion ---------------------------------------------------------------


def test_masking_with_the_existing_values_changes_nothing():
    model = tiny_model()
    truths = samples()[1]
    zeros = np.zeros((5, 2, 4, 4))
    for mode in OCCLUSION_MODES:
        (out,) = occlusion_map(model, windowed(zeros, truths), unit_scaler(), mode=mode)
        np.testing.assert_array_equal(out.values, np.zeros_like(out.values))
        assert out.samples_used == 5


def test_mean_fill_on_constant_inputs_changes_nothing():
    model = tiny_model()
    truths = samples()[1]
    constant = np.full((5, 2, 4, 4), 0.5)  # dyadic, so the mean is exact
    (out,) = occlusion_map(
        model, windowed(constant, truths), unit_scaler(),
        mode="city_column", fill="mean",
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
            probe, windowed(inputs, truths, ("c0",)), unit_scaler(("c0",)), mode=mode,
        )
        flat = out.values.ravel()
        assert flat[hot] != 0.0
        cold = np.delete(flat, hot)
        np.testing.assert_array_equal(cold, np.zeros_like(cold))
    (patch,) = occlusion_map(
        probe, windowed(inputs, truths, ("c0",)), unit_scaler(("c0",)),
        mode="patch", patch_size=2,
    )
    assert patch.values.shape == (2, 2)
    assert patch.values[1, 1] != 0.0  # cell (2, 3) lives in block (1, 1)
    assert patch.values[0, 0] == patch.values[0, 1] == patch.values[1, 0] == 0.0


def test_patch_deltas_match_brute_force():
    model = tiny_model()
    inputs, truths = samples(seed=4)
    (out,) = occlusion_map(
        model, windowed(inputs, truths), unit_scaler(), mode="patch", patch_size=2,
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
        model, windowed(inputs, truths), unit_scaler(), mode="feature_row",
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
    with pytest.raises(ConfigurationError, match="not a target city"):
        occlusion_map(
            probe, windowed(inputs, truths), unit_scaler(),
            mode="feature_row", targets=("here",),
        )
    # probe output has one column; score only city c0 of a 1-target setup
    (out,) = occlusion_map(
        probe, windowed(inputs, truths[:, :1], ("c0",)), unit_scaler(("c0",)),
        mode="feature_row", targets=("c0",),
    )
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
        {"mode": "feature_row"},
        {"mode": "city_column", "fill": "mean"},
        {"mode": "patch", "patch_size": 2},
        {"mode": "temporal", "fill": "mean"},
    ):
        shared = occlusion_map(
            model, windowed(inputs, truths), scaler, **spec, targets=targets,
        )
        assert len(shared) == len(targets)
        for target, grid in zip(targets, shared):
            (alone,) = occlusion_map(
                model, windowed(inputs, truths), scaler, **spec, targets=(target,),
            )
            np.testing.assert_array_equal(grid.values, alone.values)
            assert (grid.row_labels, grid.col_labels) == (
                alone.row_labels, alone.col_labels
            )


def test_every_target_shares_one_forward_pass_per_position():
    inputs, _ = samples()
    cell = inputs[:, 0, 1, 1]
    truths = np.stack([cell + 0.5, 2.0 * cell - 0.25], axis=1)
    for targets in (("c0",), ("c0", "c1", None)):
        probe = _CountingModel(lag=0, feat=1, city=1)
        maps = occlusion_map(
            probe, windowed(inputs, truths), unit_scaler(),
            mode="feature_row", targets=targets,  # 4 positions
        )
        assert len(maps) == len(targets)
        # N x (P + 1) = 25 rows, forwarded in full slices of 16
        assert probe.forwarded == 32


class _RecordingModel:
    """Records the row count of every ``predict`` call."""

    def __init__(self):
        self.rows = []

    def predict(self, inputs):
        self.rows.append(len(inputs))
        return inputs[:, 0, 0, :2] + 1.0


@pytest.mark.parametrize(
    "features, cities, spec, n",
    [
        (18, 18, {"mode": "feature_row"}, 7),  # 133 rows
        (18, 18, {"mode": "patch"}, 1),  # 325 rows
        (3, 5, {"mode": "city_column"}, 3),  # 18 rows
        (4, 4, {"mode": "feature_row"}, 20),  # 100 rows
        (4, 4, {"mode": "feature_row"}, 13),  # 65 rows
    ],
)
def test_spatial_sweep_forwards_block_aligned_slices(features, cities, spec, n):
    inputs = np.random.default_rng(n).uniform(0.1, 0.9, (n, 8, features, cities))
    truths = np.zeros((n, 2))
    positions, _, _ = mask_layout(spec["mode"], 8, "x" * features, "y" * cities)
    rows = n * (len(positions) + 1)
    probe = _RecordingModel()
    tracemalloc.start()
    try:
        occlusion_map(
            probe, windowed(inputs, truths, features="x" * features,
                            grid_cities="y" * cities),
            unit_scaler(), **spec,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every slice is a full one, the last padded: -(-rows // 16) slices.
    assert probe.rows == [PREDICT_BATCH] * -(-rows // PREDICT_BATCH)
    # The masked stack is never built whole: a few slices at most are alive.
    assert peak < 4 * PREDICT_BATCH * inputs[0].nbytes


@pytest.mark.parametrize(
    "features, cities, patch, variant, n",
    [
        (features, cities, patch, variant, n)
        for features, cities, patch in [(18, 18, 3), (4, 6, 2)]
        for variant in ["unistream", "multistream"]
        for n in [1, 3, 7, 11, 13, 20]
    ]
    + [
        # The full-size model (patch None), feature rows only: its wide
        # dense head is where a row's bits depend on the slice's row count.
        pytest.param(18, 18, None, "unistream", n, id=f"default-unistream-{n}")
        for n in [1, 7]
    ],
)
def test_a_mask_over_its_own_fill_reads_exactly_zero(
    features, cities, patch, variant, n
):
    # The last position's rows end the stacked sweep, in its padded last
    # slice.  Its entry reads exactly 0 only if a row's prediction has the
    # same bits in whichever slice it lands.
    if patch is None:
        cfg = ModelConfig(variant=variant, seed=3)
        specs = [{"mode": "feature_row"}]
    else:
        cfg = ModelConfig(
            variant=variant, lags=2, features=features, cities=cities,
            n_targets=2, filters=2, dense=(4,), seed=3,
        )
        specs = [
            {"mode": "feature_row"},
            {"mode": "city_column"},
            {"mode": "patch", "patch_size": patch},
        ]
    model = ModelGraph(cfg)
    rng = np.random.default_rng(n)
    inputs = rng.uniform(0.1, 0.9, (n, cfg.lags, features, cities))
    inputs[:, :, -1] = 0.0  # the last feature row
    inputs[:, :, :, -1] = 0.0  # the last city column
    inputs[:, :, -(patch or 1):, -(patch or 1):] = 0.0  # the last patch
    truths = rng.uniform(0.1, 0.9, (n, cfg.n_targets))
    rows, cols = [f"f{k}" for k in range(features)], [f"c{k}" for k in range(cities)]
    targets = tuple(cols[: cfg.n_targets])
    for spec in specs:
        (out,) = occlusion_map(
            model, windowed(inputs, truths, targets, features=rows, grid_cities=cols),
            unit_scaler(targets), **spec,
        )
        assert out.values[-1, -1] == 0.0, spec
        assert np.count_nonzero(out.values) == out.values.size - 1, spec


def test_unknown_target_fails_before_any_forward_pass():
    inputs, truths = samples()
    probe = _CountingModel(lag=0, feat=1, city=1)
    with pytest.raises(ConfigurationError, match="not a target city"):
        occlusion_map(
            probe, windowed(inputs, truths), unit_scaler(),
            mode="temporal", targets=("c0", "Atlantis"),
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
            _CountingModel(lag=0, feat=1, city=1), windowed(inputs, truths),
            unit_scaler(), mode="feature_row", targets=targets,
        )
    assert [grid.samples_used for grid in shared] == [4, 5, 5]
    for target, grid in zip(targets, shared):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (alone,) = occlusion_map(
                _CountingModel(lag=0, feat=1, city=1), windowed(inputs, truths),
                unit_scaler(), mode="feature_row", targets=(target,),
            )
        np.testing.assert_array_equal(grid.values, alone.values)


def test_zero_reference_samples_are_skipped_with_warning():
    probe = _PickModel(lag=0, feat=0, city=0)
    inputs, _ = samples()
    truths = inputs[:, 0, 0, 0][:, None] + 0.1
    truths[2, 0] = inputs[2, 0, 0, 0]  # sample 2 is predicted perfectly
    with pytest.warns(UserWarning, match="skipped 1 of 5"):
        (out,) = occlusion_map(
            probe, windowed(inputs, truths, ("c0",)), unit_scaler(("c0",)),
            mode="temporal",
        )
    assert out.samples_used == 4


@pytest.mark.parametrize("mode", ["temporal", "feature_row"])
def test_all_samples_perfect_is_an_error(mode):
    probe = _PickModel(lag=0, feat=0, city=0)
    inputs, _ = samples()
    truths = inputs[:, 0, 0, 0][:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ContractError, match="zero reference MSE"):
            occlusion_map(
                probe, windowed(inputs, truths, ("c0",)), unit_scaler(("c0",)),
                mode=mode,
            )


def test_scaler_weighting_is_invariant_for_single_city_maps():
    model = tiny_model(n_targets=1)
    inputs, truths = samples(seed=6)
    truths = truths[:, :1]
    scaler = Scaler(
        mins=np.array([[5.0]]), maxs=np.array([[12.0]]),  # span 7
        features=("wind",), cities=("c0",),
    )
    (scaled_units,) = occlusion_map(
        model, windowed(inputs, truths, ("c0",)), unit_scaler(("c0",)),
        mode="city_column", targets=("c0",),
    )
    (raw_units,) = occlusion_map(
        model, windowed(inputs, truths, ("c0",)), scaler,
        mode="city_column", targets=("c0",),
    )
    assert np.abs(scaled_units.values - raw_units.values).max() < 1e-12


def test_scaler_weighting_changes_aggregate_maps():
    model = tiny_model()
    inputs, truths = samples(seed=7)
    scaler = Scaler(
        mins=np.array([[0.0, 0.0]]), maxs=np.array([[1.0, 100.0]]),
        features=("wind",), cities=("c0", "c1"),
    )
    (plain,) = occlusion_map(
        model, windowed(inputs, truths), unit_scaler(), mode="feature_row",
    )
    (weighted,) = occlusion_map(
        model, windowed(inputs, truths), scaler, mode="feature_row",
    )
    assert np.abs(plain.values - weighted.values).max() > 1e-6


class _StackedModel:
    """A real model whose lag-masked predictions come from whole-window
    forward passes of the stacked masked copies, in the spatial sweep's full
    slices: the brute-force temporal oracle."""

    def __init__(self, model):
        self.model = model
        self.cfg = model.cfg
        self.predict = model.predict

    def predict_masked_lags(self, inputs, fill):
        lags, features, cities = inputs.shape[1:]
        positions, _, _ = mask_layout("temporal", lags, "f" * features, "c" * cities)
        return _predict_masked_positions(self.model, inputs, positions, fill)


def temporal_case(spec, n, seed=9):
    """A model with shifted running means, its ``n`` samples and truths, and
    the windows an occlusion map reads.  ``spec`` is the variant of a tiny
    4 x 4 model over 4 lags, or the config of a full-size one."""
    if isinstance(spec, ModelConfig):
        model = ModelGraph(spec)
    else:
        model = tiny_model(seed=7, variant=spec, lags=4)
    cfg = model.cfg
    channels = cfg.merged_channels
    model.norm.running_mean[:] = np.random.default_rng(8).normal(0.0, 0.1, channels)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.1, 0.9, (n, cfg.lags, cfg.features, cfg.cities))
    truths = rng.uniform(0.1, 0.9, (n, cfg.n_targets))
    features = [f"f{k}" for k in range(cfg.features)]
    cities = [f"c{k}" for k in range(cfg.cities)]
    targets = tuple(cities[: cfg.n_targets])
    windows = windowed(inputs, truths, targets, features=features, grid_cities=cities)
    return model, windows, unit_scaler(targets)


# The full-size grid has 324 columns per sample: an odd sample count fills
# whole 8-column blocks only because the walk pads its slice.
FULL_SIZE_TEMPORAL = [
    pytest.param(ModelConfig(variant=variant, seed=7), "zero", n,
                 id=f"default-{variant}-{n}")
    for variant in ("unistream", "att_multistream")
    for n in (1, 3, 4)
]


@pytest.mark.parametrize(
    "variant, fill, n",
    [(v, fill, n) for v in VARIANTS for fill in ("zero", "mean") for n in (1, 70)]
    + FULL_SIZE_TEMPORAL,
)
def test_temporal_maps_equal_whole_window_forward_passes(variant, fill, n):
    model, windows, scaler = temporal_case(variant, n)
    inputs = windows.inputs
    targets = (windows.target_cities[0], None, windows.target_cities[-1])
    fill_grid = inputs.mean(axis=(0, 1)) if fill == "mean" else np.zeros(inputs.shape[2:])

    got = model.predict_masked_lags(inputs, fill_grid)
    want = _StackedModel(model).predict_masked_lags(inputs, fill_grid)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])

    shared = occlusion_map(
        model, windows, scaler, mode="temporal", fill=fill, targets=targets
    )
    brute = occlusion_map(
        _StackedModel(model), windows, scaler, mode="temporal", fill=fill,
        targets=targets,
    )
    assert len(shared) == len(targets)
    for grid, oracle in zip(shared, brute):
        assert grid.values.shape == (1, model.cfg.lags)
        np.testing.assert_array_equal(grid.values, oracle.values)


@pytest.mark.parametrize("variant", VARIANTS)
def test_temporal_sweep_is_bitwise_wherever_the_halves_run(variant, monkeypatch):
    # Every op splits; its second half runs on the worker or on the caller
    # in an irregular pattern, so a step and the whole-window pass it must
    # match often run in different places.
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    placements = itertools.cycle([2, 1, 2, 2, 1])
    monkeypatch.setattr(ad, "usable_cpus", lambda: next(placements))
    model = tiny_model(seed=7, variant=variant, lags=4)
    inputs, _ = samples(n=70, seed=9, lags=4)
    fill = np.zeros((4, 4))
    got = model.predict_masked_lags(inputs, fill)
    want = _StackedModel(model).predict_masked_lags(inputs, fill)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("variant", ["unistream", "att_multistream"])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_a_lag_over_its_own_fill_reads_exactly_zero(variant, n):
    # The full-size temporal twin of the spatial test above: the walk's step
    # of the last lag and its rerun with that lag masked see the same
    # inputs, and the back end gives their rows the same bits wherever they
    # land.
    model, windows, scaler = temporal_case(ModelConfig(variant=variant, seed=7), n, n)
    windows.inputs[:, -1] = 0.0
    (out,) = occlusion_map(
        model, windows, scaler, mode="temporal", targets=(windows.target_cities[0],)
    )
    assert out.values[-1, -1] == 0.0
    assert np.count_nonzero(out.values) == out.values.size - 1


@pytest.mark.parametrize("variant", ["unistream", "att_multistream"])
def test_temporal_back_end_runs_in_full_slices(monkeypatch, variant):
    model, windows, scaler = temporal_case(ModelConfig(variant=variant, seed=7), 4)
    rows = []
    original = ModelGraph._back

    def recording_back(self, grid, training=False):
        rows.append(grid.shape[0])
        return original(self, grid, training)

    monkeypatch.setattr(ModelGraph, "_back", recording_back)
    model.predict_masked_lags(windows.inputs, np.zeros(windows.inputs.shape[2:]))
    # 4 samples x 11 rows (the unmasked one and one per lag) in three slices.
    assert rows == [PREDICT_BATCH] * 3


@pytest.mark.parametrize(
    "variant, lags, per_chunk",
    [
        # unistream: L reference steps, then L - t steps for a mask on lag t.
        ("unistream", 4, 4 + 10),
        ("unistream", 10, 10 + 55),
        # two streams of two ConvLSTMs over v = L/2 lags each: per stream
        # and layer, v reference steps plus v - u steps for local lag u.
        ("att_multistream", 4, 2 * 2 * (2 + 3)),
        ("att_multistream", 10, 2 * 2 * (5 + 15)),
    ],
)
def test_temporal_sweep_runs_each_convlstm_step_once_per_prefix(
    monkeypatch, variant, lags, per_chunk
):
    model = tiny_model(seed=7, variant=variant, lags=lags)
    steps = []
    original = ad.conv_lstm

    def counting(xpre, n_steps, *args, **kwargs):
        steps.append(n_steps)
        return original(xpre, n_steps, *args, **kwargs)

    monkeypatch.setattr(ad, "conv_lstm", counting)
    window_steps = lags if variant == "unistream" else 2 * lags  # one forward
    for n in (5, 70):
        chunks = -(-n // PREDICT_BATCH)
        steps.clear()
        inputs, truths = samples(n=n, seed=10, lags=lags)
        occlusion_map(
            model, windowed(inputs, truths), unit_scaler(),
            mode="temporal", targets=("c0", "c1", None),
        )
        assert sum(steps) == chunks * per_chunk
        # One whole-window forward per masked copy plus the reference.
        assert sum(steps) < chunks * (lags + 1) * window_steps


@pytest.mark.parametrize("variant", ["unistream", "att_multistream"])
def test_temporal_sweep_keeps_no_state_history(monkeypatch, variant):
    """Each rerun sees only the walked stream's current states and the
    final maps of the streams walked before it."""
    model = tiny_model(seed=7, variant=variant, lags=6)
    made = []
    alive_at_reruns = []
    original_step, original_front = ConvLSTM.step, ModelGraph._front

    def recording_step(self, *args):
        states = original_step(self, *args)
        made.extend(weakref.ref(state.data) for state in states)
        return states

    def checking_front(self, stream, lags, states=None):
        alive_at_reruns.append(sum(ref() is not None for ref in made))
        return original_front(self, stream, lags, states)

    monkeypatch.setattr(ConvLSTM, "step", recording_step)
    monkeypatch.setattr(ModelGraph, "_front", checking_front)
    inputs, _ = samples(n=3, seed=10, lags=6)
    model.predict_masked_lags(inputs, np.zeros((4, 4)))
    layers = len(model._stack(0))
    assert len(alive_at_reruns) == 6
    assert max(alive_at_reruns) <= 2 * layers + model.cfg.streams - 1


def test_lag_masked_predictions_check_their_shapes():
    model = tiny_model(variant="multistream", lags=4)
    inputs, _ = samples(n=3, lags=4)
    with pytest.raises(DimensionError, match=r"expected batch of shape \(B, 4, 4, 4\)"):
        model.predict_masked_lags(inputs[:, :2], np.zeros((4, 4)))
    with pytest.raises(DimensionError, match="fill"):
        model.predict_masked_lags(inputs, np.zeros((4, 3)))


def test_occlusion_input_validation():
    model = tiny_model()
    inputs, truths = samples()
    with pytest.raises(ConfigurationError, match=r"\(N, L, F, C\)"):
        occlusion_map(
            model, windowed(inputs[0], truths), unit_scaler(), mode="temporal"
        )
    empty = windowed(inputs[:0], truths[:0])
    with pytest.raises(ContractError, match="at least one sample"):
        occlusion_map(model, empty, unit_scaler(), mode="temporal")


@pytest.mark.parametrize("mode", OCCLUSION_MODES)
def test_a_scaler_that_lacks_a_target_fails_before_any_forward_pass(mode):
    probe = _CountingModel(lag=0, feat=1, city=1)
    inputs, truths = samples()
    for scaler, feature, missing in [
        (unit_scaler(("c0", "elsewhere")), "wind", "city 'c1'"),
        (unit_scaler(), "rain", "feature 'rain'"),
    ]:
        with pytest.raises(ConfigurationError, match=f"does not cover {missing}"):
            occlusion_map(
                probe, windowed(inputs, truths, feature=feature), scaler,
                mode=mode, patch_size=2,
            )
    assert probe.forwarded == 0


@pytest.mark.parametrize("mode", OCCLUSION_MODES)
@pytest.mark.parametrize(
    "feature_names, city_names",
    [(FEATS[:3], CITY_GRID), (FEATS, CITY_GRID + ("g4",))],
)
def test_names_that_do_not_match_the_grid_are_rejected(mode, feature_names, city_names):
    # The windows check their labels when they are built, so no mode gets
    # as far as a forward pass.
    model = _CountingModel(lag=0, feat=1, city=2)
    inputs, truths = samples()
    with pytest.raises(ConfigurationError, match="do not match the 4 x 4 grid"):
        occlusion_map(
            model,
            windowed(inputs, truths, features=feature_names, grid_cities=city_names),
            unit_scaler(), mode=mode, patch_size=2,
        )
    assert model.forwarded == 0


def test_saliency_map_csv_layout(tmp_path):
    grid = SaliencyMap(
        np.array([[1.5, -2.25], [0.0, 10.0]]), ("alpha", "beta"), ("x", "y")
    )
    _write_map(tmp_path, "grid", grid, "title", "subtitle")
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines == [",x,y", "alpha,1.5,-2.25", "beta,0.0,10.0"]
    with pytest.raises(ConfigurationError, match="does not match"):
        SaliencyMap(np.zeros((2, 2)), ("a",), ("x", "y"))


# -- score maximization ------------------------------------------------------


def test_zero_rate_ascent_returns_the_sample_unchanged():
    model = tiny_model()
    rng = np.random.default_rng(8)
    sample = rng.uniform(0.2, 0.8, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=3, lr=0.0)
    np.testing.assert_array_equal(result.input_map, sample)
    assert len(result.scores) == 4
    assert result.scores[0] == result.scores[-1]


def test_ascent_does_not_decrease_the_score():
    model = tiny_model()
    rng = np.random.default_rng(9)
    sample = rng.uniform(0.2, 0.8, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=50, lr=0.01)
    assert result.scores[-1] >= result.scores[0]
    assert result.scores[-1] > 0


def test_ascended_map_respects_bounds():
    model = tiny_model()
    rng = np.random.default_rng(10)
    sample = rng.uniform(0.4, 0.6, (2, 4, 4))
    truth = rng.uniform(0, 1, 2)
    result = score_maximize(model, sample, truth, iterations=40, lr=0.5)
    assert result.input_map.min() >= 0.0
    assert result.input_map.max() <= 1.0


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


def test_each_ascent_iteration_releases_its_tape_before_the_next(monkeypatch):
    # Weak references to each forward pass's input and output nodes: the
    # input's holds that iteration's ``current``.  With the cycle collector
    # off, a tape counts as released only once reference counts free it.
    model = tiny_model()
    nodes, alive_at_forward = [], []
    original = model.forward

    def recording_forward(batch, mode="infer"):
        alive_at_forward.append(sum(ref() is not None for ref in nodes))
        pred = original(batch, mode)
        nodes.extend(weakref.ref(t.node) for t in (batch, pred) if t.node)
        return pred

    monkeypatch.setattr(model, "forward", recording_forward)
    rng = np.random.default_rng(12)
    gc.disable()
    try:
        score_maximize(
            model, rng.uniform(0.2, 0.8, (2, 4, 4)), rng.uniform(0, 1, 2),
            iterations=4, lr=0.05,
        )
    finally:
        gc.enable()
    assert len(nodes) == 8
    # Four ascent iterations, then the final no-gradient forward pass.
    assert alive_at_forward == [0] * 5


def test_perfect_initial_prediction_is_rejected():
    model = tiny_model()
    truth = np.array([0.3, 0.7])
    model.head[-1].weight.data[...] = 0.0
    model.head[-1].bias.data[...] = truth  # the model now always hits exactly
    with pytest.raises(InfiniteScoreError, match="iteration 1"):
        score_maximize(model, np.full((2, 4, 4), 0.5), truth, iterations=3, lr=0.01)


def test_a_non_finite_input_gradient_is_rejected():
    # The model always predicts 1e-100 against a truth of 0: h = 1/MSE =
    # 1e200 is finite, but its gradient divides by MSE**2, which underflows
    # to 0.
    model = tiny_model()
    model.head[-1].weight.data[...] = 0.0
    model.head[-1].bias.data[...] = 1e-100
    with pytest.raises(NumericalError, match="non-finite input gradient"):
        score_maximize(model, np.full((2, 4, 4), 0.5), np.zeros(2))


def test_a_final_map_that_predicts_the_truth_exactly_is_rejected():
    # One hidden unit carries the whole prediction and is barely alive at
    # the start; the first step switches it off, so the final map predicts
    # the output bias, which is the truth, exactly.
    model = tiny_model()
    sample = np.full((2, 4, 4), 0.5)
    hidden, out = model.head
    hidden.weight.data[:, 0] *= -1  # its input at the sample is then positive
    hidden.weight.data[:, 1:] = 0.0
    hidden.bias.data[...] = 0.0
    out.weight.data[...] = 1.0
    out.bias.data[...] = 0.0
    unit = model.predict(sample[None])[0, 0]
    assert unit > 0
    hidden.bias.data[0] = -0.999 * unit
    truth = np.array([0.3, 0.7])
    out.bias.data[...] = truth
    with pytest.raises(InfiniteScoreError, match="final map"):
        score_maximize(model, sample, truth, iterations=1, lr=0.05)


def test_score_maximize_validation():
    model = tiny_model()
    # Mixed flags, so that restoring them is more than setting them all.
    next(model.parameters()).requires_grad = False
    flags = [p.requires_grad for p in model.parameters()]
    good = np.full((2, 4, 4), 0.5)
    truth = np.array([0.1, 0.2])
    refusals = [
        (ConfigurationError, "exceeds bounds", good + 2.0, truth, {}),
        (ConfigurationError, "iterations", good, truth, {"iterations": 0}),
        (ConfigurationError, "ascent rate", good, truth, {"lr": -0.1}),
        # The shape refusals come from the forward pass and the MSE, inside
        # the ascent, after the flags were cleared.
        (DimensionError, "expected batch of shape", np.full((3, 4, 4), 0.5), truth, {}),
        (DimensionError, "mse shapes differ", good, np.zeros(3), {}),
        (DimensionError, "mse shapes differ", good, np.float64(0.1), {}),
    ]
    for error, match, sample, target, kwargs in refusals:
        with pytest.raises(error, match=match):
            score_maximize(model, sample, target, **kwargs)
        assert [p.requires_grad for p in model.parameters()] == flags


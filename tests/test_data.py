"""Data pipeline tests: CSV ingestion and imputation, min-max scaling,
window extraction, and the chronological split's leakage guarantees."""

import datetime
from dataclasses import replace

import numpy as np
import pytest

from stationcast.data import (
    CITIES,
    CONDITIONS,
    FEATURES,
    TABLE_CITY_ORDER,
    TARGET_CITIES,
    VOCABULARIES,
    Scaler,
    WeatherCube,
    emit_csv,
    fit_scaler,
    load_dataset,
    prepare,
    scale_cube,
    split_days,
    synthetic_cube,
    window_block,
    write_demo_csv,
)
from stationcast.errors import ConfigurationError, IngestionError

TOY_FEATURES = ("temp", "condition")
TOY_CITIES = ("Alphaville", "Betatown")


def write_rows(path, rows, features=TOY_FEATURES):
    lines = ["date,city," + ",".join(features)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def day(i):
    return (datetime.date(2020, 1, 1) + datetime.timedelta(days=i)).isoformat()


def toy_csv(tmp_path, **kwargs):
    rows = [
        [day(0), "Alphaville", 1.5, "Fog"],
        [day(0), "Betatown", 2.5, "Rain"],
        [day(1), "Alphaville", 3.5, "Cloudy"],
        [day(1), "Betatown", 4.5, "Snow"],
        [day(2), "Alphaville", 5.5, "Fog"],
        [day(2), "Betatown", 6.5, "Clear"],
    ]
    return write_rows(tmp_path / "toy.csv", rows, **kwargs)


# -- ingestion ---------------------------------------------------------------


def test_load_toy_dataset(tmp_path):
    cube = load_dataset(toy_csv(tmp_path), cities=TOY_CITIES, features=TOY_FEATURES)
    assert cube.values.shape == (3, 2, 2)
    assert cube.imputed == 0
    np.testing.assert_array_equal(cube.values[:, 0, 0], [1.5, 3.5, 5.5])
    assert cube.values[0, 1, 0] == CONDITIONS.index("Fog")
    assert cube.values[2, 1, 1] == CONDITIONS.index("Clear")
    assert cube.dates[0].isoformat() == day(0)


def test_rows_may_arrive_in_any_order(tmp_path):
    rows = [
        [day(1), "Betatown", 4.5, "Fog"],
        [day(0), "Alphaville", 1.5, "Fog"],
        [day(1), "Alphaville", 3.5, "Fog"],
        [day(0), "Betatown", 2.5, "Fog"],
    ]
    cube = load_dataset(
        write_rows(tmp_path / "shuffled.csv", rows),
        cities=TOY_CITIES,
        features=TOY_FEATURES,
    )
    np.testing.assert_array_equal(cube.values[:, 0, 1], [2.5, 4.5])


def test_missing_cell_imputes_from_earlier_day(tmp_path):
    rows = [
        [day(0), "Alphaville", 40.0, "Fog"],
        [day(1), "Alphaville", "", "Fog"],
        [day(2), "Alphaville", 40.0, "Fog"],
    ]
    cube = load_dataset(
        write_rows(tmp_path / "gap.csv", rows),
        cities=("Alphaville",),
        features=TOY_FEATURES,
    )
    assert cube.imputed == 1
    np.testing.assert_array_equal(cube.values[:, 0, 0], [40.0, 40.0, 40.0])


def test_leading_gap_backfills(tmp_path):
    rows = [
        [day(0), "Alphaville", "", "Fog"],
        [day(1), "Alphaville", 7.0, "Fog"],
    ]
    cube = load_dataset(
        write_rows(tmp_path / "lead.csv", rows),
        cities=("Alphaville",),
        features=TOY_FEATURES,
    )
    np.testing.assert_array_equal(cube.values[:, 0, 0], [7.0, 7.0])


def test_missing_city_row_imputes_whole_day(tmp_path):
    rows = [
        [day(0), "Alphaville", 1.0, "Fog"],
        [day(0), "Betatown", 2.0, "Rain"],
        [day(1), "Alphaville", 3.0, "Fog"],
        # Betatown's day-1 row is absent entirely.
        [day(2), "Alphaville", 5.0, "Fog"],
        [day(2), "Betatown", 6.0, "Clear"],
    ]
    cube = load_dataset(
        write_rows(tmp_path / "cityless.csv", rows),
        cities=TOY_CITIES,
        features=TOY_FEATURES,
    )
    assert cube.imputed == 2  # both of Betatown's features on day 1
    np.testing.assert_array_equal(cube.values[:, 0, 1], [2.0, 2.0, 6.0])
    assert cube.values[1, 1, 1] == CONDITIONS.index("Rain")


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda rows: rows.__setitem__(0, ["01/01/2020", "Alphaville", 1.0, "Fog"]), "bad date"),
        (lambda rows: rows.__setitem__(0, [day(0), "Atlantis", 1.0, "Fog"]), "unknown city"),
        (lambda rows: rows.__setitem__(0, [day(0), "Alphaville", "warm", "Fog"]), "non-numeric"),
        (lambda rows: rows.__setitem__(0, [day(0), "Alphaville", 1.0, "Sharknado"]), "unknown condition symbol"),
        (lambda rows: rows.append([day(2), "Alphaville", 9.0, "Fog"]), "duplicate row"),
        (lambda rows: rows.__setitem__(0, [day(0), "Alphaville", 1.0]), "expected 4 fields"),
    ],
)
def test_malformed_rows_are_rejected_with_line_numbers(tmp_path, mutation, fragment):
    rows = [
        [day(0), "Alphaville", 1.5, "Fog"],
        [day(1), "Alphaville", 3.5, "Fog"],
        [day(2), "Alphaville", 5.5, "Fog"],
    ]
    mutation(rows)
    path = write_rows(tmp_path / "bad.csv", rows)
    with pytest.raises(IngestionError, match=fragment) as err:
        load_dataset(path, cities=("Alphaville",), features=TOY_FEATURES)
    assert "line " in str(err.value)


def test_absent_calendar_day_is_an_error(tmp_path):
    rows = [
        [day(0), "Alphaville", 1.0, "Fog"],
        [day(3), "Alphaville", 2.0, "Fog"],  # days 1 and 2 never appear
    ]
    path = write_rows(tmp_path / "holes.csv", rows)
    with pytest.raises(IngestionError, match="missing dates") as err:
        load_dataset(path, cities=("Alphaville",), features=TOY_FEATURES)
    assert day(1) in str(err.value) and day(2) in str(err.value)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("date,town,temp,condition\n")
    with pytest.raises(IngestionError, match="bad header"):
        load_dataset(path, cities=TOY_CITIES, features=TOY_FEATURES)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("date,city,temp,condition\n")
    with pytest.raises(IngestionError, match="no data rows"):
        load_dataset(path, cities=TOY_CITIES, features=TOY_FEATURES)


def test_column_with_no_data_at_all(tmp_path):
    rows = [
        [day(0), "Alphaville", "", "Fog"],
        [day(1), "Alphaville", "", "Fog"],
    ]
    path = write_rows(tmp_path / "void.csv", rows)
    with pytest.raises(IngestionError, match="temp/Alphaville"):
        load_dataset(path, cities=("Alphaville",), features=TOY_FEATURES)


def test_emit_then_reload_is_bitwise_identical(tmp_path):
    first = tmp_path / "demo.csv"
    write_demo_csv(first, days=30, seed=3, missing=5)
    cube = load_dataset(first)
    second = tmp_path / "canonical.csv"
    emit_csv(cube, second)
    again = load_dataset(second)
    np.testing.assert_array_equal(cube.values, again.values)
    assert cube.dates == again.dates
    assert again.imputed == 0  # the emitted file has no holes left
    # and emitting the reloaded cube reproduces the file byte for byte
    third = tmp_path / "twice.csv"
    emit_csv(again, third)
    assert second.read_bytes() == third.read_bytes()


def test_demo_csv_reports_blanked_cells(tmp_path):
    path = tmp_path / "demo.csv"
    blanked = write_demo_csv(path, days=40, seed=1, missing=7)
    assert blanked == 7
    assert load_dataset(path).imputed == 7


@pytest.mark.parametrize(
    "days, missing", [(0, 0), (-1, 0), (30, -1), (3, 16 * 18 + 1), (2, 1)]
)
def test_demo_csv_rejects_sizes_it_cannot_meet(tmp_path, monkeypatch, days, missing):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random draw ran before the sizes were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    path = tmp_path / "demo.csv"
    with pytest.raises(ConfigurationError):
        write_demo_csv(path, days=days, missing=missing)
    assert not path.exists()


def test_cube_label_mismatch():
    with pytest.raises(ConfigurationError):
        WeatherCube(
            np.zeros((3, 2, 2)),
            dates=(datetime.date(2020, 1, 1),),
            features=("a", "b"),
            cities=("x", "y"),
        )


def test_cube_unknown_labels():
    cube = synthetic_cube(5)
    with pytest.raises(ConfigurationError, match="unknown feature"):
        window_block(cube, range(5), 2, 1, "entropy")
    with pytest.raises(ConfigurationError, match="unknown city"):
        window_block(cube, range(5), 2, 1, "avg_temp", ("Paris", "Atlantis"))


def test_reference_grid_is_18_by_18():
    assert len(FEATURES) == 18
    assert len(CITIES) == 18
    assert len(TARGET_CITIES) == 6
    assert set(TARGET_CITIES) == set(TABLE_CITY_ORDER)
    assert set(TARGET_CITIES) <= set(CITIES)
    assert set(VOCABULARIES) == {"wind_direction", "condition"}


# -- scaling -----------------------------------------------------------------


def small_cube(values):
    values = np.asarray(values, dtype=float)
    dates = tuple(
        datetime.date(2020, 1, 1) + datetime.timedelta(days=i)
        for i in range(values.shape[0])
    )
    f = tuple(f"f{i}" for i in range(values.shape[1]))
    c = tuple(f"c{i}" for i in range(values.shape[2]))
    return WeatherCube(values, dates, f, c)


def test_min_max_scaling_on_a_known_column():
    cube = small_cube(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))
    scaler = fit_scaler(cube, range(0, 3))
    scaled = scale_cube(cube, scaler)
    np.testing.assert_array_equal(scaled.values[:, 0, 0], [0.0, 0.5, 1.0])


def test_constant_column_scales_to_zero():
    cube = small_cube(np.full((4, 1, 1), 13.0))
    scaler = fit_scaler(cube, range(0, 4))
    scaled = scale_cube(cube, scaler)
    np.testing.assert_array_equal(scaled.values, np.zeros((4, 1, 1)))
    assert np.isfinite(scaled.values).all()


def test_scale_round_trip():
    cube = synthetic_cube(50, seed=2)
    scaler = fit_scaler(cube, range(0, 40))
    scaled = scaler.transform(cube.values)
    for i, feature in enumerate(cube.features):
        back = scaler.inverse(scaled[:, i], feature, cube.cities)
        assert np.abs(back - cube.values[:, i]).max() < 1e-12


def test_training_range_bounds_only():
    cube = small_cube(np.array([0.0, 5.0, 10.0, 100.0]).reshape(4, 1, 1))
    scaler = fit_scaler(cube, range(0, 3))
    assert scaler.maxs[0, 0] == 10.0  # day 3's spike is outside the fit range
    scaled = scale_cube(cube, scaler)
    assert scaled.values[3, 0, 0] == 10.0  # out-of-range days may exceed [0, 1]


def test_empty_fit_range_rejected():
    with pytest.raises(ConfigurationError):
        fit_scaler(synthetic_cube(5), range(3, 3))


def test_scaler_arrays_must_match_its_labels():
    with pytest.raises(ConfigurationError, match=r"\(1, 3\) and \(1, 2\) disagree"):
        Scaler(np.zeros((1, 3)), np.ones((1, 2)), ("f0",), ("c0", "c1"))


def test_scaling_rejects_a_scaler_fitted_on_other_labels():
    cube = synthetic_cube(20, seed=3)
    scaler = fit_scaler(cube, range(0, 10))
    for other in (
        replace(scaler, cities=scaler.cities[::-1]),
        replace(scaler, features=tuple(f"x{f}" for f in scaler.features)),
    ):
        with pytest.raises(ConfigurationError, match="differ from the data's"):
            scale_cube(cube, other)


def test_descale_predictions_hand_case():
    scaler = Scaler(
        mins=np.array([[1.0, 10.0]]),
        maxs=np.array([[3.0, 30.0]]),
        features=("f0",),
        cities=("c0", "c1"),
    )
    pred = np.array([[0.0, 0.5], [1.0, 1.0]])
    out = scaler.inverse(pred, "f0", ("c0", "c1"))
    np.testing.assert_array_equal(out, [[1.0, 20.0], [3.0, 30.0]])
    # selecting a city subset reorders correctly
    np.testing.assert_array_equal(
        scaler.inverse(np.array([[0.5]]), "f0", ("c1",)), [[20.0]]
    )


def test_scaler_save_load_round_trip(tmp_path):
    cube = synthetic_cube(30, seed=4)
    scaler = fit_scaler(cube, range(0, 25))
    path = tmp_path / "scaler.wxtn"
    scaler.save(path)
    loaded = Scaler.load(path)
    np.testing.assert_array_equal(loaded.mins, scaler.mins)
    np.testing.assert_array_equal(loaded.maxs, scaler.maxs)
    assert loaded.features == scaler.features
    assert loaded.cities == scaler.cities


# -- windowing ---------------------------------------------------------------


def index_cube(t, f=2, c=3):
    """values[d, i, j] = d, so window contents reveal their source days."""
    values = np.tile(np.arange(t, dtype=float)[:, None, None], (1, f, c))
    return small_cube(values)


def test_window_count_minimal():
    windows = window_block(
        index_cube(12), range(12), lags=10, horizon=2, target_feature="f0",
        target_cities=("c0",),
    )
    assert len(windows) == 1


def test_window_count_t20_h6():
    windows = window_block(
        index_cube(20), range(20), lags=10, horizon=6, target_feature="f1",
        target_cities=("c2",),
    )
    assert len(windows) == 5


def test_window_contents_and_target_day():
    windows = window_block(
        index_cube(9),
        range(9),
        lags=4,
        horizon=2,
        target_feature="f0",
        target_cities=("c0", "c1"),
    )
    assert len(windows) == 4
    for i in range(4):
        np.testing.assert_array_equal(
            windows.inputs[i, :, 0, 0], np.arange(i, i + 4, dtype=float)
        )
        # input days i..i+3, target day i + 3 + 2
        np.testing.assert_array_equal(windows.targets[i], [i + 5.0, i + 5.0])


def test_window_shift_equivariance():
    cube = synthetic_cube(30, seed=5)
    shifted = replace(cube, values=cube.values[1:], dates=cube.dates[1:])
    full = window_block(cube, range(cube.days), 5, 2, "avg_temp")
    tail = window_block(shifted, range(shifted.days), 5, 2, "avg_temp")
    np.testing.assert_array_equal(full.inputs[1:], tail.inputs)
    np.testing.assert_array_equal(full.targets[1:], tail.targets)


def test_window_validation():
    with pytest.raises(ConfigurationError):
        window_block(index_cube(20), range(20), lags=0, horizon=2, target_feature="f0")
    with pytest.raises(ConfigurationError):
        window_block(index_cube(20), range(20), lags=5, horizon=0, target_feature="f0")
    with pytest.raises(ConfigurationError, match="cannot fit"):
        window_block(index_cube(11), range(11), lags=10, horizon=2, target_feature="f0")


def test_windows_carry_and_check_the_grid_labels_of_their_cube():
    cube = index_cube(12)
    windows = window_block(cube, range(12), 4, 2, "f0", ("c0", "c1"))
    assert (windows.features, windows.cities) == (cube.features, cube.cities)
    shapes = r"need \(N, L, F, C\) inputs and \(N, 2\) targets"
    for change, message in [
        ({"inputs": windows.inputs[0]}, shapes),
        ({"targets": windows.targets[:, :1]}, shapes),
        ({"targets": windows.targets[1:]}, shapes),
        ({"features": ("f0",)}, "1 feature and 3 city names do not match the 2 x 3"),
        ({"cities": ("c0", "c1")}, "2 feature and 2 city names do not match the 2 x 3"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            replace(windows, **change)


# -- splitting ---------------------------------------------------------------


def test_split_1000_days():
    train, val, test = split_days(1000, 0.9, 0.1)
    assert (train, val, test) == (range(0, 810), range(810, 900), range(900, 1000))


def test_split_validation():
    with pytest.raises(ConfigurationError):
        split_days(100, 1.0, 0.1)
    for fraction in (0.0, 1.0):
        with pytest.raises(ConfigurationError, match=r"in \(0, 1\)"):
            split_days(100, 0.9, fraction)
    train, val, test = split_days(100, 0.9, 0.5)
    assert len(val) == 45 and len(train) == 45 and len(test) == 10


def test_prepare_blocks_do_not_straddle_boundaries():
    cube = index_cube(60, f=1, c=1)
    train, val, test, _ = prepare(
        cube, lags=3, horizon=1, target_feature="f0", target_cities=("c0",),
        ratio=0.9, val_fraction=0.1,
    )
    train_days, val_days, test_days = split_days(cube.days, 0.9, 0.1)
    assert (len(train_days), len(val_days), len(test_days)) == (49, 5, 6)
    assert (len(train), len(val), len(test)) == (46, 2, 3)
    # Every sample's input days and target day stay inside its own block; the
    # index cube makes the day number readable off the (scaled) values.
    span = 48.0  # min-max span of the day-index column over train days 0..48
    for windows, days in (
        (train, train_days),
        (val, val_days),
        (test, test_days),
    ):
        source_days = np.rint(windows.inputs * span).astype(int)
        target_days = np.rint(windows.targets * span).astype(int)
        assert source_days.min() >= days.start and source_days.max() < days.stop
        assert target_days.min() >= days.start and target_days.max() < days.stop


def test_prepare_scaler_sees_only_training_days():
    cube = synthetic_cube(60, features=("f0",), cities=("c0",), seed=6)
    values = cube.values.copy()
    values[49:] = 1e6  # validation and test blocks carry an absurd spike
    spiked = replace(cube, values=values)
    _, _, _, scaler = prepare(
        spiked, 3, 1, "f0", ("c0",), ratio=0.9, val_fraction=0.1
    )
    assert scaler.maxs.max() < 1e5
    np.testing.assert_array_equal(scaler.maxs, fit_scaler(spiked, range(0, 49)).maxs)


def test_prepare_reports_which_block_is_too_short():
    with pytest.raises(ConfigurationError, match="validation block too short"):
        prepare(
            index_cube(60, f=1, c=1), 10, 2, "f0", ("c0",), ratio=0.9, val_fraction=0.1
        )


def test_window_validation_rejects_a_repeated_target_city():
    with pytest.raises(ConfigurationError, match="target cities repeat"):
        window_block(index_cube(20), range(20), 3, 1, "f0", ("c0", "c1", "c0"))
    with pytest.raises(ConfigurationError, match="target cities repeat") as caught:
        prepare(
            index_cube(60, f=1, c=2), 3, 1, "f0", ("c1", "c1"),
            ratio=0.9, val_fraction=0.1,
        )
    assert "block too short" not in str(caught.value)


def test_window_block_matches_manual_slice():
    cube = synthetic_cube(40, seed=7)
    scaler = fit_scaler(cube, range(0, 30))
    scaled = scale_cube(cube, scaler)
    block = window_block(scaled, range(10, 25), 4, 2, "avg_temp")
    piece = replace(
        scaled, values=scaled.values[10:25], dates=scaled.dates[10:25]
    )
    manual = window_block(piece, range(piece.days), 4, 2, "avg_temp")
    np.testing.assert_array_equal(block.inputs, manual.inputs)
    np.testing.assert_array_equal(block.targets, manual.targets)


# -- synthetic cubes ---------------------------------------------------------


def test_synthetic_cube_is_deterministic():
    a = synthetic_cube(25, seed=9)
    b = synthetic_cube(25, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (25, 18, 18)
    assert np.isfinite(a.values).all()
    c = synthetic_cube(25, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_synthetic_columns_are_not_degenerate():
    cube = synthetic_cube(80, seed=11)
    spans = cube.values.max(axis=0) - cube.values.min(axis=0)
    assert spans.min() > 0.1

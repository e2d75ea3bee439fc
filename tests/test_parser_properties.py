"""Property tests for the text parsers that read untrusted input: long-form
dataset CSVs and ``key = value`` run configurations.  Whatever the bytes,
each parser returns or raises a ``StationcastError`` subclass, and the CLI
maps the failure to a documented exit code."""

import datetime
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stationcast import data
from stationcast.cli import main
from stationcast.data import CONDITIONS, load_dataset
from stationcast.errors import StationcastError
from stationcast.runconfig import RUN_KEYS, RunConfig
from stationcast.serialize import parse_key_values

FEATURES = ("temp", "condition")
CITIES = ("Alphaville", "Betatown")
HEADER = "date,city," + ",".join(FEATURES)

_fuzz = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def day(i):
    return (datetime.date(2020, 1, 1) + datetime.timedelta(days=i)).isoformat()


junk = st.text(st.characters(codec="utf-8"), max_size=12)
dates = st.one_of(st.integers(-2, 6).map(day), st.dates().map(str), junk)
cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "1_0", " 2 ", "0x10"]),
    st.sampled_from(CONDITIONS),
    junk,
)


@st.composite
def toy_table(draw):
    """The rows of a valid toy CSV over a few days, about one cell in fifty
    blank (imputed)."""
    plain = st.integers(0, 49).flatmap(
        lambda k: st.just("") if k == 0 else st.floats(-1e3, 1e3).map(repr)
    )
    table = [["date", "city", *FEATURES]]
    for i in range(draw(st.integers(2, 4))):
        for city in CITIES:
            table.append([day(i), city, draw(plain), draw(st.sampled_from(CONDITIONS))])
    return table


def demo_table():
    """The rows of a valid three-day CSV in the full 18 x 18 schema."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.csv"
        data.write_demo_csv(path, days=3, seed=0, missing=4)
        return [line.split(",") for line in path.read_text().splitlines()]


@st.composite
def damaged(draw, table):
    """``table`` after up to four row or field edits and maybe a byte write,
    as CSV bytes."""
    table = [list(row) for row in table]
    for _ in range(draw(st.integers(0, 4))):
        if not table:
            break
        row = draw(st.integers(0, len(table) - 1))
        edit = draw(st.sampled_from(["field", "drop", "copy", "append", "quote"]))
        if edit == "field":
            col = draw(st.integers(0, len(table[row]) - 1))
            table[row][col] = draw(st.one_of(cells, dates, junk))
        elif edit == "drop":
            del table[row]
        elif edit == "copy":
            table.insert(draw(st.integers(0, len(table))), list(table[row]))
        elif edit == "append":
            table[row].append(draw(junk))
        else:
            table[row] = [f'"{f}"' for f in table[row]]
    blob = bytearray("".join(",".join(r) + "\n" for r in table).encode("utf-8"))
    if blob and draw(st.integers(0, 3)) == 0:
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@_fuzz
@given(blob=toy_table().flatmap(damaged))
def test_csv_loads_or_raises_a_stationcast_error(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        cube = load_dataset(path, cities=CITIES, features=FEATURES)
    except StationcastError:
        return
    assert cube.values.shape == (cube.days, len(FEATURES), len(CITIES))
    assert np.isfinite(cube.values).all()


def test_csv_failures_that_used_to_escape_are_ingestion_errors(tmp_path):
    path = tmp_path / "bad.csv"
    row = "2020-01-01,Alphaville,{},Fog\n"
    for body, message in [
        (row.format("1.5").encode("latin-1") + b"\xff\n", "not UTF-8"),
        (row.format("x" * 200_000).encode(), "field larger than field limit"),
        (row.format("inf").encode(), "non-finite temp value 'inf'"),
        (row.format("nan").encode(), "non-finite temp value 'nan'"),
    ]:
        path.write_bytes((HEADER + "\n").encode() + body)
        with pytest.raises(StationcastError, match=message):
            load_dataset(path, cities=CITIES, features=FEATURES)


def test_far_apart_dates_name_a_few_missing_days(tmp_path):
    path = tmp_path / "gap.csv"
    lines = [HEADER]
    for date in ("0001-01-01", "9999-12-31"):
        lines += [f"{date},{city},1.0,Fog" for city in CITIES]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StationcastError) as err:
        load_dataset(path, cities=CITIES, features=FEATURES)
    text = str(err.value)
    assert "0001-01-02" in text and "0001-01-11" in text and "0001-01-12" not in text
    span = (datetime.date(9999, 12, 31) - datetime.date(1, 1, 1)).days + 1
    assert text.endswith(f" and {span - 2 - 10} more")


@_fuzz
@given(blob=damaged(demo_table()))
def test_ingest_exits_with_a_documented_code(tmp_path, blob, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(blob)
    assert main(["ingest", str(raw), str(tmp_path / "out.csv")]) in (0, 2)
    capsys.readouterr()


keys = st.one_of(st.sampled_from(sorted(RUN_KEYS)), junk)
values = st.one_of(
    st.sampled_from(
        ["none", "None", "3", "-1", "0", "3,3", "1,,2", "1e999", "nan", "4" * 5000,
         "unistream", "Paris,London", ""]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    junk,
)
config_lines = st.one_of(
    st.tuples(keys, values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["", "# comment", "no equals sign", "=", " = x"]),
    junk,
)


@st.composite
def config_bytes(draw):
    text = "\n".join(draw(st.lists(config_lines, max_size=8)))
    blob = bytearray(text.encode("utf-8"))
    if blob and draw(st.booleans()):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@_fuzz
@given(text=st.lists(config_lines, max_size=8).map("\n".join))
def test_config_text_parses_or_raises_a_stationcast_error(text):
    cfg = RunConfig()
    try:
        cfg.apply(parse_key_values(text, "fuzz"), "fuzz")
    except StationcastError:
        return
    # Whatever was accepted round-trips through the canonical text.
    again = RunConfig()
    again.apply(parse_key_values(cfg.to_text(), "canonical"), "canonical")
    assert _same(again, cfg)


def _same(a: RunConfig, b: RunConfig) -> bool:
    for name in vars(a):
        x, y = getattr(a, name), getattr(b, name)
        if name == "out" or x == y:
            continue
        if not (isinstance(x, float) and math.isnan(x) and math.isnan(y)):
            return False
    return True


@_fuzz
@given(blob=config_bytes())
def test_config_files_load_or_raise_a_stationcast_error(tmp_path, blob):
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    try:
        RunConfig.from_file(path)
    except StationcastError:
        pass


@_fuzz
@given(blob=config_bytes())
def test_train_with_any_config_exits_with_a_documented_code(tmp_path, blob, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    # --data names no file, so a config that parses stops at loading the data.
    argv = ["train", "--config", str(path), "--data", str(tmp_path / "absent.csv")]
    assert main(argv) in (1, 2)
    capsys.readouterr()

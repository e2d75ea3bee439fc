"""Container and ``key = value`` parsing: strict loading, loud failures."""

import numpy as np
import pytest

from stationcast.errors import ConfigurationError, IngestionError
from stationcast.serialize import load_arrays, parse_key_values, save_arrays


def test_round_trip(tmp_path):
    path = tmp_path / "c.wxtn"
    arrays = {"w": np.arange(6.0).reshape(2, 3), "s": np.array(2.5)}
    save_arrays(path, arrays, "key = value\n")
    loaded, meta = load_arrays(path)
    assert meta == "key = value\n"
    assert list(loaded) == ["w", "s"]
    for name, value in arrays.items():
        np.testing.assert_array_equal(loaded[name], value)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob.replace(b"value", b"val\xffe"), "metadata is not valid UTF-8"),
        (lambda blob: blob.replace(b"weights", b"weig\xffts"), "entry name #0"),
        (lambda blob: blob + b"\0\0\0", "3 trailing bytes"),
        (lambda blob: blob[:-1], "truncated payload"),
    ],
    ids=["meta-not-utf8", "name-not-utf8", "trailing-bytes", "truncated"],
)
def test_corrupt_containers_raise_ingestion_errors(tmp_path, corrupt, message):
    path = tmp_path / "c.wxtn"
    save_arrays(path, {"weights": np.ones(3)}, "key = value\n")
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IngestionError, match=message):
        load_arrays(path)


def test_parse_key_values_skips_blanks_and_comments():
    text = "# header\n\n a = 1 \nb=two words\nc =\n"
    assert parse_key_values(text, "t") == {"a": "1", "b": "two words", "c": ""}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a = 1\nno equals sign\n", r"t:2: expected 'key = value'"),
        ("a = 1\n\na = 2\n", r"t:3: duplicate key 'a'"),
    ],
)
def test_parse_key_values_rejects_malformed_lines(text, message):
    with pytest.raises(ConfigurationError, match=message):
        parse_key_values(text, "t")

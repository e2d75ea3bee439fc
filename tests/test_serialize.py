"""Container and ``key = value`` parsing: strict loading, loud failures."""

import builtins
import errno
import io
import struct

import numpy as np
import pytest

from stationcast.errors import ConfigurationError, IngestionError
from stationcast.serialize import load_arrays, parse_key_values, save_arrays

_real_open = io.open


def test_round_trip(tmp_path):
    path = tmp_path / "c.wxtn"
    arrays = {"w": np.arange(6.0).reshape(2, 3), "s": np.array(2.5)}
    save_arrays(path, arrays, "key = value\n")
    loaded, meta = load_arrays(path)
    assert meta == "key = value\n"
    assert list(loaded) == ["w", "s"]
    for name, value in arrays.items():
        np.testing.assert_array_equal(loaded[name], value)


def _extents(*shape):
    """Give the ``(3,)`` entry ``weights`` the extents ``shape`` instead."""
    old = b"weights" + struct.pack("<IQ", 1, 3)
    new = b"weights" + struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
    return lambda blob: blob.replace(old, new)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob.replace(b"value", b"val\xffe"), "metadata is not valid UTF-8"),
        (lambda blob: blob.replace(b"weights", b"weig\xffts"), "entry name #0"),
        (lambda blob: blob + b"\0\0\0", "3 trailing bytes"),
        (lambda blob: blob[:-1], "truncated payload"),
        (_extents(2**32, 2**32), "truncated payload"),
        (_extents(0, 2**63), "beyond any array"),
        (_extents(2**63, 0), "beyond any array"),
    ],
    ids=[
        "meta-not-utf8", "name-not-utf8", "trailing-bytes", "truncated",
        "extents-overflow-int64", "zero-size-huge-last", "zero-size-huge-first",
    ],
)
def test_corrupt_containers_raise_ingestion_errors(tmp_path, corrupt, message):
    path = tmp_path / "c.wxtn"
    save_arrays(path, {"weights": np.ones(3)}, "key = value\n")
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IngestionError, match=message):
        load_arrays(path)


class _DiskFull:
    """A binary file that takes ``room`` bytes, then fails as a full disk does."""

    room = 100

    def __init__(self, *args, **kwargs):
        self.file = _real_open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        self.file.write(data[: self.room])
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "c.wxtn"
    save_arrays(path, {"old": np.ones(3)}, "v = 1\n")
    before = path.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", _DiskFull)
        patch.setattr(io, "open", _DiskFull)
        with pytest.raises(OSError, match="No space left"):
            save_arrays(path, {"a": np.zeros(1000), "b": np.zeros(1000)}, "v = 2\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.wxtn"]


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

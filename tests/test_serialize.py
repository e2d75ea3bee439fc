"""Container and ``key = value`` parsing: strict loading, loud failures."""

import builtins
import errno
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationcast.errors import ConfigurationError, IngestionError
from stationcast.serialize import (
    atomic_open,
    csv_text,
    load_arrays,
    parse_key_values,
    save_arrays,
    write_text,
)

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
        (_extents(3, *[1] * 64), "65 axes"),
    ],
    ids=[
        "meta-not-utf8", "name-not-utf8", "trailing-bytes", "truncated",
        "extents-overflow-int64", "zero-size-huge-last", "zero-size-huge-first",
        "too-many-axes",
    ],
)
def test_corrupt_containers_raise_ingestion_errors(tmp_path, corrupt, message):
    path = tmp_path / "c.wxtn"
    save_arrays(path, {"weights": np.ones(3)}, "key = value\n")
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IngestionError, match=message):
        load_arrays(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_extents(2**14, 2**14), "truncated payload"),
        (
            lambda blob: blob[:8] + struct.pack("<Q", 2**40) + blob[16:],
            "truncated container",
        ),
    ],
    ids=["payload-2GiB", "metadata-1TiB"],
)
def test_huge_claims_raise_before_anything_is_allocated(tmp_path, corrupt, message):
    path = tmp_path / "c.wxtn"
    save_arrays(path, {"weights": np.ones(3)}, "key = value\n")
    path.write_bytes(corrupt(path.read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(IngestionError, match=message):
            load_arrays(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A valid container with 0-d, empty and multi-axis entries; and a path
    the mutated copies are written to."""
    path = tmp_path_factory.mktemp("fuzz") / "c.wxtn"
    arrays = {
        "w": np.arange(24.0).reshape(2, 3, 4),
        "s": np.array(2.5),
        "e": np.zeros((0, 3)),
        "v": np.linspace(-1.0, 1.0, 5),
    }
    save_arrays(path, arrays, "key = value\nother = 1\n")
    return path.read_bytes(), path


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_containers_load_or_raise_ingestion_errors(container, data):
    valid, path = container
    blob = bytearray(valid)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        kind = data.draw(st.sampled_from(["truncate", "flip-bit", "set-byte"]))
        if not blob:
            break
        at = data.draw(st.integers(0, len(blob) - 1), label=kind)
        if kind == "truncate":
            del blob[at:]
        elif kind == "flip-bit":
            blob[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        else:
            blob[at] = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(bytes(blob))
    try:
        arrays, meta = load_arrays(path)
    except IngestionError:
        return
    assert isinstance(meta, str)
    assert all(a.dtype == np.float64 for a in arrays.values())


class _DiskFull:
    """A file that takes ``room`` bytes or characters, then fails as a full
    disk does."""

    room = 100

    def __init__(self, *args, **kwargs):
        self.file = _real_open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        if not isinstance(data, str):
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


def test_failed_text_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "map.csv"
    write_text(path, "old,1\n")
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", _DiskFull)
        patch.setattr(io, "open", _DiskFull)
        with pytest.raises(OSError, match="No space left"):
            write_text(path, "new," + "9" * 500 + "\n")
    # A body that fails after writing part of the file behaves the same.
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_open(path) as out:
            out.write("new,2\n")
            raise RuntimeError("midway")
    assert path.read_text() == "old,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["map.csv"]


def test_atomic_writes_replace_whole_files(tmp_path):
    path = tmp_path / "t.txt"
    write_text(path, "a longer first version\n")
    write_text(path, "Zürich\n")
    assert path.read_bytes() == "Zürich\n".encode("utf-8")
    with atomic_open(path, "wb") as out:
        out.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]


def test_csv_text_writes_floats_as_their_repr():
    value = np.float64(0.1) + np.float64(0.2)
    text = csv_text(("", "x", "y"), [("a", value, 7), ("b", "word", 2.5)])
    assert text == ",x,y\na,0.30000000000000004,7\nb,word,2.5\n"
    assert float(text.splitlines()[1].split(",")[1]).hex() == value.hex()


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

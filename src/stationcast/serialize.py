"""Binary container for named float64 arrays plus a plain-text metadata block.

Layout (all integers little-endian):

    bytes 0..3   magic ``b"WXTN"``
    bytes 4..7   format version, u32 (currently 1)
    u64          metadata length, followed by that many UTF-8 bytes
    u64          entry count
    per entry:   u32 name length + UTF-8 name
                 u32 ndim, then ndim x u64 extents
                 row-major float64 little-endian payload

Entries round-trip bitwise; the metadata block holds ``key = value`` lines
(see :func:`parse_key_values`).  Nothing may follow the last entry.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, IngestionError

MAGIC = b"WXTN"
VERSION = 1


def save_arrays(path, arrays: Mapping[str, np.ndarray], meta: str = "") -> None:
    """Write ``arrays`` (in mapping order) and ``meta`` to ``path``.

    The container is streamed into a temporary file beside ``path`` and then
    renamed over it, so a failed write leaves any earlier file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    meta_bytes = meta.encode("utf-8")
    try:
        with open(tmp, "wb") as out:
            out.write(MAGIC + struct.pack("<I", VERSION))
            out.write(struct.pack("<Q", len(meta_bytes)) + meta_bytes)
            out.write(struct.pack("<Q", len(arrays)))
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr, dtype="<f8")
                name_bytes = name.encode("utf-8")
                out.write(struct.pack("<I", len(name_bytes)) + name_bytes)
                out.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
                out.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_arrays(path) -> tuple[dict[str, np.ndarray], str]:
    """Read a container written by :func:`save_arrays`."""
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    offset = 0

    def unpack(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise IngestionError(f"{path}: truncated container")
        values = struct.unpack_from(fmt, view, offset)
        offset += size
        return values

    def text(length, what):
        nonlocal offset
        raw = bytes(view[offset : offset + length])
        offset += length
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise IngestionError(f"{path}: {what} is not valid UTF-8") from None

    if bytes(view[:4]) != MAGIC:
        raise IngestionError(f"{path}: not a parameter container (bad magic)")
    offset = 4
    (version,) = unpack("<I")
    if version != VERSION:
        raise IngestionError(f"{path}: unsupported container version {version}")
    (meta_len,) = unpack("<Q")
    meta = text(meta_len, "metadata")
    (count,) = unpack("<Q")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<I")
        name = text(name_len, f"entry name #{len(arrays)}")
        (ndim,) = unpack("<I")
        shape = unpack(f"<{ndim}Q") if ndim else ()
        # Extents are Python integers here, so no product can overflow.
        n_values = math.prod(shape)
        if 8 * n_values > len(blob) - offset:
            raise IngestionError(f"{path}: truncated payload for entry {name!r}")
        if 8 * math.prod(e or 1 for e in shape) > np.iinfo(np.intp).max:
            raise IngestionError(
                f"{path}: entry {name!r} has extents {shape} beyond any array"
            )
        payload = view[offset : offset + 8 * n_values]
        offset += 8 * n_values
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
        )
    if offset != len(blob):
        raise IngestionError(
            f"{path}: {len(blob) - offset} trailing bytes after the last entry"
        )
    return arrays, meta


def parse_key_values(text: str, source: str) -> dict[str, str]:
    """Parse ``key = value`` lines, skipping blank lines and ``#`` comments.

    Lines without ``=`` and repeated keys raise ConfigurationError naming
    ``source`` and the line number.  Values come back as stripped strings.
    """
    pairs: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigurationError(
                f"{source}:{number}: expected 'key = value', got {line!r}"
            )
        if key in pairs:
            raise ConfigurationError(f"{source}:{number}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs

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
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigurationError, IngestionError

MAGIC = b"WXTN"
VERSION = 1
# numpy's limit on the number of axes of an array.
MAX_NDIM = 64


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator:
    """Open a temporary file beside ``path``; rename it over ``path`` on exit.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``.  If the body or the write
    fails, the temporary file is removed and any earlier file at ``path`` is
    left intact.  There is no ``fsync``: this guards against failed and
    interrupted writes, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` through :func:`atomic_open`."""
    with atomic_open(path) as out:
        out.write(text)


def csv_text(header, rows) -> str:
    """CSV text of ``header`` and ``rows``, one line each.

    A float cell, numpy's included, is written as ``repr(float(v))``, which
    ``float()`` reads back bitwise; any other cell with ``str``.
    """
    return "".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in line)
        + "\n"
        for line in (header, *rows)
    )


def save_arrays(path, arrays: Mapping[str, np.ndarray], meta: str = "") -> None:
    """Write ``arrays`` (in mapping order) and ``meta`` to ``path``.

    The container is streamed through :func:`atomic_open`, so a failed write
    leaves any earlier file intact.
    """
    meta_bytes = meta.encode("utf-8")
    with atomic_open(path, "wb") as out:
        out.write(MAGIC + struct.pack("<I", VERSION))
        out.write(struct.pack("<Q", len(meta_bytes)) + meta_bytes)
        out.write(struct.pack("<Q", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            name_bytes = name.encode("utf-8")
            out.write(struct.pack("<I", len(name_bytes)) + name_bytes)
            out.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            out.write(arr.data)


def load_arrays(path) -> tuple[dict[str, np.ndarray], str]:
    """Read a container written by :func:`save_arrays`.

    Each payload is read straight into its own array, once its extents are
    known to fit in what is left of the file.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def read(size):
            nonlocal left
            if size > left:
                raise IngestionError(f"{path}: truncated container")
            left -= size
            return f.read(size)

        def unpack(fmt):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        def text(length, what):
            try:
                return read(length).decode("utf-8")
            except UnicodeDecodeError:
                raise IngestionError(f"{path}: {what} is not valid UTF-8") from None

        if f.read(4) != MAGIC:
            raise IngestionError(f"{path}: not a parameter container (bad magic)")
        left -= 4
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
            if ndim > MAX_NDIM:
                raise IngestionError(
                    f"{path}: entry {name!r} has {ndim} axes, more than {MAX_NDIM}"
                )
            shape = unpack(f"<{ndim}Q") if ndim else ()
            # Extents are Python integers here, so no product can overflow.
            size = 8 * math.prod(shape)
            if size > left:
                raise IngestionError(f"{path}: truncated payload for entry {name!r}")
            if 8 * math.prod(e or 1 for e in shape) > np.iinfo(np.intp).max:
                raise IngestionError(
                    f"{path}: entry {name!r} has extents {shape} beyond any array"
                )
            arr = np.empty(shape, dtype="<f8")
            if f.readinto(arr) != size:
                raise IngestionError(f"{path}: truncated payload for entry {name!r}")
            left -= size
            arrays[name] = arr.astype(np.float64, copy=False)
    if left:
        raise IngestionError(f"{path}: {left} trailing bytes after the last entry")
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

"""Self-describing checkpoint container with bit-exact round-trips.

Layout: one JSON header line (format tag, metadata, array directory with
shapes/dtypes/offsets, SHA-256 digest of the body) followed by the
concatenated row-major buffers, each in its own dtype: float32 or float64.
An array of any other dtype raises ValueError naming it, on save as on load.
No timestamps or other run-varying bytes, so identical runs produce
identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

FORMAT_TAG = "streamform-checkpoint"
VERSION = 2
ENTRY_KEYS = ("name", "shape", "dtype", "offset", "nbytes")
DTYPES = ("float32", "float64")


def _is_count(value) -> bool:
    """A non-negative int, as JSON gives one; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    path = Path(path)
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if arr.dtype.name not in DTYPES:
            raise ValueError(
                f"{path}: array {name!r} has dtype {arr.dtype.name!r}, not one of {DTYPES}"
            )
        arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.name,
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    body = b"".join(blobs)
    header = {
        "format": FORMAT_TAG,
        "version": VERSION,
        "meta": meta,
        "arrays": entries,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays by name and the metadata; raises ValueError naming the file
    (and the array or its entry index, where one is at fault) for anything
    this version did not write: ``arrays`` must be a list of objects with
    distinct string names, and ``meta`` an object."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path} has no complete header line (truncated?)")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path} has a header line that is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
        raise ValueError(f"{path} is not a {FORMAT_TAG} file")
    if header.get("version") != VERSION:
        raise ValueError(
            f"{path} has checkpoint version {header.get('version')!r}; expected {VERSION}"
        )
    lacking = [key for key in ("arrays", "meta", "sha256") if key not in header]
    if lacking:
        raise ValueError(f"{path}: header lacks {', '.join(lacking)}")
    for key, kind, what in (("arrays", list, "a list"), ("meta", dict, "an object")):
        if not isinstance(header[key], kind):
            raise ValueError(f"{path}: header {key} is {header[key]!r}, not {what}")
    body = raw[newline + 1 :]
    arrays: dict[str, np.ndarray] = {}
    for k, entry in enumerate(header["arrays"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: array entry {k} is {entry!r}, not an object")
        lacking = [key for key in ENTRY_KEYS if key not in entry]
        if lacking:
            named = f" ({entry['name']!r})" if "name" in entry else ""
            raise ValueError(f"{path}: array entry {k}{named} lacks {', '.join(lacking)}")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise ValueError(f"{path}: array entry {k} has name {name!r}, not a string")
        if name in arrays:
            raise ValueError(f"{path}: array entry {k} repeats the name {name!r}")
        start, n, dtype = entry["offset"], entry["nbytes"], entry["dtype"]
        if dtype not in DTYPES:
            raise ValueError(f"{path}: array {name!r} has dtype {dtype!r}, not one of {DTYPES}")
        if not (isinstance(shape, list) and all(map(_is_count, shape))):
            raise ValueError(
                f"{path}: array {name!r} has shape {shape!r}, not a list of non-negative ints"
            )
        for key in ("offset", "nbytes"):
            if not _is_count(entry[key]):
                raise ValueError(
                    f"{path}: array {name!r} has {key} {entry[key]!r}, not a non-negative int"
                )
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if n != size:
            raise ValueError(
                f"{path}: array {name!r} declares {n} bytes of {dtype}"
                f" for shape {shape}; expected {size} bytes"
            )
        if start + n > len(body):
            raise ValueError(
                f"{path}: array {name!r} needs bytes {start}..{start + n}"
                f" but the body holds {len(body)} (truncated?)"
            )
        arr = np.frombuffer(body[start : start + n], dtype=dtype).copy()
        arrays[name] = arr.reshape(shape)
    if hashlib.sha256(body).hexdigest() != header["sha256"]:
        raise ValueError(f"{path}: body does not match the header's sha256 digest (corrupt?)")
    return arrays, header["meta"]

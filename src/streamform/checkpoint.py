"""Checkpoints in numpy's ``.npz`` container, with bit-exact round-trips.

Layout: a stored (uncompressed) zip of ``<name>.npy`` members written by
``np.lib.format.write_array``: the arrays in sorted name order, each
float32 or float64 (another dtype raises ValueError naming the array, on
save as on load), then ``meta.npy``, the metadata as sorted-key JSON in a
0-d str array. The metadata comes last, so that a zip directory read short
(one flipped length byte can end it) loses it and fails to load. Every
member is dated 1980-01-01 00:00, so identical runs give identical files.

Each member's CRC-32 is checked on load. Like the earlier format's SHA-256,
it catches accidental corruption (a flipped bit, a cut file); neither
authenticates a file, as whoever rewrites the data can rewrite its check.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from zipfile import BadZipFile, ZipFile, ZipInfo

import numpy as np

META = "meta"
DTYPES = ("float32", "float64")
EPOCH = (1980, 1, 1, 0, 0, 0)
# a damaged file: a check's or numpy's ValueError (TypeError: a bool in a shape), what
# zipfile raises for a method, version or flag it cannot read, and a negative seek's OSError
_DAMAGED = (BadZipFile, ValueError, TypeError, EOFError, NotImplementedError, RuntimeError, OSError)


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write the zip to ``<path>.tmp`` and rename, so a failed save leaves
    the previous file as it was and no temporary file."""
    path = Path(path)
    members = {}
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if name == META:
            raise ValueError(f"{path}: array name {META!r} is the metadata's member")
        if arr.dtype.name not in DTYPES:
            raise ValueError(
                f"{path}: array {name!r} has dtype {arr.dtype.name!r}, not one of {DTYPES}"
            )
        members[name] = arr
    members[META] = np.array(json.dumps(meta, sort_keys=True))
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with ZipFile(tmp, "w") as zf:
            for name, arr in members.items():
                with zf.open(ZipInfo(f"{name}.npy", EPOCH), "w") as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays by name and the metadata. Anything but a checkpoint as
    ``save_checkpoint`` writes it raises ValueError naming the file, and the
    member where one is at fault; object arrays are refused unread. A
    missing file raises FileNotFoundError."""
    arrays: dict[str, np.ndarray] = {}
    member = None
    file = open(path, "rb")  # a missing file raises here
    try:
        with file, ZipFile(file) as zf:
            for info in zf.infolist():
                member = info.filename
                name = member.removesuffix(".npy")
                if name in arrays:
                    raise ValueError("repeats the name of an earlier member")
                data = io.BytesIO(zf.read(info))  # checks the CRC-32
                arr = np.lib.format.read_array(data, allow_pickle=False)
                if name != META and arr.dtype.name not in DTYPES:
                    raise ValueError(f"has dtype {arr.dtype.name!r}, not one of {DTYPES}")
                arrays[name] = arr
        member = f"{META}.npy"
        if META not in arrays:
            raise ValueError("is missing")
        meta = json.loads(str(arrays.pop(META)[()]))
        if not isinstance(meta, dict):
            raise ValueError(f"holds {meta!r}, not a JSON object")
    except _DAMAGED as err:
        where = f" member {member!r}" if member else ""
        raise ValueError(f"{path}{where}: {err}") from None
    return arrays, meta

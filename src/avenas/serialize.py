"""Tiny deterministic binary container: a JSON header (metadata + field table)
followed by raw little-endian float64 buffers, in header order. Used for frame
sequences and trained weights so repeated runs produce byte-identical files.

Every artifact is written through ``atomic_write`` (JSON documents by
``write_json``, line logs by ``write_jsonl``, tables by ``write_csv``), so an
interrupted run leaves either the previous file or the complete new one, never
a truncated file that a later command would load.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"AVNS1\x00"


class InputError(ValueError):
    """A config or input file that the run cannot use; raised before any
    compute, so the command line maps it to exit 2 and any other failure
    to exit 3."""


@contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Write to a sibling temporary file and ``os.replace`` it onto ``path``
    once the block finishes; on any exception the temporary file is removed
    and ``path`` is left as it was. Creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_jsonl(path, rows) -> None:
    """One JSON object per line, keys sorted."""
    with atomic_write(path) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """A header row, then ``rows``, through the ``csv`` module's writer."""
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    fields = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        fields.append({"name": name, "shape": list(arr.shape)})
        buffers.append(arr.tobytes())
    header = json.dumps({"meta": meta or {}, "fields": fields},
                        sort_keys=True).encode()
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for buf in buffers:
            f.write(buf)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; a malformed file, or a field holding a non-finite
    value, raises ``InputError`` naming it."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n, what):
            # checked before reading: a declared field size may exceed memory
            left = size - f.tell()
            if n > left:
                raise InputError(f"{path}: truncated {what} ({left} of {n} bytes)")
            return f.read(n)

        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise InputError(f"{path}: not a container file (bad magic {magic!r})")
        (hlen,) = struct.unpack("<I", read(4, "header length"))
        raw = read(hlen, "header")
        try:
            header = json.loads(raw)
            meta = header["meta"]
            fields = [(fd["name"], tuple(fd["shape"])) for fd in header["fields"]]
            for name, shape in fields:
                if type(name) is not str or any(type(d) is not int for d in shape):
                    raise TypeError(f"field {name!r} of shape {list(shape)}: a name "
                                    "must be a string, a shape a list of integers")
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{path}: malformed header ({e!r})") from None
        arrays = {}
        for name, shape in fields:
            if any(d < 0 for d in shape):
                raise InputError(f"{path}: field {name!r} has negative shape {shape}")
            buf = read(8 * math.prod(shape), f"field {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise InputError(f"{path}: field {name!r} holds non-finite values")
        if f.read(1):
            raise InputError(f"{path}: trailing bytes after the last field")
    return arrays, meta

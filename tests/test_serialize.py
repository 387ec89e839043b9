import json
import math
import struct

import numpy as np
import pytest

from avenas.serialize import MAGIC, InputError, load_arrays, save_arrays, write_json


def _saved(tmp_path):
    path = tmp_path / "c.bin"
    save_arrays(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                meta={"k": 1})
    return path


@pytest.mark.parametrize("cut", [len(MAGIC) + 2, len(MAGIC) + 4 + 5, -3],
                         ids=["length-prefix", "header", "last-field"])
def test_truncated_file_rejected(tmp_path, cut):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated") as e:
        load_arrays(path)
    assert str(path) in str(e.value)


def test_trailing_bytes_rejected(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing") as e:
        load_arrays(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("header", [b"{not json", b'{"fields": []}',
                                    b'{"meta": {}, "fields": [{"name": "a", "shape": [-1]}]}'],
                         ids=["invalid-json", "missing-meta", "negative-shape"])
def test_malformed_header_rejected(tmp_path, header):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(ValueError) as e:
        load_arrays(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("name,shape,payload", [
    ("a", [2.7], 16), ("a", ["2"], 16), ("a", [True], 8), (2, [2], 16)],
    ids=["float", "string", "bool", "name-not-string"])
def test_mistyped_field_entry_rejected(tmp_path, name, shape, payload):
    # the payload holds exactly the bytes that the coerced shape would read,
    # so only the type check can catch it
    path = tmp_path / "c.bin"
    header = json.dumps({"meta": {}, "fields": [{"name": name, "shape": shape}]}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(payload))
    with pytest.raises(InputError, match="malformed header") as e:
        load_arrays(path)
    assert str(path) in str(e.value) and f"field {name!r}" in str(e.value)


def test_json_writer_failing_mid_dump_keeps_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_json(path, {"a": 1})
    before = path.read_bytes()
    # json.dump streams its output, so "a" is written before "z" fails
    with pytest.raises(TypeError):
        write_json(path, {"a": 2, "z": object()})
    assert path.read_bytes() == before
    assert json.loads(before) == {"a": 1}
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("shape", [[10**15], [2**32, 2**32]], ids=["1e15", "2^32x2^32"])
def test_oversized_field_rejected_before_reading(tmp_path, shape):
    # the byte count is checked against the file before any read, so a
    # declared size that would not fit in memory (or in an int64) is a
    # truncated field
    path = tmp_path / "c.bin"
    header = json.dumps({"meta": {}, "fields": [{"name": "a", "shape": shape}]}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(16))
    with pytest.raises(InputError, match="truncated field 'a'") as e:
        load_arrays(path)
    assert str(path) in str(e.value)
    assert f"(16 of {8 * math.prod(shape)} bytes)" in str(e.value)

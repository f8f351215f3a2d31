"""Container format: fixed encoding, round trips, malformed files."""

import json
import struct

import numpy as np
import pytest

from avlab.container import MAGIC, read_container, write_container
from avlab.errors import ContainerFormatError
from avlab.rng import substream


def test_header_only_round_trip(tmp_path):
    path = tmp_path / "empty.avtc"
    write_container(path, {}, {"k": "v"})
    tensors, meta = read_container(path)
    assert tensors == {}
    assert meta == {"k": "v"}


def test_fixed_encoding(tmp_path):
    path = tmp_path / "one.avtc"
    write_container(path, {"m": np.array([[1, 2], [3, 4]], np.float32)}, {})
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    header_len = int.from_bytes(raw[8:16], "little")
    payload = raw[16 + header_len :]
    assert payload == struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    tensors, _ = read_container(path)
    assert (tensors["m"] == np.array([[1, 2], [3, 4]], np.float32)).all()


def test_fuzz_round_trip(tmp_path):
    rng = substream(13, "container-fuzz")
    total = 0
    file_idx = 0
    while total < 1000:
        n_tensors = int(rng.integers(1, 8))
        tensors = {}
        for k in range(n_tensors):
            ndim = int(rng.integers(0, 4))
            shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
            arr = rng.standard_normal(shape).astype(np.float32) * 10 ** int(rng.integers(-3, 4))
            tensors[f"t{k}"] = arr
        meta = {f"key{k}": f"value-{rng.integers(0, 99)}" for k in range(int(rng.integers(0, 3)))}
        path = tmp_path / f"fuzz{file_idx}.avtc"
        write_container(path, tensors, meta)
        back, meta_back = read_container(path)
        assert meta_back == meta
        assert set(back) == set(tensors)
        for name, arr in tensors.items():
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()  # bit-exact
        total += n_tensors
        file_idx += 1


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.avtc"
    path.write_bytes(b"NOTAVTC0" + b"\x00" * 32)
    with pytest.raises(ContainerFormatError) as err:
        read_container(path)
    assert err.value.offset == 0


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.avtc"
    write_container(path, {"t": np.ones((4, 4), np.float32)}, {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ContainerFormatError) as err:
        read_container(path)
    assert "truncated payload" in str(err.value)
    assert err.value.offset > 0


def test_trailing_bytes(tmp_path):
    path = tmp_path / "trail.avtc"
    write_container(path, {"t": np.ones(3, np.float32)}, {})
    path.write_bytes(path.read_bytes() + b"\xff\xff")
    with pytest.raises(ContainerFormatError) as err:
        read_container(path)
    assert "trailing" in str(err.value)


def test_unparseable_header(tmp_path):
    path = tmp_path / "garbled.avtc"
    header = b"not json at all!"
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
    with pytest.raises(ContainerFormatError):
        read_container(path)


def test_writer_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_container(tmp_path / "x.avtc", {"t": np.ones(3, np.float64)}, {})
    with pytest.raises(ValueError):
        write_container(tmp_path / "x.avtc", {"t": np.ones((2, 0), np.float32)}, {})
    with pytest.raises(ValueError):
        write_container(tmp_path / "x.avtc", {"t": np.ones(3, np.float32)}, {"k": 5})


def test_nonfinite_payload_round_trips(tmp_path):
    arr = np.array([np.nan, np.inf, -np.inf, 0.0], np.float32)
    path = tmp_path / "nf.avtc"
    write_container(path, {"t": arr}, {})
    back, _ = read_container(path)
    assert back["t"].tobytes() == arr.tobytes()


GOOD_ENTRY = {"name": "t", "dtype": "f32", "shape": [1]}


@pytest.mark.parametrize(
    "header",
    [
        {"tensors": "zz", "meta": {}},
        {"tensors": [["t", "f32", [1]]], "meta": {}},
        {"tensors": [{"name": "t", "shape": [1]}], "meta": {}},
        {"tensors": [{"dtype": "f32", "shape": [1]}], "meta": {}},
        {"tensors": [{"name": "t", "dtype": "f32"}], "meta": {}},
        {"tensors": [dict(GOOD_ENTRY, name=3)], "meta": {}},
        {"tensors": [dict(GOOD_ENTRY, shape="1")], "meta": {}},
        {"tensors": [dict(GOOD_ENTRY, shape=[-1])], "meta": {}},
        {"tensors": [dict(GOOD_ENTRY, shape=[1.0])], "meta": {}},
        {"tensors": [dict(GOOD_ENTRY, shape=[True])], "meta": {}},
        {"tensors": [GOOD_ENTRY], "meta": ["a"]},
        {"tensors": [GOOD_ENTRY], "meta": {"label": 1}},
    ],
    ids=[
        "tensors_not_list", "entry_not_object", "no_dtype", "no_name", "no_shape", "name_not_str",
        "shape_not_list", "negative_dim", "float_dim", "bool_dim", "meta_list", "meta_value_not_str",
    ],
)
def test_malformed_header_schema(tmp_path, header):
    path = tmp_path / "schema.avtc"
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + struct.pack("<f", 1.0))
    with pytest.raises(ContainerFormatError) as err:
        read_container(path)
    assert err.value.offset == len(MAGIC) + 8


@pytest.mark.parametrize(
    "shape",
    [[1] * 65, [2**62, 0]],
    ids=["more_dims_than_numpy_allows", "empty_shape_too_big_to_index"],
)
def test_shape_numpy_cannot_build(tmp_path, shape):
    # Each shape passes the header schema and the payload size check
    # (4 bytes, and 0 bytes), but numpy cannot reshape a buffer to it.
    path = tmp_path / "shape.avtc"
    blob = json.dumps({"tensors": [dict(GOOD_ENTRY, shape=shape)], "meta": {}}).encode()
    payload = struct.pack("<f", 1.0) if 0 not in shape else b""
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)
    with pytest.raises(ContainerFormatError, match="numpy cannot build") as err:
        read_container(path)
    assert err.value.offset == len(MAGIC) + 8 + len(blob)

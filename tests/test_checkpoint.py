import json
import struct

import numpy as np
import pytest

from sidnn.checkpoint import load_checkpoint, save_checkpoint
from sidnn.data import Standardizer
from sidnn.errors import CorruptionError, DataError, FormatError, SidnnError
from sidnn.models import ModelSpec, init_params


def _fixture(tmp_path, seed=0):
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=4, depth=3)
    params = init_params(spec, seed)
    std = Standardizer(
        u_mean=np.array([0.1, -0.2]), u_std=np.array([1.5, 0.7]),
        y_mean=np.array([3.0]), y_std=np.array([0.25]),
    )
    path = tmp_path / "model.bin"
    save_checkpoint(path, spec, std, params)
    return path, spec, std, params


def test_round_trip_is_bitwise_identical(tmp_path):
    path, spec, std, params = _fixture(tmp_path)
    ckpt = load_checkpoint(path)
    assert ckpt.spec == spec
    np.testing.assert_array_equal(ckpt.standardizer.u_mean, std.u_mean)
    np.testing.assert_array_equal(ckpt.standardizer.y_std, std.y_std)
    assert ckpt.params.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(ckpt.params[name], params[name])
        assert ckpt.params[name].dtype == np.float64


def test_magic_bytes(tmp_path):
    path, *_ = _fixture(tmp_path)
    assert path.read_bytes()[:6] == b"SIDNN\x01"


def test_bad_magic_rejected(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:5] = b"BOGUS"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[5] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncation_mid_tensor_reports_offset(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(path)
    assert "byte" in str(exc.value)


def test_truncation_in_header_detected(tmp_path):
    path, *_ = _fixture(tmp_path)
    path.write_bytes(path.read_bytes()[:8])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_nan_tensor_rejected(tmp_path):
    path, spec, std, params = _fixture(tmp_path)
    params["head.b"] = np.array([np.nan])
    save_checkpoint(path, spec, std, params)
    with pytest.raises(DataError) as exc:
        load_checkpoint(path)
    assert "head.b" in str(exc.value)


def test_corrupt_header_json_is_corruption_error(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[10] = 0xFF  # first header byte (after magic, version, length)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_truncated_or_bit_flipped_checkpoint_raises_only_sidnn_errors(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = path.read_bytes()
    rng = np.random.default_rng(0)
    corrupt = [blob[:n] for n in range(len(blob))]
    for _ in range(3000):
        flipped = bytearray(blob)
        flipped[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
        corrupt.append(bytes(flipped))
    target = tmp_path / "corrupt.bin"
    for bad in corrupt:
        target.write_bytes(bad)
        try:
            load_checkpoint(target)
        except SidnnError:
            pass  # a flipped float bit may also load cleanly


def _tensor_record(name: bytes, shape, data=b""):
    dims = b"".join(struct.pack("<Q", d) for d in shape)
    return struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape)) + dims + data


def test_bytes_after_last_tensor_are_corruption_error(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0")
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(path)
    assert f"byte {len(blob)}" in str(exc.value)


def test_tensor_recorded_twice_is_corruption_error(tmp_path):
    path, *_ = _fixture(tmp_path)
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    (count,) = struct.unpack("<I", blob[10 + n : 14 + n])
    again = _tensor_record(b"head.b", (1,), struct.pack("<d", 7.0))
    path.write_bytes(blob[: 10 + n] + struct.pack("<I", count + 1) + blob[14 + n :] + again)
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(path)
    assert "'head.b' recorded twice" in str(exc.value)


@pytest.mark.parametrize("record", [
    _tensor_record(b"head.\xff", (1,), b"\0" * 8),
    _tensor_record(b"head.b", (1,) * 65, b"\0" * 8),
    _tensor_record(b"head.b", (0, 2 ** 64 - 1)),
], ids=["non_utf8_name", "ndim_65", "huge_dim"])
def test_malformed_tensor_record_is_corruption_error(tmp_path, record):
    path, *_ = _fixture(tmp_path)
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    path.write_bytes(blob[: 10 + n] + struct.pack("<I", 1) + record)
    with pytest.raises(CorruptionError) as exc:
        load_checkpoint(path)
    assert "tensor record" in str(exc.value)


def _edit_header(path, edit):
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10 : 10 + n])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:6] + struct.pack("<I", len(new)) + new + blob[10 + n :])


@pytest.mark.parametrize("edit", [
    lambda h: h["spec"].update(extra=1),
    lambda h: h["spec"].pop("depth"),
    lambda h: h["spec"].update(hidden="4"),
    lambda h: h.pop("standardizer"),
    lambda h: h["standardizer"].update(u_mean=[0.1, -0.2, 0.3]),
    lambda h: h["standardizer"].update(y_std=[0.25, 0.25]),
    lambda h: h["standardizer"].update(u_std=[1.5, 0.0]),
    lambda h: h["standardizer"].update(y_std=[-0.25]),
], ids=["unknown_spec_key", "missing_spec_key", "string_hidden", "missing_standardizer",
        "u_length", "y_length", "zero_std", "negative_std"])
def test_malformed_header_is_corruption_error(tmp_path, edit):
    path, *_ = _fixture(tmp_path)
    _edit_header(path, edit)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    path, spec, std, params = _fixture(tmp_path)
    before = path.read_bytes()
    params["head.b"] = np.array(["not a number"])  # raises after the header is out
    with pytest.raises(ValueError):
        save_checkpoint(path, spec, std, params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

import json
from dataclasses import asdict

import numpy as np
import pytest

from convd.checkpoint import load_checkpoint, save_checkpoint
from convd.errors import CheckpointError

from conftest import tiny_config, tiny_params


def roundtrip(tmp_path, cfg, params):
    # The header must describe the arrays, so it stores their own config.
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), asdict(cfg), params)
    return path, load_checkpoint(str(path))


def test_round_trip_bit_exact(tmp_path):
    cfg = tiny_config()
    params = tiny_params(cfg)
    _, (loaded_cfg, loaded) = roundtrip(tmp_path, cfg, params)
    for name, arr in params.named_arrays().items():
        assert np.array_equal(arr, loaded.named_arrays()[name]), name
    for name, arr in params.running_arrays().items():
        assert np.array_equal(arr, loaded.running_arrays()[name]), name
    assert loaded_cfg == asdict(cfg)


def test_save_load_save_identical_bytes(tmp_path):
    cfg = tiny_config()
    params = tiny_params(cfg)
    path, (_, loaded) = roundtrip(tmp_path, cfg, params)
    second = tmp_path / "again.ckpt"
    save_checkpoint(str(second), asdict(cfg), loaded)
    assert path.read_bytes() == second.read_bytes()


def test_header_is_single_json_line(tmp_path):
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    header = path.read_bytes().split(b"\n", 1)[0]
    parsed = json.loads(header)
    assert parsed["format_version"] == 1
    assert "manifest" in parsed


def test_version_mismatch(tmp_path):
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    raw = path.read_bytes()
    header, body = raw.split(b"\n", 1)
    doc = json.loads(header)
    doc["format_version"] = 999
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(doc).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(str(bad))


def test_truncated_file(tmp_path):
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    raw = path.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError, match="truncated|trailing"):
        load_checkpoint(str(trunc))


def test_garbage_header(tmp_path):
    bad = tmp_path / "garbage.ckpt"
    bad.write_bytes(b"\x00\x01not json\n\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))

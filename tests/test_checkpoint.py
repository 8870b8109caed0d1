import hashlib
import json
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from convd.checkpoint import load_checkpoint, save_checkpoint
from convd.errors import CheckpointError
from convd.model import init_params, param_layout
from convd.rng import RngStream

from conftest import tiny_config, tiny_params

# sha256 of the format_version 1 file that save_checkpoint writes for
# tiny_params(tiny_config()); a reordered or re-encoded layout changes it.
TINY_V1_SHA256 = "6cecc0b16b7d396455bb852441721de7fd0967a84c7c023352b6b478e812254c"


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


def test_format_v1_bytes_are_pinned(tmp_path):
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_V1_SHA256


def test_saved_bytes_are_the_joined_header_and_arrays(tmp_path):
    # The header line, then each array's little-endian bytes in layout
    # order: the file that one b"".join of them would give.
    cfg = tiny_config()
    params = tiny_params(cfg)
    path, _ = roundtrip(tmp_path, cfg, params)
    arrays = vars(params)
    layout = param_layout(cfg, params.ent.shape[0], params.rel.shape[0])
    manifest, offset = {}, 0
    for name, shape in layout.items():
        manifest[name] = ([1, shape[0]] if len(shape) == 1 else list(shape)) + [offset]
        offset += arrays[name].nbytes
    header = json.dumps({"format_version": 1, "config": asdict(cfg), "manifest": manifest},
                        sort_keys=True, separators=(",", ":")).encode()
    want = b"".join([header, b"\n", *(arrays[name].astype("<f8").tobytes() for name in layout)])
    assert path.read_bytes() == want


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_hold_one_copy_of_the_parameters(tmp_path):
    # Neither joins nor copies the arrays: each peak stays below 1.5 times
    # the parameter bytes, where a copy would take it to 2.
    cfg = tiny_config(d_w=10, d_h=20)
    params = init_params(cfg, 4000, 6, RngStream(3, "init"))
    nbytes = sum(arr.nbytes for arr in vars(params).values())
    path = str(tmp_path / "big.ckpt")
    assert traced_peak(lambda: save_checkpoint(path, asdict(cfg), params)) < 1.5 * nbytes
    assert traced_peak(lambda: load_checkpoint(path)) < 1.5 * nbytes


def test_loaded_arrays_are_writable_and_contiguous(tmp_path):
    cfg = tiny_config()
    params = tiny_params(cfg)
    _, (_, loaded) = roundtrip(tmp_path, cfg, params)
    for name, arr in vars(loaded).items():
        assert arr.flags.writeable and arr.flags.c_contiguous, name
        assert arr.dtype == np.float64, name
    loaded.ent[0, 0] += 1.0
    assert loaded.ent[0, 0] == params.ent[0, 0] + 1.0
    assert np.array_equal(loaded.rel, params.rel)


def test_loads_from_a_pipe(tmp_path):
    # A pipe has no size to read ahead of: its bytes load all the same.
    cfg = tiny_config()
    params = tiny_params(cfg)
    path, _ = roundtrip(tmp_path, cfg, params)
    raw = path.read_bytes()
    assert len(raw) < 65536  # the pipe holds it whole, with no reader yet
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(raw)
    try:
        _, loaded = load_checkpoint(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert all(arr.tobytes() == vars(loaded)[name].tobytes() for name, arr in vars(params).items())


def test_trailing_bytes_rejected(tmp_path):
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    long = tmp_path / "long.ckpt"
    long.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(str(long))


def test_save_refuses_a_config_that_does_not_match(tmp_path):
    params = tiny_params(tiny_config())
    with pytest.raises(CheckpointError, match="attn_q"):
        save_checkpoint(str(tmp_path / "m.ckpt"), asdict(tiny_config(k=3)), params)
    assert not (tmp_path / "m.ckpt").exists()


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
    with pytest.raises(CheckpointError, match="truncated inside array"):
        load_checkpoint(str(trunc))


def test_garbage_header(tmp_path):
    bad = tmp_path / "garbage.ckpt"
    bad.write_bytes(b"\x00\x01not json\n\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))


def rewritten(tmp_path, edit):
    """The tiny checkpoint with its manifest and body passed through
    edit(manifest, body) -> body, as a new file."""
    cfg = tiny_config()
    path, _ = roundtrip(tmp_path, cfg, tiny_params(cfg))
    header, body = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    body = edit(doc["manifest"], body)
    out = tmp_path / "edited.ckpt"
    out.write_bytes(json.dumps(doc).encode() + b"\n" + body)
    return str(out)


def test_overlapping_arrays_rejected(tmp_path):
    # b_out (d_e floats, like b_fc) points at b_fc's bytes; its own go unread.
    def edit(manifest, body):
        manifest["b_out"][2] = manifest["b_fc"][2]
        return body

    with pytest.raises(CheckpointError, match="'b_out' starts at byte .* overlap or leave a gap"):
        load_checkpoint(rewritten(tmp_path, edit))


def test_gap_between_arrays_rejected(tmp_path):
    # Eight bytes after ent, and every later offset moved past them.
    def edit(manifest, body):
        end = manifest["ent"][0] * manifest["ent"][1] * 8
        for entry in manifest.values():
            entry[2] += 8 if entry[2] >= end else 0
        return body[:end] + bytes(8) + body[end:]

    with pytest.raises(CheckpointError, match="'rel' starts at byte .* overlap or leave a gap"):
        load_checkpoint(rewritten(tmp_path, edit))


def test_arrays_out_of_layout_order_load(tmp_path):
    # b_fc and b_out trade places in the body and the manifest: the arrays
    # still tile it, so the file loads with each array's own bytes.
    def edit(manifest, body):
        lo, hi, size = manifest["b_fc"][2], manifest["b_out"][2], manifest["b_fc"][1] * 8
        manifest["b_fc"][2], manifest["b_out"][2] = hi, lo
        return (body[:lo] + body[hi:hi + size] + body[lo + size:hi] + body[lo:lo + size]
                + body[hi + size:])

    cfg = tiny_config()
    params = tiny_params(cfg)
    _, loaded = load_checkpoint(rewritten(tmp_path, edit))
    for name, arr in {**params.named_arrays(), **params.running_arrays()}.items():
        assert np.array_equal(arr, getattr(loaded, name)), name
    assert list(vars(loaded)) == list(vars(params))

"""Checkpoint file format.

One UTF-8 JSON header line {format_version, config, manifest} terminated by
a single LF, followed by the raw little-endian float64 arrays concatenated
in manifest order. The arrays, their order and their shapes are those of
model.param_layout under the stored config. The manifest maps array name ->
[rows, cols, byte offset into the binary section]; 1-D arrays are stored as
a single row. Taken in offset order, the arrays must tile the binary
section, with no overlap and no gap. Round trips are bit-exact.
"""

import contextlib
import json
import os
from dataclasses import fields

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError
from .model import ModelConfig, ModelParams, param_layout

FORMAT_VERSION = 1


def _stored_shape(shape) -> list:
    """Manifest [rows, cols] of an array shape: a vector is one row."""
    return [1, shape[0]] if len(shape) == 1 else list(shape)


def _check_layout(config: dict, stored: dict) -> dict:
    """The param_layout that `config` implies for the entity and relation
    tables in `stored` (array name -> manifest [rows, cols]). Raises
    CheckpointError unless `stored` holds exactly its arrays and shapes."""
    names = {f.name for f in fields(ModelConfig)}
    try:
        cfg = ModelConfig(**{k: v for k, v in config.items() if k in names})
        cfg.validate()
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    if set(stored) != set(param_layout(cfg, 0, 0)):
        raise CheckpointError("checkpoint manifest does not hold exactly the model's arrays")
    layout = param_layout(cfg, stored["ent"][0], stored["rel"][0])
    for name, shape in layout.items():
        if list(stored[name]) != _stored_shape(shape):
            got, want = ("x".join(map(str, s)) for s in (stored[name], _stored_shape(shape)))
            raise CheckpointError(f"array {name!r} is {got}, but the config implies {want}")
    return layout


def check_params(config: dict, params: ModelParams) -> dict:
    """The param_layout that `config` implies for `params`; raises
    CheckpointError naming the first array whose shape disagrees."""
    arrays = {**params.named_arrays(), **params.running_arrays()}
    return _check_layout(config, {name: _stored_shape(a.shape) for name, a in arrays.items()})


def atomic_write(path, *pieces) -> None:
    """Writes the bytes-like `pieces` to `path`, one after another, through
    `<path>.tmp.<pid>` and one os.replace, so `path` never holds a partial
    file. Each piece is written from its own buffer, never joined into a
    copy. On any failure the temporary file is removed and the error
    re-raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(path, config: dict, params: ModelParams) -> None:
    """Writes `params` with `config` as the stored config, which must imply
    their layout, so that every saved file loads. The header and then each
    array are written from their own buffers, so saving copies no
    parameters."""
    arrays = {**params.named_arrays(), **params.running_arrays()}
    manifest = {}
    offset = 0
    blobs = []
    for name in check_params(config, params):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        manifest[name] = _stored_shape(arr.shape) + [offset]
        blobs.append(arr)
        offset += arr.nbytes
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "config": config, "manifest": manifest},
        sort_keys=True,
        separators=(",", ":"),
    )
    atomic_write(path, header.encode("utf-8") + b"\n", *blobs)


def load_checkpoint(path):
    """Returns (config dict, ModelParams). Raises CheckpointError on version
    mismatch, truncation, a malformed header or manifest entry, arrays that
    overlap or leave a gap in the binary section, array shapes that
    disagree with the stored config, or non-finite values.

    The binary section is read once, into one writable buffer, and every
    array is a C-contiguous, writable view of it: loading holds one copy
    of the parameters."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        # One read into a buffer of the file's size takes the binary
        # section, and the header line's length is cut off its end. A
        # pipe, whose size is 0, is read whole after it.
        body = bytearray(os.fstat(fh.fileno()).st_size)
        del body[fh.readinto(body):]
        body += fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    manifest = header.get("manifest")
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint header lacks a manifest object")
    for name, entry in manifest.items():
        # Three non-negative ints; JSON true is not 1, as in ModelConfig.validate.
        if not (isinstance(entry, list) and len(entry) == 3 and all(
                type(v) is int and v >= 0 for v in entry)):
            raise CheckpointError(
                f"manifest entry {name!r} is not [rows, cols, offset] of non-negative ints: "
                f"{entry!r}"
            )
    config = header.get("config")
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint header lacks a config object")
    layout = _check_layout(config, {name: entry[:2] for name, entry in manifest.items()})
    arrays = {}
    end = 0
    # Taken in offset order, the arrays tile the binary section; the layout
    # order is not required of the offsets.
    for name in sorted(layout, key=lambda name: manifest[name][2]):
        rows, cols, offset = manifest[name]
        if offset != end:
            raise CheckpointError(
                f"array {name!r} starts at byte {offset}, not {end}: "
                f"the manifest's arrays overlap or leave a gap"
            )
        end = offset + rows * cols * 8
        if end > len(body):
            raise CheckpointError(f"checkpoint truncated inside array {name!r}")
        flat = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=offset)
        arrays[name] = flat.reshape(layout[name])
    if end != len(body):
        raise CheckpointError("checkpoint has trailing bytes")
    params = ModelParams({name: arrays[name] for name in layout})
    try:
        params.check_finite()
    except NumericError as exc:
        raise CheckpointError(f"checkpoint holds {exc}") from exc
    return config, params

"""Checkpoint file format.

One UTF-8 JSON header line {format_version, config, manifest} terminated by
a single LF, followed by the raw little-endian float64 arrays concatenated
in manifest order. The manifest maps array name -> [rows, cols, byte offset
into the binary section]; 1-D arrays are stored as a single row. Round
trips are bit-exact.
"""

import json
import os
from dataclasses import fields

import numpy as np

from .attention import AttentionParams
from .errors import CheckpointError, ConfigError, NumericError
from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1

_ARRAY_ORDER = (
    "ent",
    "rel",
    "attn_q",
    "attn_k",
    "attn_v",
    "attn_u",
    "w_fc",
    "b_fc",
    "w_out",
    "b_out",
    "bn_gamma",
    "bn_beta",
    "bn_mean",
    "bn_var",
)

_VECTOR_NAMES = frozenset(
    ("attn_v", "attn_u", "b_fc", "b_out", "bn_gamma", "bn_beta", "bn_mean", "bn_var")
)


def _expected_shapes(config: dict, n_entities: int, n_relations: int) -> dict:
    """Manifest (rows, cols) of every array as the stored config implies
    them; vectors are stored as a single row."""
    names = {f.name for f in fields(ModelConfig)}
    try:
        cfg = ModelConfig(**{k: v for k, v in config.items() if k in names})
        cfg.validate()
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    rr = cfg.r_w * cfg.r_h
    return {
        "ent": (n_entities, cfg.d_e),
        "rel": (n_relations, cfg.d_r),
        "attn_q": (cfg.k, cfg.d_e),
        "attn_k": (cfg.k, rr),
        "attn_v": (1, rr),
        "attn_u": (1, cfg.m),
        "w_fc": (cfg.conv_map, cfg.d_e),
        "b_fc": (1, cfg.d_e),
        "w_out": (cfg.d_e, cfg.d_e),
        "b_out": (1, cfg.d_e),
        "bn_gamma": (1, 1),
        "bn_beta": (1, 1),
        "bn_mean": (1, cfg.conv_map),
        "bn_var": (1, cfg.conv_map),
    }


def _all_arrays(params: ModelParams) -> dict:
    return {**params.named_arrays(), **params.running_arrays()}


def save_checkpoint(path, config: dict, params: ModelParams) -> None:
    arrays = _all_arrays(params)
    manifest = {}
    offset = 0
    blobs = []
    for name in _ARRAY_ORDER:
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        rows, cols = (1, arr.shape[0]) if arr.ndim == 1 else arr.shape
        manifest[name] = [rows, cols, offset]
        blob = arr.astype("<f8", copy=False).tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "config": config, "manifest": manifest},
        sort_keys=True,
        separators=(",", ":"),
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (config dict, ModelParams). Raises CheckpointError on version
    mismatch, truncation, a malformed header, array shapes that disagree
    with the stored config, or non-finite values."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    manifest = header.get("manifest", {})
    if set(manifest) != set(_ARRAY_ORDER):
        raise CheckpointError("checkpoint manifest is missing arrays")
    config = header.get("config")
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint header lacks a config object")
    expected = _expected_shapes(config, manifest["ent"][0], manifest["rel"][0])
    for name in _ARRAY_ORDER:
        rows, cols = manifest[name][:2]
        if (rows, cols) != expected[name]:
            want = "x".join(map(str, expected[name]))
            raise CheckpointError(
                f"array {name!r} is {rows}x{cols}, but the stored config implies {want}"
            )
    arrays = {}
    total = 0
    for name in _ARRAY_ORDER:
        rows, cols, offset = manifest[name]
        nbytes = rows * cols * 8
        if offset + nbytes > len(body):
            raise CheckpointError(f"checkpoint truncated inside array {name!r}")
        flat = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=offset)
        if name in _VECTOR_NAMES:
            arrays[name] = flat.astype(np.float64)
        else:
            arrays[name] = flat.astype(np.float64).reshape(rows, cols)
        total = max(total, offset + nbytes)
    if total != len(body):
        raise CheckpointError("checkpoint has trailing or missing bytes")
    params = ModelParams(
        ent=arrays["ent"],
        rel=arrays["rel"],
        attn=AttentionParams(
            a_q=arrays["attn_q"],
            a_k=arrays["attn_k"],
            a_v=arrays["attn_v"],
            u=arrays["attn_u"],
            lam=float(config.get("priori_weight", 0.0)),
        ),
        w_fc=arrays["w_fc"],
        b_fc=arrays["b_fc"],
        w_out=arrays["w_out"],
        b_out=arrays["b_out"],
        bn_gamma=arrays["bn_gamma"],
        bn_beta=arrays["bn_beta"],
        bn_mean=arrays["bn_mean"],
        bn_var=arrays["bn_var"],
    )
    try:
        params.check_finite()
    except NumericError as exc:
        raise CheckpointError(f"checkpoint holds {exc}") from exc
    return config, params

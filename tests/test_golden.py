"""The byte promise, checked: two fixed tiny trainings must reproduce the
sha256 of their parameter bytes and of their `evaluate` report recorded in
golden.json for this build. The bytes depend on the build beyond seed,
config and data: on the BLAS library, the kernel set it picked for this
CPU, NumPy's own loops, and ENTITY_BLOCK (the order of the 1-N tail's block
sums). A build with no recorded entry skips, naming itself.

A change that alters the bytes on purpose records the new entry, printed
by `PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py`."""

import ctypes
import glob
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from convd.cli import run_environment
from convd.model import ENTITY_BLOCK

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

# (graph seed, entities, relations, depth, TrainConfig fields): one entity
# block, then three; the second entity table (1,536 x 64) spans two RNG
# chunks of 65,536 words.
RUNS = {
    "one_block": (1, 200, 4, 2, dict(d_w=6, d_h=6, k=8, max_epochs=3)),
    "three_blocks": (2, 1536, 2, 1, dict(d_w=8, d_h=8, k=8, max_epochs=2)),
}


def blas_core():
    """The kernel set the bundled OpenBLAS picked for this CPU, where the
    library names it; else None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def build() -> dict:
    env = run_environment()
    return {"blas": env["blas"], "blas_version": env["blas_version"], "blas_core": blas_core(),
            "numpy": env["numpy"], "entity_block": ENTITY_BLOCK}


def measure() -> dict:
    """Trains every run of RUNS; the sha256 of its parameter bytes (each
    array under its name, in name order) and of its test report JSON."""
    from convd import evaluation
    from convd.data import augment_reciprocal, build_priori, generate_toy_kg
    from convd.training import TrainConfig, train

    out = {}
    for label, (seed, entities, relations, depth, fields) in RUNS.items():
        store = augment_reciprocal(generate_toy_kg(seed, entities, relations, depth))
        cfg = TrainConfig(r_w=2, r_h=2, m=4, batch_size=128, eval_every=1, seed=1, **fields)
        priori = build_priori(store, cfg.priori_base)
        params, _ = train(cfg, store, priori)
        digest = hashlib.sha256()
        for name, arr in sorted({**params.named_arrays(), **params.running_arrays()}.items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        report = evaluation.evaluate(params, store, "test", cfg.model_config(), priori=priori)
        blob = json.dumps(report.as_dict(), sort_keys=True).encode()
        out[label] = {"params": digest.hexdigest(), "report": hashlib.sha256(blob).hexdigest()}
    return out


def test_training_reproduces_the_recorded_bytes():
    here = build()
    recorded = [entry["runs"] for entry in json.loads(GOLDEN.read_text())
                if entry["build"] == here]
    if not recorded:
        pytest.skip(f"no golden bytes recorded for this build: {here}")
    # BLAS splits its sums by thread, so the thread count is pinned.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["build"] == here
    assert got["runs"] == recorded[0]


if __name__ == "__main__":
    print(json.dumps({"build": build(), "runs": measure()}, indent=2))

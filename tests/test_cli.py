import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convd.cli
import convd.training
from convd.checkpoint import load_checkpoint, save_checkpoint
from convd.cli import main
from convd.errors import CheckpointError

from conftest import no_training

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# The CPUs this process may run on; empty where the platform cannot tell.
AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()

TRAIN_KEYS = dict(
    d_w=6, d_h=6, r_w=2, r_h=2, m=4, k=8,
    lr=0.01, batch_size=64, seed=3,
    max_epochs=10, eval_every=5, patience=5,
)


def write_config(path, **extra):
    cfg = dict(TRAIN_KEYS)
    cfg.update(extra)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toyds")
    assert main(["gen-toy", "--out", str(out), "--seed", "3",
                 "--entities", "40", "--relations", "3", "--depth", "2"]) == 0
    return str(out)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_dir):
    base = tmp_path_factory.mktemp("run")
    cfg_path = base / "config.json"
    out_dir = base / "out"
    write_config(cfg_path, data_dir=toy_dir, output_dir=str(out_dir))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return str(cfg_path), str(out_dir)


class TestTrainCommand:
    def test_artifacts_present(self, trained):
        _, out_dir = trained
        for name in ("resolved-config.json", "metrics.jsonl", "best.ckpt", "report.json"):
            assert os.path.exists(os.path.join(out_dir, name)), name

    def test_metrics_lines_are_deterministic_fields(self, trained):
        _, out_dir = trained
        with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == TRAIN_KEYS["max_epochs"]
        assert set(lines[0]) == {"epoch", "loss", "valid_mrr", "config_hash"}

    def test_rerun_is_byte_identical(self, tmp_path, toy_dir):
        outs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            out_dir = tmp_path / name
            write_config(cfg_path, data_dir=toy_dir, output_dir=str(out_dir), max_epochs=4)
            assert main(["train", "--config", str(cfg_path)]) == 0
            outs.append(out_dir)
        assert (outs[0] / "metrics.jsonl").read_bytes() == (outs[1] / "metrics.jsonl").read_bytes()
        # Checkpoint headers embed the (distinct) output paths; the learned
        # arrays themselves must match bit for bit.
        _, p1 = load_checkpoint(str(outs[0] / "best.ckpt"))
        _, p2 = load_checkpoint(str(outs[1] / "best.ckpt"))
        for name, arr in p1.named_arrays().items():
            assert np.array_equal(arr, p2.named_arrays()[name]), name

    def test_rerun_at_pinned_blas_threads_is_byte_identical(self, tmp_path, toy_dir):
        # Parameter bytes depend on the BLAS thread count, so the promise is
        # made, and tested, at a fixed OPENBLAS_NUM_THREADS.
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), max_epochs=4)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        runs = []
        for _ in range(2):
            subprocess.run([sys.executable, "-m", "convd.cli", "train", "--config", cfg_path],
                           env=env, check=True, timeout=300)
            runs.append({name: (tmp_path / "o" / name).read_bytes()
                         for name in ("metrics.jsonl", "best.ckpt")})
        assert runs[0] == runs[1]
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"

    @pytest.mark.skipif(len(AFFINITY) < 2, reason="needs two CPUs to run on")
    def test_worker_count_leaves_the_bytes_unchanged(self, tmp_path):
        # 1,100 entities: the fused 1-N tail (logits, loss and both entity
        # products) runs one task per entity block, two of them, its loss
        # and g_z summed in block order; Adam (a 110,000-entry entity table)
        # runs in runs of whole blocks, one run per worker.
        data_dir = tmp_path / "data"
        assert main(["gen-toy", "--out", str(data_dir), "--seed", "5",
                     "--entities", "1100", "--relations", "2", "--depth", "2"]) == 0
        cfg_path = write_config(tmp_path / "c.json", data_dir=str(data_dir),
                                output_dir=str(tmp_path / "o"), d_w=10, d_h=10,
                                batch_size=128, max_epochs=2, eval_every=1)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        runs = []
        for cpus in ({min(AFFINITY)}, AFFINITY):
            # The affinity is set in the child only, before convd is imported.
            script = (f"import os, sys\nos.sched_setaffinity(0, {sorted(cpus)})\n"
                      "from convd.cli import main\nsys.exit(main(sys.argv[1:]))")
            subprocess.run([sys.executable, "-c", script, "train", "--config", cfg_path],
                           env=env, check=True, timeout=300)
            report = json.loads((tmp_path / "o" / "report.json").read_text())
            assert report["environment"]["workers"] == len(cpus)
            runs.append({name: (tmp_path / "o" / name).read_bytes()
                         for name in ("metrics.jsonl", "best.ckpt")})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("override", [
        'm="4"', "batch_size=1.5", "max_epochs=null", 'lr="fast"', "eval_every=2.5",
        "data_dir=5", 'output_dir=["o"]', "split=1", 'strict_vocab="yes"',
        'fractions="abc"', "fractions=0.5", 'fractions=[0.5,"abc"]', "fractions=[0.5,true]",
        'modes="full"', "modes=[1]",
        # Never read by any command, so no longer accepted.
        "top_k=3", "filter_known=true",
        # Read by search, which rejects them before it trains anything.
        'grid={"d_e":16}', 'grid={"lr":"fast"}',
        # JSON and --set parse these; a float field must be finite.
        "lr=NaN", "lr=Infinity", "priori_weight=NaN", "priori_weight=Infinity",
        "priori_base=Infinity",
    ])
    def test_mistyped_value_exits_2(self, tmp_path, toy_dir, capsys, override):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        command = "search" if override.startswith("grid=") else "train"
        assert main([command, "--config", cfg_path, "--set", override]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        if command == "search":
            key = next(iter(json.loads(override.partition("=")[2])))
            assert f"grid key {key!r}" in err

    def test_search_checks_every_grid_config_before_training(self, tmp_path, toy_dir,
                                                             capsys, monkeypatch):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", d_w=4, d_h=4, grid={"r_w": [2, 9]},
                                data_dir=toy_dir, output_dir=str(tmp_path / "o"))
        assert main(["search", "--config", cfg_path]) == 2
        assert "kernel 9x2 larger than entity plane 4x4" in capsys.readouterr().err

    @pytest.mark.parametrize("d_e", ["x", -4, None, 2.5, True])
    def test_search_rejects_a_d_e_that_is_not_a_positive_int(self, tmp_path, toy_dir, capsys,
                                                            monkeypatch, d_e):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", grid={"d_e": [36, d_e]},
                                data_dir=toy_dir, output_dir=str(tmp_path / "o"))
        assert main(["search", "--config", cfg_path]) == 2
        assert "config error: grid key 'd_e' needs positive ints" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["d_w", "d_h"])
    def test_search_rejects_d_e_with_a_plane_side(self, tmp_path, toy_dir, capsys,
                                                  monkeypatch, side):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", r_w=5, r_h=6,
                                grid={"d_e": [18, 24], side: [5]},
                                data_dir=toy_dir, output_dir=str(tmp_path / "o"))
        assert main(["search", "--config", cfg_path]) == 2
        assert f"config error: grid keys 'd_e' and {side!r}" in capsys.readouterr().err

    def test_single_query_batch_exits_2_before_writing(self, tmp_path, toy_dir, capsys):
        # Batch statistics need two examples; the config is refused before
        # the output directory is made.
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path, "--set", "batch_size=1"]) == 2
        assert "batch size 1 needs bn_frozen" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_square_m_exits_2(self, tmp_path, toy_dir):
        cfg_path = write_config(tmp_path / "c.json", m=3, data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path]) == 2

    def test_unknown_key_exits_2(self, tmp_path, toy_dir):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), bogus_key=1)
        assert main(["train", "--config", cfg_path]) == 2

    def test_negative_m_exits_2(self, tmp_path, toy_dir, capsys):
        # The sign is checked before math.isqrt sees the value.
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path, "--set", "m=-1"]) == 2
        assert "m must be the square of a positive integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, names", [
        ("d_h", 10**30, "d_w and d_h"), ("k", 10**18, "k"), ("m", 10**20, "m"),
    ], ids=["d_h", "k", "m"])
    def test_array_numpy_cannot_index_exits_2(self, tmp_path, toy_dir, capsys,
                                              key, value, names):
        # Each value makes an array too large for NumPy to index, so it
        # fails before any allocation, and validate refuses it earlier.
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path, "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {names} too large" in err and "more than NumPy can index" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, key", [
        ("file", "random_search_draws"), ("set", "random_search_draws"),
        ("file", "n_static"), ("set", "n_static"),
    ], ids=["file", "set", "n_static-file", "n_static-set"])
    def test_random_search_draws_is_an_unknown_key(self, tmp_path, toy_dir, capsys,
                                                   monkeypatch, where, key):
        # search trains exactly its grid; a count of random draws is no key.
        # Nor is n_static, the kernel count of the plain-convolution
        # baseline that has left the model.
        monkeypatch.setattr(convd.training, "train", no_training)
        in_file = {key: 1} if where == "file" else {}
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), **in_file)
        flags = ["--set", f"{key}=1"] if where == "set" else []
        assert main(["search", "--config", cfg_path, *flags]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err

    def test_zero_epochs_writes_an_evaluable_checkpoint(self, tmp_path, toy_dir):
        out_dir = tmp_path / "o"
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(out_dir), max_epochs=0)
        assert main(["train", "--config", cfg_path]) == 0
        assert (out_dir / "metrics.jsonl").read_bytes() == b""
        assert (out_dir / "timings.jsonl").read_bytes() == b""
        assert json.loads((out_dir / "report.json").read_text())["best_epoch"] is None
        assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_missing_data_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", data_dir=str(tmp_path / "nope"),
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("split,edit", [
        ("train.txt", lambda raw: raw + b"e00001\tr000\n"),
        ("valid.txt", lambda raw: raw + b"e00001\tr000\tnot_an_entity\n"),
        ("train.txt", lambda raw: raw + b"\xff\xfe\x00junk\n"),
        ("test.txt", None),
        ("train.txt", lambda raw: b""),
        ("valid.txt", lambda raw: b""),
        ("test.txt", lambda raw: b"\n"),
    ], ids=["wrong_column_count", "unknown_symbol_strict", "invalid_utf8", "missing_split",
            "empty_train", "empty_valid", "empty_test"])
    def test_malformed_triple_file_exits_3(self, tmp_path, toy_dir, capsys, split, edit):
        data = tmp_path / "data"
        shutil.copytree(toy_dir, data)
        if edit is None:
            (data / split).unlink()
        else:
            (data / split).write_bytes(edit((data / split).read_bytes()))
        cfg_path = write_config(tmp_path / "c.json", data_dir=str(data),
                                output_dir=str(tmp_path / "o"), max_epochs=1)
        assert main(["train", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and split in err
        assert "Traceback" not in err

    def test_numeric_blowup_exits_4(self, tmp_path, toy_dir):
        import warnings

        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"),
                                lr=1e40, bn_frozen=True, max_epochs=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", cfg_path]) == 4

    def test_convd_seed_env_override(self, tmp_path, toy_dir, monkeypatch):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), max_epochs=1)
        monkeypatch.setenv("CONVD_SEED", "99")
        assert main(["train", "--config", cfg_path]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved-config.json").read_text())
        assert resolved["seed"] == 99


@pytest.mark.parametrize("case, code", [
    ("config_is_a_directory", 2), ("config_not_utf8", 2), ("data_dir_is_a_file", 3),
    ("checkpoint_is_a_directory", 3), ("output_dir_is_a_file", 3), ("best_ckpt_is_a_directory", 3),
    ("eval_out_under_a_file", 3), ("eval_out_is_a_directory", 3), ("gen_toy_out_is_a_file", 3),
])
def test_unusable_path_exits_with_its_code(trained, tmp_path, capsys, case, code):
    cfg_path, out_dir = trained
    a_file = tmp_path / "a_file"
    a_file.write_text("x", encoding="utf-8")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "run" / "best.ckpt").mkdir(parents=True)
    ckpt = os.path.join(out_dir, "best.ckpt")
    argv = {
        "config_is_a_directory": ["train", "--config", str(tmp_path)],
        "config_not_utf8": ["train", "--config", str(tmp_path / "bad.json")],
        "data_dir_is_a_file": ["train", "--config", cfg_path, "--set", f"data_dir={a_file}"],
        "checkpoint_is_a_directory": ["eval", "--checkpoint", out_dir],
        "output_dir_is_a_file": ["train", "--config", cfg_path, "--set", f"output_dir={a_file}"],
        "best_ckpt_is_a_directory": ["train", "--config", cfg_path, "--set", "max_epochs=1",
                                     "--set", f"output_dir={tmp_path / 'run'}"],
        "eval_out_under_a_file": ["eval", "--checkpoint", ckpt, "--out", f"{a_file}/r.json"],
        "eval_out_is_a_directory": ["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "a_dir")],
        "gen_toy_out_is_a_file": ["gen-toy", "--out", str(a_file), "--entities", "25"],
    }[case]
    assert main(argv) == code
    # A failed write leaves no temp file, here or in an output directory.
    assert not list(tmp_path.rglob("*.tmp.*")) and not list(Path(out_dir).glob("*.tmp.*"))
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:")
    assert "Traceback" not in err


class TestEvalCommand:
    def test_eval_twice_identical(self, trained, tmp_path):
        _, out_dir = trained
        ckpt = os.path.join(out_dir, "best.ckpt")
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["eval", "--checkpoint", ckpt, "--split", "valid",
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("wall_ms")  # the one clearly separated non-deterministic key
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]

    def test_checkpoint_storing_random_search_draws_still_loads(self, trained, tmp_path):
        # Checkpoints written while search had a random-draw phase store
        # "random_search_draws": 0 in their config, and those written while
        # the model held the plain-convolution baseline store "n_static";
        # loading keeps only the known fields, so they score exactly as the
        # same params saved without them.
        _, out_dir = trained
        config, params = load_checkpoint(os.path.join(out_dir, "best.ckpt"))
        assert "random_search_draws" not in config and "n_static" not in config
        reports = []
        for name, extra in (("current", {}), ("older", {"random_search_draws": 0}),
                            ("baseline", {"n_static": 4})):
            ckpt = str(tmp_path / f"{name}.ckpt")
            save_checkpoint(ckpt, {**config, **extra}, params)
            assert load_checkpoint(ckpt)[0] == {**config, **extra}
            out = tmp_path / f"{name}.json"
            assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 0
            assert main(["predict", "--checkpoint", ckpt, "--head", "e00000",
                         "--relation", "r000"]) == 0
            doc = json.loads(out.read_text())
            doc.pop("wall_ms")
            reports.append(doc)
        assert reports[0] == reports[1] == reports[2]

    def test_truncated_checkpoint_exits_5(self, trained, tmp_path):
        _, out_dir = trained
        raw = Path(out_dir, "best.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-32])
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(bad), "--out", str(out)]) == 5
        assert not out.exists()

    def _edited(self, trained, tmp_path, config=None, first_value=None, ent_entry=None,
                version=None):
        """A copy of the trained checkpoint with header config keys replaced,
        the manifest entry of `ent` rewritten by `ent_entry`, the header's
        format_version replaced by `version`, and/or the first stored float
        (ent[0, 0]) overwritten."""
        _, out_dir = trained
        header, body = Path(out_dir, "best.ckpt").read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"].update(config or {})
        if version is not None:
            doc["format_version"] = version
        if ent_entry is not None:
            doc["manifest"]["ent"] = ent_entry(doc["manifest"]["ent"])
        if first_value is not None:
            body = np.array([first_value], dtype="<f8").tobytes() + body[8:]
        bad = tmp_path / "edited.ckpt"
        bad.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        return str(bad)

    def test_config_shape_mismatch_exits_5(self, trained, tmp_path):
        # d_e stays 36, but the 4x9 plane gives 24 conv features, not 25.
        bad = self._edited(trained, tmp_path, config={"d_w": 4, "d_h": 9})
        with pytest.raises(CheckpointError, match="w_fc"):
            load_checkpoint(bad)
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", bad, "--out", str(out)]) == 5
        assert not out.exists()

    def test_non_finite_array_exits_5(self, trained, tmp_path):
        bad = self._edited(trained, tmp_path, first_value=np.nan)
        with pytest.raises(CheckpointError, match="ent"):
            load_checkpoint(bad)
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", bad, "--out", str(out)]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("ent_entry", [
        lambda entry: [1],
        lambda entry: "x",
        lambda entry: entry[:2] + [-8],
        lambda entry: [float(entry[0])] + entry[1:],
    ], ids=["short", "string", "negative_offset", "float_rows"])
    def test_malformed_manifest_entry_exits_5(self, trained, tmp_path, capsys, ent_entry):
        bad = self._edited(trained, tmp_path, ent_entry=ent_entry)
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", bad, "--out", str(out)]) == 5
        assert "checkpoint error: manifest entry 'ent'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_format_version_other_than_int_1_exits_5(self, trained, tmp_path, capsys, version):
        # JSON true and 1.0 compare equal to 1 in Python; only the int 1 is
        # format_version 1, as only ints are manifest entries.
        bad = self._edited(trained, tmp_path, version=version)
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", bad, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"checkpoint error: unsupported checkpoint format_version {version!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"data_dir": 5}, {"strict_vocab": "yes"}, {"modes": "full"},
    ], ids=["data_dir", "strict_vocab", "modes"])
    def test_mistyped_io_key_in_header_exits_5(self, trained, tmp_path, capsys, config):
        bad = self._edited(trained, tmp_path, config=config)
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", bad, "--out", str(out)]) == 5
        key = next(iter(config))
        assert f"checkpoint error: {key} must" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_set_without_config_exits_2(self, trained, tmp_path, capsys):
        _, out_dir = trained
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", os.path.join(out_dir, "best.ckpt"),
                     "--set", "priori_weight=0.4", "--out", str(out)]) == 2
        assert "config error: --set needs --config" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_config_not_matching_the_arrays_exits_5(self, trained, tmp_path, toy_dir,
                                                         capsys):
        # The checkpoint is 6x6; a 4x9 plane keeps d_e = 36 but gives 24
        # conv features, not 25, so w_fc cannot serve it.
        _, out_dir = trained
        cfg = write_config(tmp_path / "x.json", d_w=4, d_h=9, data_dir=toy_dir,
                           output_dir=str(tmp_path))
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", os.path.join(out_dir, "best.ckpt"),
                     "--config", cfg, "--out", str(out)]) == 5
        assert "w_fc" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("entities", [30, 60])
    def test_eval_on_data_of_another_vocabulary_exits_5(self, trained, tmp_path, capsys,
                                                        entities):
        # The checkpoint's tables hold the 40-entity graph's ids; fewer would
        # rank against phantom entities, and more would index past the table.
        _, out_dir = trained
        data = tmp_path / "data"
        assert main(["gen-toy", "--out", str(data), "--seed", "3", "--entities",
                     str(entities), "--relations", "3", "--depth", "2"]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path / "x.json", data_dir=str(data), output_dir=str(tmp_path))
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", os.path.join(out_dir, "best.ckpt"),
                     "--config", cfg, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"entity table has 40 rows, but the data has {entities} entity ids" in err
        assert not out.exists()


class TestPredictCommand:
    def test_full_ranking_scores_non_increasing(self, trained, capsys):
        _, out_dir = trained
        ckpt = os.path.join(out_dir, "best.ckpt")
        assert main(["predict", "--checkpoint", ckpt, "--head", "e00000",
                     "--relation", "r000", "--top-k", "40"]) == 0
        rows = json.loads(capsys.readouterr().out)
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)
        assert len(rows) == 40

    @staticmethod
    def _strict_json(text):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        return json.loads(text, parse_constant=reject)

    @staticmethod
    def _many_to_many_query(toy_dir, data):
        """Copies the toy graph to `data`, giving the first train query two
        more train tails and a valid tail it has in no split, with the
        vocabulary unchanged. Returns the query, its train tails and that
        valid tail."""
        shutil.copytree(toy_dir, data)
        rows = [line.split("\t") for name in ("train", "valid", "test") for line in
                (data / f"{name}.txt").read_text(encoding="utf-8").splitlines()]
        head, relation, tail = rows[0]
        seen = {t for h, r, t in rows if (h, r) == (head, relation)}
        more = sorted({t for _, _, t in rows} - seen)[:3]
        for name, tails in (("train", more[:2]), ("valid", more[2:])):
            with open(data / f"{name}.txt", "a", encoding="utf-8", newline="\n") as fh:
                fh.writelines(f"{head}\t{relation}\t{t}\n" for t in tails)
        return head, relation, {tail, *more[:2]}, more[2]

    @pytest.mark.parametrize("top_k", [0, 5])
    def test_filter_known_drops_train_tails(self, trained, toy_dir, tmp_path, capsys, top_k):
        _, out_dir = trained
        head, relation, known, valid_tail = self._many_to_many_query(toy_dir, tmp_path / "data")
        config, params = load_checkpoint(os.path.join(out_dir, "best.ckpt"))
        ckpt = str(tmp_path / "best.ckpt")
        save_checkpoint(ckpt, {**config, "data_dir": str(tmp_path / "data")}, params)
        assert main(["predict", "--checkpoint", ckpt, "--head", head, "--relation", relation,
                     "--top-k", str(top_k), "--filter-known"]) == 0
        rows = self._strict_json(capsys.readouterr().out)
        assert not known & {row["entity"] for row in rows}
        assert len(rows) == (top_k or 40 - len(known))
        # The filter covers the train split only: a valid tail stays listed.
        assert top_k or valid_tail in {row["entity"] for row in rows}
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)

    def test_data_dir_that_shrank_exits_5(self, trained, tmp_path, capsys):
        _, out_dir = trained
        data = tmp_path / "data"
        assert main(["gen-toy", "--out", str(data), "--seed", "3", "--entities", "30",
                     "--relations", "3", "--depth", "2"]) == 0
        capsys.readouterr()
        config, params = load_checkpoint(os.path.join(out_dir, "best.ckpt"))
        ckpt = str(tmp_path / "best.ckpt")
        save_checkpoint(ckpt, {**config, "data_dir": str(data)}, params)
        assert main(["predict", "--checkpoint", ckpt, "--head", "e00000",
                     "--relation", "r000", "--top-k", "0"]) == 5
        captured = capsys.readouterr()
        assert "entity table has 40 rows, but the data has 30 entity ids" in captured.err
        assert captured.out == ""

    def test_negative_top_k_exits_2(self, trained, capsys):
        _, out_dir = trained
        assert main(["predict", "--checkpoint", os.path.join(out_dir, "best.ckpt"),
                     "--head", "e00000", "--relation", "r000", "--top-k", "-3"]) == 2
        captured = capsys.readouterr()
        assert "config error: --top-k" in captured.err
        assert captured.out == ""

    def test_unknown_head_exits_3_with_suggestions(self, trained, capsys):
        _, out_dir = trained
        ckpt = os.path.join(out_dir, "best.ckpt")
        assert main(["predict", "--checkpoint", ckpt, "--head", "e0000",
                     "--relation", "r000"]) == 3
        err = capsys.readouterr().err
        assert "e00000" in err  # nearest suggestion by edit distance


class TestGradcheckCommand:
    def _config(self, tmp_path, **extra):
        cfg = dict(d_w=4, d_h=3, r_w=2, r_h=2, m=4, k=2, seed=5,
                   dropout_in=0.0, dropout_feat=0.0, dropout_out=0.0, bn_frozen=True)
        cfg.update(extra)
        path = tmp_path / "gc.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_passes_on_tiny_config(self, tmp_path, capsys):
        assert main(["gradcheck", "--config", self._config(tmp_path)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["passed"] is True
        assert all(b["max_rel_error"] <= 1e-4 for b in table["blocks"])

    def test_corrupted_backward_exits_6(self, tmp_path, monkeypatch, capsys):
        exact = convd.cli.backward

        def flipped(*args, **kwargs):
            grads = exact(*args, **kwargs)
            grads["w_fc"] = -grads["w_fc"]
            return grads

        monkeypatch.setattr(convd.cli, "backward", flipped)
        assert main(["gradcheck", "--config", self._config(tmp_path)]) == 6
        out = capsys.readouterr()
        assert "w_fc" in out.err

    def test_dropout_enabled_exits_2(self, tmp_path):
        assert main(["gradcheck", "--config",
                     self._config(tmp_path, dropout_in=0.2)]) == 2


class TestTableCommands:
    def test_ablate_four_rows(self, tmp_path, toy_dir, capsys):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), max_epochs=1, eval_every=1)
        assert main(["ablate", "--config", cfg_path]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["mode"] for r in rows] == ["full", "no_priori", "no_attention", "no_both"]
        assert os.path.exists(tmp_path / "o" / "ablation.json")

    def test_sweep_three_rows(self, tmp_path, toy_dir, capsys):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), max_epochs=1, eval_every=1)
        assert main(["sweep", "--config", cfg_path, "--fractions", "0.25,0.5,1.0"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["fraction"] for r in rows] == [0.25, 0.5, 1.0]
        assert [r["active_kernels"] for r in rows] == [1, 2, 4]

    def test_sweep_non_numeric_fraction_exits_2(self, tmp_path, toy_dir, capsys):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), max_epochs=1, eval_every=1)
        assert main(["sweep", "--config", cfg_path, "--fractions", "0.5,abc"]) == 2
        assert "config error: --fractions" in capsys.readouterr().err

    def test_ablate_checks_every_mode_before_training(self, tmp_path, toy_dir, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["ablate", "--config", cfg_path, "--modes", "full,bogus"]) == 2
        assert "config error: mode 'bogus': unknown ablation mode" in capsys.readouterr().err

    def test_sweep_checks_every_fraction_before_training(self, tmp_path, toy_dir, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["sweep", "--config", cfg_path, "--fractions", "0.5,1.5"]) == 2
        assert "config error: fraction 1.5: kernel fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("command, io, flags", [
        ("ablate", {"modes": []}, []),
        ("sweep", {"fractions": []}, []),
        ("ablate", {}, ["--modes", ""]),
        ("sweep", {}, ["--fractions", ""]),
    ], ids=["modes-key", "fractions-key", "modes-flag", "fractions-flag"])
    def test_empty_run_list_exits_2(self, tmp_path, toy_dir, capsys, monkeypatch,
                                    command, io, flags):
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), **io)
        assert main([command, "--config", cfg_path, *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_search_leaderboard_counts(self, tmp_path, toy_dir, capsys):
        cfg_path = write_config(
            tmp_path / "c.json", data_dir=toy_dir, output_dir=str(tmp_path / "o"),
            max_epochs=1, eval_every=1,
            grid={"priori_weight": [0.1, 0.2, 0.3, 0.4]},
        )
        assert main(["search", "--config", cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["leaderboard"]) == 4


class TestGenToy:
    def test_writes_three_splits(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["gen-toy", "--out", str(out), "--seed", "1",
                     "--entities", "25", "--relations", "2", "--depth", "1"]) == 0
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (out / name).exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["train"] + summary["valid"] + summary["test"] == 50

    def test_rerun_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-toy", "--out", str(out), "--seed", "7",
                         "--entities", "30", "--relations", "3"]) == 0
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convd.cli
from convd.checkpoint import load_checkpoint
from convd.cli import main
from convd.errors import CheckpointError

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

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

    @pytest.mark.parametrize("override", [
        'm="4"', "batch_size=1.5", "max_epochs=null", 'lr="fast"', "eval_every=2.5",
        "data_dir=5", 'output_dir=["o"]', "split=1", 'strict_vocab="yes"',
        'fractions="abc"', "fractions=0.5", 'fractions=[0.5,"abc"]', "fractions=[0.5,true]",
        'modes="full"', "modes=[1]",
        # Never read by any command, so no longer accepted.
        "top_k=3", "filter_known=true",
    ])
    def test_mistyped_value_exits_2(self, tmp_path, toy_dir, capsys, override):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path, "--set", override]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_square_m_exits_2(self, tmp_path, toy_dir):
        cfg_path = write_config(tmp_path / "c.json", m=3, data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path]) == 2

    def test_unknown_key_exits_2(self, tmp_path, toy_dir):
        cfg_path = write_config(tmp_path / "c.json", data_dir=toy_dir,
                                output_dir=str(tmp_path / "o"), bogus_key=1)
        assert main(["train", "--config", cfg_path]) == 2

    def test_missing_data_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", data_dir=str(tmp_path / "nope"),
                                output_dir=str(tmp_path / "o"))
        assert main(["train", "--config", cfg_path]) == 3

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

    def test_truncated_checkpoint_exits_5(self, trained, tmp_path):
        _, out_dir = trained
        raw = Path(out_dir, "best.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-32])
        out = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(bad), "--out", str(out)]) == 5
        assert not out.exists()

    def _edited(self, trained, tmp_path, config=None, first_value=None, ent_entry=None):
        """A copy of the trained checkpoint with header config keys replaced,
        the manifest entry of `ent` rewritten by `ent_entry`, and/or the
        first stored float (ent[0, 0]) overwritten."""
        _, out_dir = trained
        header, body = Path(out_dir, "best.ckpt").read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"].update(config or {})
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
    def _first_train_query(toy_dir):
        """A (head, relation) of the train split and all its train tails."""
        rows = [line.split("\t") for line in
                Path(toy_dir, "train.txt").read_text(encoding="utf-8").splitlines()]
        head, relation, _ = rows[0]
        return head, relation, {t for h, r, t in rows if (h, r) == (head, relation)}

    @pytest.mark.parametrize("top_k", [0, 5])
    def test_filter_known_drops_train_tails(self, trained, toy_dir, capsys, top_k):
        _, out_dir = trained
        head, relation, known = self._first_train_query(toy_dir)
        assert main(["predict", "--checkpoint", os.path.join(out_dir, "best.ckpt"),
                     "--head", head, "--relation", relation,
                     "--top-k", str(top_k), "--filter-known"]) == 0
        rows = self._strict_json(capsys.readouterr().out)
        assert not known & {row["entity"] for row in rows}
        assert len(rows) == (top_k or 40 - len(known))
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)

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

    def test_search_leaderboard_counts(self, tmp_path, toy_dir, capsys):
        cfg_path = write_config(
            tmp_path / "c.json", data_dir=toy_dir, output_dir=str(tmp_path / "o"),
            max_epochs=1, eval_every=1,
            grid={"priori_weight": [0.1, 0.2, 0.3, 0.4]}, random_search_draws=2,
        )
        assert main(["search", "--config", cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["leaderboard"]) == 4 + 2


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

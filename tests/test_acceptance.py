"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line. Tolerances are pinned here, not configurable."""

import json
import math
import time
import numpy as np
import pytest

from convd.checkpoint import load_checkpoint, save_checkpoint
from convd.cli import gradcheck_table, main
from convd.data import (
    PrioriTable,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
)
from convd.evaluation import evaluate, run_ablation, run_fraction_sweep
from convd.model import (
    ModelConfig,
    count_parameters,
    forward_score,
    init_params,
)
from convd.numerics import conv2d_batch
from convd.rng import RngStream
from convd.training import TrainConfig, train

from conftest import (
    TINY_ENTITIES,
    TINY_RELATIONS,
    rel_err,
    small_toy_train_config,
    tiny_config,
    tiny_params,
)
from oracles import constant_scorer_mrr, oracle_evaluate, oracle_forward
from test_model import arrays_of, dims_of


class _criterion:
    """Prints one PASS/FAIL line per acceptance criterion, bypassing pytest's
    capture so the lines always reach the terminal."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        import sys

        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"ACCEPTANCE {self.number:02d} {verdict}: {self.label}"
        print(line)
        if sys.stdout is not sys.__stdout__:  # also reach the terminal under capture
            print(line, file=sys.__stdout__)
        return False


def test_criterion_01_gradient_fidelity():
    with _criterion(1, "analytic gradients match central differences (<= 1e-4)"):
        start = time.perf_counter()
        cfg = TrainConfig(d_w=4, d_h=3, r_w=2, r_h=2, m=4, k=2, seed=5,
                          dropout_in=0.0, dropout_feat=0.0, dropout_out=0.0,
                          bn_frozen=True)
        table, ok = gradcheck_table(cfg, n_entities=TINY_ENTITIES,
                                    n_relations=TINY_RELATIONS, h=1e-5)
        elapsed = time.perf_counter() - start
        assert ok, table
        assert all(b["max_rel_error"] <= 1e-4 for b in table["blocks"])
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_02_forward_oracle_100_instances():
    with _criterion(2, "forward matches the straight-line oracle (<= 1e-10, 100 instances)"):
        draw = RngStream(202, "instances")
        for trial in range(100):
            cfg = tiny_config(priori_weight=float(draw.uniform(1)[0] * 0.4))
            params = tiny_params(cfg, seed=trial)
            h = int(draw.uniform(1)[0] * TINY_ENTITIES)
            r = int(draw.uniform(1)[0] * TINY_RELATIONS)
            p_hr = float(draw.uniform(1)[0] * 4.0)
            priori = PrioriTable(freq={(h, r): max(1, int(2**p_hr) - 1)}, log_base=2.0)
            logits, _ = forward_score(h, r, params, priori, cfg, mode="eval")
            expected = oracle_forward(h, r, arrays_of(params), dims_of(cfg),
                                      priori.value(h, r))
            assert rel_err(logits, expected) <= 1e-10, trial


def test_criterion_03_dynamic_conv_decomposition():
    with _criterion(3, "sum of per-kernel convs equals conv of mixed kernel (<= 1e-10, 1000 instances)"):
        draw = RngStream(303, "decomp")
        for trial in range(1000):
            d_w = 3 + int(draw.uniform(1)[0] * 6)
            d_h = 3 + int(draw.uniform(1)[0] * 6)
            r_w = 1 + int(draw.uniform(1)[0] * min(3, d_w))
            r_h = 1 + int(draw.uniform(1)[0] * min(3, d_h))
            m = (1 + int(draw.uniform(1)[0] * 3)) ** 2
            plane = draw.uniform_signed(d_w * d_h, 2.0).reshape(1, d_w, d_h)
            kernels = draw.uniform_signed(m * r_w * r_h, 2.0).reshape(m, r_w, r_h)
            alpha = draw.uniform_signed(m, 1.5)
            summed = np.zeros((1, d_w - r_w + 1, d_h - r_h + 1))
            for i in range(m):
                summed += conv2d_batch(plane, (alpha[i] * kernels[i])[None])
            mixed = conv2d_batch(plane, np.einsum("i,iwh->wh", alpha, kernels)[None])
            assert rel_err(summed, mixed) <= 1e-10, trial


def test_criterion_04_softmax_shift_degeneracy():
    with _criterion(4, "constant u is a bit-level no-op; learned u reacts to lambda"):
        from test_attention import attend_one, bank_of, make_params, D_E, D_R, M, R_W, R_H

        draw = RngStream(404, "shift")
        # Constant u: alpha bit-identical across lambda and priori values.
        for trial in range(50):
            e_h = draw.uniform_signed(D_E, 1.0)
            bank = bank_of(draw.uniform_signed(D_R, 1.0), M, R_W, R_H)
            ref = None
            for lam, p_hr in ((0.0, 0.0), (0.1, 1.0), (0.4, 5.0)):
                params = make_params(seed=trial, u=np.full(M, 0.37))
                alpha, _, _ = attend_one(e_h, bank, p_hr, params, lam)
                if ref is None:
                    ref = alpha
                else:
                    assert np.array_equal(ref, alpha)
        # Shipped non-constant u: lambda 0.1 vs 0.4 changes alpha >= 99%.
        changed = 0
        for trial in range(100):
            e_h = draw.uniform_signed(D_E, 1.0)
            bank = bank_of(draw.uniform_signed(D_R, 1.0), M, R_W, R_H)
            p_hr = 0.5 + float(draw.uniform(1)[0] * 3.0)
            a1, _, _ = attend_one(e_h, bank, p_hr, make_params(seed=trial), 0.1)
            a2, _, _ = attend_one(e_h, bank, p_hr, make_params(seed=trial), 0.4)
            changed += not np.array_equal(a1, a2)
        assert changed >= 99, changed


def test_criterion_05_evaluation_oracle():
    with _criterion(5, "evaluate equals the brute-force sorted evaluator exactly"):
        from convd.evaluation import _summarize
        from convd.model import forward_batch

        stats = _summarize(np.array([1.0, 2.0, 4.0]))
        assert stats["mrr"] == pytest.approx(7.0 / 12.0, abs=0)

        store = augment_reciprocal(generate_toy_kg(15, 25, 3, 2))
        cfg = tiny_config(d_w=5, d_h=5, r_w=2, r_h=2, m=4, k=4, bn_frozen=False)
        params = init_params(cfg, store.n_entities, store.n_relations,
                             RngStream(15, "init"))
        priori = build_priori(store)

        def score_fn(h, r):
            logits, _ = forward_batch(np.array([h]), np.array([r]), params, priori,
                                      cfg, mode="eval")
            return logits[0]

        report = evaluate(params, store, "test", cfg, priori=priori)
        expected = oracle_evaluate(score_fn, store, "test")
        assert report.mrr == expected["mrr"]
        assert report.hits == {n: expected["hits"][n] for n in (1, 3, 10)}
        assert report.n_queries == expected["n_queries"]


def test_criterion_06_constant_scorer_guard(toy_store):
    with _criterion(6, "constant scorer MRR equals the closed-form tie-average value (<= 1e-9)"):
        cfg = ModelConfig(d_w=10, d_h=10, r_w=3, r_h=3, m=4, k=32)
        params = init_params(cfg, toy_store.n_entities, toy_store.n_relations,
                             RngStream(6, "init"))
        params.ent[:] = 0.0  # every logit collapses to 0
        report = evaluate(params, toy_store, "test", cfg)
        expected = constant_scorer_mrr(toy_store, "test")
        assert abs(report.mrr - expected) <= 1e-9


def test_criterion_07_toy_kg_learning(toy_store, toy_priori, toy_train_config, toy_trained):
    with _criterion(7, "toy graph: train MRR >= 0.90, test MRR >= 10x constant baseline, < 15 min"):
        params, history, seconds = toy_trained
        assert seconds < 15 * 60, f"training took {seconds:.0f}s"
        assert len(history.records) <= 200
        mcfg = toy_train_config.model_config()
        train_report = evaluate(params, toy_store, "train", mcfg, priori=toy_priori)
        test_report = evaluate(params, toy_store, "test", mcfg, priori=toy_priori)
        baseline = constant_scorer_mrr(toy_store, "test")
        print(f"\n  train MRR {train_report.mrr:.4f}, test MRR {test_report.mrr:.4f}, "
              f"constant baseline {baseline:.5f}")
        assert train_report.mrr >= 0.90
        assert test_report.mrr >= 10.0 * baseline


def test_criterion_08_ablation_direction(small_toy_store):
    with _criterion(8, "4-mode ablation table is produced deterministically (ordering is soft)"):
        priori = build_priori(small_toy_store)
        modes = ["full", "no_priori", "no_attention", "no_both"]

        def run(seed):
            cfg = small_toy_train_config(max_epochs=30, eval_every=10, lr=0.01, seed=seed)
            return run_ablation(cfg, small_toy_store, priori, modes)

        tables = {seed: run(seed) for seed in range(1, 6)}
        for table in tables.values():
            assert [row["mode"] for row in table] == modes

        # Hard requirement: bitwise determinism of the table.
        again = run(1)
        assert json.dumps(again, sort_keys=True) == json.dumps(tables[1], sort_keys=True)

        mean_full = np.mean([t[0]["test"]["mrr"] for t in tables.values()])
        mean_no_both = np.mean([t[3]["test"]["mrr"] for t in tables.values()])
        verdict = "holds" if mean_full >= mean_no_both else "VIOLATED (soft criterion)"
        print(f"\n  mean test MRR over 5 seeds: full={mean_full:.4f} "
              f"no_both={mean_no_both:.4f} -> ordering {verdict}")


def test_criterion_09_kernel_fraction_sweep(small_toy_store):
    with _criterion(9, "fraction sweep 3 rows; fraction 1.0 bit-identical to unmasked"):
        priori = build_priori(small_toy_store)
        cfg = small_toy_train_config(max_epochs=10, eval_every=5, lr=0.01, seed=2)
        rows = run_fraction_sweep(cfg, small_toy_store, priori, [0.25, 0.5, 1.0])
        assert len(rows) == 3
        assert [row["active_kernels"] for row in rows] == [1, 2, 4]

        unmasked_params, _ = train(cfg, small_toy_store, priori)
        unmasked_report = evaluate(unmasked_params, small_toy_store, "test",
                                   cfg.model_config(), priori=priori)
        full_row = rows[2]
        assert full_row["test"]["mrr"] == unmasked_report.mrr
        for name, arr in unmasked_params.named_arrays().items():
            assert np.array_equal(arr, full_row["params"].named_arrays()[name]), name


def test_criterion_10_parameter_counting():
    with _criterion(10, "count_parameters equals array enumeration on 20 random configs"):
        draw = RngStream(1010, "cfgs")
        for trial in range(20):
            d_w = 3 + int(draw.uniform(1)[0] * 6)
            d_h = 3 + int(draw.uniform(1)[0] * 6)
            r_w = 1 + int(draw.uniform(1)[0] * min(3, d_w))
            r_h = 1 + int(draw.uniform(1)[0] * min(3, d_h))
            m = (1 + int(draw.uniform(1)[0] * 3)) ** 2
            k = 1 + int(draw.uniform(1)[0] * 16)
            n_e = 2 + int(draw.uniform(1)[0] * 50)
            n_r = 1 + int(draw.uniform(1)[0] * 10)
            cfg = ModelConfig(d_w=d_w, d_h=d_h, r_w=r_w, r_h=r_h, m=m, k=k)
            cfg.validate()
            params = init_params(cfg, n_e, n_r, RngStream(trial, "init"))
            enumerated = sum(v.size for v in params.named_arrays().values())
            assert count_parameters(cfg, n_e, n_r) == enumerated, trial


def test_criterion_11_determinism_and_round_trip(tmp_path):
    with _criterion(11, "cmd_train rerun byte-identical; checkpoint save/load/save bit-exact"):
        data_dir = tmp_path / "ds"
        assert main(["gen-toy", "--out", str(data_dir), "--seed", "3",
                     "--entities", "40", "--relations", "3", "--depth", "2"]) == 0
        outs = []
        for name in ("first", "second"):
            cfg = dict(d_w=6, d_h=6, r_w=2, r_h=2, m=4, k=8, lr=0.01, batch_size=64,
                       seed=3, max_epochs=4, eval_every=2, patience=5,
                       data_dir=str(data_dir), output_dir=str(tmp_path / name))
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["train", "--config", str(cfg_path)]) == 0
            outs.append(tmp_path / name)
        m1 = (outs[0] / "metrics.jsonl").read_bytes()
        m2 = (outs[1] / "metrics.jsonl").read_bytes()
        assert m1 == m2 and len(m1) > 0

        raw_cfg, params = load_checkpoint(str(outs[0] / "best.ckpt"))
        second = tmp_path / "resaved.ckpt"
        save_checkpoint(str(second), raw_cfg, params)
        raw_cfg2, params2 = load_checkpoint(str(second))
        third = tmp_path / "resaved2.ckpt"
        save_checkpoint(str(third), raw_cfg2, params2)
        assert second.read_bytes() == third.read_bytes()


def test_criterion_12_priori_correctness():
    with _criterion(12, "priori counts match the hand tally; valid/test never leak"):
        from test_data import make_store

        rows = [
            ("e0", "r0", "e1"),
            ("e0", "r0", "e2"),
            ("e1", "r0", "e2"),
            ("e2", "r1", "e0"),
            ("e0", "r1", "e1"),
        ]
        bare = make_store(rows)
        leaky = make_store(rows, valid=[("e1", "r1", "e0")], test=[("e2", "r0", "e1")])
        t_bare = build_priori(bare, a=2.0)
        t_leaky = build_priori(leaky, a=2.0)
        eid, rid = bare.vocab.entity_to_id, bare.vocab.relation_to_id
        hand_tally = {
            (eid["e0"], rid["r0"]): 2,
            (eid["e1"], rid["r0"]): 1,
            (eid["e2"], rid["r1"]): 1,
            (eid["e0"], rid["r1"]): 1,
        }
        assert t_bare.freq == hand_tally
        assert t_leaky.freq == hand_tally  # same entity/relation ids by construction
        assert t_bare.value(eid["e0"], rid["r0"]) == math.log2(3)
        assert t_bare.value(eid["e1"], rid["r0"]) == 1.0
        assert t_bare.value(eid["e2"], rid["r0"]) == 0.0

import numpy as np
import pytest

from convd.data import augment_reciprocal, build_priori, generate_toy_kg
from convd.errors import DimensionError, StateError
from convd.evaluation import (
    evaluate,
    rank_of,
    run_ablation,
    run_fraction_sweep,
    _summarize,
)
from convd.model import forward_batch, init_params
from convd.rng import RngStream

from conftest import small_toy_train_config
from oracles import constant_scorer_mrr, oracle_evaluate, oracle_rank


class TestRankOf:
    def test_unique_max_is_rank_one(self):
        assert rank_of(np.array([0.1, 0.9, 0.3]), 1, set()) == 1.0

    def test_filtered_competitor_case(self):
        assert rank_of(np.array([0.9, 0.5, 0.1]), 1, {0}) == 1.0

    def test_tie_average(self):
        assert rank_of(np.array([0.9, 0.9, 0.1]), 0, set()) == 1.5
        assert rank_of(np.array([0.5, 0.5, 0.5]), 2, set()) == 2.0

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            rank_of(np.array([0.1, 0.2]), 5, set())

    def test_monotone_transform_invariance(self):
        rng = RngStream(1, "scores")
        for _ in range(20):
            scores = rng.uniform(12)
            true_id = int(rng.uniform(1)[0] * 12)
            filt = {int(i) for i in (rng.uniform(3) * 12).astype(int)} - {true_id}
            base = rank_of(scores, true_id, filt)
            for fn in (lambda s: 3 * s + 7, np.exp, lambda s: np.tanh(s) * 2):
                assert rank_of(fn(scores), true_id, filt) == base

    def test_matches_sort_oracle(self):
        rng = RngStream(2, "scores")
        for _ in range(50):
            scores = np.round(rng.uniform(15), 1)  # coarse grid forces ties
            true_id = int(rng.uniform(1)[0] * 15)
            filt = {int(i) for i in (rng.uniform(4) * 15).astype(int)} - {true_id}
            assert rank_of(scores, true_id, filt) == oracle_rank(scores, true_id, filt)


class TestSummaries:
    def test_hand_case_7_12(self):
        stats = _summarize(np.array([1.0, 2.0, 4.0]))
        assert stats["mrr"] == pytest.approx(7.0 / 12.0, abs=1e-15)
        assert stats["hits"][3] == pytest.approx(2.0 / 3.0)

    def test_metric_ordering_invariants(self):
        rng = RngStream(3, "ranks")
        for _ in range(30):
            ranks = 1.0 + rng.uniform(40) * 30
            stats = _summarize(ranks)
            assert stats["hits"][1] <= stats["hits"][3] <= stats["hits"][10]
            assert stats["mrr"] >= stats["hits"][1]


@pytest.fixture(scope="module")
def eval_store():
    return augment_reciprocal(generate_toy_kg(7, 30, 3, 2))


@pytest.fixture(scope="module")
def eval_setup(eval_store):
    cfg = small_toy_train_config(d_w=5, d_h=4, r_w=2, r_h=2, m=4, k=4).model_config()
    params = init_params(cfg, eval_store.n_entities, eval_store.n_relations,
                         RngStream(11, "init"))
    priori = build_priori(eval_store)
    return cfg, params, priori


class TestEvaluate:
    def test_requires_augmented(self):
        store = generate_toy_kg(7, 30, 3, 2)
        with pytest.raises(StateError):
            evaluate(None, store, "test", None)

    def test_oracle_equivalence(self, eval_store, eval_setup):
        cfg, params, priori = eval_setup

        def score_fn(h, r):
            logits, _ = forward_batch(
                np.array([h]), np.array([r]), params, priori, cfg, mode="eval"
            )
            return logits[0]

        report = evaluate(params, eval_store, "test", cfg, priori=priori)
        expected = oracle_evaluate(score_fn, eval_store, "test")
        assert report.mrr == expected["mrr"]
        assert report.n_queries == expected["n_queries"]
        for n in (1, 3, 10):
            assert report.hits[n] == expected["hits"][n]

    def test_reciprocal_coverage(self, eval_store, eval_setup):
        cfg, params, priori = eval_setup
        report = evaluate(params, eval_store, "valid", cfg, priori=priori)
        n_original = int(np.sum(eval_store.valid[:, 1] < eval_store.n_base_relations))
        assert report.n_queries == 2 * n_original
        assert report.by_direction["tail"]["n_queries"] == n_original
        assert report.by_direction["head"]["n_queries"] == n_original

    def test_perfect_scorer(self, eval_store):
        cfg = small_toy_train_config(d_w=5, d_h=6, r_w=2, r_h=2).model_config()
        n = eval_store.n_entities
        params = init_params(cfg, n, eval_store.n_relations, RngStream(1, "init"))
        # A one-hot entity table with z equal to the true tail embedding is
        # unbuildable generically; instead rig scores by evaluating rank_of
        # on ideal score vectors.
        ranks = []
        base = eval_store.n_base_relations
        for h, r, t in eval_store.split("test"):
            if r >= base:
                continue
            for qh, qr, true_id in ((h, r, t), (t, r + base, h)):
                scores = np.zeros(n)
                scores[true_id] = 1.0
                known = eval_store.tails_by_query.get((int(qh), int(qr)), set())
                ranks.append(rank_of(scores, int(true_id), known - {int(true_id)}))
        assert np.all(np.array(ranks) == 1.0)

    def test_constant_scorer_matches_closed_form(self, eval_store):
        cfg = small_toy_train_config(d_w=5, d_h=6, r_w=2, r_h=2).model_config()
        n = eval_store.n_entities
        params = init_params(cfg, n, eval_store.n_relations, RngStream(2, "init"))
        params.ent[:] = 0.0  # logits collapse to zero for every entity
        report = evaluate(params, eval_store, "test", cfg)
        assert report.mrr == pytest.approx(constant_scorer_mrr(eval_store, "test"), abs=1e-9)

    def test_filter_never_hurts(self, eval_store, eval_setup):
        cfg, params, priori = eval_setup
        h, r, t = (int(x) for x in eval_store.test[0])
        logits, _ = forward_batch(np.array([h]), np.array([r]), params, priori, cfg,
                                  mode="eval")
        known = eval_store.tails_by_query.get((h, r), set())
        before = rank_of(logits[0], t, known - {t})
        # Add a known-true competitor: its removal can only improve the rank.
        competitor = int(np.argsort(-logits[0])[0])
        if competitor == t:
            competitor = int(np.argsort(-logits[0])[1])
        after = rank_of(logits[0], t, (known | {competitor}) - {t})
        assert after <= before


class TestTrainedToyPredictions:
    def test_top1_matches_generator_ground_truth(self, toy_store, toy_priori,
                                                 toy_train_config, toy_trained):
        """After training, the best-scored tail for a train query is the
        permutation image the generator built the triple from."""
        params, _, _ = toy_trained
        cfg = toy_train_config.model_config()
        hits = 0
        checked = 0
        for h, r, t in toy_store.train[:400]:
            if r != 0:
                continue
            logits, _ = forward_batch(np.array([h]), np.array([r]), params,
                                      toy_priori, cfg, mode="eval")
            hits += int(np.argmax(logits[0])) == int(t)
            checked += 1
        assert checked > 10
        assert hits / checked >= 0.95


class TestRunners:
    def test_single_mode_matches_plain_train(self, small_toy_store):
        from convd.training import train

        cfg = small_toy_train_config(max_epochs=2, eval_every=1)
        priori = build_priori(small_toy_store)
        rows = run_ablation(cfg, small_toy_store, priori, ["full"])
        assert len(rows) == 1
        params, history = train(cfg, small_toy_store, priori)
        report = evaluate(params, small_toy_store, "test", cfg.model_config(), priori=priori)
        assert rows[0]["test"]["mrr"] == report.mrr

    def test_four_modes_share_config_shape(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=1, eval_every=1)
        priori = build_priori(small_toy_store)
        rows = run_ablation(
            cfg, small_toy_store, priori, ["full", "no_priori", "no_attention", "no_both"]
        )
        assert [row["mode"] for row in rows] == ["full", "no_priori", "no_attention", "no_both"]
        assert len({row["config_hash"] for row in rows}) == 4

    def test_fraction_sweep_rows(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=1, eval_every=1)
        priori = build_priori(small_toy_store)
        rows = run_fraction_sweep(cfg, small_toy_store, priori, [0.25, 1.0])
        assert [row["fraction"] for row in rows] == [0.25, 1.0]
        assert [row["active_kernels"] for row in rows] == [1, 4]

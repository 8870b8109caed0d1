import copy

import numpy as np
import pytest

from convd.data import augment_reciprocal, build_priori, generate_toy_kg
from convd import evaluation
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

from conftest import make_store, many_to_many_rows, small_toy_train_config
from oracles import constant_scorer_mrr, oracle_evaluate, oracle_rank


def rank_one(scores, true_id, filter_out):
    """rank_of on a one-row chunk: the rank of one score vector."""
    cols = np.array(sorted(filter_out), dtype=np.int64)
    ranks = rank_of(np.asarray(scores)[None, :], np.array([true_id]),
                    np.zeros_like(cols), cols)
    return float(ranks[0])


class TestRankOf:
    def test_unique_max_is_rank_one(self):
        assert rank_one(np.array([0.1, 0.9, 0.3]), 1, set()) == 1.0

    def test_filtered_competitor_case(self):
        assert rank_one(np.array([0.9, 0.5, 0.1]), 1, {0}) == 1.0

    def test_tie_average(self):
        assert rank_one(np.array([0.9, 0.9, 0.1]), 0, set()) == 1.5
        assert rank_one(np.array([0.5, 0.5, 0.5]), 2, set()) == 2.0

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            rank_one(np.array([0.1, 0.2]), 5, set())

    def test_monotone_transform_invariance(self):
        rng = RngStream(1, "scores")
        for _ in range(20):
            scores = rng.uniform(12)
            true_id = int(rng.uniform(1)[0] * 12)
            filt = {int(i) for i in (rng.uniform(3) * 12).astype(int)} - {true_id}
            base = rank_one(scores, true_id, filt)
            for fn in (lambda s: 3 * s + 7, np.exp, lambda s: np.tanh(s) * 2):
                assert rank_one(fn(scores), true_id, filt) == base

    def test_matches_sort_oracle(self):
        rng = RngStream(2, "scores")
        for _ in range(50):
            scores = np.round(rng.uniform(15), 1)  # coarse grid forces ties
            true_id = int(rng.uniform(1)[0] * 15)
            filt = {int(i) for i in (rng.uniform(4) * 15).astype(int)} - {true_id}
            assert rank_one(scores, true_id, filt) == oracle_rank(scores, true_id, filt)

    @pytest.mark.parametrize("n_rows", [1, 2, 257])
    def test_chunk_matches_per_row_oracle(self, n_rows):
        rng = np.random.default_rng(n_rows)
        n = 15
        scores = np.round(rng.random((n_rows, n)), 1)  # coarse grid forces ties
        true_ids = rng.integers(0, n, size=n_rows)
        # 0 to n draws per row, with replacement, so cells repeat and may
        # land on the row's true entity. Row 0 also filters every entity.
        per_row = rng.integers(0, n + 1, size=n_rows)
        per_row[0] = n
        rows = np.repeat(np.arange(n_rows), per_row)
        cols = rng.integers(0, n, size=rows.size)
        rows = np.concatenate([rows, np.zeros(n, dtype=np.int64)])
        cols = np.concatenate([cols, np.arange(n)])
        order = rng.permutation(rows.size)
        rows, cols = rows[order], cols[order]
        assert rows.size > len(set(zip(rows.tolist(), cols.tolist())))
        got = rank_of(scores, true_ids, rows, cols)
        assert got.shape == (n_rows,)
        for i in range(n_rows):
            filt = set(cols[rows == i].tolist()) - {int(true_ids[i])}
            assert got[i] == oracle_rank(scores[i], int(true_ids[i]), filt)


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


def model_for(store, seed=11):
    cfg = small_toy_train_config(d_w=5, d_h=4, r_w=2, r_h=2, m=4, k=4).model_config()
    params = init_params(cfg, store.n_entities, store.n_relations, RngStream(seed, "init"))
    return cfg, params, build_priori(store)


@pytest.fixture(scope="module")
def eval_setup(eval_store):
    return model_for(eval_store)


@pytest.fixture(scope="module")
def many_to_many_store():
    return augment_reciprocal(make_store(*many_to_many_rows()))


def oracle_metrics(params, priori, cfg, store, split):
    def score_fn(h, r):
        logits, _ = forward_batch(
            np.array([h]), np.array([r]), params, priori, cfg, mode="eval"
        )
        return logits[0]

    return oracle_evaluate(score_fn, store, split)


class TestEvaluate:
    def test_requires_augmented(self):
        store = generate_toy_kg(7, 30, 3, 2)
        with pytest.raises(StateError):
            evaluate(None, store, "test", None)

    @pytest.mark.parametrize("store_name", ["eval_store", "many_to_many_store"],
                             ids=["functional_toy", "many_to_many"])
    def test_oracle_equivalence(self, store_name, request):
        eval_store = request.getfixturevalue(store_name)
        cfg, params, priori = model_for(eval_store)
        report = evaluate(params, eval_store, "test", cfg, priori=priori)
        expected = oracle_metrics(params, priori, cfg, eval_store, "test")
        assert report.mrr == expected["mrr"]
        assert report.n_queries == expected["n_queries"]
        for n in (1, 3, 10):
            assert report.hits[n] == expected["hits"][n]

    def test_filter_is_the_stores_index(self, many_to_many_store):
        # A shallow copy with a sampled split keeps the full index, so
        # competitors known only from the dropped rows stay filtered.
        store = many_to_many_store
        cfg, params, priori = model_for(store)
        original = store.valid[store.valid[:, 1] < store.n_base_relations]
        sub = copy.copy(store)
        sub.valid = original[::3]
        dropped = {(int(h), int(r)) for h, r, _ in original} - {
            (int(h), int(r)) for h, r, _ in sub.valid}
        assert 0 < sub.valid.shape[0] < original.shape[0] and dropped
        report = evaluate(params, sub, "valid", cfg, priori=priori)
        expected = oracle_metrics(params, priori, cfg, sub, "valid")
        assert report.n_queries == expected["n_queries"]
        assert report.mrr == expected["mrr"]
        for n in (1, 3, 10):
            assert report.hits[n] == expected["hits"][n]

    def test_chunks_split_anywhere(self, many_to_many_store, monkeypatch):
        # 7-query chunks split tail/head pairs, and the last one is ragged.
        cfg, params, priori = model_for(many_to_many_store)
        whole = evaluate(params, many_to_many_store, "test", cfg, priori=priori)
        assert whole.n_queries % 7 and whole.n_queries < evaluation._EVAL_BATCH
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", 7)
        chunked = evaluate(params, many_to_many_store, "test", cfg, priori=priori)
        assert chunked.as_dict() == whole.as_dict()

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
                ranks.append(rank_one(scores, int(true_id), known - {int(true_id)}))
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
        before = rank_one(logits[0], t, known - {t})
        # Add a known-true competitor: its removal can only improve the rank.
        competitor = int(np.argsort(-logits[0])[0])
        if competitor == t:
            competitor = int(np.argsort(-logits[0])[1])
        after = rank_one(logits[0], t, (known | {competitor}) - {t})
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

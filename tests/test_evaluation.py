import copy
import threading
import tracemalloc

import numpy as np
import pytest

from convd.data import augment_reciprocal, build_priori, generate_toy_kg
from convd import evaluation
from convd.errors import DimensionError, NumericError, StateError
from convd.evaluation import (
    evaluate,
    rank_of,
    _summarize,
)
from convd.model import ENTITY_BLOCK, forward_batch, init_params
from convd.rng import RngStream

from conftest import make_store, many_to_many_rows, small_toy_train_config, worker_counts
from oracles import constant_scorer_mrr, oracle_evaluate, oracle_rank


def rank_one(scores, true_id, filter_out):
    """rank_of on a one-row chunk: the rank of one score vector, which
    rank_of consumes, so it gets a copy."""
    cols = np.array(sorted(filter_out), dtype=np.int64)
    ranks = rank_of(np.array(scores, dtype=np.float64)[None, :], np.array([true_id]),
                    np.zeros_like(cols), cols, [0])
    return float(ranks[0])


def random_chunk(rng, n_rows, n, n_queries):
    """Coarse-grid (n_rows, n) scores, so ties are common, and n_queries
    queries: one per row, then rows drawn again, so rows are shared. Each
    row filters 0 to n cells drawn with replacement, so cells repeat and
    may land on a true entity; row 0 also filters every entity. Returns
    (scores, true_ids, rows, cols, query_rows)."""
    scores = np.round(rng.random((n_rows, n)), 1)
    query_rows = np.concatenate([np.arange(n_rows),
                                 rng.integers(0, n_rows, size=n_queries - n_rows)])
    true_ids = rng.integers(0, n, size=n_queries)
    per_row = rng.integers(0, n + 1, size=n_rows)
    rows = np.concatenate([np.repeat(np.arange(n_rows), per_row), np.zeros(n, dtype=np.int64)])
    cols = np.concatenate([rng.integers(0, n, size=per_row.sum()), np.arange(n)])
    order = rng.permutation(rows.size)
    return scores, true_ids, rows[order], cols[order], query_rows


def oracle_ranks(scores, true_ids, rows, cols, query_rows):
    """oracle_rank of each query of a chunk, against its row's cells."""
    return [oracle_rank(scores[q], t, set(cols[rows == q].tolist()) - {t})
            for q, t in zip(query_rows.tolist(), true_ids.tolist())]


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
        chunk = random_chunk(rng, n_rows, 15, 3 * n_rows)
        scores, true_ids, rows, cols, query_rows = chunk
        cells = set(zip(rows.tolist(), cols.tolist()))
        assert rows.size > len(cells)
        # Some true cells are known cells; beyond the fully filtered row 0,
        # some are not.
        known = [(q, t) in cells for q, t in zip(query_rows.tolist(), true_ids.tolist())]
        assert any(known) and (n_rows == 1 or not all(known))
        got = rank_of(scores.copy(), true_ids, rows, cols, query_rows)
        assert got.tolist() == oracle_ranks(*chunk)

    def test_scores_are_consumed(self):
        scores = np.array([[0.5, 0.7, 0.1]])
        assert rank_of(scores, [0], [0, 0], [1, 1], [0])[0] == 1.0
        assert scores.tolist() == [[0.5, -np.inf, 0.1]]

    @pytest.mark.parametrize("true_ids, query_rows", [
        ([0, 1], [0, 2]), ([0, 1], [-1, 0]), ([0, 1], [0]), ([0], [0, 1]),
    ], ids=["row_past_end", "negative_row", "too_few_rows", "too_many_rows"])
    def test_query_rows_checked(self, true_ids, query_rows):
        with pytest.raises(DimensionError):
            rank_of(np.zeros((2, 3)), true_ids, [], [], query_rows)

    def test_non_finite_true_score(self):
        with pytest.raises(NumericError):
            rank_of(np.array([[0.1, -np.inf]]), [1], [], [], [0])

    @pytest.mark.parametrize("shared", [True, False], ids=["gathered", "in_place"])
    def test_slabs_match_oracle_at_any_worker_count(self, monkeypatch, shared):
        # Slabs of 5 rows: 23 queries make four full slabs and a short last
        # one. Shared rows come sorted, as evaluate's do, and some row's
        # queries straddle a slab boundary.
        rng = np.random.default_rng(5)
        n, slab, n_queries = 37, 5, 23
        monkeypatch.setattr(evaluation, "_SLAB_CELLS", slab * n + n - 1)
        scores, true_ids, rows, cols, query_rows = random_chunk(
            rng, 9 if shared else n_queries, n, n_queries)
        query_rows = np.sort(query_rows)
        bounds = np.arange(slab, n_queries, slab)
        assert np.any(query_rows[bounds - 1] == query_rows[bounds]) == shared
        chunk = (scores, true_ids, rows, cols, query_rows)
        want = oracle_ranks(*chunk)
        for _ in worker_counts(monkeypatch, (1, 2, 3)):
            assert rank_of(scores.copy(), *chunk[1:]).tolist() == want


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


@pytest.fixture(scope="module")
def two_block_store():
    """Two entity blocks, so evaluate runs each next chunk's front-end
    beside this chunk's scoring."""
    return augment_reciprocal(generate_toy_kg(5, 2 * ENTITY_BLOCK, 4, 2))


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
        # Per direction, so ranks left in key order would show.
        assert report.by_direction == expected["by_direction"]

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

    @pytest.mark.parametrize("batch", [evaluation._EVAL_BATCH, 7])
    def test_each_distinct_query_is_forwarded_once(self, many_to_many_store, two_block_store,
                                                   monkeypatch, batch):
        # At most one forward is in flight, also where the next chunk's
        # front-end runs beside this chunk's scoring (two entity blocks),
        # and the report is the same at every worker count. Only the
        # many-to-many store repeats queries.
        lock = threading.Lock()
        forwarded, in_flight = [], [0, 0]  # in flight: now, most

        def counting_forward(h_ids, r_ids, *args, **kwargs):
            with lock:
                forwarded.append(list(zip(h_ids.tolist(), r_ids.tolist())))
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            try:
                return forward_batch(h_ids, r_ids, *args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(evaluation, "forward_batch", counting_forward)
        monkeypatch.setattr(evaluation, "_EVAL_BATCH", batch)
        for store, shared in ((many_to_many_store, True), (two_block_store, False)):
            cfg, params, priori = model_for(store)
            base = store.n_base_relations
            h, r, t = store.test[store.test[:, 1] < base].T.tolist()
            distinct = set(zip(h, r)) | {(tail, rel + base) for tail, rel in zip(t, r)}
            reports = []
            for _ in worker_counts(monkeypatch, (1, 2, 3)):
                forwarded.clear()
                report = evaluate(params, store, "test", cfg, priori=priori)
                reports.append(report.as_dict())
                rows = [query for call in forwarded for query in call]
                assert sorted(rows) == sorted(distinct)
                assert max(len(call) for call in forwarded) <= batch
                assert len(forwarded) == -(-len(distinct) // batch)
                assert (len(rows) < report.n_queries) == shared
            assert reports[1] == reports[0] and reports[2] == reports[0]
        assert in_flight == [0, 1]

    @pytest.mark.parametrize("kept", ["nothing", "reciprocals"])
    def test_split_without_original_triples_gives_the_zero_report(self, two_block_store,
                                                                  kept):
        store = two_block_store
        cfg, params, priori = model_for(store)
        sub = copy.copy(store)
        reciprocal = store.valid[:, 1] >= store.n_base_relations
        sub.valid = store.valid[:0] if kept == "nothing" else store.valid[reciprocal]
        assert kept == "nothing" or sub.valid.shape[0]
        zero = {"mrr": 0.0, "hits": {n: 0.0 for n in (1, 3, 10)}, "n_queries": 0}
        report = evaluate(params, sub, "valid", cfg, priori=priori)
        assert report.as_dict() == {**zero, "hits": {"1": 0.0, "3": 0.0, "10": 0.0},
                                    "by_direction": {"tail": zero, "head": zero}}

    def test_one_chunk_of_logits_alive_at_a_time(self, monkeypatch):
        # 2,000 entities, over three entity blocks, and 1,600 distinct test
        # queries, seven chunks: each chunk's logits die before the next
        # chunk's forward, so the peak stays below two chunks' logits.
        store = augment_reciprocal(generate_toy_kg(5, 2000, 4, 2))
        n = store.n_entities
        assert n >= 3 * ENTITY_BLOCK
        cfg, params, priori = model_for(store)
        for _ in worker_counts(monkeypatch, (1, 3)):
            # The first pass fills the store's caches.
            want = evaluate(params, store, "test", cfg, priori=priori)
            assert want.n_queries > 2 * evaluation._EVAL_BATCH
            tracemalloc.start()
            try:
                report = evaluate(params, store, "test", cfg, priori=priori)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.as_dict() == want.as_dict()
            assert peak < 2 * evaluation._EVAL_BATCH * n * 8, peak

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

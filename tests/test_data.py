import math
import os
import re

import numpy as np
import pytest

from convd.data import (
    PrioriTable,
    TripleStore,
    Vocab,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
    load_triples,
    smoothed_targets_matrix,
    tails_index,
    write_splits,
)
from convd.errors import ConfigError, DataError, GenerationError, StateError

from conftest import make_store, many_to_many_rows
from oracles import oracle_smoothed_targets, oracle_tails_by_query


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestLoadTriples:
    def test_basic_load_and_duplicates(self, tmp_path):
        path = write(tmp_path, "train.txt", ["a\tr\tb", "b\tr\tc", "a\tr\tb"])
        vocab, triples = load_triples(path)
        assert triples.shape == (3, 3)
        a, b, c = (vocab.entity_to_id[s] for s in "abc")
        # The duplicate a -> b is held once.
        assert tails_index(triples) == {(a, 0): {b}, (b, 0): {c}}

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.txt", [])
        vocab, triples = load_triples(path)
        assert triples.shape == (0, 3)
        assert vocab.n_entities == 0 and vocab.n_relations == 0

    def test_vocab_is_lexicographic_and_deterministic(self, tmp_path):
        path = write(tmp_path, "t.txt", ["zebra\tr2\tapple", "mango\tr1\tzebra"])
        v1, _ = load_triples(path)
        v2, _ = load_triples(path)
        assert v1.id_to_entity == sorted(["zebra", "apple", "mango"])
        assert v1.id_to_entity == v2.id_to_entity
        assert v1.relation_to_id == v2.relation_to_id

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", ["a\tr\tb", "only two\tfields"])
        with pytest.raises(DataError, match=":2"):
            load_triples(path)

    def test_strict_mode_rejects_unseen(self, tmp_path):
        train = write(tmp_path, "train.txt", ["a\tr\tb"])
        valid = write(tmp_path, "valid.txt", ["a\tr\tnew_entity"])
        vocab, _ = load_triples(train)
        with pytest.raises(DataError, match="new_entity"):
            load_triples(valid, vocab, strict=True)

    def test_non_strict_appends(self, tmp_path):
        train = write(tmp_path, "train.txt", ["a\tr\tb"])
        valid = write(tmp_path, "valid.txt", ["a\tr\tz"])
        vocab, _ = load_triples(train)
        vocab, triples = load_triples(valid, vocab, strict=False)
        assert vocab.entity_to_id["z"] == 2
        assert triples[0, 2] == 2

    @pytest.mark.skipif(
        "CONVD_FB15K237_DIR" not in os.environ,
        reason="set CONVD_FB15K237_DIR to run against the real dataset",
    )
    def test_fb15k237_statistics(self):
        path = os.path.join(os.environ["CONVD_FB15K237_DIR"], "train.txt")
        vocab, triples = load_triples(path)
        assert triples.shape[0] == 272_115
        assert vocab.n_entities == 14_541
        assert vocab.n_relations == 237


class TestAugment:
    def test_single_triple(self):
        store = make_store([("a", "r", "b")])
        aug = augment_reciprocal(store)
        assert aug.train.shape[0] == 2
        assert aug.n_relations == 2
        assert aug.n_base_relations == 1

    def test_relation_doubling_matches_wn18rr_arithmetic(self):
        # 11 base relations, the known WN18RR count, must double to 22.
        triples = [(f"e{i}", f"r{i % 11:02d}", f"e{i + 1}") for i in range(22)]
        aug = augment_reciprocal(make_store(triples))
        assert aug.n_relations == 22

    def test_all_true_mirror(self):
        store = make_store([("a", "r", "b"), ("b", "r", "c")])
        aug = augment_reciprocal(store)
        base = aug.n_base_relations
        for h, r, t in aug.train:
            mirrored = (int(t), int(r) + base if r < base else int(r) - base, int(h))
            assert mirrored[2] in aug.tails_by_query[mirrored[:2]]

    def test_double_augmentation_rejected(self):
        aug = augment_reciprocal(make_store([("a", "r", "b")]))
        with pytest.raises(StateError):
            augment_reciprocal(aug)

    def test_involution_recovers_original(self):
        store = make_store([("a", "r", "b"), ("c", "s", "a"), ("a", "r", "b")])
        aug = augment_reciprocal(store)
        base = aug.n_base_relations
        recovered = sorted(
            (int(t), int(r) - base, int(h)) if r >= base else (int(h), int(r), int(t))
            for h, r, t in aug.train
        )
        original = sorted(map(tuple, store.train.tolist()))
        assert recovered == sorted(original * 2)


class TestPriori:
    def test_unseen_pair_is_zero(self):
        table = build_priori(make_store([("a", "r", "b")]), a=2.0)
        assert table.value(99, 99) == 0.0

    def test_log2_of_four(self):
        store = make_store([("a", "r", "b")] * 3)
        table = build_priori(store, a=2.0)
        assert table.value(store.vocab.entity_to_id["a"], 0) == pytest.approx(2.0)

    def test_five_triple_hand_tally(self):
        rows = [
            ("e0", "r0", "e1"),
            ("e0", "r0", "e2"),
            ("e1", "r0", "e2"),
            ("e2", "r1", "e0"),
            ("e0", "r1", "e1"),
        ]
        store = make_store(rows)
        table = build_priori(store, a=3.0)
        eid = store.vocab.entity_to_id
        rid = store.vocab.relation_to_id
        assert table.freq == {
            (eid["e0"], rid["r0"]): 2,
            (eid["e1"], rid["r0"]): 1,
            (eid["e2"], rid["r1"]): 1,
            (eid["e0"], rid["r1"]): 1,
        }
        assert table.value(eid["e0"], rid["r0"]) == pytest.approx(math.log(3, 3))

    def test_no_leakage_from_valid_and_test(self):
        train = [("a", "r", "b"), ("b", "r", "c")]
        with_eval = make_store(train, valid=[("a", "r", "c")], test=[("c", "r", "a")])
        without = make_store(train)
        t1 = build_priori(with_eval)
        # Same counts keyed by surface form regardless of extra splits.
        def by_name(store, table):
            return {
                (store.vocab.id_to_entity[h], store.vocab.id_to_relation[r]): c
                for (h, r), c in table.freq.items()
            }
        assert by_name(with_eval, t1) == by_name(without, build_priori(without))

    def test_invalid_base(self):
        with pytest.raises(ConfigError):
            build_priori(make_store([("a", "r", "b")]), a=1.0)

    @pytest.mark.parametrize("base", [2.0, 3.0])
    def test_values_equal_value_loop(self, base):
        rng = np.random.default_rng(5)
        store = make_store(*many_to_many_rows())
        table = build_priori(store, a=base)
        # Heads and relations past every key, and negative ids, are unseen.
        h_ids = rng.integers(-2, store.n_entities + 3, size=400)
        r_ids = rng.integers(-2, store.n_relations + 3, size=400)
        seen = sum((h, r) in table.freq for h, r in zip(h_ids.tolist(), r_ids.tolist()))
        assert 0 < seen < 400
        want = np.array([table.value(h, r) for h, r in zip(h_ids, r_ids)], dtype=np.float64)
        assert table.values(h_ids, r_ids).tobytes() == want.tobytes()
        empty = PrioriTable(freq={}, log_base=base)
        assert empty.values(h_ids, r_ids).tobytes() == np.zeros(400).tobytes()


def train_targets(store, eps, n_entities):
    """Sorted train queries and their smoothed 1-N target rows."""
    index = tails_index(store.train)
    queries = sorted(index)
    return queries, smoothed_targets_matrix(queries, index, eps, n_entities)


class TestOneToN:
    def test_matches_per_row_loop_reference(self):
        # Toy relations are functions, so key the positives by head alone:
        # each head then has one tail per relation, several per query.
        store = generate_toy_kg(7, 60, 4, 2)
        by_head = {}
        for h, _, t in store.train:
            by_head.setdefault(int(h), set()).add(int(t))
        queries = sorted(by_head, key=lambda h: (-h % 7, h))
        assert max(len(by_head[q]) for q in queries) > 1
        for batch in (queries, queries[:1]):
            got = smoothed_targets_matrix(batch, by_head, 0.1, store.n_entities)
            want = oracle_smoothed_targets(batch, by_head, 0.1, store.n_entities)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_smoothing_is_indicator(self):
        store = make_store([("a", "r", "b")])
        _, targets = train_targets(store, 0.0, store.n_entities)
        assert set(np.unique(targets[0])) == {0.0, 1.0}

    def test_smoothing_values(self):
        store = make_store([("a", "r", "b")])
        _, targets = train_targets(store, 0.1, 10)
        smoothed = targets[0]
        assert smoothed[store.vocab.entity_to_id["b"]] == pytest.approx(0.91)
        others = np.delete(smoothed, store.vocab.entity_to_id["b"])
        assert np.allclose(others, 0.01)

    def test_grouping(self):
        store = make_store([("a", "r", "b"), ("a", "r", "c")])
        queries, targets = train_targets(store, 0.1, store.n_entities)
        assert len(queries) == 1 and targets.shape[0] == 1
        assert np.count_nonzero(targets[0] > 0.5) == 2

    def test_min_max_invariant(self):
        store = make_store([("a", "r", "b"), ("a", "s", "c"), ("b", "r", "c")])
        eps, n = 0.1, store.n_entities
        queries, targets = train_targets(store, eps, n)
        for query, smoothed in zip(queries, targets):
            assert smoothed.min() == pytest.approx(eps / n)
            assert smoothed.max() == pytest.approx(1 - eps + eps / n)
            expected_sum = len(tails_index(store.train)[query]) * (1 - eps) + eps
            assert smoothed.sum() == pytest.approx(expected_sum)


class TestFilteredCandidates:
    def test_empty(self):
        store = augment_reciprocal(make_store([("a", "r", "b")]))
        eid = store.vocab.entity_to_id
        assert store.tails_by_query.get((eid["b"], 0), set()) == set()
        assert store.tails_by_query.get((99, 99), set()) == set()

    def test_union_across_splits(self):
        store = augment_reciprocal(make_store(
            [("h", "r", "t1")], test=[("h", "r", "t2")]
        ))
        eid = store.vocab.entity_to_id
        got = store.tails_by_query[(eid["h"], 0)]
        assert got == {eid["t1"], eid["t2"]}

    def test_split_independence(self):
        in_train = augment_reciprocal(make_store([("h", "r", "t")]))
        in_test = augment_reciprocal(make_store([("x", "r", "y")], test=[("h", "r", "t")]))
        eid1, eid2 = in_train.vocab.entity_to_id, in_test.vocab.entity_to_id
        assert in_train.tails_by_query[(eid1["h"], 0)] == {eid1["t"]}
        assert in_test.tails_by_query[(eid2["h"], 0)] == {eid2["t"]}


class TestTailsIndex:
    @pytest.mark.parametrize("make", [
        lambda: augment_reciprocal(make_store(
            [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "c"), ("b", "s", "a")],
            valid=[("a", "r", "d"), ("a", "r", "b")],
            test=[("a", "r", "c"), ("b", "s", "d")],
        )),
        lambda: augment_reciprocal(generate_toy_kg(5, 40, 3, 2)),
        lambda: augment_reciprocal(make_store(*many_to_many_rows())),
    ], ids=["duplicates_across_splits", "augmented_toy", "many_to_many"])
    def test_matches_per_row_oracle(self, make):
        store = make()
        want = oracle_tails_by_query(store)
        assert store.tails_by_query == want
        assert all(type(x) is int for key, tails in store.tails_by_query.items()
                   for x in (*key, *tails))
        # The sorted form holds one cell per triple, keyed head * R + relation.
        n_triples = sum(store.split(name).shape[0] for name in ("train", "valid", "test"))
        assert store.known_query.shape == store.known_tail.shape == (n_triples,)
        assert np.all(np.diff(store.known_query) >= 0)
        expanded = {}
        for key, tail in zip(store.known_query.tolist(), store.known_tail.tolist()):
            expanded.setdefault(divmod(key, store.n_relations), set()).add(tail)
        assert expanded == want
        # known_cells expands a batch of queries, one with no triple included.
        queries = sorted(want, reverse=True) + [(store.n_entities, 0)]
        rows, cols = store.known_cells(np.array([h for h, _ in queries]),
                                       np.array([r for _, r in queries]))
        assert np.all(np.diff(rows) >= 0)
        got = {}
        for row, col in zip(rows.tolist(), cols.tolist()):
            got.setdefault(queries[row], set()).add(col)
        assert got == {q: want[q] for q in queries if q in want}

    def test_only_augmented_stores_are_indexed(self):
        store = make_store(*many_to_many_rows())
        assert store.tails_by_query is None
        assert augment_reciprocal(store).tails_by_query is not None

    def test_many_to_many_store_has_multi_tail_queries(self):
        store = augment_reciprocal(make_store(*many_to_many_rows()))
        assert max(len(t) for t in store.tails_by_query.values()) > 1

    @pytest.mark.parametrize("split, triple", [
        ("train", (-1, 0, 1)),
        ("test", (0, 0, 3)),
        ("valid", (0, 2, 1)),
    ], ids=["negative_head", "tail_equals_n_entities", "relation_equals_n_relations"])
    def test_out_of_vocabulary_id_names_the_triple(self, split, triple):
        vocab = Vocab.from_symbols(["a", "b", "c"], ["r", "s"])
        good = np.array([[0, 0, 1], [2, 1, 0]], dtype=np.int64)
        splits = {"train": good, "valid": good, "test": good}
        splits[split] = np.concatenate([good, np.array([triple, (5, 5, 5)])])
        with pytest.raises(DataError, match=re.escape(f"triple {triple} outside")):
            TripleStore(vocab=vocab, **splits)


class TestToyKg:
    def test_determinism(self):
        a = generate_toy_kg(11, 50, 3, 2)
        b = generate_toy_kg(11, 50, 3, 2)
        for split in ("train", "valid", "test"):
            assert np.array_equal(a.split(split), b.split(split))

    def test_depth_one_composition_equals_permutation(self):
        store = generate_toy_kg(5, 30, 3, composition_depth=1)
        pairs = {}
        for h, r, t in np.concatenate([store.train, store.valid, store.test]):
            pairs.setdefault(int(r), set()).add((int(h), int(t)))
        assert pairs[2] == pairs[0]

    def test_counts_match_generator_arithmetic(self):
        store = generate_toy_kg(1, 200, 4, 2)
        total = 200 * 4
        assert store.train.shape[0] == (8 * total) // 10 == 640
        assert store.valid.shape[0] == total // 10 == 80
        assert store.test.shape[0] == total - 640 - 80 == 80

    def test_coverage(self):
        store = generate_toy_kg(2, 25, 4, 3)
        train_ents = set(store.train[:, 0]) | set(store.train[:, 2])
        train_rels = set(store.train[:, 1])
        for split in (store.valid, store.test):
            for h, r, t in split:
                assert h in train_ents and t in train_ents and r in train_rels

    def test_too_small_rejected(self):
        with pytest.raises(GenerationError):
            generate_toy_kg(1, 10, 2, 1)
        with pytest.raises(GenerationError):
            generate_toy_kg(1, 20, 1, 1)

    def test_write_splits_round_trip(self, tmp_path):
        store = generate_toy_kg(4, 30, 2, 1)
        write_splits(store, tmp_path)
        loaded = TripleStore.from_dir(str(tmp_path))
        for split in ("train", "valid", "test"):
            got = {tuple(row) for row in loaded.split(split).tolist()}
            want = {tuple(row) for row in store.split(split).tolist()}
            assert got == want

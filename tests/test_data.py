import math
import os
import re

import numpy as np
import pytest

from convd.cli import dataset_fingerprint
from convd.data import (
    QueryIndex,
    TripleStore,
    Vocab,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
    load_triples,
    smoothed_targets_matrix,
    stable_key_order,
    write_splits,
)
from convd.errors import ConfigError, DataError, GenerationError, StateError

from conftest import make_store, many_to_many_rows, priori_freq, priori_table, priori_value
from oracles import (
    oracle_load_triples,
    oracle_pair_counts,
    oracle_smoothed_targets,
    oracle_tails_by_query,
    oracle_tails_index,
)


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def write_bytes(tmp_path, name, raw):
    path = tmp_path / name
    path.write_bytes(raw)
    return str(path)


# Train files the loader must read as the per-line oracle does.
ORACLE_FILES = {
    "blank_lines": b"\n\na\tr\tb\n\n\nb\tr\tc\n\n\n",
    "crlf": b"a\tr\tb\r\nb\tr\tc\r\n",
    "lone_cr": b"a\tr\tb\rb\tr\tc\r",
    "mixed_line_ends": b"\r\na\tr\tb\r\r\nb\ts\tc\n\rc\tr\ta",
    "no_final_newline": b"a\tr\tb\nb\tr\tc",
    "duplicates": b"a\tr\tb\na\tr\tb\nb\tr\ta\na\tr\tb\n",
    "non_ascii_and_spaces": "Zoë\tparent of\tmy entity\n東京\tcapital\tZoë\n".encode(),
    "empty_fields": b"a\t\tb\n\tr\tc\n\t\t\n",
    # Only CR and LF end a line; str.splitlines would also break at these.
    "other_breaks_in_symbols": "a\x0bb\tr\u2028s\tc\x85d\n\x1c\tr\u2028s\te\x0c\n".encode(),
    "leading_bom": b"\xef\xbb\xbfa\tr\tb\nb\tr\ta\n",
    "inner_bom": b"a\tr\tb\n\xef\xbb\xbfc\tr\ta\n",
}

# Later splits over the train file "a r b / b s c", loaded in order with
# the train vocabulary.
LATER_SPLITS = {
    "known_only": [b"b\tr\ta\r\n\r\nc\ts\tb", b"a\ts\tc\n"],
    "new_entities": [b"a\tr\tz\n0\tr\tb\n", b"y\ts\tz\n"],
    "new_relation": [b"a\tnew rel\tb\n", b"c\tr\ta\n"],
    # Strict loads name the unseen entity z, not the relation q before it.
    "new_entity_and_relation": [b"a\tq\tz\n", b"c\tr\ta\n"],
    "new_in_test_only": [b"c\tr\ta\n", b"c\tq\tx\n"],
}

# Malformed files and the physical line each must be reported at.
MALFORMED_FILES = {
    # 2 + 1 + 3 tabs: the file's tab total matches three good lines.
    "two_then_four_fields": (b"a\tr\tb\na\tr\nb\tr\tc\td\n", 2),
    "after_blank_lines": (b"\n\na\tr\tb\n\n\nonly one field\na\tr\tb\n", 6),
    "crlf_blank_lines": (b"a\tr\tb\r\n\r\n\rb\tr\n", 4),
    "last_line_no_newline": (b"a\tr\tb\nb\tr\tc\nc\tr", 3),
}


def assert_matches_oracle(vocab, ids, entities, relations, rows):
    assert vocab.id_to_entity == entities and vocab.id_to_relation == relations
    assert vocab.entity_to_id == {e: i for i, e in enumerate(entities)}
    assert vocab.relation_to_id == {r: i for i, r in enumerate(relations)}
    assert ids.dtype == np.int64 and ids.shape == (len(rows), 3)
    assert ids.flags.c_contiguous
    assert ids.tolist() == [list(row) for row in rows]


class TestLoadTriples:
    def test_basic_load_and_duplicates(self, tmp_path):
        path = write(tmp_path, "train.txt", ["a\tr\tb", "b\tr\tc", "a\tr\tb"])
        vocab, triples = load_triples(path)
        assert triples.shape == (3, 3)
        a, b, c = (vocab.entity_to_id[s] for s in "abc")
        # The dict oracle holds the duplicate a -> b once, the index twice.
        assert oracle_tails_index(triples) == {(a, 0): {b}, (b, 0): {c}}
        rows, tails = QueryIndex.of(triples, 1).cells([a, b], [0, 0])
        assert rows.tolist() == [0, 0, 1] and tails.tolist() == [b, b, c]

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

    @pytest.mark.parametrize("raw", ORACLE_FILES.values(), ids=ORACLE_FILES.keys())
    def test_matches_per_line_oracle(self, tmp_path, raw):
        path = write_bytes(tmp_path, "train.txt", raw)
        assert_matches_oracle(*load_triples(path), *oracle_load_triples(path))

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "non_strict"])
    @pytest.mark.parametrize("later", LATER_SPLITS.values(), ids=LATER_SPLITS.keys())
    def test_later_splits_match_per_line_oracle(self, tmp_path, later, strict):
        train = write_bytes(tmp_path, "train.txt", b"a\tr\tb\nb\ts\tc\n")
        vocab, _ = load_triples(train)
        entities, relations, _ = oracle_load_triples(train)
        for name, raw in zip(("valid.txt", "test.txt"), later):
            path = write_bytes(tmp_path, name, raw)
            try:
                entities, relations, rows = oracle_load_triples(
                    path, entities, relations, strict)
            except KeyError as exc:
                message = f"{path}: symbol {exc.args[0]!r} not present in the vocabulary"
                with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                    load_triples(path, vocab, strict=strict)
                return
            vocab, ids = load_triples(path, vocab, strict=strict)
            assert_matches_oracle(vocab, ids, entities, relations, rows)

    @pytest.mark.parametrize("raw, lineno", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_malformed_line_names_its_physical_line(self, tmp_path, raw, lineno):
        path = write_bytes(tmp_path, "train.txt", raw)
        with pytest.raises(ValueError) as oracle:
            oracle_load_triples(path)
        assert oracle.value.args == (lineno,)
        message = f"{path}:{lineno}: expected head<TAB>relation<TAB>tail"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_triples(path)

    def test_decode_error_is_reported_before_a_malformed_line(self, tmp_path):
        path = write_bytes(tmp_path, "train.txt", b"a\tr\nb\tr\tc\xff\n")
        message = f"{path}: not valid UTF-8 text (invalid start byte)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_triples(path)

    def test_byte_order_mark_is_not_part_of_the_first_symbol(self, tmp_path):
        write_bytes(tmp_path, "train.txt", b"\xef\xbb\xbfa\tr\tb\n")
        write(tmp_path, "valid.txt", ["a\tr\tb"])
        write(tmp_path, "test.txt", ["b\tr\ta"])
        store = TripleStore.from_dir(str(tmp_path), strict=True)
        assert store.vocab.id_to_entity == ["a", "b"]
        assert store.valid.tolist() == [[0, 0, 1]]

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


class TestStableKeyOrder:
    @pytest.mark.parametrize("top", [2**16 - 1, 2**32 - 1, 2**40],
                             ids=["one_pass", "two_passes", "three_passes"])
    def test_equals_stable_argsort(self, top):
        # 40 distinct keys, the largest `top`, each drawn ~100 times.
        rng = np.random.default_rng(top % 1000)
        pool = np.append(rng.integers(0, top, size=39), top)
        keys = pool[rng.integers(0, pool.size, size=4000)]
        assert stable_key_order(keys).tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize("keys", [[], [7], [0, 0, 0], [2**16, 1, 2**16, 0]],
                             ids=["empty", "single", "all_zero", "second_digit_ties"])
    def test_small_inputs(self, keys):
        keys = np.array(keys, dtype=np.int64)
        order = stable_key_order(keys)
        want = np.argsort(keys, kind="stable")
        assert order.dtype == want.dtype and order.tolist() == want.tolist()

    def test_query_index_of_many_to_many_store_is_unchanged(self):
        # Each distinct key once, its run starting where the key first
        # appears in stable argsort order, and the tails in that order.
        store = augment_reciprocal(make_store(*many_to_many_rows()))
        triples = np.concatenate([store.train, store.valid, store.test])
        for rows in (store.train, triples):
            keys = rows[:, 0] * store.n_relations + rows[:, 1]
            order = np.argsort(keys, kind="stable")
            distinct, starts = np.unique(keys[order], return_index=True)
            assert distinct.size < rows.shape[0]
            index = QueryIndex.of(rows, store.n_relations)
            assert index.keys.tolist() == distinct.tolist()
            assert index.offsets.tolist() == starts.tolist() + [rows.shape[0]]
            assert index.tails.tolist() == rows[order, 2].tolist()


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
        assert priori_value(table, 99, 99) == 0.0

    def test_log2_of_four(self):
        store = make_store([("a", "r", "b")] * 3)
        table = build_priori(store, a=2.0)
        assert priori_value(table, store.vocab.entity_to_id["a"], 0) == pytest.approx(2.0)

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
        assert priori_freq(table) == {
            (eid["e0"], rid["r0"]): 2,
            (eid["e1"], rid["r0"]): 1,
            (eid["e2"], rid["r1"]): 1,
            (eid["e0"], rid["r1"]): 1,
        }
        assert priori_value(table, eid["e0"], rid["r0"]) == pytest.approx(math.log(3, 3))

    def test_no_leakage_from_valid_and_test(self):
        train = [("a", "r", "b"), ("b", "r", "c")]
        with_eval = make_store(train, valid=[("a", "r", "c")], test=[("c", "r", "a")])
        without = make_store(train)
        t1 = build_priori(with_eval)
        # Same counts keyed by surface form regardless of extra splits.
        def by_name(store, table):
            return {
                (store.vocab.id_to_entity[h], store.vocab.id_to_relation[r]): c
                for (h, r), c in priori_freq(table).items()
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
        counts = oracle_pair_counts(store.train)
        # Heads and relations past every key, and negative ids, are unseen.
        # So is (h, -1) for h >= 1, although its key h * R - 1 is the key of
        # (h - 1, R - 1); `aliased` holds every h whose (h - 1, R - 1) is seen.
        n_rel = store.n_relations
        aliased = [h + 1 for h, r in sorted(counts) if r == n_rel - 1]
        h_ids = np.concatenate([rng.integers(-2, store.n_entities + 3, size=400), aliased])
        r_ids = np.concatenate([rng.integers(-2, n_rel + 3, size=400), [-1] * len(aliased)])
        pairs = list(zip(h_ids.tolist(), r_ids.tolist()))
        seen = sum(pair in counts for pair in pairs)
        assert 0 < seen < len(pairs) and aliased
        want = np.array([math.log2(counts.get(pair, 0) + 1) / math.log2(base) for pair in pairs])
        assert table.values(h_ids, r_ids).tobytes() == want.tobytes()
        assert [priori_value(table, h, r) for h, r in pairs] == want.tolist()
        empty = priori_table({}, n_rel, base)
        assert empty.values(h_ids, r_ids).tobytes() == np.zeros(len(pairs)).tobytes()


def dense(targets):
    """The matrix a `SmoothedTargets` stands for, written out cell by cell."""
    out = np.full((targets.n_queries, targets.n_entities), targets.negative)
    out[targets.rows, targets.cols] = targets.positive
    return out


def train_targets(store, eps, n_entities):
    """Sorted train queries and their smoothed 1-N target rows, as training
    builds them: positions into the train index."""
    heads, rels = store.train_index.queries()
    queries = list(zip(heads.tolist(), rels.tolist()))
    targets = smoothed_targets_matrix(np.arange(len(queries)), store.train_index, eps, n_entities)
    return queries, dense(targets)


class TestOneToN:
    def test_matches_per_row_loop_reference(self):
        # Positions into the many-to-many store's train index, where a
        # duplicated train triple (and its mirror) lists its tail twice;
        # the oracle reads each query's tails from the triples, row by row.
        train, valid, test = many_to_many_rows()
        store = augment_reciprocal(make_store(train + train[:1], valid, test))
        per_row = [[t for h, r, t in store.train.tolist() if (h, r) == q]
                   for q in sorted(oracle_tails_index(store.train))]
        assert any(len(set(t)) < len(t) for t in per_row)
        assert max(len(set(t)) for t in per_row) > 1
        batch = np.random.default_rng(29).permutation(len(per_row))
        for queries in (batch, batch[:1]):
            got = dense(smoothed_targets_matrix(queries, store.train_index, 0.1, store.n_entities))
            want = oracle_smoothed_targets(queries, per_row, 0.1, store.n_entities)
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
            expected_sum = len(oracle_tails_index(store.train)[query]) * (1 - eps) + eps
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


STORES = [
    lambda: augment_reciprocal(make_store(
        [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "c"), ("b", "s", "a")],
        valid=[("a", "r", "d"), ("a", "r", "b")],
        test=[("a", "r", "c"), ("b", "s", "d")],
    )),
    lambda: augment_reciprocal(generate_toy_kg(5, 40, 3, 2)),
    lambda: augment_reciprocal(make_store(*many_to_many_rows())),
]
STORE_IDS = ["duplicates_across_splits", "augmented_toy", "many_to_many"]


def assert_index_matches(index, n_triples, want):
    """`index` holds each query once, keyed head * R + relation and sorted,
    with one tail per triple in the query's run, and groups them as the
    dict oracle `want` does, through its fields, `queries` and `index[i]`;
    `cells` expands a batch of queries, one with no triple included."""
    assert index.keys.shape == (len(want),) and index.tails.shape == (n_triples,)
    assert np.all(np.diff(index.keys) > 0)
    assert index.offsets.shape == (len(want) + 1,) and np.all(np.diff(index.offsets) > 0)
    assert index.offsets[0] == 0 and index.offsets[-1] == n_triples
    bounds = index.offsets.tolist()
    expanded = {divmod(key, index.n_relations): set(index.tails[lo:hi].tolist())
                for key, lo, hi in zip(index.keys.tolist(), bounds, bounds[1:])}
    assert expanded == want
    heads, rels = index.queries()
    assert heads.dtype == rels.dtype == np.int64
    assert list(zip(heads.tolist(), rels.tolist())) == sorted(want)
    assert [set(index[i].tolist()) for i in range(len(want))] == [want[q] for q in sorted(want)]
    queries = sorted(want, reverse=True) + [(max((h for h, _ in want), default=0) + 1, 0)]
    rows, cols = index.cells(np.array([h for h, _ in queries]),
                             np.array([r for _, r in queries]))
    assert np.all(np.diff(rows) >= 0)
    got = {}
    for row, col in zip(rows.tolist(), cols.tolist()):
        got.setdefault(queries[row], set()).add(col)
    assert got == {q: want[q] for q in queries if q in want}


class TestTailsIndex:
    @pytest.mark.parametrize("make", STORES, ids=STORE_IDS)
    def test_matches_per_row_oracle(self, make):
        store = make()
        want = oracle_tails_by_query(store)
        assert store.tails_by_query == want
        assert all(type(x) is int for key, tails in store.tails_by_query.items()
                   for x in (*key, *tails))
        n_triples = sum(store.split(name).shape[0] for name in ("train", "valid", "test"))
        assert_index_matches(store.known, n_triples, want)

    @pytest.mark.parametrize("make", STORES, ids=STORE_IDS)
    def test_train_index_matches_per_row_oracle(self, make):
        # Training groups the train split alone; the queries come out in
        # sorted (head, relation) order, each with its tails, duplicates
        # included.
        store = make()
        index = store.train_index
        want = oracle_tails_index(store.train)
        assert_index_matches(index, store.train.shape[0], want)
        assert sum(len(index[i]) for i in range(len(want))) == store.train.shape[0]
        for i, query in enumerate(sorted(want)):
            per_row = [int(t) for h, r, t in store.train if (h, r) == query]
            assert sorted(index[i].tolist()) == sorted(per_row)

    def test_index_over_zero_triples(self):
        index = QueryIndex.of(np.zeros((0, 3), dtype=np.int64), 2)
        assert_index_matches(index, 0, {})
        _, counts = index.spans([0, -1, 5], [0, 1, 9])
        assert counts.tolist() == [0, 0, 0]

    def test_only_augmented_stores_are_indexed(self):
        store = make_store(*many_to_many_rows())
        assert store.tails_by_query is None
        assert augment_reciprocal(store).tails_by_query is not None

    def test_tails_by_query_is_built_at_its_first_read(self):
        store = augment_reciprocal(make_store(*many_to_many_rows()))
        assert "tails_by_query" not in vars(store)
        index = store.tails_by_query
        assert index == oracle_tails_by_query(store)
        assert store.tails_by_query is index

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


def minimum_graphs():
    """The smallest graphs the generator accepts: N = 20, R 2 and 3, depth
    1-3, seeds 1-10, each keyed by (seed, R, depth)."""
    return [((seed, n_rel, depth), generate_toy_kg(seed, 20, n_rel, depth))
            for seed in range(1, 11) for n_rel in (2, 3) for depth in (1, 2, 3)]


class TestToyKg:
    def test_determinism(self):
        a = generate_toy_kg(11, 50, 3, 2)
        b = generate_toy_kg(11, 50, 3, 2)
        for split in ("train", "valid", "test"):
            assert np.array_equal(a.split(split), b.split(split))

    def test_depth_one_composition_equals_permutation(self):
        # Read pi from relation 0: relation 1 must be its inverse, and
        # relation j >= 2 pi applied 1 + (j - 2) % depth times (pi itself
        # at depth one).
        n, n_rel = 30, 6
        for depth in (1, 2, 3):
            store = generate_toy_kg(5, n, n_rel, composition_depth=depth)
            triples = np.concatenate([store.train, store.valid, store.test])
            tails = []
            for r in range(n_rel):
                rows = triples[triples[:, 1] == r]
                rows = rows[np.argsort(rows[:, 0])]
                assert rows[:, 0].tolist() == list(range(n))
                tails.append(rows[:, 2])
            pi = tails[0]
            assert sorted(pi.tolist()) == list(range(n))
            assert tails[1][pi].tolist() == list(range(n))
            for r in range(2, n_rel):
                want = np.arange(n)
                for _ in range(1 + (r - 2) % depth):
                    want = pi[want]
                assert tails[r].tolist() == want.tolist(), (depth, r)

    def test_counts_match_generator_arithmetic(self):
        store = generate_toy_kg(1, 200, 4, 2)
        total = 200 * 4
        assert store.train.shape[0] == (8 * total) // 10 == 640
        assert store.valid.shape[0] == total // 10 == 80
        assert store.test.shape[0] == total - 640 - 80 == 80
        # The minimum graphs: every split populated at N = 20.
        for (seed, n_rel, depth), store in minimum_graphs():
            total = 20 * n_rel
            sizes = [store.split(s).shape[0] for s in ("train", "valid", "test")]
            want = [(8 * total) // 10, total // 10, total - (8 * total) // 10 - total // 10]
            assert sizes == want and min(sizes) > 0, (seed, n_rel, depth)

    def test_coverage(self):
        cases = [((2, 4, 3), generate_toy_kg(2, 25, 4, 3))] + minimum_graphs()
        for key, store in cases:
            train_ents = set(store.train[:, 0].tolist()) | set(store.train[:, 2].tolist())
            train_rels = set(store.train[:, 1].tolist())
            assert train_ents == set(range(store.n_entities)), key
            assert train_rels == set(range(store.n_relations)), key

    @pytest.mark.parametrize("seed, n_entities, n_relations, depth, fingerprint", [
        (1, 200, 4, 2, "ae0749ce412a2973"),
        (2, 200, 4, 2, "79d84260af7fcc9c"),
        (1, 5000, 2, 2, "014725c047abc43a"),
        (2, 5000, 2, 2, "b221554eba4c358e"),
        (2, 1536, 2, 1, "0dddf8a819bdde68"),
        (1, 20, 2, 1, "859faf2e50324b68"),
        # Some relation's first triple here holds no new entity, so these
        # bytes also pin the relation half of the coverage rule.
        (1, 20, 8, 1, "c5ee7788256141b7"),
    ])
    def test_generated_bytes_are_pinned(
        self, tmp_path, seed, n_entities, n_relations, depth, fingerprint
    ):
        # Unlike the golden test, this holds on every BLAS and CPU: the
        # generator's draws are integer hashes, scaled to uniforms exactly.
        write_splits(generate_toy_kg(seed, n_entities, n_relations, depth), tmp_path)
        assert dataset_fingerprint(tmp_path) == fingerprint

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

"""Triple ingestion, vocabularies, reciprocal augmentation, the sorted
(head, relation) query index, 1-N targets, the priori table (counts read
from the train split's query index), and a deterministic toy graph
generator for desk-scale runs.

Triple file format: UTF-8 with an optional leading byte-order mark, LF,
CRLF or CR line ends, one `head<TAB>relation<TAB>tail` per line, no header,
tabs forbidden inside symbols; empty lines are skipped. `load_triples`
decodes and splits a whole file at once, and maps its symbols to ids in
bulk. Every (head, relation) grouping, of a store's triples and of the
queries `evaluate` ranks alike, is a `QueryIndex.of`, whose stable key
sort is `stable_key_order`, a 16-bit radix sort. `QueryIndex.runs` expands
runs into the cells of the 1-N targets, evaluation's filter and its rows.
"""

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, GenerationError, StateError
from .rng import RngStream

RECIPROCAL_SUFFIX = "_inv"


@dataclass
class Vocab:
    """Bidirectional symbol/id maps; ids are dense and lexicographically assigned."""

    entity_to_id: dict
    relation_to_id: dict
    id_to_entity: list
    id_to_relation: list

    @classmethod
    def from_symbols(cls, entities, relations) -> "Vocab":
        ents = sorted(set(entities))
        rels = sorted(set(relations))
        return cls(
            entity_to_id={e: i for i, e in enumerate(ents)},
            relation_to_id={r: i for i, r in enumerate(rels)},
            id_to_entity=ents,
            id_to_relation=rels,
        )

    @property
    def n_entities(self) -> int:
        return len(self.id_to_entity)

    @property
    def n_relations(self) -> int:
        return len(self.id_to_relation)


def load_triples(path, vocab: Vocab | None = None, strict: bool = True):
    """Load one split file. Returns (vocab, (n, 3) int64 id array).

    Without a vocab, symbols are collected and ids assigned lexicographically.
    With one, unseen symbols raise in strict mode (the filtered-evaluation
    convention) and are appended in lexicographic batches otherwise.

    The file is decoded and split whole, so a decode error anywhere is
    reported before a malformed line; only then is it scanned line by line,
    to name the first malformed one.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc
    rows = list(filter(None, lines))
    if set(map(str.count, rows, itertools.repeat("\t"))) - {2}:
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line and line.count("\t") != 2)
        raise DataError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
    del lines
    # Every row holds two tabs, so the joined rows split into 3n symbols.
    tokens = "\t".join(rows).split("\t") if rows else []
    del rows
    heads, rels, tails = tokens[0::3], tokens[1::3], tokens[2::3]
    del tokens
    if vocab is None:
        vocab = Vocab.from_symbols(itertools.chain(heads, tails), rels)
    else:
        new_ents = sorted(set(heads).union(tails).difference(vocab.entity_to_id))
        new_rels = sorted(set(rels).difference(vocab.relation_to_id))
        if strict and (new_ents or new_rels):
            sample = (new_ents + new_rels)[0]
            raise DataError(f"{path}: symbol {sample!r} not present in the vocabulary")
        for e in new_ents:
            vocab.entity_to_id[e] = len(vocab.id_to_entity)
            vocab.id_to_entity.append(e)
        for r in new_rels:
            vocab.relation_to_id[r] = len(vocab.id_to_relation)
            vocab.id_to_relation.append(r)
    columns = ((heads, vocab.entity_to_id), (rels, vocab.relation_to_id),
               (tails, vocab.entity_to_id))
    return vocab, np.stack(
        [np.fromiter(map(ids.__getitem__, symbols), np.int64, len(symbols))
         for symbols, ids in columns],
        axis=1,
    )


def stable_key_order(keys) -> np.ndarray:
    """np.argsort(keys, kind="stable") of non-negative integer keys.

    LSD passes of NumPy's stable sort over the keys' 16-bit digits, low
    digit first; on 16-bit digits that sort is a radix sort. One pass per
    digit that keys.max() needs, and at least one. A negative key would
    sort wrongly; the keys of a store's triples are never negative, as
    `TripleStore` bounds-checks every id.
    """
    keys = np.asarray(keys)
    top = int(keys.max(initial=0))
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


@dataclass(frozen=True)
class QueryIndex:
    """Triples grouped by (head, relation) query, each query stored once:
    `keys` holds the distinct keys head * n_relations + relation in
    ascending order, and query i's tails are tails[offsets[i]:offsets[i + 1]],
    in the stable order of `stable_key_order` (the order of
    np.argsort(kind="stable"), by LSD radix passes over 16-bit digits). A
    duplicate triple repeats its tail, so a run's length is the query's
    triple count."""

    keys: np.ndarray
    offsets: np.ndarray
    tails: np.ndarray
    n_relations: int

    @classmethod
    def of(cls, triples, n_relations: int) -> "QueryIndex":
        keys = triples[:, 0] * n_relations + triples[:, 1]
        order = stable_key_order(keys)
        keys = keys[order]
        # Runs start at the first key (keys are never negative) and at each new key.
        starts = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]]))
        return cls(keys[starts], np.append(starts, len(keys)), triples[:, 2][order], n_relations)

    def queries(self):
        """The distinct queries in key order, as head and relation id arrays."""
        return np.divmod(self.keys, self.n_relations)

    def __getitem__(self, i):
        """Query i's tails, the run tails[offsets[i]:offsets[i + 1]]."""
        return self.tails[self.offsets[i]:self.offsets[i + 1]]

    def spans(self, h_ids, r_ids):
        """Where each query's run starts in `tails`, and its length: the
        query's triple count. A relation id outside [0, n_relations) counts
        0, as its key could alias another query's; so does a negative head,
        whose key is negative."""
        r_ids = np.asarray(r_ids)
        keys = np.asarray(h_ids) * self.n_relations + r_ids
        at = np.searchsorted(self.keys, keys)
        # A query is found where its insertion point holds its own key;
        # offsets[at] is valid for every insertion point, the end included.
        found = (r_ids >= 0) & (r_ids < self.n_relations) & (at < self.keys.shape[0])
        found[found] = self.keys[at[found]] == keys[found]
        lo = self.offsets[at]
        return lo, self.offsets[at + found] - lo

    def cells(self, h_ids, r_ids):
        """Every known (row, tail) cell of a batch of (head, relation) queries:
        rows ascend, and a tail repeats as often as its triple does."""
        return self.runs(*self.spans(h_ids, r_ids))

    def runs(self, lo, counts):
        """(rows, tails) cells of runs j = 0, 1, ...: counts[j] tails from lo[j]."""
        rows = np.repeat(np.arange(counts.shape[0]), counts)
        # Cell i of row j sits at lo[j] + (i - first cell of row j).
        first = np.cumsum(counts) - counts
        pos = np.arange(rows.shape[0]) + np.repeat(lo - first, counts)
        return rows, self.tails[pos]


@dataclass
class TripleStore:
    """Train/valid/test id triples. Once augmented with reciprocal relations,
    `known` is the `QueryIndex` of all three splits, which filters evaluation,
    and `tails_by_query` its (head, relation) -> set of tails view, built at
    its first read; both are None before (only augmented stores are trained
    on or evaluated). `train_index`, the train split's `QueryIndex`, is also
    built at its first read; training and the priori table share it."""

    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False
    n_base_relations: int = 0
    known: QueryIndex | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_base_relations == 0:
            self.n_base_relations = self.vocab.n_relations
        triples = np.concatenate([self.train, self.valid, self.test])
        n_ent, n_rel = self.vocab.n_entities, self.vocab.n_relations
        outside = (triples < 0) | (triples >= np.array([n_ent, n_rel, n_ent]))
        bad = np.flatnonzero(outside.any(axis=1))
        if bad.size:
            h, r, t = triples[bad[0]].tolist()
            raise DataError(f"triple ({h}, {r}, {t}) outside vocabulary bounds")
        self.known = QueryIndex.of(triples, n_rel) if self.augmented else None

    @functools.cached_property
    def tails_by_query(self) -> dict | None:
        """(head, relation) -> the set of that query's tails in `known`."""
        if self.known is None:
            return None
        tails = iter(self.known.tails.tolist())
        return {divmod(key, self.n_relations): set(itertools.islice(tails, n))
                for key, n in zip(self.known.keys.tolist(), np.diff(self.known.offsets).tolist())}

    @functools.cached_property
    def train_index(self) -> QueryIndex:
        return QueryIndex.of(self.train, self.n_relations)

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ConfigError(f"unknown split {name!r}") from None

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations

    @classmethod
    def from_dir(cls, directory, strict: bool = True) -> "TripleStore":
        """Loads train.txt, valid.txt and test.txt; the vocabulary comes from
        train.txt. Raises DataError naming the first file without triples."""
        vocab, splits = None, {}
        for name in ("train", "valid", "test"):
            path = os.path.join(directory, f"{name}.txt")
            vocab, splits[name] = load_triples(path, vocab, strict=strict)
            if splits[name].shape[0] == 0:
                raise DataError(f"{path}: no triples; every split needs at least one")
        return cls(vocab=vocab, **splits)


def augment_reciprocal(store: TripleStore) -> TripleStore:
    """Add (t, r_inv, h) for every (h, r, t); relation count doubles.

    The inverse of relation id r is r + n_base_relations for base relations
    and r - n_base_relations for the added ones, so augmenting twice is
    meaningless and rejected.
    """
    if store.augmented:
        raise StateError("store is already augmented with reciprocal relations")
    base = store.vocab.n_relations
    inv_names = [name + RECIPROCAL_SUFFIX for name in store.vocab.id_to_relation]
    for name in inv_names:
        if name in store.vocab.relation_to_id:
            raise DataError(f"reciprocal name collision: {name!r}")
    rels = store.vocab.id_to_relation + inv_names
    vocab = Vocab(
        entity_to_id=dict(store.vocab.entity_to_id),
        relation_to_id={r: i for i, r in enumerate(rels)},
        id_to_entity=list(store.vocab.id_to_entity),
        id_to_relation=rels,
    )

    def extend(split):
        mirrored = split[:, [2, 1, 0]].copy()
        mirrored[:, 1] += base
        return np.concatenate([split, mirrored], axis=0)

    return TripleStore(
        vocab=vocab,
        train=extend(store.train),
        valid=extend(store.valid),
        test=extend(store.test),
        augmented=True,
        n_base_relations=base,
    )


@dataclass(frozen=True)
class PrioriTable:
    """The priori knowledge P(h, r) = log_a(n + 1) of the paper, where n is
    the number of (h, r, ·) triples in the train split: the length of the
    query's run in `index`, the train split's `QueryIndex`."""

    index: QueryIndex
    log_base: float

    def values(self, h_ids, r_ids) -> np.ndarray:
        """P of each (h_ids[i], r_ids[i]); 0 where the index counts none."""
        _, counts = self.index.spans(h_ids, r_ids)
        # log_a(n+1) as a ratio of base-2 logs, once per count the batch
        # holds; exact for the default a = 2.
        present = np.flatnonzero(np.bincount(counts))
        logs = np.zeros(counts.max(initial=0) + 1)
        logs[present] = [math.log2(n + 1) for n in present.tolist()]
        return (logs / math.log2(self.log_base))[counts]


def build_priori(store: TripleStore, a: float = 2.0) -> PrioriTable:
    """The priori table over the store's `train_index`; valid and test are
    never counted, so nothing leaks into P."""
    if not a > 1.0:
        raise ConfigError(f"priori log base must be > 1, got {a}")
    return PrioriTable(store.train_index, a)


@dataclass(frozen=True)
class SmoothedTargets:
    """The label-smoothed 1-N target matrix of a batch, in closed form.

    Every cell of the (n_queries, n_entities) matrix holds `negative`,
    label_smoothing / n_entities; a positive (rows[i], cols[i]) cell holds
    `positive`, that plus 1 - label_smoothing, once however often it is
    listed."""

    rows: np.ndarray
    cols: np.ndarray
    label_smoothing: float
    n_queries: int
    n_entities: int

    @property
    def negative(self) -> float:
        return self.label_smoothing / self.n_entities

    @property
    def positive(self) -> float:
        return self.negative + (1.0 - self.label_smoothing)


def smoothed_targets_matrix(queries, index, label_smoothing, n_entities):
    """The smoothed 1-N targets of a batch of queries, as `SmoothedTargets`:
    row i's positive cells are index[queries[i]], expanded by `index.runs`."""
    lo = index.offsets[queries]
    rows, cols = index.runs(lo, index.offsets[np.add(queries, 1)] - lo)
    return SmoothedTargets(rows, cols, float(label_smoothing), len(lo), int(n_entities))


def generate_toy_kg(
    seed: int, n_entities: int, n_relations: int, composition_depth: int = 2
) -> TripleStore:
    """Deterministic learnable toy graph.

    Relation 0 is a random permutation pi, relation 1 its explicit inverse,
    and relation j >= 2 the composition pi applied 1 + ((j - 2) % depth)
    times, so every relation holds exactly n_entities triples. The 80/10/10
    split comes from a seeded shuffle. Train takes first every triple that
    is the first in shuffled order to hold its head or tail entity, or its
    relation, so train covers every entity and relation; then it fills up in
    shuffled order, and valid and test take the next slices. Both splits
    are always populated: each covered triple introduces an entity or a
    relation, so at most N + R triples are covered, and N + R <= 0.8 N R
    once N >= 20 and R >= 2; and N R >= 40 leaves valid and test at least
    4 triples each.
    """
    if n_entities < 20:
        raise GenerationError(f"need at least 20 entities, got {n_entities}")
    if n_relations < 2:
        raise GenerationError(f"need at least 2 relations, got {n_relations}")
    if composition_depth < 1:
        raise GenerationError(f"composition depth must be >= 1, got {composition_depth}")
    rng = RngStream(seed, "toy-kg")
    perm = rng.permutation(n_entities)
    tails = [perm, np.argsort(perm)]
    for j in range(2, n_relations):  # pi applied 1 + (j - 2) % depth times
        tails.append(perm[tails[-1]] if (j - 2) % composition_depth else perm)
    triples = np.stack([
        np.tile(np.arange(n_entities), n_relations),
        np.repeat(np.arange(n_relations), n_entities),
        np.concatenate(tails),
    ], axis=1).astype(np.int64)
    shuffled = triples[rng.permutation(len(triples))]

    covered = np.zeros(len(shuffled), dtype=bool)
    covered[np.unique(shuffled[:, [0, 2]], return_index=True)[1] // 2] = True
    covered[np.unique(shuffled[:, 1], return_index=True)[1]] = True
    ordered = shuffled[np.argsort(~covered, kind="stable")]  # covered first
    n_train = (8 * len(ordered)) // 10
    train, valid, test = np.split(ordered, [n_train, n_train + len(ordered) // 10])
    vocab = Vocab.from_symbols(
        [f"e{i:05d}" for i in range(n_entities)], [f"r{j:03d}" for j in range(n_relations)]
    )
    return TripleStore(vocab=vocab, train=train, valid=valid, test=test)


def write_splits(store: TripleStore, directory) -> None:
    """Write train/valid/test .txt files in the triple file format."""
    os.makedirs(directory, exist_ok=True)
    for name in ("train", "valid", "test"):
        rows = store.split(name)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for h, r, t in rows:
                fh.write(
                    f"{store.vocab.id_to_entity[h]}\t"
                    f"{store.vocab.id_to_relation[r]}\t"
                    f"{store.vocab.id_to_entity[t]}\n"
                )

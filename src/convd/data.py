"""Triple ingestion, vocabularies, reciprocal augmentation, 1-N targets,
priori frequency statistics, the (head, relation) -> tails index, and a
deterministic toy graph generator for desk-scale runs.

Triple file format: UTF-8, LF line endings, one `head<TAB>relation<TAB>tail`
per line, no header, tabs forbidden inside symbols.
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


def _parse_lines(path):
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
                yield parts
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc


def load_triples(path, vocab: Vocab | None = None, strict: bool = True):
    """Load one split file. Returns (vocab, (n, 3) int64 id array).

    Without a vocab, symbols are collected and ids assigned lexicographically.
    With one, unseen symbols raise in strict mode (the filtered-evaluation
    convention) and are appended in lexicographic batches otherwise.
    """
    rows = list(_parse_lines(path))
    if vocab is None:
        heads = [h for h, _, _ in rows]
        rels = [r for _, r, _ in rows]
        tails = [t for _, _, t in rows]
        vocab = Vocab.from_symbols(heads + tails, rels)
    else:
        new_ents = sorted(
            {s for h, _, t in rows for s in (h, t) if s not in vocab.entity_to_id}
        )
        new_rels = sorted({r for _, r, _ in rows if r not in vocab.relation_to_id})
        if strict and (new_ents or new_rels):
            sample = (new_ents + new_rels)[0]
            raise DataError(f"{path}: symbol {sample!r} not present in the vocabulary")
        for e in new_ents:
            vocab.entity_to_id[e] = len(vocab.id_to_entity)
            vocab.id_to_entity.append(e)
        for r in new_rels:
            vocab.relation_to_id[r] = len(vocab.id_to_relation)
            vocab.id_to_relation.append(r)
    ids = np.array(
        [
            (vocab.entity_to_id[h], vocab.relation_to_id[r], vocab.entity_to_id[t])
            for h, r, t in rows
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    return vocab, ids


def tails_index(triples) -> dict:
    """Map each (head, relation) of an (n, 3) id array to the set of its
    tails; keys and tails are Python ints."""
    index: dict = {}
    for h, r, t in triples.tolist():
        index.setdefault((h, r), set()).add(t)
    return index


@dataclass
class TripleStore:
    """Train/valid/test id triples plus, once augmented with reciprocal
    relations, the filtered-candidates index over all three splits (None
    before: only augmented stores are trained on or evaluated).

    The index is held in two forms, built together: `tails_by_query` maps
    (head, relation) to its set of tails, and `known_query`/`known_tail`
    hold every triple's key head * n_relations + relation, sorted, with the
    tails aligned to it (duplicate triples repeat), for batch lookups by
    `known_cells`.
    """

    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False
    n_base_relations: int = 0
    tails_by_query: dict | None = field(init=False)
    known_query: np.ndarray | None = field(init=False, repr=False)
    known_tail: np.ndarray | None = field(init=False, repr=False)

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
        self.tails_by_query = self.known_query = self.known_tail = None
        if self.augmented:
            self.tails_by_query = tails_index(triples)
            keys = triples[:, 0] * n_rel + triples[:, 1]
            order = np.argsort(keys, kind="stable")
            self.known_query = keys[order]
            self.known_tail = triples[order, 2]

    def known_cells(self, h_ids, r_ids):
        """Every known (row, tail) cell of a batch of (head, relation)
        queries, from the sorted index: rows ascend, and a tail repeats as
        often as its triple does."""
        keys = np.asarray(h_ids) * self.n_relations + np.asarray(r_ids)
        lo = np.searchsorted(self.known_query, keys, side="left")
        counts = np.searchsorted(self.known_query, keys, side="right") - lo
        rows = np.repeat(np.arange(keys.shape[0]), counts)
        # Cell i of row j sits at lo[j] + (i - first cell of row j).
        first = np.cumsum(counts) - counts
        pos = np.arange(rows.shape[0]) + np.repeat(lo - first, counts)
        return rows, self.known_tail[pos]

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
        if split.shape[0] == 0:
            return split.copy()
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


@dataclass
class PrioriTable:
    """Per-(head entity, relation) train-split frequencies, log-smoothed."""

    freq: dict
    log_base: float

    def _smoothed(self, count: int) -> float:
        # log_a(n+1) as a ratio of base-2 logs; exact for the default a = 2.
        return math.log2(count + 1) / math.log2(self.log_base)

    def value(self, h: int, r: int) -> float:
        return self._smoothed(self.freq.get((int(h), int(r)), 0))

    @functools.cached_property
    def _index(self):
        """The keys head * R + relation, sorted, with the value of each,
        computed once by `value`'s arithmetic; R bounds the table's own
        relation ids. Built at the first batch lookup."""
        pairs = np.fromiter(itertools.chain.from_iterable(self.freq), dtype=np.int64,
                            count=2 * len(self.freq)).reshape(-1, 2)
        counts = np.fromiter(self.freq.values(), dtype=np.int64, count=len(self.freq))
        max_head = int(pairs[:, 0].max(initial=-1))
        n_rel = int(pairs[:, 1].max(initial=-1)) + 1
        keys = pairs[:, 0] * n_rel + pairs[:, 1]
        order = np.argsort(keys)
        distinct, which = np.unique(counts[order], return_inverse=True)
        vals = np.array([self._smoothed(c) for c in distinct.tolist()], dtype=np.float64)
        return keys[order], vals[which], max_head, n_rel

    def values(self, h_ids, r_ids) -> np.ndarray:
        """`value` of each (h_ids[i], r_ids[i]), by one searchsorted."""
        keys, vals, max_head, n_rel = self._index
        h_ids, r_ids = np.asarray(h_ids), np.asarray(r_ids)
        out = np.full(h_ids.shape, self._smoothed(0), dtype=np.float64)
        inside = (h_ids >= 0) & (h_ids <= max_head) & (r_ids >= 0) & (r_ids < n_rel)
        query = h_ids[inside] * n_rel + r_ids[inside]
        pos = np.minimum(np.searchsorted(keys, query), keys.shape[0] - 1)
        found = keys[pos] == query
        out[np.flatnonzero(inside)[found]] = vals[pos[found]]
        return out


def build_priori(store: TripleStore, a: float = 2.0) -> PrioriTable:
    """Count (head, relation) pairs over the train split only (no leakage)."""
    if not a > 1.0:
        raise ConfigError(f"priori log base must be > 1, got {a}")
    n_rel = store.n_relations
    keys, counts = np.unique(store.train[:, 0] * n_rel + store.train[:, 1], return_counts=True)
    heads, rels = np.divmod(keys, n_rel)
    freq = dict(zip(zip(heads.tolist(), rels.tolist()), counts.tolist()))
    return PrioriTable(freq=freq, log_base=a)


def smoothed_targets_matrix(queries, positives_by_query, label_smoothing, n_entities):
    """Dense (len(queries), n_entities) target matrix for a batch of queries.

    Every cell holds label_smoothing / n_entities; each positive (row, tail)
    cell gets 1 - label_smoothing added once, by one fancy-index add.
    """
    out = np.full(
        (len(queries), n_entities), label_smoothing / n_entities, dtype=np.float64
    )
    tails = [positives_by_query[q] for q in queries]
    rows = np.repeat(np.arange(len(queries)), [len(t) for t in tails])
    cols = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64, count=rows.size)
    out[rows, cols] += 1.0 - label_smoothing
    return out


def generate_toy_kg(
    seed: int, n_entities: int, n_relations: int, composition_depth: int = 2
) -> TripleStore:
    """Deterministic learnable toy graph.

    Relation 0 is a random permutation pi, relation 1 its explicit inverse,
    and relation j >= 2 the composition pi applied 1 + ((j - 2) % depth)
    times, so every relation holds exactly n_entities triples. The 80/10/10
    split comes from a seeded shuffle, with a first pass that keeps every
    entity and relation covered by the train split.
    """
    if n_entities < 20:
        raise GenerationError(f"need at least 20 entities, got {n_entities}")
    if n_relations < 2:
        raise GenerationError(f"need at least 2 relations, got {n_relations}")
    if composition_depth < 1:
        raise GenerationError(f"composition depth must be >= 1, got {composition_depth}")
    rng = RngStream(seed, "toy-kg")
    perm = rng.permutation(n_entities)

    def hops(rel_index: int) -> np.ndarray:
        count = 1 + (rel_index - 2) % composition_depth
        target = np.arange(n_entities)
        for _ in range(count):
            target = perm[target]
        return target

    triples = []
    source = np.arange(n_entities)
    for rel in range(n_relations):
        if rel == 0:
            target = perm[source]
        elif rel == 1:
            target = np.argsort(perm)[source]
        else:
            target = hops(rel)
        triples.extend((int(s), rel, int(t)) for s, t in zip(source, target))

    order = rng.permutation(len(triples))
    shuffled = [triples[i] for i in order]
    total = len(shuffled)
    n_train = (8 * total) // 10
    n_valid = total // 10
    n_test = total - n_train - n_valid
    if n_valid == 0 or n_test == 0:
        raise GenerationError("too few triples to populate valid and test splits")

    # Coverage pass: train must contain every entity and relation so that no
    # valid/test symbol is unseen at training time.
    seen_ents: set = set()
    seen_rels: set = set()
    train, rest = [], []
    for h, r, t in shuffled:
        if h not in seen_ents or t not in seen_ents or r not in seen_rels:
            train.append((h, r, t))
            seen_ents.update((h, t))
            seen_rels.add(r)
        else:
            rest.append((h, r, t))
    if len(train) > n_train:
        raise GenerationError("coverage pass exceeded the train budget; enlarge the graph")
    fill = n_train - len(train)
    train.extend(rest[:fill])
    remaining = rest[fill:]
    valid = remaining[:n_valid]
    test = remaining[n_valid:]

    names_e = [f"e{i:05d}" for i in range(n_entities)]
    names_r = [f"r{j:03d}" for j in range(n_relations)]
    vocab = Vocab.from_symbols(names_e, names_r)
    to_arr = lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 3)
    return TripleStore(
        vocab=vocab, train=to_arr(train), valid=to_arr(valid), test=to_arr(test)
    )


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

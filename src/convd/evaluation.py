"""Filtered link-prediction metrics (MRR, Hits@1/3/10) with tie-average
ranking. The experiment runners that train and then evaluate live in
`training`; nothing here trains."""

import functools
from dataclasses import dataclass

import numpy as np

from .data import PrioriTable, QueryIndex, TripleStore, build_priori
from .errors import DimensionError, NumericError, StateError
from .model import ModelConfig, _score_tasks, forward_batch
from .numerics import parallel

HITS_LEVELS = (1, 3, 10)
# Distinct queries per forward pass of evaluate.
_EVAL_BATCH = 256
# Cells per task of rank_of, a slab of whole query rows: 52 rows of 5000
# entities; one task, run inline, for a small table's chunk.
_SLAB_CELLS = 1 << 18


def rank_of(scores: np.ndarray, true_ids, rows, cols, query_rows) -> np.ndarray:
    """Filtered tie-average rank of each query's true entity.

    scores is (D, N), one row per distinct query, and is consumed: the known
    cells (rows[j], cols[j]) are overwritten with -inf in place; a cell may
    repeat. Query i ranks true_ids[i] in row query_rows[i], so queries may
    share a row. rank = 1 + strictly-better + ties/2, so a constant scorer
    does not rank everything first; a query's own true cell is neither,
    known or not. True scores must be finite, as masked cells read -inf.

    Both counts are integers, taken through `parallel` with one task per
    slab of queries: whole rows, at most _SLAB_CELLS cells and at least one
    row. So the ranks are exact at any worker count. A slab reads its rows
    in place when they are in query order (no row shared), and gathers
    them otherwise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true_ids = np.asarray(true_ids, dtype=np.int64)
    query_rows = np.asarray(query_rows, dtype=np.int64)
    d, n = scores.shape
    if query_rows.shape != true_ids.shape:
        raise DimensionError(f"{query_rows.shape[0]} query rows for {true_ids.shape[0]} true ids")
    for name, ids, size in (("true id", true_ids, n), ("query row", query_rows, d)):
        bad = (ids < 0) | (ids >= size)
        if bad.any():
            raise DimensionError(f"{name} {ids[bad][0]} out of range")
    s_true = scores[query_rows, true_ids]
    if not np.all(np.isfinite(s_true)):
        raise NumericError("non-finite true score")
    scores[rows, cols] = -np.inf
    # A true cell left unmasked (not a known cell) ties with itself.
    unmasked = scores[query_rows, true_ids] == s_true

    b = true_ids.shape[0]
    in_place = b == d and np.array_equal(query_rows, np.arange(d))
    slab = max(1, _SLAB_CELLS // n)
    # int32 sums: count_nonzero's int64 sums took twice as long.
    better = np.empty(b, dtype=np.int32)
    ties = np.empty(b, dtype=np.int32)

    def count(s, e):
        block = scores[s:e] if in_place else scores[query_rows[s:e]]
        ref = s_true[s:e, None]
        better[s:e] = np.sum(block > ref, axis=1, dtype=np.int32)
        ties[s:e] = np.sum(block == ref, axis=1, dtype=np.int32)

    parallel([functools.partial(count, s, min(s + slab, b)) for s in range(0, b, slab)])
    return 1.0 + better + (ties - unmasked) / 2.0


@dataclass
class MetricsReport:
    mrr: float
    hits: dict
    n_queries: int
    by_direction: dict

    def as_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits": {str(n): v for n, v in self.hits.items()},
            "n_queries": self.n_queries,
            "by_direction": self.by_direction,
        }


def _summarize(ranks: np.ndarray) -> dict:
    return {
        "mrr": float(np.mean(1.0 / ranks)) if ranks.size else 0.0,
        "hits": {n: float(np.mean(ranks <= n)) if ranks.size else 0.0 for n in HITS_LEVELS},
        "n_queries": int(ranks.size),
    }


def evaluate(params, store: TripleStore, split: str, cfg: ModelConfig,
             priori: PrioriTable | None = None) -> MetricsReport:
    """Filtered evaluation of a split; two queries per original triple.

    Head prediction is realized through the reciprocal relation, so both
    directions run as tail queries: (h, r, ?) and (t, r_inv, ?). Within an
    augmented split only original-direction triples are iterated; their
    mirrors would repeat the same two queries. A `QueryIndex` groups the
    queries, its tails their positions (every tail query, then every head
    query); its distinct (head, relation) queries are walked in key order,
    `_EVAL_BATCH` at a time, so each is scored exactly once. `runs` gives a
    chunk's positions their logits rows, and `store.known.cells` the known
    tails that `rank_of` masks in place as it consumes the rows. One chunk's
    logits are alive at a time: each chunk's die when `rank_of` returns,
    before the next chunk's are allocated. When a chunk's scoring spans
    several entity blocks, the next chunk's front-end (forward_batch with
    score=False) runs as the first task of the same `parallel` call, beside
    this chunk's block products; with one block it runs inline after
    `rank_of`. Every chunk is scored by the same products either way, so the
    report does not depend on the worker count. The priori table is built
    from the store's train split when not supplied.
    """
    if not store.augmented:
        raise StateError("evaluation expects a reciprocal-augmented store")
    if priori is None:
        priori = build_priori(store, cfg.priori_base)
    triples = store.split(split)
    base = store.n_base_relations
    original = triples[triples[:, 1] < base]
    # (head, relation, true id) rows: each (h, r, t), then each (t, r_inv, h).
    asked = np.concatenate([original, original[:, [2, 1, 0]] + [0, base, 0]])
    index = QueryIndex.of(np.column_stack([asked[:, :2], np.arange(len(asked))]), store.n_relations)
    heads, rels = index.queries()
    n_distinct = heads.shape[0]
    ranks = np.empty(len(asked), dtype=np.float64)

    def front(lo):
        """The query vectors of the chunk that starts at lo."""
        hi = lo + _EVAL_BATCH
        return forward_batch(heads[lo:hi], rels[lo:hi], params, priori, cfg,
                             mode="eval", score=False)[1].z

    z = front(0) if n_distinct else None
    for lo in range(0, n_distinct, _EVAL_BATCH):
        hi = min(lo + _EVAL_BATCH, n_distinct)
        query_rows, chunk = index.runs(index.offsets[lo:hi], np.diff(index.offsets[lo:hi + 1]))
        rows, cols = store.known.cells(heads[lo:hi], rels[lo:hi])
        logits = np.empty((hi - lo, params.ent.shape[0]))
        tasks = _score_tasks(z, params.ent, cfg, logits)
        ahead = []
        if len(tasks) > 1 and hi < n_distinct:
            tasks.insert(0, lambda: ahead.append(front(hi)))
        parallel(tasks)
        # The tasks hold the logits: both go before the next chunk's.
        del tasks
        ranks[chunk] = rank_of(logits, asked[chunk, 2], rows, cols, query_rows)
        del logits
        if hi < n_distinct:
            z = ahead[0] if ahead else front(hi)
    tail, head = np.split(ranks, 2)

    combined = _summarize(ranks)
    return MetricsReport(
        mrr=combined["mrr"],
        hits=combined["hits"],
        n_queries=combined["n_queries"],
        by_direction={
            "tail": _summarize(tail),
            "head": _summarize(head),
        },
    )

"""Filtered link-prediction metrics (MRR, Hits@1/3/10) with tie-average
ranking, plus the ablation and kernel-fraction sweep runners. The runners
train through `training.train_each`, so every run's config is checked
before the first one trains."""

from dataclasses import dataclass, replace

import numpy as np

from .data import PrioriTable, TripleStore, build_priori
from .errors import ConfigError, DimensionError, StateError
from .model import ModelConfig, forward_batch

HITS_LEVELS = (1, 3, 10)
_EVAL_BATCH = 256


def rank_of(scores: np.ndarray, true_ids, rows, cols) -> np.ndarray:
    """Filtered tie-average rank of each row's true entity.

    scores is (B, N) and true_ids (B,). The cells (rows[i], cols[i]) name
    known-true competitors, which are removed; a cell may repeat, and a cell
    on its row's true entity is ignored. rank = 1 + strictly-better +
    ties/2, so a constant scorer does not rank everything first. Both counts
    are taken over the whole row, minus the same counts over the distinct
    filtered cells, so no masked copy of the scores is made.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true_ids = np.asarray(true_ids)
    b, n = scores.shape
    bad = (true_ids < 0) | (true_ids >= n)
    if bad.any():
        raise DimensionError(f"true id {true_ids[bad][0]} out of range")
    s_true = scores[np.arange(b), true_ids][:, None]
    better = np.count_nonzero(scores > s_true, axis=1)
    ties = np.count_nonzero(scores == s_true, axis=1) - 1  # exclude the true entity

    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    keep = cols != true_ids[rows]
    # Distinct cells by a sort and a neighbour compare; np.unique took over
    # ten times as long on an eval_dense chunk.
    cells = np.sort(rows[keep] * n + cols[keep])
    distinct = np.ones(cells.shape, dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=distinct[1:])
    rows, cols = np.divmod(cells[distinct], n)
    competitor, ref = scores[rows, cols], s_true[rows, 0]
    better -= np.bincount(rows[competitor > ref], minlength=b)
    ties -= np.bincount(rows[competitor == ref], minlength=b)
    return 1.0 + better + ties / 2.0


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
    mirrors would repeat the same two queries. The queries are walked in
    key order (`QueryIndex`'s key), `_EVAL_BATCH` at a time, and each
    distinct (head, relation) query of a chunk is scored once; every query
    is ranked against its row, and the ranks are kept in split order. The
    priori table is built from the store's train split when not supplied.
    """
    if not store.augmented:
        raise StateError("evaluation expects a reciprocal-augmented store")
    if priori is None:
        priori = build_priori(store, cfg.priori_base)
    triples = store.split(split)
    base = store.n_base_relations
    h, r, t = triples[triples[:, 1] < base].T

    # Two queries per original triple, interleaved: (h, r, ?) then (t, r_inv, ?).
    h_ids = np.column_stack([h, t]).ravel()
    r_ids = np.column_stack([r, r + base]).ravel()
    true_ids = np.column_stack([t, h]).ravel()
    keys = h_ids * store.known.n_relations + r_ids
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(h_ids.shape[0], dtype=np.float64)
    for start in range(0, h_ids.shape[0], _EVAL_BATCH):
        chunk = order[start:start + _EVAL_BATCH]
        # First query of each run of equal keys; only those are forwarded.
        new = np.ones(chunk.shape, dtype=bool)
        np.not_equal(keys[chunk[1:]], keys[chunk[:-1]], out=new[1:])
        first = chunk[new]
        logits, _ = forward_batch(h_ids[first], r_ids[first], params, priori, cfg, mode="eval")
        if first.shape[0] < chunk.shape[0]:  # the B x N copy only where a query repeats
            logits = logits[np.cumsum(new) - 1]
        rows, cols = store.known.cells(h_ids[chunk], r_ids[chunk])
        ranks[chunk] = rank_of(logits, true_ids[chunk], rows, cols)
    tail, head = ranks[0::2], ranks[1::2]

    combined = _summarize(np.concatenate([tail, head]))
    return MetricsReport(
        mrr=combined["mrr"],
        hits=combined["hits"],
        n_queries=combined["n_queries"],
        by_direction={
            "tail": _summarize(tail),
            "head": _summarize(head),
        },
    )


def _train_and_test(variants, store: TripleStore, priori: PrioriTable, fields) -> list:
    """Trains every (label, config) pair through `train_each`, so all are
    checked before the first trains, and tests each on the test split; a
    row holds fields(config, params) and the run's results. An empty list
    is a ConfigError."""
    from .training import config_hash, train_each  # circular at import time otherwise

    if not variants:
        raise ConfigError("nothing to run: the list of modes or fractions is empty")
    rows = []
    for cfg, params, history in train_each(variants, store, priori):
        report = evaluate(params, store, "test", cfg.model_config(), priori=priori)
        rows.append(
            {
                **fields(cfg, params),
                "config_hash": config_hash(cfg),
                "best_epoch": history.best_epoch,
                "valid_mrr": history.best_valid_mrr,
                "test": report.as_dict(),
            }
        )
    return rows


def run_ablation(cfg, store: TripleStore, priori: PrioriTable, modes) -> list:
    """Train one model per ablation mode with the shared seed and config;
    one comparison row per mode."""
    variants = [(f"mode {mode!r}", replace(cfg, ablation=mode)) for mode in modes]
    return _train_and_test(variants, store, priori, lambda run, _: {"mode": run.ablation})


def run_fraction_sweep(cfg, store: TripleStore, priori: PrioriTable, fractions) -> list:
    """Train one model per kernel fraction; rows keyed by fraction, each
    with its best params."""
    variants = [(f"fraction {f}", replace(cfg, kernel_fraction=float(f))) for f in fractions]
    return _train_and_test(variants, store, priori, lambda run, params: {
        "fraction": run.kernel_fraction,
        "active_kernels": run.active_kernels,
        "params": params,
    })

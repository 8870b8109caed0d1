"""Filtered link-prediction metrics (MRR, Hits@1/3/10) with tie-average
ranking, plus the ablation and kernel-fraction sweep runners."""

from dataclasses import dataclass, replace

import numpy as np

from .data import PrioriTable, TripleStore, build_priori
from .errors import ConfigError, DimensionError, StateError
from .model import ModelConfig, forward_batch, kernel_fraction_mask

HITS_LEVELS = (1, 3, 10)
_EVAL_BATCH = 256


def rank_of(scores: np.ndarray, true_id: int, filter_out) -> float:
    """Filtered tie-average rank of the true entity.

    Competitors in filter_out are removed (the true entity itself never
    filters out); rank = 1 + strictly-better + ties/2. The tie-average rule
    keeps a constant scorer from ranking everything first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= true_id < scores.shape[0]:
        raise DimensionError(f"true id {true_id} out of range")
    keep = np.ones(scores.shape[0], dtype=bool)
    for ent in filter_out:
        keep[ent] = False
    keep[true_id] = True
    s_true = scores[true_id]
    competitors = scores[keep]
    better = np.count_nonzero(competitors > s_true)
    ties = np.count_nonzero(competitors == s_true) - 1  # exclude the true entity
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
    mirrors would repeat the same two queries. The priori table is built
    from the store's train split when not supplied.
    """
    if not store.augmented:
        raise StateError("evaluation expects a reciprocal-augmented store")
    if priori is None:
        priori = build_priori(store, cfg.priori_base)
    triples = store.split(split)
    base = store.n_base_relations
    original = triples[triples[:, 1] < base]

    queries = []  # (h_id, r_id, true_id, direction)
    for h, r, t in original:
        queries.append((int(h), int(r), int(t), "tail"))
        queries.append((int(t), int(r) + base, int(h), "head"))

    ranks = {"tail": [], "head": []}
    for start in range(0, len(queries), _EVAL_BATCH):
        chunk = queries[start : start + _EVAL_BATCH]
        h_ids = np.array([q[0] for q in chunk])
        r_ids = np.array([q[1] for q in chunk])
        logits, _ = forward_batch(h_ids, r_ids, params, priori, cfg, mode="eval")
        for row, (h, r, true_id, direction) in enumerate(chunk):
            known = store.tails_by_query.get((h, r), set())
            ranks[direction].append(
                rank_of(logits[row], true_id, known - {true_id})
            )

    all_ranks = np.array(ranks["tail"] + ranks["head"], dtype=np.float64)
    combined = _summarize(all_ranks)
    return MetricsReport(
        mrr=combined["mrr"],
        hits=combined["hits"],
        n_queries=combined["n_queries"],
        by_direction={
            "tail": _summarize(np.array(ranks["tail"], dtype=np.float64)),
            "head": _summarize(np.array(ranks["head"], dtype=np.float64)),
        },
    )


def run_ablation(cfg, store: TripleStore, priori: PrioriTable, modes) -> list:
    """Train one model per ablation mode with the shared seed and config;
    one comparison row per mode."""
    from .training import config_hash, train  # circular at import time otherwise

    if not modes:
        raise ConfigError("at least one ablation mode is required")
    rows = []
    for mode in modes:
        run_cfg = replace(cfg, ablation=mode)
        params, history = train(run_cfg, store, priori)
        report = evaluate(params, store, "test", run_cfg.model_config(), priori=priori)
        rows.append(
            {
                "mode": mode,
                "config_hash": config_hash(run_cfg),
                "best_epoch": history.best_epoch,
                "valid_mrr": history.best_valid_mrr,
                "test": report.as_dict(),
            }
        )
    return rows


def run_fraction_sweep(cfg, store: TripleStore, priori: PrioriTable, fractions) -> list:
    """Train one model per kernel fraction; rows keyed by fraction."""
    from .training import config_hash, train

    rows = []
    for fraction in fractions:
        active = kernel_fraction_mask(cfg.model_config(), fraction)
        run_cfg = replace(cfg, kernel_fraction=float(fraction))
        params, history = train(run_cfg, store, priori)
        report = evaluate(params, store, "test", run_cfg.model_config(), priori=priori)
        rows.append(
            {
                "fraction": float(fraction),
                "active_kernels": int(active.size),
                "config_hash": config_hash(run_cfg),
                "best_epoch": history.best_epoch,
                "valid_mrr": history.best_valid_mrr,
                "test": report.as_dict(),
                "params": params,
            }
        )
    return rows

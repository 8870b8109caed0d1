"""1-N mini-batch training with label smoothing, Adam, early stopping, and
grid-plus-random hyperparameter search."""

import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import PrioriTable, TripleStore, smoothed_targets_matrix, tails_index
from .errors import ConfigError, NumericError, StateError
from .model import (
    ModelConfig,
    backward,
    commit_running_stats,
    count_parameters,
    forward_batch,
    init_params,
)
from .numerics import adam_init, adam_step
from .rng import RngStream, stream_bundle

DROPOUT_LABELS = ("dropout.in", "dropout.feat", "dropout.out")

DEFAULT_GRID = {
    "d_e": [100, 150, 200, 250, 300],
    "priori_weight": [0.1, 0.2, 0.3, 0.4],
}


@dataclass
class TrainConfig(ModelConfig):
    max_epochs: int = 200
    patience: int = 5
    eval_every: int = 5
    grid: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_GRID.items()})
    random_search_draws: int = 0

    def validate(self) -> None:
        super().validate()
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.random_search_draws < 0:
            raise ConfigError("random_search_draws must be >= 0")

    def model_config(self) -> ModelConfig:
        names = {f.name for f in ModelConfig.__dataclass_fields__.values()}
        return ModelConfig(**{k: v for k, v in asdict(self).items() if k in names})


def config_hash(cfg) -> str:
    """Stable 12-hex-digit fingerprint of a config dataclass or dict."""
    payload = asdict(cfg) if not isinstance(cfg, dict) else cfg
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    valid_mrr: float | None


@dataclass
class TrainHistory:
    """Per-epoch records. Wall times live apart from the deterministic
    fields so that reruns compare byte-for-byte."""

    records: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    best_epoch: int | None = None
    best_valid_mrr: float | None = None

    def evaluations(self) -> list:
        return [r for r in self.records if r.valid_mrr is not None]


def bce_loss(logits: np.ndarray, target: np.ndarray):
    """Mean binary cross-entropy over candidate entities, in stable
    softplus form. Returns (loss, grad_logits) with grad = (sigmoid - y)/n.

    One exp per logit: with e = exp(-|z|), softplus(z) = max(z, 0) +
    log1p(e), and sigmoid(z) is 1/(1+e) for z >= 0 and e/(1+e) otherwise,
    so no exp overflows."""
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ConfigError(f"logits shape {logits.shape} != target shape {target.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in the loss")
    e = np.exp(-np.abs(logits))
    # y*softplus(-z) + (1-y)*softplus(z) == softplus(z) - y*z
    per_entity = np.maximum(logits, 0.0)
    per_entity += np.log1p(e)
    per_entity -= target * logits
    loss = per_entity.mean()
    grad = np.where(logits >= 0, 1.0, e)
    e += 1.0
    grad /= e
    grad -= target
    # Batched input averages over queries as well, so the gradient scale is
    # the full element count either way.
    grad /= grad.size
    return loss, grad


def early_stop(history: TrainHistory, patience: int) -> bool:
    """True when the count of evaluations since the best one reached
    patience. Improvement is strict; plateaus count as no improvement."""
    evals = history.evaluations()
    if not evals:
        return False
    best_idx = 0
    for i, rec in enumerate(evals):
        if rec.valid_mrr > evals[best_idx].valid_mrr:
            best_idx = i
    return (len(evals) - 1 - best_idx) >= patience


def _epoch_batches(queries, order, batch_size):
    """Batch index lists; a trailing singleton is merged into the previous
    batch because batch statistics need at least two examples."""
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(cfg: TrainConfig, store: TripleStore, priori: PrioriTable,
          on_new_best=None, log_fn=None):
    """Mini-batch 1-N training loop. Returns (params, TrainHistory).

    Per epoch: seeded shuffle of the distinct (h, r) train queries, forward,
    smoothed-label BCE, exact backward, Adam. Validation MRR is measured
    every eval_every epochs (and on the final epoch); the returned params
    are the snapshot of the best validation epoch. Identical (seed, config,
    data) reruns produce identical params and records.
    """
    from .evaluation import evaluate  # local import; evaluation needs the model too

    cfg.validate()
    if not store.augmented:
        raise StateError("train expects a reciprocal-augmented store")
    if store.train.shape[0] == 0:
        raise ConfigError("empty train split")

    grouped = tails_index(store.train)
    queries = sorted(grouped)
    n_entities = store.n_entities

    init_rng = RngStream(cfg.seed, "init")
    params = init_params(cfg, n_entities, store.n_relations, init_rng)
    adam = adam_init(params.named_arrays())
    rng = stream_bundle(cfg.seed, DROPOUT_LABELS)
    shuffle_rng = RngStream(cfg.seed, "shuffle")

    history = TrainHistory()
    best_params = None
    mcfg = cfg.model_config()

    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(len(queries))
        total_loss = 0.0
        total_queries = 0
        for batch_idx in _epoch_batches(queries, order, cfg.batch_size):
            batch_queries = [queries[i] for i in batch_idx]
            h_ids = np.array([q[0] for q in batch_queries])
            r_ids = np.array([q[1] for q in batch_queries])
            targets = smoothed_targets_matrix(
                batch_queries, grouped, cfg.label_smoothing, n_entities
            )
            logits, trace = forward_batch(
                h_ids, r_ids, params, priori, mcfg, mode="train", rng=rng
            )
            loss, grad_logits = bce_loss(logits, targets)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            grads = backward(trace, grad_logits, params, mcfg)
            # In place: params keeps its arrays for the whole run.
            adam_step(params.named_arrays(), grads, adam, cfg.lr)
            commit_running_stats(params, trace)
            total_loss += loss * len(batch_idx)
            total_queries += len(batch_idx)

        mean_loss = total_loss / total_queries
        valid_mrr = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.max_epochs:
            report = evaluate(params, store, "valid", mcfg, priori=priori)
            valid_mrr = report.mrr
            if history.best_valid_mrr is None or valid_mrr > history.best_valid_mrr:
                history.best_valid_mrr = valid_mrr
                history.best_epoch = epoch
                best_params = params.copy()
                if on_new_best is not None:
                    on_new_best(best_params, epoch, valid_mrr)
        record = EpochRecord(epoch=epoch, loss=float(mean_loss), valid_mrr=valid_mrr)
        history.records.append(record)
        history.wall_ms.append((time.perf_counter() - tic) * 1000.0)
        if log_fn is not None:
            log_fn(record, history.wall_ms[-1])
        if valid_mrr is not None and early_stop(history, cfg.patience):
            break

    return (best_params if best_params is not None else params), history


def _factor_embedding_dim(d_e: int) -> tuple:
    """Most-square (d_w, d_h) factorization of d_e."""
    best = (1, d_e)
    for w in range(1, int(math.isqrt(d_e)) + 1):
        if d_e % w == 0:
            best = (w, d_e // w)
    return best


def _apply_grid_value(cfg: TrainConfig, key: str, value):
    if key == "d_e":
        d_w, d_h = _factor_embedding_dim(int(value))
        return replace(cfg, d_w=d_w, d_h=d_h)
    if key not in cfg.__dataclass_fields__:
        raise ConfigError(f"unknown hyperparameter {key!r} in the grid")
    return replace(cfg, **{key: value})


def _trial(cfg: TrainConfig, store, priori):
    params, history = train(cfg, store, priori)
    mrr = history.best_valid_mrr if history.best_valid_mrr is not None else -1.0
    return {
        "config": asdict(cfg),
        "config_hash": config_hash(cfg),
        "valid_mrr": float(mrr),
        "n_params": count_parameters(cfg.model_config(), store.n_entities, store.n_relations),
    }


def hyper_search(base: TrainConfig, store: TripleStore, priori: PrioriTable):
    """Grid phase over the declared value lists, then seeded uniform draws
    around the grid winner. Returns (best TrainConfig, leaderboard).

    Selection: highest validation MRR, ties broken by fewer parameters,
    then by lower config hash.
    """
    if not base.grid:
        raise ConfigError("hyperparameter grid is empty")
    keys = sorted(base.grid)
    for key in keys:
        if not base.grid[key]:
            raise ConfigError(f"empty value list for grid key {key!r}")

    leaderboard = []
    configs = []
    for combo in itertools.product(*(base.grid[k] for k in keys)):
        cfg = base
        for key, value in zip(keys, combo):
            cfg = _apply_grid_value(cfg, key, value)
        configs.append((cfg, dict(zip(keys, combo))))
        leaderboard.append(_trial(cfg, store, priori))

    def sort_key(entry):
        return (-entry["valid_mrr"], entry["n_params"], entry["config_hash"])

    grid_best_idx = min(range(len(leaderboard)), key=lambda i: sort_key(leaderboard[i]))
    winner_cfg, winner_values = configs[grid_best_idx]

    draw_rng = RngStream(base.seed, "search")
    for _ in range(base.random_search_draws):
        cfg = winner_cfg
        for key in keys:
            values = sorted(set(float(v) for v in base.grid[key]))
            center = float(winner_values[key])
            if len(values) > 1:
                gaps = [b - a for a, b in zip(values, values[1:])]
                radius = min(gaps) / 2.0
            else:
                radius = abs(center) * 0.1 or 0.05
            sampled = center + draw_rng.uniform_signed(1, radius)[0]
            if key == "d_e" or isinstance(base.grid[key][0], int):
                sampled = max(1, int(round(sampled)))
            cfg = _apply_grid_value(cfg, key, sampled)
        leaderboard.append(_trial(cfg, store, priori))

    leaderboard.sort(key=sort_key)
    best = leaderboard[0]
    best_cfg_fields = {
        k: v for k, v in best["config"].items() if k in TrainConfig.__dataclass_fields__
    }
    return TrainConfig(**best_cfg_fields), leaderboard

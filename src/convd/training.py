"""1-N mini-batch training with label smoothing, Adam and early stopping,
and the runs of ablate, sweep and hyperparameter search (`train_each`)."""

import functools
import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# Not `from .evaluation import evaluate`: train looks evaluate up on the
# module at each call, where perfbench's tracer wraps it.
from . import evaluation
from .data import PrioriTable, SmoothedTargets, TripleStore, build_priori, smoothed_targets_matrix
from .errors import ConfigError, DimensionError, NumericError, StateError
from .model import (
    ModelConfig,
    _entity_blocks,
    backward,
    commit_running_stats,
    count_parameters,
    forward_batch,
    init_params,
)
from .numerics import adam_init, adam_step, parallel
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

    def validate(self) -> None:
        super().validate()
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.batch_size < 2 and not self.bn_frozen:
            raise ConfigError(f"batch size {self.batch_size} needs bn_frozen=true: "
                              f"batch statistics need two examples")

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


def bce_loss(z: np.ndarray, ent: np.ndarray, targets: SmoothedTargets, out=None):
    """The 1-N tail of a training step, fused: the logits z @ ent.T of the
    query vectors z (B, d_e) against the entity table ent (N, d_e), their
    mean binary cross-entropy against the smoothed targets, and its
    gradients. Returns (loss, g_z, grad_ent): d loss / d z, and the entity
    table's gradient through the logits, which `backward` takes over.
    grad_ent is written over every row of `out` (N, d_e) when given, and
    `out` returned, so a training epoch reuses one buffer; else it is new.

    No (B, N) array outlives an entity block. One task per block of
    model._entity_blocks, the last and longest first, computes its logits,
    rejects a non-finite one, and takes each cell's loss and gradient
    g = (sigmoid - y) / (B * N) in stable softplus form, one exp per logit:
    with e = exp(-|x|), softplus(x) = max(x, 0) + log1p(e), and sigmoid(x)
    is 1/(1+e) for x >= 0 and e/(1+e) otherwise, so no exp overflows. Every
    cell takes the targets' negative value, then the positive cells are
    assigned theirs, so a listed duplicate counts once. The task writes its
    rows of grad_ent = g.T @ z and keeps its loss sum and its g @ ent
    partial of g_z. After the join, the sums and the partials are added in
    block order, so the bytes do not depend on the worker count; over one
    block they are the dense route's: the mean of the loss matrix, g @ ent
    and g.T @ z."""
    b, n = z.shape[0], ent.shape[0]
    if (targets.n_queries, targets.n_entities) != (b, n):
        raise ConfigError(f"targets of shape {(targets.n_queries, targets.n_entities)} "
                          f"for logits of shape {(b, n)}")
    order = np.argsort(targets.cols, kind="stable")
    rows, cols = targets.rows[order], targets.cols[order]
    if cols.size and (cols[0] < 0 or cols[-1] >= n):
        raise DimensionError(f"a positive target column lies outside [0, {n})")
    blocks = _entity_blocks(n)
    cuts = np.searchsorted(cols, [lo for lo, _ in blocks] + [n]).tolist()
    y_neg, y_pos, cells = targets.negative, targets.positive, b * n
    grad_ent = np.empty_like(ent) if out is None else out
    sums, partials = [None] * len(blocks), [None] * len(blocks)

    def run_block(i):
        lo, hi = blocks[i]
        pos = rows[cuts[i]:cuts[i + 1]], cols[cuts[i]:cuts[i + 1]] - lo
        x = z @ ent[lo:hi].T
        if not np.isfinite(x).all():
            raise NumericError("non-finite logits in the loss")
        e = np.abs(x)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # y*softplus(-x) + (1-y)*softplus(x) == softplus(x) - y*x
        cell_loss = np.maximum(x, 0.0)
        t = np.log1p(e)
        cell_loss += t
        softplus_pos = cell_loss[pos]
        cell_loss -= np.multiply(x, y_neg, out=t)
        cell_loss[pos] = softplus_pos - y_pos * x[pos]
        sums[i] = cell_loss.sum()
        del cell_loss, t
        # The gradient is written over the logits. 1 where x >= 0, else e:
        # equal to np.where(x >= 0, 1, e) since 0 <= e <= 1, without a
        # branch per element.
        np.maximum(e, x >= 0, out=x)
        e += 1.0
        x /= e
        sigmoid_pos = x[pos]
        x -= y_neg
        x[pos] = sigmoid_pos - y_pos
        x /= cells
        np.matmul(x.T, z, out=grad_ent[lo:hi])
        partials[i] = x @ ent[lo:hi]

    parallel([functools.partial(run_block, i) for i in reversed(range(len(blocks)))])
    loss, g_z = sums[0], partials[0]
    for block_sum, partial in zip(sums[1:], partials[1:]):
        loss = loss + block_sum
        g_z += partial
    return loss / cells, g_z, grad_ent


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


def _epoch_batches(order, batch_size):
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
    cfg.validate()
    if not store.augmented:
        raise StateError("train expects a reciprocal-augmented store")
    if store.train.shape[0] == 0:
        raise ConfigError("empty train split")

    index, n_entities = store.train_index, store.n_entities
    heads, rels = index.queries()

    init_rng = RngStream(cfg.seed, "init")
    params = init_params(cfg, n_entities, store.n_relations, init_rng)
    adam = adam_init(params.named_arrays())
    rng = stream_bundle(cfg.seed, DROPOUT_LABELS)
    shuffle_rng = RngStream(cfg.seed, "shuffle")

    history = TrainHistory()
    best_params = None
    mcfg = cfg.model_config()

    def run_epoch(epoch):
        """The epoch's steps; returns their mean loss. bce_loss writes every
        step's entity gradient over one buffer, and backward adds into it in
        place, so no step allocates an N x d_e array; the buffer and the
        last step's trace and gradients die when this returns, before the
        epoch's evaluation and checkpoint save."""
        grad_ent = np.empty_like(params.ent)
        total_loss = 0.0
        total_queries = 0
        for batch_idx in _epoch_batches(shuffle_rng.permutation(len(heads)), cfg.batch_size):
            targets = smoothed_targets_matrix(batch_idx, index, cfg.label_smoothing, n_entities)
            _, trace = forward_batch(
                heads[batch_idx], rels[batch_idx], params, priori, mcfg, mode="train", rng=rng
            )
            loss, g_z, _ = bce_loss(trace.z, params.ent, targets, out=grad_ent)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            grads = backward(trace, g_z, grad_ent)
            # In place: params keeps its arrays for the whole run.
            adam_step(params.named_arrays(), grads, adam, cfg.lr)
            commit_running_stats(trace)
            total_loss += loss * len(batch_idx)
            total_queries += len(batch_idx)
        return total_loss / total_queries

    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        mean_loss = run_epoch(epoch)
        valid_mrr = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.max_epochs:
            report = evaluation.evaluate(params, store, "valid", mcfg, priori=priori)
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


def train_each(variants, store: TripleStore, row) -> list:
    """The one run loop of ablate, sweep and search: trains each (label,
    config) pair in turn, with the priori table of its own priori_base,
    once every config has validated; a failure raises ConfigError prefixed
    with its label. Returns row(config, params, history, priori) per run."""
    variants = list(variants)
    for label, cfg in variants:
        try:
            cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"{label}: {exc}") from None

    def run(cfg):
        priori = build_priori(store, cfg.priori_base)
        return row(cfg, *train(cfg, store, priori), priori)

    return [run(cfg) for _, cfg in variants]


def _train_and_test(variants, store: TripleStore, fields) -> list:
    """Trains every (label, config) pair through `train_each` and tests
    each on the test split; a row holds fields(config, params) and the
    run's results. An empty list is a ConfigError."""
    if not variants:
        raise ConfigError("nothing to run: the list of modes or fractions is empty")

    def tested(cfg, params, history, priori):
        report = evaluation.evaluate(params, store, "test", cfg.model_config(), priori=priori)
        return {
            **fields(cfg, params),
            "config_hash": config_hash(cfg),
            "best_epoch": history.best_epoch,
            "valid_mrr": history.best_valid_mrr,
            "test": report.as_dict(),
        }

    return train_each(variants, store, tested)


def run_ablation(cfg, store: TripleStore, modes) -> list:
    """Train one model per ablation mode with the shared seed and config;
    one comparison row per mode."""
    variants = [(f"mode {mode!r}", replace(cfg, ablation=mode)) for mode in modes]
    return _train_and_test(variants, store, lambda run, _: {"mode": run.ablation})


def run_fraction_sweep(cfg, store: TripleStore, fractions) -> list:
    """Train one model per kernel fraction; rows keyed by fraction, each
    with its best params."""
    variants = [(f"fraction {f}", replace(cfg, kernel_fraction=float(f))) for f in fractions]
    return _train_and_test(variants, store, lambda run, params: {
        "fraction": run.kernel_fraction,
        "active_kernels": run.active_kernels,
        "params": params,
    })


def _factor_embedding_dim(d_e: int) -> tuple:
    """Most-square (d_w, d_h) factorization of d_e."""
    best = (1, d_e)
    for w in range(1, int(math.isqrt(d_e)) + 1):
        if d_e % w == 0:
            best = (w, d_e // w)
    return best


def _apply_grid_value(cfg: TrainConfig, key: str, value):
    if key == "d_e":
        d_w, d_h = _factor_embedding_dim(value)
        return replace(cfg, d_w=d_w, d_h=d_h)
    if key not in cfg.__dataclass_fields__:
        raise ConfigError(f"unknown hyperparameter {key!r} in the grid")
    return replace(cfg, **{key: value})


def hyper_search(base: TrainConfig, store: TripleStore):
    """Grid search: trains one config per combination of the declared value
    lists. Returns (best TrainConfig, leaderboard).

    Every grid config is validated before the first one trains, and each
    run has the priori table of its own priori_base (`train_each`). A grid
    holding d_e with d_w or d_h is refused, since d_e sets both sides of
    the plane.
    Selection: highest validation MRR, ties broken by fewer parameters,
    then by lower config hash.
    """
    if not base.grid:
        raise ConfigError("hyperparameter grid is empty")
    keys = sorted(base.grid)
    for key in keys:
        values = base.grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid key {key!r} needs a non-empty list of values, got {values!r}")
        if key == "d_e" and not all(
                isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in values):
            raise ConfigError(f"grid key 'd_e' needs positive ints, got {values!r}")
        # d_e sets d_w and d_h; a later key would replace one side of its plane.
        if key in ("d_w", "d_h") and "d_e" in base.grid:
            raise ConfigError(f"grid keys 'd_e' and {key!r} both set the entity plane; "
                              f"give one of them")

    def with_values(values):
        cfg = base
        for key, value in values.items():
            cfg = _apply_grid_value(cfg, key, value)
        return cfg

    def entry(cfg, _, h, __):
        return {
            "config": asdict(cfg),
            "config_hash": config_hash(cfg),
            "valid_mrr": float(-1.0 if h.best_valid_mrr is None else h.best_valid_mrr),
            "n_params": count_parameters(cfg, store.n_entities, store.n_relations),
        }

    grid = [dict(zip(keys, combo)) for combo in itertools.product(*(base.grid[k] for k in keys))]
    runs = [(f"grid values {values}", with_values(values)) for values in grid]
    leaderboard = train_each(runs, store, entry)
    leaderboard.sort(key=lambda e: (-e["valid_mrr"], e["n_params"], e["config_hash"]))
    return TrainConfig(**leaderboard[0]["config"]), leaderboard

"""Command-line surface.

Commands: train, eval, predict, gradcheck, ablate, sweep, search, gen-toy.
Every run is driven by one flat JSON config file; individual keys can be
overridden with --set key=value, and the fully resolved config is written
next to the outputs. Exit codes are a stable contract:
  0 success, 2 config error, 3 data error, 4 numeric failure,
  5 checkpoint error, 6 gradient check over tolerance.
CONVD_SEED overrides the config seed.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .checkpoint import check_params, load_checkpoint, save_checkpoint
from .data import (
    TripleStore,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
    tails_index,
    write_splits,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ConvDError,
    DataError,
    NumericError,
)
from .evaluation import evaluate, run_ablation, run_fraction_sweep
from .model import backward, forward_batch, init_params
from .numerics import finite_diff_grad
from .rng import RngStream
from .training import (
    TrainConfig,
    bce_loss,
    config_hash,
    hyper_search,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CHECKPOINT = 5
EXIT_GRADCHECK = 6

GRADCHECK_TOLERANCE = 1e-4

_IO_KEYS = {
    "data_dir": str,
    "output_dir": str,
    "split": str,
    "fractions": list,
    "modes": list,
    "strict_vocab": bool,
}
# Element types of the list-valued keys; a bool is not a number.
_IO_ELEMENTS = {"fractions": ((int, float), "numbers"), "modes": (str, "strings")}


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def load_run_config(path, overrides=()):
    """Strictly parsed flat config: unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key] = _coerce(value)
    known = set(TrainConfig.__dataclass_fields__) | set(_IO_KEYS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    io = {k: raw.pop(k) for k in list(raw) if k in _IO_KEYS}
    for key, value in io.items():
        if not isinstance(value, _IO_KEYS[key]):
            raise ConfigError(f"{key} must be of type {_IO_KEYS[key].__name__}, got {value!r}")
        kind, noun = _IO_ELEMENTS.get(key, (None, None))
        if kind and not all(isinstance(v, kind) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{key} must hold {noun}, got {value!r}")
    try:
        cfg = TrainConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    env_seed = os.environ.get("CONVD_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"CONVD_SEED must be an integer, got {env_seed!r}") from exc
    cfg.validate()
    return cfg, io


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_store(io: dict) -> TripleStore:
    data_dir = io.get("data_dir")
    if not data_dir:
        raise ConfigError("config key data_dir is required")
    strict = io.get("strict_vocab", True)
    try:
        return TripleStore.from_dir(data_dir, strict=strict)
    except FileNotFoundError as exc:
        raise DataError(f"missing split file: {exc}") from exc


def _prepare(io):
    store = augment_reciprocal(_load_store(io))
    return store


def _resolved_config(cfg: TrainConfig, io: dict) -> dict:
    resolved = asdict(cfg)
    resolved.update(io)
    return resolved


def _write_resolved(cfg, io, out_dir, pretty):
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "resolved-config.json"),
        _dump(_resolved_config(cfg, io), pretty),
    )


def cmd_train(args) -> int:
    cfg, io = load_run_config(args.config, args.set or ())
    out_dir = io.get("output_dir")
    if not out_dir:
        raise ConfigError("config key output_dir is required")
    store = _prepare(io)
    priori = build_priori(store, cfg.priori_base)
    _write_resolved(cfg, io, out_dir, args.pretty)
    chash = config_hash(cfg)

    metrics_lines = []
    timing_lines = []

    def log_fn(record, wall_ms):
        metrics_lines.append(
            json.dumps(
                {
                    "epoch": record.epoch,
                    "loss": record.loss,
                    "valid_mrr": record.valid_mrr,
                    "config_hash": chash,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        timing_lines.append(
            json.dumps({"epoch": record.epoch, "wall_ms": wall_ms}, sort_keys=True)
        )

    ckpt_path = os.path.join(out_dir, "best.ckpt")

    def on_new_best(params, epoch, mrr):
        save_checkpoint(ckpt_path, _resolved_config(cfg, io), params)

    params, history = train(cfg, store, priori, on_new_best=on_new_best, log_fn=log_fn)
    if history.best_epoch is None:
        save_checkpoint(ckpt_path, _resolved_config(cfg, io), params)
    _atomic_write(os.path.join(out_dir, "metrics.jsonl"), "".join(l + "\n" for l in metrics_lines))
    _atomic_write(os.path.join(out_dir, "timings.jsonl"), "".join(l + "\n" for l in timing_lines))

    report = evaluate(params, store, "test", cfg.model_config(), priori=priori)
    payload = {
        "config_hash": chash,
        "dataset_fingerprint": dataset_fingerprint(io["data_dir"]),
        "best_epoch": history.best_epoch,
        "best_valid_mrr": history.best_valid_mrr,
        "test": report.as_dict(),
        "wall_ms_total": sum(history.wall_ms),
        "environment": run_environment(),
    }
    _atomic_write(os.path.join(out_dir, "report.json"), _dump(payload, args.pretty))
    return EXIT_OK


def run_environment() -> dict:
    """What parameter bytes depend on beyond seed, config and data: sums in
    BLAS calls are split by thread, so reruns are byte-identical only at a
    fixed OPENBLAS_NUM_THREADS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def dataset_fingerprint(data_dir) -> str:
    import hashlib

    digest = hashlib.sha256()
    for name in ("train.txt", "valid.txt", "test.txt"):
        with open(os.path.join(data_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _params_from_checkpoint(path):
    raw_cfg, params = load_checkpoint(path)
    model_keys = set(TrainConfig.__dataclass_fields__)
    cfg = TrainConfig(**{k: v for k, v in raw_cfg.items() if k in model_keys})
    io = {k: v for k, v in raw_cfg.items() if k in _IO_KEYS}
    return cfg, io, params


def cmd_eval(args) -> int:
    import time

    if args.set and not args.config:
        raise ConfigError("--set needs --config")
    cfg, io, params = _params_from_checkpoint(args.checkpoint)
    if args.config:
        cfg, io = load_run_config(args.config, args.set or ())
        check_params(asdict(cfg), params)
    split = args.split or io.get("split", "test")
    store = _prepare(io)
    priori = build_priori(store, cfg.priori_base)
    tic = time.perf_counter()
    report = evaluate(params, store, split, cfg.model_config(), priori=priori)
    payload = {
        "config_hash": config_hash(cfg),
        "dataset_fingerprint": dataset_fingerprint(io["data_dir"]),
        "split": split,
        **report.as_dict(),
        "wall_ms": (time.perf_counter() - tic) * 1000.0,
    }
    out = args.out or os.path.join(io.get("output_dir", "."), f"report-{split}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    _atomic_write(out, _dump(payload, args.pretty))
    print(_dump(payload, args.pretty), end="")
    return EXIT_OK


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _nearest(symbol, candidates, n=3):
    return sorted(candidates, key=lambda c: (_edit_distance(symbol, c), c))[:n]


def cmd_predict(args) -> int:
    if args.top_k < 0:
        raise ConfigError(f"--top-k must be >= 0, got {args.top_k}")
    cfg, io, params = _params_from_checkpoint(args.checkpoint)
    store = _prepare(io)
    vocab = store.vocab
    if args.head not in vocab.entity_to_id:
        print(
            f"unknown entity {args.head!r}; nearest: "
            + ", ".join(_nearest(args.head, vocab.id_to_entity)),
            file=sys.stderr,
        )
        return EXIT_DATA
    if args.relation not in vocab.relation_to_id:
        print(
            f"unknown relation {args.relation!r}; nearest: "
            + ", ".join(_nearest(args.relation, vocab.id_to_relation)),
            file=sys.stderr,
        )
        return EXIT_DATA
    h = vocab.entity_to_id[args.head]
    r = vocab.relation_to_id[args.relation]
    priori = build_priori(store, cfg.priori_base)
    logits, _ = forward_batch(
        np.array([h]), np.array([r]), params, priori, cfg.model_config(), mode="eval"
    )
    scores = logits[0]
    known = tails_index(store.train).get((h, r), set()) if args.filter_known else set()
    order = [i for i in np.argsort(-scores, kind="stable").tolist() if i not in known]
    rows = [
        {"entity": vocab.id_to_entity[i], "score": float(scores[i])}
        for i in order[: args.top_k or None]
    ]
    print(_dump(rows, args.pretty), end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg, io = load_run_config(args.config, args.set or ())
    if cfg.dropout_in or cfg.dropout_feat or cfg.dropout_out:
        raise ConfigError("gradcheck requires all dropout probabilities to be 0")
    if not cfg.bn_frozen:
        raise ConfigError("gradcheck requires bn_frozen=true")
    table, ok = gradcheck_table(cfg, n_entities=7, n_relations=3)
    out_dir = io.get("output_dir")
    if out_dir:
        _write_resolved(cfg, io, out_dir, args.pretty)
        _atomic_write(os.path.join(out_dir, "gradcheck.json"), _dump(table, args.pretty))
    print(_dump(table, args.pretty), end="")
    if not ok:
        worst = max(table["blocks"], key=lambda b: b["max_rel_error"])
        print(
            f"gradient check failed: block {worst['name']} at {worst['max_rel_error']:.3e}",
            file=sys.stderr,
        )
        return EXIT_GRADCHECK
    return EXIT_OK


def gradcheck_table(cfg: TrainConfig, n_entities: int, n_relations: int,
                    h: float = 1e-5, seed_queries: int = 3):
    """Analytic vs central-difference gradients, per parameter block."""
    from .data import PrioriTable

    mcfg = cfg.model_config()
    mcfg.validate()
    rng = RngStream(cfg.seed, "init")
    params = init_params(mcfg, n_entities, n_relations, rng)
    priori = PrioriTable(
        freq={(i % n_entities, i % n_relations): i + 1 for i in range(seed_queries)},
        log_base=cfg.priori_base,
    )
    qrng = RngStream(cfg.seed, "gradcheck")
    h_ids = (qrng.uniform(seed_queries) * n_entities).astype(np.int64)
    r_ids = (qrng.uniform(seed_queries) * n_relations).astype(np.int64)
    targets = (qrng.uniform(seed_queries * n_entities).reshape(seed_queries, -1) < 0.3).astype(
        np.float64
    )
    targets = targets * (1 - mcfg.label_smoothing) + mcfg.label_smoothing / n_entities

    def loss_for(arrays):
        p = params.with_arrays(arrays)
        logits, _ = forward_batch(h_ids, r_ids, p, priori, mcfg, mode="train", rng=None)
        loss, _ = bce_loss(logits, targets)
        return loss

    logits, trace = forward_batch(h_ids, r_ids, params, priori, mcfg, mode="train", rng=None)
    _, grad_logits = bce_loss(logits, targets)
    analytic = backward(trace, grad_logits, params, mcfg)
    numeric = finite_diff_grad(loss_for, params.named_arrays(), h=h)

    blocks = []
    ok = True
    for name in analytic:
        a, f = analytic[name], numeric[name]
        scale = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-12)
        err = float(np.max(np.abs(a - f)) / scale)
        blocks.append({"name": name, "max_rel_error": err})
        ok = ok and err <= GRADCHECK_TOLERANCE
    return {"tolerance": GRADCHECK_TOLERANCE, "passed": ok, "blocks": blocks}, ok


def cmd_ablate(args) -> int:
    cfg, io = load_run_config(args.config, args.set or ())
    modes = args.modes.split(",") if args.modes else io.get(
        "modes", ["full", "no_priori", "no_attention", "no_both"]
    )
    store = _prepare(io)
    priori = build_priori(store, cfg.priori_base)
    rows = run_ablation(cfg, store, priori, modes)
    out_dir = io.get("output_dir")
    if out_dir:
        _write_resolved(cfg, io, out_dir, args.pretty)
        _atomic_write(os.path.join(out_dir, "ablation.json"), _dump(rows, args.pretty))
    print(_dump(rows, args.pretty), end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, io = load_run_config(args.config, args.set or ())
    raw = args.fractions.split(",") if args.fractions else io.get("fractions", [0.25, 0.5, 1.0])
    try:
        fractions = [float(x) for x in raw]
    except ValueError as exc:
        raise ConfigError(f"--fractions expects numbers, got {args.fractions!r}") from exc
    store = _prepare(io)
    priori = build_priori(store, cfg.priori_base)
    rows = run_fraction_sweep(cfg, store, priori, fractions)
    serializable = [{k: v for k, v in row.items() if k != "params"} for row in rows]
    out_dir = io.get("output_dir")
    if out_dir:
        _write_resolved(cfg, io, out_dir, args.pretty)
        _atomic_write(os.path.join(out_dir, "sweep.json"), _dump(serializable, args.pretty))
    print(_dump(serializable, args.pretty), end="")
    return EXIT_OK


def cmd_search(args) -> int:
    cfg, io = load_run_config(args.config, args.set or ())
    store = _prepare(io)
    priori = build_priori(store, cfg.priori_base)
    best, leaderboard = hyper_search(cfg, store, priori)
    payload = {"best": asdict(best), "best_hash": config_hash(best), "leaderboard": leaderboard}
    out_dir = io.get("output_dir")
    if out_dir:
        _write_resolved(cfg, io, out_dir, args.pretty)
        _atomic_write(os.path.join(out_dir, "search.json"), _dump(payload, args.pretty))
    print(_dump(payload, args.pretty), end="")
    return EXIT_OK


def cmd_gen_toy(args) -> int:
    store = generate_toy_kg(
        seed=args.seed,
        n_entities=args.entities,
        n_relations=args.relations,
        composition_depth=args.depth,
    )
    write_splits(store, args.out)
    summary = {
        "entities": store.n_entities,
        "relations": store.n_relations,
        "train": int(store.train.shape[0]),
        "valid": int(store.valid.shape[0]),
        "test": int(store.test.shape[0]),
    }
    print(_dump(summary, args.pretty), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="flat JSON config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = sub.add_parser("train", help="train a model; writes checkpoint, metrics, report")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="optional config overriding the stored one")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a key of --config (requires --config)")
    p.add_argument("--split", choices=["train", "valid", "test"])
    p.add_argument("--out", help="report path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="rank tail entities for a (head, relation) query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--top-k", type=int, default=10, dest="top_k",
                   help="rows to print after filtering; 0 prints all")
    p.add_argument("--filter-known", action="store_true", dest="filter_known",
                   help="hide tails already true in the train split")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare ablation modes")
    common(p)
    p.add_argument("--modes", help="comma-separated subset of "
                                   "full,no_priori,no_attention,no_both")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="kernel-fraction sweep")
    common(p)
    p.add_argument("--fractions", help="comma-separated fractions in (0, 1]")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("search", help="grid plus random hyperparameter search")
    common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gen-toy", help="write a deterministic toy dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--relations", type=int, default=4)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_gen_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConvDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

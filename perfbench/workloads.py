"""The convd benchmark workloads and the run that measures one of them.

Every workload follows the path `convd train` and `convd eval` compose:
triple files are loaded, augmented with reciprocal relations and counted
into the priori table (set-up); the model is trained 1-N with a checkpoint
saved on each new best; a checkpoint is loaded and evaluated by filtered
ranking. The graphs are generated from the workload seed and written to
triple files before anything is timed, so the program receives only files.
"""

import contextlib
import copy
import gc
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from convd import checkpoint, data, evaluation, model, training
from convd.cli import dataset_fingerprint
from convd.rng import RngStream
from tracer import Recorder, StepClock, SPAN_NAMES

SETUP_ROUND_S = 0.3  # each round starts with set-ups for at least this long
SETUP_INTERVAL_S = 1.0  # and sets up again before an evaluate pass this long after the last
ORACLE_TRIPLES = 128  # 256 queries, one evaluate batch

# eval_dense graph: sized so that known tails per query (both directions,
# all splits) have a mean of ~7 and a maximum of 450, as on the graph the
# workload was specified from; ~51k triples.
DENSE_ENTITIES = 2000
DENSE_RELATIONS = 8
DENSE_HEADS = 550  # heads with any tail, per relation
DENSE_MAX_FAN_OUT = 450  # tails of the largest head
DENSE_FAN_OUT_EXPONENT = 0.78  # the head of rank i has MAX * i**-EXPONENT tails
DENSE_TAIL_EXPONENT = 1.15  # Zipf popularity of tails, which makes fan-in heavy-tailed


def dense_graph(seed: int) -> data.TripleStore:
    """Seeded many-to-many graph with heavy-tailed fan-out and fan-in.

    Out-degrees per relation are a fixed power-law sequence, so the triple
    count does not depend on the seed; the seed picks the heads, assigns
    them degrees and draws their tails without replacement from a Zipf
    popularity over a seeded ordering of the entities. Split 80/10/10 after
    a seeded shuffle, with a first pass that keeps every entity and
    relation in train, as generate_toy_kg does.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, DENSE_HEADS + 1, dtype=np.float64)
    degrees = np.maximum(1, np.round(DENSE_MAX_FAN_OUT * ranks ** -DENSE_FAN_OUT_EXPONENT))
    popularity = np.arange(1, DENSE_ENTITIES + 1, dtype=np.float64) ** -DENSE_TAIL_EXPONENT
    rows = []
    for rel in range(DENSE_RELATIONS):
        heads = rng.permutation(DENSE_ENTITIES)[:DENSE_HEADS]
        weights = popularity[rng.permutation(DENSE_ENTITIES)]
        for head, degree in zip(heads, degrees.astype(np.int64)):
            w = weights.copy()
            w[head] = 0.0
            tails = rng.choice(DENSE_ENTITIES, size=degree, replace=False, p=w / w.sum())
            rows.extend((int(head), rel, int(t)) for t in tails)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    seen_e, seen_r, train, rest = set(), set(), [], []
    for h, r, t in rows:
        if h not in seen_e or t not in seen_e or r not in seen_r:
            train.append((h, r, t))
            seen_e.update((h, t))
            seen_r.add(r)
        else:
            rest.append((h, r, t))
    n_valid = len(rows) // 10
    n_train = len(rows) - 2 * n_valid
    fill = n_train - len(train)
    train += rest[:fill]
    valid, test = rest[fill:fill + n_valid], rest[fill + n_valid:]
    vocab = data.Vocab.from_symbols(
        [f"e{i:05d}" for i in range(DENSE_ENTITIES)],
        [f"r{j:03d}" for j in range(DENSE_RELATIONS)],
    )
    arr = lambda split: np.array(split, dtype=np.int64).reshape(-1, 3)
    return data.TripleStore(vocab=vocab, train=arr(train), valid=arr(valid), test=arr(test))


@dataclass(frozen=True)
class Workload:
    make_graph: Callable[[int], data.TripleStore]
    model: dict  # TrainConfig fields besides the seed
    max_epochs: int  # epochs of one training run
    train_share: float  # share of the measured seconds spent training
    evaluate_loaded_init: bool  # evaluate a checkpoint of init params, not the trained one


WORKLOADS = {
    "train_toy": Workload(
        make_graph=lambda seed: data.generate_toy_kg(seed, 200, 4, 2),
        model=dict(d_w=10, d_h=10, r_w=3, r_h=3, m=4, k=32, batch_size=128, eval_every=5),
        max_epochs=50,
        train_share=0.8,
        evaluate_loaded_init=False,
    ),
    "train_5k": Workload(
        make_graph=lambda seed: data.generate_toy_kg(seed, 5000, 2, 2),
        model=dict(d_w=10, d_h=20, batch_size=128),
        max_epochs=1,
        train_share=0.75,
        evaluate_loaded_init=False,
    ),
    "eval_dense": Workload(
        make_graph=dense_graph,
        model=dict(d_w=10, d_h=20, batch_size=128),
        max_epochs=1,
        train_share=0.55,
        evaluate_loaded_init=True,
    ),
}


def params_hash(params) -> str:
    digest = hashlib.sha256()
    for name, arr in sorted({**params.named_arrays(), **params.running_arrays()}.items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def sorted_tie_average_rank(scores, true_id, filter_out) -> float:
    """Rank of the true entity among unfiltered candidates by sorting, with
    tied positions averaged: independent of evaluation.rank_of, which
    counts. Same rule as the test-suite oracle."""
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[list(filter_out)] = False
    keep[true_id] = True
    ordered = np.sort(scores[keep])[::-1]
    positions = np.flatnonzero(ordered == scores[true_id]) + 1
    return float(positions.mean())


class Checks:
    """Correctness checks and operation counts behind `failed`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class TrainRun:
    params_hash: str  # the params themselves are dropped after their checks
    history: object
    wall_s: float
    steps: int


class Bench:
    """One workload at one seed, in a work directory of its own."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.w = name, seed, WORKLOADS[name]
        self.cfg = training.TrainConfig(
            **self.w.model, max_epochs=self.w.max_epochs, seed=seed
        )
        self.data_dir = os.path.join(workdir, "data")
        self.init_ckpt = os.path.join(workdir, "init.ckpt")
        self.best_ckpt = os.path.join(workdir, "best.ckpt")
        self.checks = Checks()
        self.init_params = None

    # -- preparation, untimed ------------------------------------------------
    def prepare(self) -> str:
        store = self.w.make_graph(self.seed)
        data.write_splits(store, self.data_dir)
        if self.w.evaluate_loaded_init:
            self.init_params = model.init_params(
                self.cfg, store.n_entities, 2 * store.n_relations,
                RngStream(self.seed, "bench-init"),
            )
            checkpoint.save_checkpoint(self.init_ckpt, asdict(self.cfg), self.init_params)
        return dataset_fingerprint(self.data_dir)

    # -- timed phases --------------------------------------------------------
    def setup(self):
        """Load, augment, priori, and the init checkpoint where the workload
        evaluates one. Returns (seconds, store, priori, loaded params).
        Garbage from earlier rounds is collected first, so that each set-up
        starts from the heap of a fresh process."""
        gc.collect()
        tic = time.perf_counter()
        store = data.augment_reciprocal(data.TripleStore.from_dir(self.data_dir))
        priori = data.build_priori(store, self.cfg.priori_base)
        loaded = None
        if self.w.evaluate_loaded_init:
            loaded = checkpoint.load_checkpoint(self.init_ckpt)[1]
        return time.perf_counter() - tic, store, priori, loaded

    def train_once(self, store, priori, clock=None):
        """Returns (best params, TrainRun)."""
        def on_new_best(params, epoch, mrr):
            checkpoint.save_checkpoint(self.best_ckpt, asdict(self.cfg), params)

        def log_fn(record, wall_ms):
            if clock is not None:
                clock.epoch_end()

        steps_before = clock.steps if clock is not None else 0
        tic = time.perf_counter()
        params, history = training.train(
            self.cfg, store, priori, on_new_best=on_new_best, log_fn=log_fn
        )
        wall = time.perf_counter() - tic
        steps = clock.steps - steps_before if clock is not None else 0
        return params, TrainRun(params_hash(params), history, wall, steps)

    def evaluate_once(self, params, store, priori, split):
        tic = time.perf_counter()
        report = evaluation.evaluate(params, store, split, self.cfg.model_config(), priori=priori)
        return report, time.perf_counter() - tic

    def eval_params(self, loaded_init):
        """The checkpoint the evaluation phase ranks with, as `convd eval`
        loads it."""
        if self.w.evaluate_loaded_init:
            return loaded_init
        return checkpoint.load_checkpoint(self.best_ckpt)[1]

    # -- checks --------------------------------------------------------------
    def check_training(self, runs) -> None:
        first = runs[0]
        for i, run in enumerate(runs):
            losses = [r.loss for r in run.history.records]
            self.checks.record(all(math.isfinite(x) for x in losses), f"non-finite loss in run {i}")
            if i:
                same = (
                    run.params_hash == first.params_hash
                    and run.history.records[-1].loss == first.history.records[-1].loss
                    and run.history.best_valid_mrr == first.history.best_valid_mrr
                )
                self.checks.record(same, f"same-seed training run {i} differs from run 0")

    def check_round_trip(self, params, path) -> None:
        loaded = checkpoint.load_checkpoint(path)[1]
        ours = {**params.named_arrays(), **params.running_arrays()}
        theirs = {**loaded.named_arrays(), **loaded.running_arrays()}
        exact = ours.keys() == theirs.keys() and all(
            ours[k].shape == theirs[k].shape and ours[k].tobytes() == theirs[k].tobytes()
            for k in ours
        )
        self.checks.record(exact, f"checkpoint round trip of {os.path.basename(path)} not bit-exact")

    def check_ranks(self, params, store, priori) -> None:
        """Ranks of a seeded sample of valid triples, recomputed from the
        logits by sorting, must give evaluate's metrics exactly."""
        base = store.n_base_relations
        original = store.valid[store.valid[:, 1] < base]
        pick = np.random.default_rng(self.seed).choice(
            original.shape[0], size=min(ORACLE_TRIPLES, original.shape[0]), replace=False
        )
        sample = original[np.sort(pick)]
        sub = copy.copy(store)
        sub.valid = sample
        report = evaluation.evaluate(params, sub, "valid", self.cfg.model_config(), priori=priori)

        queries = [(int(h), int(r), int(t)) for h, r, t in sample]
        queries = [q for h, r, t in queries for q in ((h, r, t), (t, r + base, h))]
        logits, _ = model.forward_batch(
            np.array([q[0] for q in queries]), np.array([q[1] for q in queries]),
            params, priori, self.cfg.model_config(), mode="eval",
        )
        ranks = [
            sorted_tie_average_rank(row, t, store.tails_by_query.get((h, r), set()) - {t})
            for row, (h, r, t) in zip(logits, queries)
        ]
        ranks = np.array(ranks[0::2] + ranks[1::2])
        same = (
            report.n_queries == ranks.size
            and report.mrr == float(np.mean(1.0 / ranks))
            and all(report.hits[n] == float(np.mean(ranks <= n)) for n in evaluation.HITS_LEVELS)
        )
        self.checks.record(same, "sorted oracle ranks disagree with evaluate")

    # -- runs ----------------------------------------------------------------
    def measure(self, seconds: float) -> tuple:
        """Untraced run: (end-to-end metrics, summary), with one clock hook
        on Adam."""
        setup_s = []
        clock = StepClock()
        runs, reports = [], {}
        passes, queries, eval_s = 0, 0, 0.0
        store = priori = loaded = params = None

        def set_up():
            nonlocal store, priori, loaded, params, last_setup
            # Only one set-up is alive at a time, as in one convd run.
            store = priori = loaded = params = None
            seconds_taken, store, priori, loaded = self.setup()
            setup_s.append(seconds_taken)
            last_setup = time.perf_counter()

        start = last_setup = time.perf_counter()
        with contextlib.ExitStack() as patches:
            clock.install(patches)
            # Rounds of set-ups, one training run and evaluate passes, with
            # more set-ups between the passes, so that every metric samples
            # the whole run, not one stretch of it.
            while True:
                round_start = time.perf_counter()
                set_up()
                while time.perf_counter() - round_start < SETUP_ROUND_S:
                    set_up()
                if loaded is not None and not runs:
                    self.check_round_trip(self.init_params, self.init_ckpt)
                trained, run = self.train_once(store, priori, clock)
                runs.append(run)
                self.check_round_trip(trained, self.best_ckpt)
                trained = None
                params = self.eval_params(loaded)
                train_s = sum(r.wall_s for r in runs)
                while eval_s < train_s * (1.0 - self.w.train_share) / self.w.train_share:
                    if time.perf_counter() - last_setup > SETUP_INTERVAL_S:
                        set_up()  # and load the checkpoint again, as `convd eval` does
                        params = self.eval_params(loaded)
                    split = ("valid", "test")[passes % 2]
                    report, dt = self.evaluate_once(params, store, priori, split)
                    ok = report == reports.setdefault(split, report) and math.isfinite(report.mrr)
                    self.checks.record(ok, f"evaluate pass {passes} on {split} differs")
                    passes += 1
                    queries += report.n_queries
                    eval_s += dt
                # Stop at the round end nearest to `seconds`.
                elapsed = time.perf_counter() - start
                if len(runs) >= 2 and elapsed + elapsed / len(runs) / 2 > seconds:
                    break
        self.check_training(runs)
        self.check_ranks(params, store, priori)

        steps = sum(r.steps for r in runs)
        self.checks.attempted += steps
        step_ms = clock.step_ms()
        epoch_ms = [ms for r in runs for ms in r.history.wall_ms]
        metrics = {
            # The 5th percentile, not the median: set-up is interpreter- and
            # allocation-bound, and on a shared host such code slows by up
            # to 2x for stretches of seconds, more than the NumPy-bound
            # phases do. The share of set-ups caught in slow stretches
            # varies from run to run; the low tail moves only when a slow
            # phase outlasts the run. A change to set-up code moves the
            # whole distribution.
            "setup_s": statistics.quantiles(setup_s, n=20, method="inclusive")[0],
            "train_steps_per_s": steps / sum(r.wall_s for r in runs),
            "step_ms_p90": float(np.percentile(step_ms, 90)),
            "eval_queries_per_s": queries / eval_s,
            "final_loss": runs[0].history.records[-1].loss,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = {
            "train_runs": len(runs),
            "setups": len(setup_s),
            "measured_s": elapsed,
            "steps": steps,
            "step_samples": len(step_ms),
            "epoch_samples": len(epoch_ms),
            "eval_passes": passes,
            "valid_mrr": runs[0].history.best_valid_mrr,
            "params_hash": runs[0].params_hash[:16],
            # Reported, not bounded: on train_toy, step times fall into two
            # modes ~45% apart that the shared host switches between, and
            # these medians jump with the share of each mode.
            "step_ms_p50": {"value": float(np.percentile(step_ms, 50)), "unit": "ms"},
            "epoch_ms_p50": {"value": statistics.median(epoch_ms), "unit": "ms"},
        }
        return metrics, summary

    def trace(self, spans_path: str) -> tuple:
        """Traced run over a fixed amount of work, so call counts repeat
        exactly: one untraced training run as the overhead reference, then
        set-up, the same training run and one evaluate pass per split under
        the span recorder."""
        _, store, priori, _ = self.setup()
        clock = StepClock()
        with contextlib.ExitStack() as patches:
            clock.install(patches)
            reference = self.train_once(store, priori, clock)[1]

        recorder = Recorder()
        tic = time.perf_counter()
        with contextlib.ExitStack() as patches:
            recorder.install(patches)
            store = priori = None
            _, store, priori, loaded = self.setup()
            trained, traced = self.train_once(store, priori)
            params = self.eval_params(loaded)
            reports = [self.evaluate_once(params, store, priori, s)[0] for s in ("valid", "test")]
        traced_wall_ms = (time.perf_counter() - tic) * 1000.0
        recorder.write(spans_path)

        self.check_training([reference, traced])
        self.check_round_trip(trained, self.best_ckpt)
        if loaded is not None:
            self.check_round_trip(self.init_params, self.init_ckpt)
        for report in reports:
            self.checks.record(math.isfinite(report.mrr), "non-finite evaluation metrics")
        self.check_ranks(params, store, priori)

        spans = recorder.summary()
        idle = [name for name in SPAN_NAMES if spans["calls"][name] == 0]
        if idle:
            raise RuntimeError(f"{self.name}: no calls reached {', '.join(idle)}; "
                               "a layer is bypassed or no longer looked up where it is wrapped")
        steps = spans["calls"]["numerics.adam_step"]
        self.checks.attempted += steps + len(reports)
        counts = recorder.counts
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = spans["calls"][name]
            metrics[f"{name}.self_ms"] = spans["self_ms"][name]
        untraced_rate = reference.steps / reference.wall_s
        traced_rate = steps / traced.wall_s
        metrics.update({
            "data.smoothed_targets_matrix.positive_share":
                counts["positives"] / counts["target_cells"],
            "evaluation.rank_of.filtered_mean":
                counts["filtered"] / spans["calls"]["evaluation.rank_of"],
            "numerics.adam_step.bytes_per_step": counts["adam_bytes"] / steps,
            "model.forward_batch.logit_flops_per_query": counts["logit_flops_per_query"],
            "training.train.valid_mrr": traced.history.best_valid_mrr,
            "trace.train_steps_per_s_untraced": untraced_rate,
            "trace.train_steps_per_s_traced": traced_rate,
            "trace.overhead_share": untraced_rate / traced_rate - 1.0,
        })
        summary = {
            "traced_wall_ms": traced_wall_ms,
            "self_ms_total": sum(spans["self_ms"].values()),
            "self_ms_min": min(spans["self_ms"].values()),
            "spans": len(recorder.spans),
            "spans_file": spans_path,
        }
        return metrics, summary

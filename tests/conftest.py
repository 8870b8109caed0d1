import itertools

import numpy as np
import pytest

import convd.numerics
from convd.data import (
    PrioriTable,
    QueryIndex,
    SmoothedTargets,
    TripleStore,
    Vocab,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
)
from convd.model import ModelConfig, backward, init_params
from convd.rng import RngStream
from convd.training import TrainConfig, train

# Desk-scale instance shared by the gradient and oracle tests.
TINY = dict(d_w=4, d_h=3, r_w=2, r_h=2, m=4, k=2)
TINY_ENTITIES = 7
TINY_RELATIONS = 3


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        TINY,
        dropout_in=0.0,
        dropout_feat=0.0,
        dropout_out=0.0,
        bn_frozen=True,
        priori_weight=0.2,
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def tiny_params(cfg, seed=7, randomize_stats=True):
    params = init_params(cfg, TINY_ENTITIES, TINY_RELATIONS, RngStream(seed, "init"))
    if randomize_stats:
        st = RngStream(seed + 1, "stats")
        params.bn_mean = st.uniform_signed(cfg.conv_map, 0.5)
        params.bn_var = 0.5 + st.uniform(cfg.conv_map)
        params.bn_gamma = np.array([1.3])
        params.bn_beta = np.array([-0.2])
    return params


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / scale)


def small_toy_train_config(**overrides) -> TrainConfig:
    """Quick-training toy setup for the ablation/sweep style tests."""
    base = dict(
        d_w=6,
        d_h=6,
        r_w=2,
        r_h=2,
        m=4,
        k=8,
        max_epochs=10,
        eval_every=5,
        patience=5,
        batch_size=64,
        seed=3,
    )
    base.update(overrides)
    cfg = TrainConfig(**base)
    cfg.validate()
    return cfg


def no_training(*args, **kwargs):
    """A stand-in for `training.train` where a run must be refused before
    anything trains."""
    raise AssertionError("trained before every config was checked")


def targets_from_tails(tails, eps, n_entities):
    """Smoothed targets whose row i's positive cells are the entity ids
    tails[i]; an id listed twice is one positive cell."""
    rows = np.repeat(np.arange(len(tails)), [len(t) for t in tails])
    cols = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64, count=rows.size)
    return SmoothedTargets(rows, cols, float(eps), len(tails), int(n_entities))


def targets_of(positive, eps):
    """Smoothed targets whose positive cells are the True cells of a
    (B, N) mask."""
    positive = np.atleast_2d(positive)
    return targets_from_tails([np.flatnonzero(row) for row in positive], eps, positive.shape[1])


def dense_backward(trace, grad_logits):
    """`backward` from a gradient with respect to the (B, N) logits: step
    8's two products, as the dense route takes them, then steps 7 down."""
    return backward(trace, grad_logits @ trace.params.ent, grad_logits.T @ trace.z)


def worker_counts(monkeypatch, counts=(1, 3)):
    """Yields each count, with `parallel` and `block_runs` seeing that many
    CPUs meanwhile: at 1 every task runs inline, at 3 the calling thread and
    the pool take the tasks from one queue, even on a host with fewer CPUs."""
    for count in counts:
        with monkeypatch.context() as patch:
            patch.setattr(convd.numerics, "workers", lambda: count)
            yield count


def make_store(train, valid=(), test=()):
    """A raw store over (head, relation, tail) symbol rows, with one
    lexicographic vocabulary over all three splits."""
    symbols_e = [s for h, _, t in list(train) + list(valid) + list(test) for s in (h, t)]
    symbols_r = [r for _, r, _ in list(train) + list(valid) + list(test)]
    vocab = Vocab.from_symbols(symbols_e, symbols_r)

    def ids(rows):
        return np.array(
            [
                (vocab.entity_to_id[h], vocab.relation_to_id[r], vocab.entity_to_id[t])
                for h, r, t in rows
            ],
            dtype=np.int64,
        ).reshape(-1, 3)

    return TripleStore(vocab=vocab, train=ids(train), valid=ids(valid), test=ids(test))


def priori_table(counts, n_relations, log_base=2.0) -> PrioriTable:
    """A priori table over a train split that repeats each (head, relation)
    pair of `counts` as often as its count says, every time with tail 0."""
    train = [(h, r, 0) for (h, r), n in counts.items() for _ in range(n)]
    index = QueryIndex.of(np.array(train, dtype=np.int64).reshape(-1, 3), n_relations)
    return PrioriTable(index, log_base)


def priori_freq(table) -> dict:
    """(head, relation) -> n for every pair the table's train split holds,
    as a dict read from its index."""
    heads, rels = table.index.queries()
    return dict(zip(zip(heads.tolist(), rels.tolist()), np.diff(table.index.offsets).tolist()))


def priori_value(table, h: int, r: int) -> float:
    """P(h, r) of one query, through `PrioriTable.values`."""
    return float(table.values([h], [r])[0])


def many_to_many_rows():
    """Several tails per (head, relation) and several heads per tail, dealt
    round-robin to train/valid/test."""
    rows = [
        (f"e{h}", f"r{r}", f"e{(h * 7 + r * 3 + k * k) % 23}")
        for h in range(23) for r in range(3) for k in range(1 + h % 5)
    ]
    return rows[0::3], rows[1::3], rows[2::3]


@pytest.fixture(scope="session")
def small_toy_store():
    return augment_reciprocal(generate_toy_kg(3, 40, 3, 2))


@pytest.fixture(scope="session")
def toy_store():
    """The acceptance-scale toy graph: 200 entities, 4 relations."""
    return augment_reciprocal(generate_toy_kg(1, 200, 4, 2))


@pytest.fixture(scope="session")
def toy_priori(toy_store):
    return build_priori(toy_store)


@pytest.fixture(scope="session")
def toy_train_config():
    cfg = TrainConfig(
        d_w=10, d_h=10, r_w=3, r_h=3, m=4, k=32,
        max_epochs=200, patience=5, eval_every=5, seed=1,
    )
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def toy_trained(toy_store, toy_priori, toy_train_config):
    """One full acceptance-scale training run, shared across tests."""
    import time

    start = time.perf_counter()
    params, history = train(toy_train_config, toy_store, toy_priori)
    return params, history, time.perf_counter() - start

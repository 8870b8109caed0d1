import json
import math
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

import convd.training
from convd.data import (
    QueryIndex,
    TripleStore,
    augment_reciprocal,
    build_priori,
    generate_toy_kg,
)
from convd.errors import ConfigError, DimensionError, NumericError, StateError
from convd.model import ENTITY_BLOCK, _entity_blocks, backward, forward_batch, init_params
from convd.numerics import BLOCK, adam_init, adam_step, finite_diff_grad
from convd.rng import RngStream, stream_bundle
from convd.training import (
    DROPOUT_LABELS,
    EpochRecord,
    TrainHistory,
    _epoch_batches,
    bce_loss,
    config_hash,
    early_stop,
    hyper_search,
    run_ablation,
    run_fraction_sweep,
    train,
)
from convd import evaluation
from convd.evaluation import evaluate

from conftest import (
    TINY_ENTITIES,
    TINY_RELATIONS,
    no_training,
    priori_table,
    rel_err,
    small_toy_train_config,
    targets_from_tails,
    targets_of,
    tiny_config,
    tiny_params,
    worker_counts,
)
from oracles import oracle_bce, oracle_smoothed_targets, oracle_tail

PRIORI = priori_table({(0, 0): 2, (1, 1): 1}, TINY_RELATIONS)


def tail_on_logits(logits, targets):
    """bce_loss on given (B, N) logits: z = I and ent = logits.T make
    z @ ent.T the logits, and grad_ent.T their gradient, exactly, since
    every product is by 1 or 0. Returns (loss, grad_logits)."""
    logits = np.atleast_2d(logits)
    loss, _, grad_ent = bce_loss(np.eye(logits.shape[0]), np.ascontiguousarray(logits.T),
                                 targets)
    return loss, grad_ent.T


def dense_route(z, ent, target):
    """The unfused tail on the model's entity blocks: the logits and the
    entity products per block, the loss and gradient g over the whole
    matrix, and g_z as one product. Returns (loss, g_z, grad_ent, g)."""
    blocks = _entity_blocks(ent.shape[0])
    logits = np.concatenate([z @ ent[lo:hi].T for lo, hi in blocks], axis=1)
    loss, g = oracle_bce(logits, target)
    return loss, g @ ent, np.concatenate([g[:, lo:hi].T @ z for lo, hi in blocks]), g


class TestBceLoss:
    def test_symmetric_point(self):
        # Eight queries over one entity, every target 0.5.
        loss, grad = tail_on_logits(np.zeros((8, 1)), targets_of(np.zeros((8, 1), bool), 0.5))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_gradient_matches_finite_difference(self):
        rng = RngStream(3, "bce")
        z = rng.uniform_signed(6, 1.0).reshape(2, 3)
        ent = rng.uniform_signed(15, 1.0).reshape(5, 3)
        targets = targets_of(rng.uniform(10).reshape(2, 5) < 0.4, 0.1)

        def loss_fn(p):
            return bce_loss(p["z"], p["ent"], targets)[0]

        _, g_z, grad_ent = bce_loss(z, ent, targets)
        fd = finite_diff_grad(loss_fn, {"z": z, "ent": ent}, h=1e-6)
        assert rel_err(g_z, fd["z"]) <= 1e-8
        assert rel_err(grad_ent, fd["ent"]) <= 1e-8

    def test_hand_evaluated_smoothed_case(self):
        # One positive among 10 with smoothing 0.1 and hand-set logits.
        n = 10
        eps = 0.1
        target = np.full(n, eps / n)
        target[4] = 1 - eps + eps / n
        logits = np.linspace(-1.0, 1.0, n)
        rho = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(target * np.log(rho) + (1 - target) * np.log(1 - rho))
        loss, _ = tail_on_logits(logits, targets_of(np.arange(n) == 4, eps))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_batched_grad_includes_batch_size(self):
        # No positives and eps = 0.6: every target is 0.6 / 6 = 0.1.
        logits = np.zeros((4, 6))
        loss, grad = tail_on_logits(logits, targets_of(np.zeros((4, 6), bool), 0.6))
        assert grad.shape == (4, 6)
        assert np.allclose(grad, (0.5 - 0.1) / 24)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            tail_on_logits(np.array([np.nan]), targets_of(np.zeros(1, bool), 0.5))

    def test_gradient_matches_two_exp_oracle(self):
        # 0/1 labels keep sigmoid - y well conditioned, so the only
        # difference left is the rounding of the sigmoid itself.
        rng = np.random.default_rng(29)
        logits = rng.uniform(-40.0, 40.0, size=10_000)
        positive = rng.uniform(size=logits.size) < 0.5
        _, grad = tail_on_logits(logits, targets_of(positive, 0.0))
        oracle = (1.0 / (1.0 + np.exp(-logits)) - positive) / logits.size
        np.testing.assert_allclose(grad[0], oracle, rtol=1e-14, atol=0.0)

    def test_soft_target_gradient_within_operand_rounding(self):
        # With soft labels sigmoid - y can cancel; bound the difference by
        # the size of the operands instead of the result. eps = 0.5 over
        # 100 entities puts the targets at 0.005 and 0.505.
        rng = np.random.default_rng(30)
        logits = rng.uniform(-40.0, 40.0, size=(100, 100))
        positive = rng.uniform(size=logits.shape) < 0.5
        _, grad = tail_on_logits(logits, targets_of(positive, 0.5))
        target = np.where(positive, 0.005 + 0.5, 0.005)
        sig = 1.0 / (1.0 + np.exp(-logits))
        oracle = (sig - target) / logits.size
        assert np.all(np.abs(grad - oracle) <= 1e-14 * (sig + target) / logits.size)

    def test_extreme_logits_raise_no_floating_point_error(self):
        logits = np.array([1e4, -1e4, 1e4, -1e4])
        positive = np.array([True, False, False, True])
        with np.errstate(over="raise", invalid="raise"):
            loss, grad = tail_on_logits(logits, targets_of(positive, 0.0))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        # Two confident hits cost nothing; two confident misses cost |z| each.
        assert loss == pytest.approx(2e4 / 4)
        assert np.array_equal(grad[0], np.array([0.0, 0.0, 1.0, -1.0]) / 4)

    @pytest.mark.parametrize("shape", [
        (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 7,), (64, 600), (3, 40, 500),
    ])
    @pytest.mark.parametrize("soft", [False, True], ids=["binary", "soft"])
    def test_blocked_matches_dense_oracle_bit_for_bit(self, shape, soft, monkeypatch):
        # The shape is (queries..., entities): the 1-D ones are one query
        # over 127 to 384 entity blocks, the others one block. Every cell's
        # gradient is the oracle's, bit for bit; so is the loss over one
        # block, while over several it is a sum in block order.
        rng = np.random.default_rng([31, int(soft), *shape])
        logits = rng.uniform(-40.0, 40.0, size=shape).reshape(-1, shape[-1])
        flat = logits.reshape(-1)
        # Signed zeros, and exps that underflow to 0, at both ends.
        flat[:4] = flat[-4:] = [-0.0, 0.0, 800.0, -800.0]
        positive = rng.uniform(size=logits.shape) < 0.5
        eps = 0.3 if soft else 0.0
        want_loss, want_grad = oracle_bce(logits, np.where(positive, 1 - eps + eps / shape[-1],
                                                           eps / shape[-1]))
        several = len(_entity_blocks(shape[-1])) > 1
        for _ in worker_counts(monkeypatch):
            loss, grad = tail_on_logits(logits, targets_of(positive, eps))
            if several:
                assert abs(loss - want_loss) <= 2 * logits.size * np.finfo(float).eps * want_loss
            else:
                assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.shape == want_grad.shape
            assert grad.tobytes() == want_grad.tobytes()

    def test_non_finite_in_last_block_rejected(self, monkeypatch):
        # An infinite entity row in the last (longest) entity block: its
        # logits are infinite, and the block's task is the first to run.
        n = 3 * ENTITY_BLOCK + 5
        z = np.ones((4, 3))
        ent = np.zeros((n, 3))
        ent[n - 1] = np.inf
        for _ in worker_counts(monkeypatch, (1, 2, 3)):
            with pytest.raises(NumericError):
                bce_loss(z, ent, targets_of(np.zeros((4, n), bool), 0.1))

    @pytest.mark.parametrize("n", [2 * ENTITY_BLOCK - 1, 4 * ENTITY_BLOCK + 37],
                             ids=["one_block", "several_blocks"])
    def test_fused_tail_matches_the_dense_route(self, monkeypatch, n):
        # One block: the loss and both gradients are the dense route's
        # bytes. Several: grad_ent still is, as each cell's gradient and
        # each block's product are; the loss and g_z are the dense route's
        # per-block sums and products added in block order, each within
        # the rounding bound of a sum of that many terms of the
        # whole-matrix value (Higham, Accuracy and Stability, 3.1). The
        # same bytes at 1, 2 and 3 workers.
        rng = np.random.default_rng(n)
        z, ent = rng.normal(size=(128, 20)), rng.normal(size=(n, 20)) * 0.2
        positives = [np.unique(rng.integers(0, n, 1 + q % 3)) for q in range(128)]
        targets = targets_from_tails(positives, 0.1, n)
        dense = oracle_smoothed_targets(range(128), positives, 0.1, n)
        want_loss, want_g_z, want_grad_ent, g = dense_route(z, ent, dense)
        blocks = _entity_blocks(n)
        if len(blocks) > 1:
            logits = np.concatenate([z @ ent[lo:hi].T for lo, hi in blocks], axis=1)
            cells = (np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
                     - dense * logits)
            block_loss, block_g_z = 0.0, 0.0
            for lo, hi in blocks:
                block_loss = block_loss + np.ascontiguousarray(cells[:, lo:hi]).sum()
                block_g_z = block_g_z + np.ascontiguousarray(g[:, lo:hi]) @ ent[lo:hi]
            block_loss = block_loss / g.size
        eps = np.finfo(np.float64).eps
        seen = set()
        for _ in worker_counts(monkeypatch, (1, 2, 3)):
            loss, g_z, grad_ent = bce_loss(z, ent, targets)
            seen.add((np.float64(loss).tobytes(), g_z.tobytes(), grad_ent.tobytes()))
            assert grad_ent.tobytes() == want_grad_ent.tobytes()
            if len(blocks) == 1:
                assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
                assert g_z.tobytes() == want_g_z.tobytes()
            else:
                assert np.float64(loss).tobytes() == np.float64(block_loss).tobytes()
                assert g_z.tobytes() == block_g_z.tobytes()
                assert abs(loss - want_loss) <= 2 * g.size * eps * want_loss
                assert np.all(np.abs(g_z - want_g_z) <= 2 * n * eps * (np.abs(g) @ np.abs(ent)))
        assert len(seen) == 1

    @pytest.mark.parametrize("n", [ENTITY_BLOCK - 3, 3 * ENTITY_BLOCK + 11],
                             ids=["one_block", "several_blocks"])
    def test_out_buffer_takes_the_same_bytes(self, monkeypatch, n):
        # Given a buffer, bce_loss writes grad_ent over every row of it and
        # returns it: the NaN it starts with shows any row left unwritten.
        rng = np.random.default_rng([47, n])
        z, ent = rng.normal(size=(16, 8)), rng.normal(size=(n, 8)) * 0.3
        positives = [np.unique(rng.integers(0, n, 1 + q % 3)) for q in range(16)]
        targets = targets_from_tails(positives, 0.1, n)
        for _ in worker_counts(monkeypatch, (1, 2, 3)):
            want = bce_loss(z, ent, targets)
            out = np.full_like(ent, np.nan)
            got = bce_loss(z, ent, targets, out=out)
            assert got[2] is out
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                       for a, b in zip(got, want))

    def test_listed_duplicate_counts_once(self):
        # A duplicate triple lists its tail twice; its cell is still one
        # positive, as in the oracle's matrix.
        rng = np.random.default_rng(43)
        z, ent = rng.normal(size=(2, 4)), rng.normal(size=(9, 4))
        positives = [[3, 3, 5], [0]]
        got = bce_loss(z, ent, targets_from_tails(positives, 0.1, 9))
        want = oracle_tail(z, ent, oracle_smoothed_targets(range(2), positives, 0.1, 9))
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))

    def test_targets_of_another_shape_rejected(self):
        z, ent = np.zeros((2, 3)), np.zeros((5, 3))
        with pytest.raises(ConfigError):
            bce_loss(z, ent, targets_from_tails([[0]] * 3, 0.1, 5))
        with pytest.raises(DimensionError):
            bce_loss(z, ent, targets_from_tails([[0], [5]], 0.1, 5))


class TestEarlyStop:
    def history(self, mrrs):
        h = TrainHistory()
        for i, mrr in enumerate(mrrs, start=1):
            h.records.append(EpochRecord(epoch=i, loss=1.0, valid_mrr=mrr))
        return h

    def test_monotone_improvement_never_stops(self):
        h = self.history([0.1, 0.2, 0.3, 0.4])
        assert not early_stop(h, patience=3)

    def test_counting_case(self):
        h = self.history([0.5, 0.4, 0.45, 0.3])
        assert early_stop(h, patience=3)
        assert not early_stop(self.history([0.5, 0.4, 0.45]), patience=3)

    def test_plateau_counts_as_no_improvement(self):
        h = self.history([0.5, 0.5, 0.5, 0.5])
        assert early_stop(h, patience=3)

    def test_train_stops_early_and_returns_the_best_snapshot(self, small_toy_store):
        cfg = small_toy_train_config(d_w=4, d_h=4, r_w=2, r_h=2, m=4, k=4, batch_size=16,
                                     eval_every=1, patience=2, max_epochs=30, seed=1)
        snapshots = {}

        def on_new_best(params, epoch, mrr):
            snapshots[epoch] = {n: a.tobytes() for n, a in params.named_arrays().items()}

        params, history = train(cfg, small_toy_store, build_priori(small_toy_store),
                                on_new_best=on_new_best)
        assert len(history.records) < cfg.max_epochs
        assert history.records[-1].epoch == history.best_epoch + cfg.patience
        returned = {n: a.tobytes() for n, a in params.named_arrays().items()}
        assert returned == snapshots[history.best_epoch]


class TestEpochBatches:
    def test_trailing_singleton_joins_the_previous_batch(self):
        bs = 4
        batches = _epoch_batches(np.arange(2 * bs + 1), bs)
        assert [len(b) for b in batches] == [bs, bs + 1]
        assert np.concatenate(batches).tolist() == list(range(2 * bs + 1))

    def test_single_query_stays_one_batch(self):
        batches = _epoch_batches(np.arange(1), 4)
        assert [b.tolist() for b in batches] == [[0]]


class TestTrain:
    def test_zero_epochs_returns_init(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=0)
        priori = build_priori(small_toy_store)
        params, history = train(cfg, small_toy_store, priori)
        assert history.records == []
        assert history.best_epoch is None
        from convd.model import init_params

        expected = init_params(cfg.model_config(), small_toy_store.n_entities,
                               small_toy_store.n_relations, RngStream(cfg.seed, "init"))
        for name, arr in params.named_arrays().items():
            assert np.array_equal(arr, expected.named_arrays()[name])

    def test_determinism(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=4, eval_every=2)
        priori = build_priori(small_toy_store)
        p1, h1 = train(cfg, small_toy_store, priori)
        p2, h2 = train(cfg, small_toy_store, priori)
        for name, arr in p1.named_arrays().items():
            assert np.array_equal(arr, p2.named_arrays()[name]), name
        assert h1.records == h2.records
        assert h1.best_epoch == h2.best_epoch

    def test_duplicate_train_triples_train_the_same_bytes(self):
        # The train index keeps a repeated triple as a repeated tail; its
        # target cell must still get 1 - eps added once.
        raw = generate_toy_kg(3, 40, 3, 2)
        repeated = TripleStore(vocab=raw.vocab, valid=raw.valid, test=raw.test,
                               train=np.concatenate([raw.train, raw.train[:1], raw.train]))
        stores = [augment_reciprocal(raw), augment_reciprocal(repeated)]
        index = stores[1].train_index
        assert any(len(set(index[i].tolist())) < len(index[i]) for i in range(len(index.keys)))
        # The priori table counts triples, so both runs read the table of
        # the store without repeats.
        priori = build_priori(stores[0])
        cfg = small_toy_train_config(max_epochs=4, eval_every=2)
        (p1, h1), (p2, h2) = (train(cfg, store, priori) for store in stores)
        for name, arr in p1.named_arrays().items():
            assert arr.tobytes() == p2.named_arrays()[name].tobytes(), name
        records = [json.dumps([asdict(r) for r in h.records]) for h in (h1, h2)]
        assert records[0] == records[1]
        assert h1.best_valid_mrr is not None

    def test_training_builds_no_second_train_index(self, monkeypatch):
        # The priori table and the 1-N targets read the store's one train
        # index; evaluate still groups its own queries with `QueryIndex.of`.
        store = augment_reciprocal(generate_toy_kg(3, 40, 3, 2))
        priori = build_priori(store)
        assert priori.index is store.train_index
        grouped, of = [], QueryIndex.of

        def spy(cls, triples, n_relations):
            grouped.append(triples)
            return of(triples, n_relations)

        monkeypatch.setattr(QueryIndex, "of", classmethod(spy))
        train(small_toy_train_config(max_epochs=2, eval_every=1), store, priori)
        assert grouped and not any(np.array_equal(t, store.train) for t in grouped)

    def test_requires_augmented_store(self):
        store = generate_toy_kg(3, 25, 2, 1)
        with pytest.raises(StateError):
            train(small_toy_train_config(), store, build_priori(store))

    def test_effectively_zero_lr_is_batch_order_independent(self, small_toy_store):
        # Control: with no learning (lr ~ 0) and frozen normalization, the
        # evaluation harness must report the same MRR at every epoch, no
        # matter how the batches were ordered in between.
        cfg = small_toy_train_config(max_epochs=2, eval_every=1, lr=1e-300, bn_frozen=True)
        priori = build_priori(small_toy_store)
        params, history = train(cfg, small_toy_store, priori)
        evals = [r.valid_mrr for r in history.records if r.valid_mrr is not None]
        assert len(evals) == 2
        assert evals[0] == pytest.approx(evals[1], abs=1e-12)

    def test_evaluate_is_split_order_invariant(self, small_toy_store):
        from convd.data import TripleStore
        from convd.model import init_params

        cfg = small_toy_train_config().model_config()
        priori = build_priori(small_toy_store)
        params = init_params(cfg, small_toy_store.n_entities,
                             small_toy_store.n_relations, RngStream(5, "init"))
        perm = RngStream(6, "perm").permutation(small_toy_store.test.shape[0])
        shuffled = TripleStore(
            vocab=small_toy_store.vocab,
            train=small_toy_store.train.copy(),
            valid=small_toy_store.valid.copy(),
            test=small_toy_store.test[perm],
            augmented=True,
            n_base_relations=small_toy_store.n_base_relations,
        )
        r1 = evaluate(params, small_toy_store, "test", cfg, priori=priori)
        r2 = evaluate(params, shuffled, "test", cfg, priori=priori)
        assert r1.mrr == pytest.approx(r2.mrr, abs=1e-12)
        assert r1.n_queries == r2.n_queries

    def test_loss_decreases_over_fifty_steps(self):
        cfg = tiny_config(priori_weight=0.1)
        params = tiny_params(cfg, randomize_stats=False)
        h_ids = np.array([0, 1, 2, 3, 4, 5])
        r_ids = np.array([0, 1, 2, 0, 1, 2])
        targets = targets_from_tails([[1], [2], [3], [4], [5], [6]], 0.07, TINY_ENTITIES)
        adam = adam_init(params.named_arrays())
        losses = []
        for _ in range(50):
            _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
            loss, g_z, grad_ent = bce_loss(trace.z, params.ent, targets)
            losses.append(loss)
            grads = backward(trace, g_z, grad_ent)
            arrays, adam = adam_step(params.named_arrays(), grads, adam, 0.01)
            params = params.with_arrays(arrays)
        assert losses[-1] < losses[0]

    def test_single_step_first_order_decrease(self):
        passes = 0
        for seed in range(20):
            cfg = tiny_config()
            params = tiny_params(cfg, seed=seed)
            h_ids, r_ids = np.array([0, 3]), np.array([0, 2])
            targets = targets_from_tails([[1], [5]], 0.07, TINY_ENTITIES)

            def current_loss(p):
                _, trace = forward_batch(h_ids, r_ids, p, PRIORI, cfg, mode="train")
                return bce_loss(trace.z, p.ent, targets)[0]

            _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
            loss, g_z, grad_ent = bce_loss(trace.z, params.ent, targets)
            grads = backward(trace, g_z, grad_ent)
            stepped = {
                name: arr - 1e-4 * grads[name]
                for name, arr in params.named_arrays().items()
            }
            passes += current_loss(params.with_arrays(stepped)) < loss
        assert passes >= 19

    def test_blocked_loss_trains_the_oracle_bytes(self, monkeypatch):
        # 1,000 entities are one entity block, where the fused tail trains
        # the bytes of the dense route: the oracle's target matrix, whole
        # logits, oracle_bce and both products of its gradient.
        store = augment_reciprocal(generate_toy_kg(5, 1000, 3, 2))
        priori = build_priori(store)
        cfg = small_toy_train_config(max_epochs=1, eval_every=1, batch_size=64)
        blocked, _ = train(cfg, store, priori)

        def oracle_into(z, ent, target, out):
            # train reads the entity gradient from its own buffer.
            loss, g_z, out[...] = oracle_tail(z, ent, target)
            return loss, g_z, out

        monkeypatch.setattr(convd.training, "smoothed_targets_matrix", oracle_smoothed_targets)
        monkeypatch.setattr(convd.training, "bce_loss", oracle_into)
        dense, _ = train(cfg, store, priori)
        for name, arr in blocked.named_arrays().items():
            assert arr.tobytes() == dense.named_arrays()[name].tobytes(), name

    def test_epoch_reuses_one_gradient_buffer_dead_before_evaluation(self, small_toy_store,
                                                                     monkeypatch):
        # Every step of an epoch gets the same entity-gradient buffer, and
        # neither it nor the last step's grads["ent"] is alive when the
        # epoch evaluates or hands over its best params.
        real_loss, real_backward = convd.training.bce_loss, convd.training.backward
        real_evaluate = evaluation.evaluate
        epoch_buffers, refs, dead = [[]], [], []

        def spy_loss(z, ent, targets, out=None):
            epoch_buffers[-1].append(id(out))
            refs.append(weakref.ref(out))
            return real_loss(z, ent, targets, out=out)

        def spy_backward(trace, g_z, grad_ent):
            grads = real_backward(trace, g_z, grad_ent)
            refs.append(weakref.ref(grads["ent"]))
            return grads

        def spy_evaluate(*args, **kwargs):
            dead.append(all(ref() is None for ref in refs))
            epoch_buffers.append([])
            return real_evaluate(*args, **kwargs)

        def on_new_best(params, epoch, mrr):
            dead.append(all(ref() is None for ref in refs))

        monkeypatch.setattr(convd.training, "bce_loss", spy_loss)
        monkeypatch.setattr(convd.training, "backward", spy_backward)
        monkeypatch.setattr(evaluation, "evaluate", spy_evaluate)
        cfg = small_toy_train_config(max_epochs=3, eval_every=1, batch_size=16)
        _, history = train(cfg, small_toy_store, build_priori(small_toy_store),
                           on_new_best=on_new_best)
        steps = epoch_buffers[:-1]
        assert len(steps) == 3 and all(len(ids) > 1 and len(set(ids)) == 1 for ids in steps)
        assert history.best_epoch is not None and len(dead) > 3 and all(dead)

    def test_empty_train_split_rejected(self, small_toy_store):
        import numpy as np
        from convd.data import TripleStore

        empty = TripleStore(
            vocab=small_toy_store.vocab,
            train=np.empty((0, 3), dtype=np.int64),
            valid=small_toy_store.valid.copy(),
            test=small_toy_store.test.copy(),
            augmented=True,
            n_base_relations=small_toy_store.n_base_relations,
        )
        with pytest.raises(ConfigError):
            train(small_toy_train_config(), empty, build_priori(empty))

    def test_single_query_batches_need_a_frozen_norm(self, small_toy_store):
        # Batch statistics need two examples, so batch_size 1 cannot train
        # unless the norm uses its running statistics.
        with pytest.raises(ConfigError, match="batch size 1 needs bn_frozen"):
            small_toy_train_config(batch_size=1)
        cfg = small_toy_train_config(batch_size=1, bn_frozen=True, max_epochs=1, eval_every=1)
        _, history = train(cfg, small_toy_store, build_priori(small_toy_store))
        assert np.isfinite(history.records[0].loss)


class TestStepOverSeveralEntityBlocks:
    """A training step over N >= 2 * ENTITY_BLOCK entities, where the fused
    tail runs several blocks; the gradient check's 7 entities are one."""

    def _batch(self, n, b, seed):
        """Seeded queries and one to three positive tails for each."""
        rng = np.random.default_rng(seed)
        h_ids, r_ids = rng.integers(0, n, b), rng.integers(0, TINY_RELATIONS, b)
        return h_ids, r_ids, [np.unique(rng.integers(0, n, 1 + q % 3)) for q in range(b)]

    def test_directional_derivatives_match_central_differences(self):
        # (L(theta + h v) - L(theta - h v)) / 2h against <grad L, v>, for
        # seeded directions v over every learned array: two forwards per
        # direction, where finite_diff_grad takes two per coordinate.
        n = 2 * ENTITY_BLOCK + 37
        cfg = tiny_config(bn_frozen=False)
        params = init_params(cfg, n, TINY_RELATIONS, RngStream(9, "init"))
        h_ids, r_ids, positives = self._batch(n, 16, 9)
        h_ids[:2], r_ids[:2] = (0, 1), (0, 1)  # two queries with a priori count
        targets = targets_from_tails(positives, 0.1, n)

        def loss_at(arrays):
            p = params.with_arrays(arrays)
            _, trace = forward_batch(h_ids, r_ids, p, PRIORI, cfg, mode="train")
            return bce_loss(trace.z, p.ent, targets)[0]

        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        grads = backward(trace, *bce_loss(trace.z, params.ent, targets)[1:])
        theta = params.named_arrays()
        h = 1e-6
        for seed in range(3):
            v = {name: np.random.default_rng([seed, i]).normal(size=arr.shape)
                 for i, (name, arr) in enumerate(theta.items())}
            up = loss_at({name: arr + h * v[name] for name, arr in theta.items()})
            down = loss_at({name: arr - h * v[name] for name, arr in theta.items()})
            analytic = sum(float(np.sum(grads[name] * v[name])) for name in theta)
            assert (up - down) / (2 * h) == pytest.approx(analytic, rel=1e-6), seed

    def test_step_holds_no_batch_by_entity_array(self, monkeypatch):
        # One step at one worker, B = 128 and N = 8 * ENTITY_BLOCK: less the
        # entity gradient, which is the size of the table, its peak traced
        # memory stays under one B x N float64 array. The unfused tail held
        # four: the targets, the logits, the loss cells and their gradient.
        n, b = 8 * ENTITY_BLOCK, 128
        cfg = tiny_config(bn_frozen=False, dropout_in=0.2, dropout_feat=0.2, dropout_out=0.3)
        params = init_params(cfg, n, TINY_RELATIONS, RngStream(4, "init"))
        adam = adam_init(params.named_arrays())
        h_ids, r_ids, positives = self._batch(n, b, 4)
        bundle = stream_bundle(4, DROPOUT_LABELS)
        for _ in worker_counts(monkeypatch, (1,)):
            tracemalloc.start()
            try:
                targets = targets_from_tails(positives, 0.1, n)
                _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train",
                                         rng=bundle)
                loss, g_z, grad_ent = bce_loss(trace.z, params.ent, targets)
                adam_step(params.named_arrays(), backward(trace, g_z, grad_ent), adam, cfg.lr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(loss)
        assert peak - params.ent.nbytes < b * n * 8, peak


class TestHyperSearch:
    def test_single_point_grid(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=2, eval_every=1)
        cfg.grid = {"priori_weight": [0.2]}
        best, leaderboard = hyper_search(cfg, small_toy_store)
        assert len(leaderboard) == 1
        assert best.priori_weight == 0.2

    def test_dead_config_loses(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=40, eval_every=10)
        cfg.grid = {"lr": [1e-300, 0.01]}  # the first one cannot learn
        best, leaderboard = hyper_search(cfg, small_toy_store)
        assert best.lr == 0.01
        assert len(leaderboard) == 2
        assert leaderboard[0]["valid_mrr"] > leaderboard[1]["valid_mrr"]

    def test_d_e_with_d_w_rejected_before_training(self, small_toy_store, monkeypatch):
        # d_w would replace one side of d_e's plane, so the grid is refused
        # before anything trains.
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg = small_toy_train_config(r_w=5, r_h=6)
        cfg.grid = {"d_e": [18, 24], "d_w": [5]}
        with pytest.raises(ConfigError, match="grid keys 'd_e' and 'd_w'"):
            hyper_search(cfg, small_toy_store)

    def test_invalid_grid_config_rejected_before_training(self, small_toy_store,
                                                          monkeypatch):
        # r_w = 2 fits the 4x4 plane and r_w = 9 does not; neither trains.
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg = small_toy_train_config(d_w=4, d_h=4)
        cfg.grid = {"r_w": [2, 9]}
        with pytest.raises(ConfigError, match="larger than entity plane"):
            hyper_search(cfg, small_toy_store)

    def test_single_query_batch_rejected_before_training(self, small_toy_store, monkeypatch):
        # batch_size 1 fails only in its first step, so the 64 config
        # would train to the end first if it were not checked up front.
        monkeypatch.setattr(convd.training, "train", no_training)
        cfg = small_toy_train_config()
        cfg.grid = {"batch_size": [64, 1]}
        with pytest.raises(ConfigError, match="'batch_size': 1}: batch size 1 needs bn_frozen"):
            hyper_search(cfg, small_toy_store)

    def test_each_grid_entry_trains_with_its_own_priori_base(self, small_toy_store):
        # A large priori_weight makes P weigh enough that the two bases
        # score apart at this size.
        cfg = small_toy_train_config(max_epochs=2, eval_every=1, priori_weight=3.0)
        cfg.grid = {"priori_base": [1.5, 50]}
        _, leaderboard = hyper_search(cfg, small_toy_store)
        by_base = {entry["config"]["priori_base"]: entry["valid_mrr"] for entry in leaderboard}
        assert sorted(by_base) == [1.5, 50]
        for base, valid_mrr in by_base.items():
            run = replace(cfg, priori_base=base)
            _, history = train(run, small_toy_store, build_priori(small_toy_store, base))
            assert valid_mrr == history.best_valid_mrr, base
        assert by_base[1.5] != by_base[50]

    def test_empty_grid_rejected(self, small_toy_store):
        cfg = small_toy_train_config()
        cfg.grid = {}
        with pytest.raises(ConfigError):
            hyper_search(cfg, small_toy_store)

    def test_config_hash_stability(self):
        cfg = small_toy_train_config()
        assert config_hash(cfg) == config_hash(small_toy_train_config())
        assert config_hash(cfg) != config_hash(small_toy_train_config(seed=4))

    def test_embedding_dim_grid_key_refactors_plane(self):
        from convd.training import _apply_grid_value

        cfg = small_toy_train_config()
        for d_e, expected in ((100, (10, 10)), (150, (10, 15)), (200, (10, 20)),
                              (250, (10, 25)), (300, (15, 20))):
            out = _apply_grid_value(cfg, "d_e", d_e)
            assert (out.d_w, out.d_h) == expected
            assert out.d_e == d_e

    def test_unknown_grid_key_rejected(self):
        from convd.training import _apply_grid_value

        with pytest.raises(ConfigError):
            _apply_grid_value(small_toy_train_config(), "nonsense", 1)


class TestRunners:
    def test_single_mode_matches_plain_train(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=2, eval_every=1)
        priori = build_priori(small_toy_store)
        rows = run_ablation(cfg, small_toy_store, ["full"])
        assert len(rows) == 1
        params, history = train(cfg, small_toy_store, priori)
        report = evaluate(params, small_toy_store, "test", cfg.model_config(), priori=priori)
        assert rows[0]["test"]["mrr"] == report.mrr

    def test_four_modes_share_config_shape(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=1, eval_every=1)
        rows = run_ablation(
            cfg, small_toy_store, ["full", "no_priori", "no_attention", "no_both"]
        )
        assert [row["mode"] for row in rows] == ["full", "no_priori", "no_attention", "no_both"]
        assert len({row["config_hash"] for row in rows}) == 4

    def test_fraction_sweep_rows(self, small_toy_store):
        cfg = small_toy_train_config(max_epochs=1, eval_every=1)
        rows = run_fraction_sweep(cfg, small_toy_store, [0.25, 1.0])
        assert [row["fraction"] for row in rows] == [0.25, 1.0]
        assert [row["active_kernels"] for row in rows] == [1, 4]

    def test_every_run_gets_the_priori_table_of_its_own_base(self, small_toy_store,
                                                              monkeypatch):
        # A spy in place of train: every run of ablate, sweep and search
        # gets the table of its own config's priori_base. Ablate and sweep
        # keep the base config's 3; search trains the grid's 1.5 and 50.
        bases = []

        def spy_train(cfg, store, priori):
            assert priori.log_base == cfg.priori_base, (priori.log_base, cfg.priori_base)
            bases.append(cfg.priori_base)
            rng = RngStream(cfg.seed, "init")
            return init_params(cfg, store.n_entities, store.n_relations, rng), TrainHistory()

        monkeypatch.setattr(convd.training, "train", spy_train)
        cfg = small_toy_train_config(priori_base=3.0)
        run_ablation(cfg, small_toy_store, ["full", "no_priori"])
        run_fraction_sweep(cfg, small_toy_store, [0.5, 1.0])
        cfg.grid = {"priori_base": [1.5, 50]}
        hyper_search(cfg, small_toy_store)
        assert bases == [3.0] * 4 + [1.5, 50]

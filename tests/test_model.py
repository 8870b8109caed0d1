import hashlib

import numpy as np
import pytest

import convd.model
from convd.attention import slice_batch, unslice_batch
from convd.data import PrioriTable
from convd.errors import ConfigError, DegenerateBatchError, DimensionError
from convd.model import (
    ABLATION_MODES,
    ENTITY_BLOCK,
    RUNNING_STATS,
    ModelConfig,
    _entity_blocks,
    backward,
    baseline_layout,
    count_parameters,
    forward_batch,
    forward_score,
    init_baseline_params,
    init_params,
    param_layout,
    score_plain_conv,
)
from convd.numerics import adam_init, adam_step, conv2d_batch, finite_diff_grad
from convd.rng import RngStream, stream_bundle
from convd.training import DROPOUT_LABELS, bce_loss

from conftest import (
    TINY_ENTITIES,
    TINY_RELATIONS,
    dense_backward,
    priori_table,
    priori_value,
    rel_err,
    targets_from_tails,
    targets_of,
    tiny_config,
    tiny_params,
    worker_counts,
)
from oracles import (
    BatchNormState,
    batchnorm_apply,
    oracle_bce,
    oracle_forward,
    oracle_plain_conv,
    oracle_smoothed_targets,
    oracle_tail,
)

PRIORI = priori_table({(0, 0): 3, (2, 1): 5, (5, 2): 1, (1, 0): 2}, TINY_RELATIONS)


def loss_and_grads(trace, targets):
    """The fused loss of a train-mode trace and backward from its
    gradients: (loss, grads)."""
    loss, g_z, grad_ent = bce_loss(trace.z, trace.params.ent, targets)
    return loss, backward(trace, g_z, grad_ent)


def arrays_of(params):
    return {**params.named_arrays(), **params.running_arrays()}


def dims_of(cfg):
    return dict(d_w=cfg.d_w, d_h=cfg.d_h, r_w=cfg.r_w, r_h=cfg.r_h, m=cfg.m,
                lam=cfg.priori_weight)


class TestForward:
    def test_matches_straight_line_oracle(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        for h, r in ((0, 0), (2, 1), (6, 2)):
            logits, _ = forward_score(h, r, params, PRIORI, cfg, mode="eval")
            expected = oracle_forward(h, r, arrays_of(params), dims_of(cfg),
                                      priori_value(PRIORI, h, r))
            assert rel_err(logits, expected) <= 1e-10

    def test_m_one_reduces_to_static_kernel_pipeline(self):
        cfg = tiny_config(m=1, r_w=2, r_h=2, priori_weight=0.0)
        params = tiny_params(cfg)
        # One kernel, softmax prob 1; scale a_v so the value is exactly 1.
        kappa = params.rel[1].copy()
        params.attn_v = kappa / float(kappa @ kappa)
        logits, trace = forward_score(3, 1, params, PRIORI, cfg, mode="eval")
        assert trace.attn.alpha[0, 0] == pytest.approx(1.0, abs=1e-12)

        # Independent recomputation with the kernel as a plain static filter.
        plane = params.ent[3].reshape(cfg.d_w, cfg.d_h)
        conv = conv2d_batch(plane[None], kappa.reshape(1, cfg.r_w, cfg.r_h))[0]
        feats = conv.reshape(-1) * trace.attn.alpha[0, 0]
        x_hat = (feats - params.bn_mean) / np.sqrt(params.bn_var + 1e-5)
        act = np.maximum(params.bn_gamma[0] * x_hat + params.bn_beta[0], 0.0)
        hidden = np.maximum(act @ params.w_fc + params.b_fc, 0.0)
        z = hidden @ params.w_out + params.b_out
        assert rel_err(logits, params.ent @ z) <= 1e-10

    def test_identical_relation_rows_identical_logits(self):
        cfg = tiny_config(priori_weight=0.0)
        params = tiny_params(cfg)
        params.rel[2] = params.rel[0].copy()
        l0, _ = forward_score(4, 0, params, PRIORI, cfg, mode="eval")
        l2, _ = forward_score(4, 2, params, PRIORI, cfg, mode="eval")
        assert np.array_equal(l0, l2)

    def test_one_to_n_row_equals_single_triple_score(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        logits, trace = forward_score(1, 0, params, PRIORI, cfg, mode="eval")
        for t in range(TINY_ENTITIES):
            single = float(params.ent[t] @ trace.z[0])
            assert abs(logits[t] - single) <= 1e-12

    def test_eval_mode_is_bit_deterministic(self):
        cfg = tiny_config(dropout_in=0.2, dropout_feat=0.2, dropout_out=0.3)
        params = tiny_params(cfg)
        l1, _ = forward_score(2, 2, params, PRIORI, cfg, mode="eval")
        l2, _ = forward_score(2, 2, params, PRIORI, cfg, mode="eval")
        assert np.array_equal(l1, l2)

    def test_dynamic_conv_decomposition(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        _, trace = forward_score(0, 0, params, PRIORI, cfg, mode="eval")
        per_kernel = np.zeros_like(trace.conv[0])
        for i in range(cfg.m):
            per_kernel += conv2d_batch(
                trace.plane, trace.attn.alpha[:, i][:, None, None] * trace.banks[:, i]
            )[0]
        assert rel_err(per_kernel, trace.conv[0]) <= 1e-10

    def test_out_of_range_ids(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        with pytest.raises(DimensionError):
            forward_score(99, 0, params, PRIORI, cfg)

    def test_shape_mismatch_config(self):
        cfg = tiny_config()
        other = tiny_config(d_w=3, d_h=3, r_w=2, r_h=2)
        params = tiny_params(cfg)
        with pytest.raises(ConfigError):
            forward_score(0, 0, params, PRIORI, other)

    def test_train_batch_of_one_needs_frozen_norm(self):
        cfg = tiny_config(bn_frozen=False)
        params = tiny_params(cfg)
        with pytest.raises(DegenerateBatchError):
            forward_score(0, 0, params, PRIORI, cfg, mode="train")

    def test_sigmoid_pre_dot_is_eval_only(self):
        cfg = tiny_config(sigmoid_pre_dot=True)
        params = tiny_params(cfg)
        logits, _ = forward_score(0, 0, params, PRIORI, cfg, mode="eval")
        assert np.all(np.isfinite(logits))
        with pytest.raises(ConfigError):
            forward_score(0, 0, params, PRIORI, cfg, mode="train")

    def test_batchnorm_matches_per_feature_reference(self):
        cfg = tiny_config(bn_frozen=False)
        params = tiny_params(cfg, randomize_stats=False)
        h_ids, r_ids = np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0])
        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        feats = trace.conv.reshape(4, cfg.conv_map)
        for f in range(cfg.conv_map):
            state = BatchNormState(
                gamma=params.bn_gamma[0], beta=params.bn_beta[0],
                running_mean=params.bn_mean[f], running_var=params.bn_var[f],
            )
            y, new_state = batchnorm_apply(feats[:, f], state, "train")
            assert np.allclose(y, trace.y_bn[:, f], atol=1e-12)
            assert trace.new_running[0][f] == pytest.approx(new_state.running_mean)
            assert trace.new_running[1][f] == pytest.approx(new_state.running_var)


class TestAblationFlags:
    def _forward(self, ablation, bundle):
        cfg = tiny_config(
            ablation=ablation, dropout_in=0.2, dropout_feat=0.2, dropout_out=0.3,
            priori_weight=0.3,
        )
        params = tiny_params(cfg)
        return forward_batch(
            np.array([0, 2]), np.array([0, 1]), params, PRIORI, cfg,
            mode="train", rng=bundle,
        )

    def _trace(self, ablation, bundle):
        return self._forward(ablation, bundle)[1]

    def _bundle(self):
        return stream_bundle(123, DROPOUT_LABELS)

    def test_no_priori_changes_only_the_bias(self):
        full = self._trace("full", self._bundle())
        cut = self._trace("no_priori", self._bundle())
        for field in ("mask_in", "plane", "banks"):
            assert np.array_equal(getattr(full, field), getattr(cut, field)), field
        for field in ("q", "keys", "values", "kappa"):
            assert np.array_equal(getattr(full.attn, field), getattr(cut.attn, field)), field
        assert not np.array_equal(full.attn.logits, cut.attn.logits)
        assert not np.array_equal(full.attn.alpha, cut.attn.alpha)

    def test_no_attention_changes_only_the_weights(self):
        full = self._trace("full", self._bundle())
        cut = self._trace("no_attention", self._bundle())
        for field in ("mask_in", "mask_feat", "mask_out", "plane", "banks"):
            assert np.array_equal(getattr(full, field), getattr(cut, field)), field
        assert cut.attn is None
        assert np.all(cut.alpha == 1.0 / 4)
        assert not np.array_equal(full.z, cut.z)

    @pytest.mark.parametrize("ablation", ["no_priori", "no_attention", "no_both"])
    def test_ablated_stages_are_not_run(self, monkeypatch, ablation):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{ablation} ran an ablated stage")

        monkeypatch.setattr(PrioriTable, "values", refuse)
        if ablation != "no_priori":
            monkeypatch.setattr(convd.model, "attention_forward", refuse)
            monkeypatch.setattr(convd.model, "attention_weights_backward", refuse)
        cfg = tiny_config(ablation=ablation, priori_weight=0.3, bn_frozen=False)
        params = tiny_params(cfg)
        before = params.copy()
        h_ids, r_ids = np.array([0, 2, 5]), np.array([0, 1, 2])
        targets = targets_from_tails([[3]] * 3, 0.07, TINY_ENTITIES)
        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        _, grads = loss_and_grads(trace, targets)
        adam_step(params.named_arrays(), grads, adam_init(params.named_arrays()), 0.01)
        for name in ("ent", "rel", "w_fc"):
            assert not np.array_equal(getattr(params, name), getattr(before, name)), name
        attn_learns = ablation == "no_priori"
        for name in ("attn_q", "attn_k", "attn_v"):
            assert np.any(grads[name] != 0) == attn_learns, name

    def test_lambda_is_read_from_the_config(self):
        params = tiny_params(tiny_config())
        h_ids, r_ids = np.array([0, 2]), np.array([0, 1])
        l1, _ = forward_batch(h_ids, r_ids, params, PRIORI, tiny_config(priori_weight=0.1))
        l2, _ = forward_batch(h_ids, r_ids, params, PRIORI, tiny_config(priori_weight=0.4))
        assert not np.array_equal(l1, l2)

    def test_no_priori_equals_lambda_zero(self):
        bundle1, bundle2 = self._bundle(), self._bundle()
        cfg_cut = tiny_config(ablation="no_priori", priori_weight=0.3)
        cfg_zero = tiny_config(priori_weight=0.0)
        params1 = tiny_params(cfg_cut)
        params2 = tiny_params(cfg_zero)
        l1, _ = forward_batch(np.array([0]), np.array([0]), params1, PRIORI, cfg_cut,
                              mode="eval")
        l2, _ = forward_batch(np.array([0]), np.array([0]), params2, PRIORI, cfg_zero,
                              mode="eval")
        assert np.array_equal(l1, l2)


class TestBackward:
    def _setup(self, **overrides):
        cfg = tiny_config(**overrides)
        params = tiny_params(cfg)
        h_ids, r_ids = np.array([0, 2, 5]), np.array([0, 1, 2])
        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        return cfg, params, trace

    def test_zero_grad_logits(self):
        cfg, params, trace = self._setup()
        grads = dense_backward(trace, np.zeros((3, TINY_ENTITIES)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_backward_is_linear(self):
        cfg, params, trace = self._setup()
        g = RngStream(4, "g").uniform_signed(3 * TINY_ENTITIES, 1.0).reshape(3, -1)
        g1 = dense_backward(trace, g)
        g2 = dense_backward(trace, 2.0 * g)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], atol=1e-12)

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ablation", ABLATION_MODES)
    def test_gradients_match_finite_differences_batch_stats(self, ablation, fraction):
        cfg = tiny_config(bn_frozen=False, ablation=ablation, kernel_fraction=fraction)
        params = tiny_params(cfg, randomize_stats=False)
        h_ids, r_ids = np.array([0, 2, 5, 1]), np.array([0, 1, 2, 0])
        # About 30% of the cells positive; eps = 0.07 puts the others at 0.01.
        targets = targets_of(RngStream(12, "t").uniform(4 * TINY_ENTITIES).reshape(4, -1) < 0.3,
                             0.07)

        def loss_for(arrs):
            p = params.with_arrays(arrs)
            _, trace = forward_batch(h_ids, r_ids, p, PRIORI, cfg, mode="train")
            return bce_loss(trace.z, p.ent, targets)[0]

        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        _, analytic = loss_and_grads(trace, targets)
        numeric = finite_diff_grad(loss_for, params.named_arrays(), h=1e-5)
        for name in analytic:
            assert rel_err(analytic[name], numeric[name]) <= 1e-4, name

    def test_gradient_completeness_after_one_step(self):
        """One train step must touch every learned block."""
        from convd.numerics import adam_init, adam_step

        cfg = tiny_config(priori_weight=0.3)
        params = tiny_params(cfg)
        before = {k: v.copy() for k, v in params.named_arrays().items()}
        h_ids, r_ids = np.array([1]), np.array([0])
        targets = targets_from_tails([[3]], 0.07, TINY_ENTITIES)
        _, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        _, grads = loss_and_grads(trace, targets)
        new_arrays, _ = adam_step(params.named_arrays(), grads, adam_init(before), 0.01)
        for name, arr in new_arrays.items():
            assert not np.array_equal(arr, before[name]), f"{name} silently dead"


def _dot_rounding(x, y):
    """Bound on how far two summation orders of the products x @ y may
    differ: each is within k * eps * (|x| @ |y|) of the exact value, for
    k terms (Higham, Accuracy and Stability, 3.1)."""
    return 2 * x.shape[1] * np.finfo(np.float64).eps * (np.abs(x) @ np.abs(y))


class TestEntityBlocks:
    """The 1-N work runs in tasks over ENTITY_BLOCK entity rows: the
    evaluation logits, and the fused training tail. Their bytes are the
    same at 1 and 3 workers, and each is checked against its single
    expression. The blocked and whole products may round apart on another
    BLAS, so that check allows the rounding of a dot product; on OpenBLAS
    0.3.31 the logits agree byte for byte (model.ENTITY_BLOCK)."""

    # Two full blocks and a ragged remainder, which the last block takes.
    N_ENTITIES = 2 * ENTITY_BLOCK + 37

    def _forward(self, batch, d_w, d_h, mode="train"):
        cfg = tiny_config(d_w=d_w, d_h=d_h, bn_frozen=False, dropout_in=0.1,
                          dropout_feat=0.1, dropout_out=0.1)
        params = init_params(cfg, self.N_ENTITIES, TINY_RELATIONS, RngStream(8, "init"))
        rng = np.random.default_rng(batch)
        h_ids = rng.integers(0, self.N_ENTITIES, batch)
        r_ids = rng.integers(0, TINY_RELATIONS, batch)
        logits, trace = forward_batch(h_ids, r_ids, params, None, cfg, mode=mode,
                                      rng=stream_bundle(3, DROPOUT_LABELS))
        return cfg, params, logits, trace

    def test_partition_is_fixed_by_the_table_alone(self):
        for n in (1, ENTITY_BLOCK, 2 * ENTITY_BLOCK - 1, 2 * ENTITY_BLOCK, self.N_ENTITIES, 5000):
            blocks = _entity_blocks(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) == max(n // ENTITY_BLOCK, 1)
            if len(blocks) > 1:
                assert {hi - lo for lo, hi in blocks[:-1]} == {ENTITY_BLOCK}
                assert ENTITY_BLOCK <= blocks[-1][1] - blocks[-1][0] < 2 * ENTITY_BLOCK

    @pytest.mark.parametrize("d_w, d_h", [(4, 3), (10, 20)])
    @pytest.mark.parametrize("batch", [3, 7, 128, 256])
    def test_logits_match_the_single_product(self, monkeypatch, batch, d_w, d_h):
        seen = set()
        for _ in worker_counts(monkeypatch):
            _, params, logits, trace = self._forward(batch, d_w, d_h, mode="eval")
            seen.add(logits.tobytes())
            want = trace.z @ params.ent.T
            assert np.all(np.abs(logits - want) <= _dot_rounding(trace.z, params.ent.T))
        assert len(seen) == 1

    @pytest.mark.parametrize("batch", [3, 128])
    def test_backward_matches_the_single_products(self, monkeypatch, batch):
        # The fused tail against the dense route: the whole logit matrix,
        # its loss mean and gradient g, and the single products g @ ent and
        # g.T @ z. Blocked logits may round apart from the whole product
        # (within _dot_rounding); a cell's loss moves by at most as much,
        # and its gradient by a quarter of it over the cell count.
        _, params, _, trace = self._forward(batch, 10, 20)
        z, ent, n = trace.z, params.ent, self.N_ENTITIES
        positives = [np.random.default_rng([batch, q]).choice(n, 3, replace=False)
                     for q in range(batch)]
        targets = targets_from_tails(positives, 0.1, n)
        dense = oracle_smoothed_targets(range(batch), positives, 0.1, n)
        want_loss, want_g_z, want_grad_ent = oracle_tail(z, ent, dense)
        eps = np.finfo(np.float64).eps
        logit_err = _dot_rounding(z, ent.T)
        g = oracle_bce(z @ ent.T, dense)[1]
        g_err = logit_err / (4 * g.size) + 4 * eps * np.abs(g)
        loss_bound = 2 * g.size * eps * want_loss + logit_err.mean()
        seen = set()
        for _ in worker_counts(monkeypatch):
            loss, g_z, grad_ent = bce_loss(z, ent, targets)
            seen.add((np.float64(loss).tobytes(), g_z.tobytes(), grad_ent.tobytes()))
            assert abs(loss - want_loss) <= loss_bound
            assert np.all(np.abs(g_z - want_g_z) <= _dot_rounding(g, ent) + g_err @ np.abs(ent))
            assert np.all(np.abs(grad_ent - want_grad_ent)
                          <= _dot_rounding(g.T, z) + g_err.T @ np.abs(z))
        assert len(seen) == 1


class TestKernelFraction:
    def test_full_fraction_identity(self):
        cfg_full = tiny_config()
        cfg_masked = tiny_config(kernel_fraction=1.0)
        params = tiny_params(cfg_full)
        l1, _ = forward_score(0, 0, params, PRIORI, cfg_full, mode="eval")
        l2, _ = forward_score(0, 0, params, PRIORI, cfg_masked, mode="eval")
        assert np.array_equal(l1, l2)

    def test_quarter_fraction_single_kernel(self):
        assert tiny_config(kernel_fraction=0.25).active_kernels == 1

    @pytest.mark.parametrize("m,fraction,count", [
        (25, 0.28, 7), (25, 0.56, 14),
        (100, 0.07, 7), (100, 0.14, 14), (100, 0.28, 28), (100, 0.55, 55), (100, 0.56, 56),
        (4, 0.25, 1), (4, 0.5, 2), (4, 1.0, 4),
    ])
    def test_count_is_the_decimal_ceiling(self, m, fraction, count):
        # 0.28 * 25 is 7.000000000000001 in binary, whose ceiling is 8.
        assert ModelConfig(m=m, kernel_fraction=fraction).active_kernels == count

    def test_masked_softmax_sums_to_one(self):
        cfg = tiny_config(kernel_fraction=0.5)
        params = tiny_params(cfg)
        logits, trace = forward_score(2, 1, params, PRIORI, cfg, mode="eval")
        probs = trace.attn.probs[0]
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) < 1e-12

        # The inactive slices of relation 1 reach neither the scores nor a gradient.
        banks = slice_batch(params.rel[1:2], cfg.m, cfg.r_w, cfg.r_h)
        banks[:, 2:] += 0.5
        moved = params.copy()
        moved.rel[1] = unslice_batch(banks, cfg.m, cfg.r_w, cfg.r_h)[0]
        assert not np.array_equal(moved.rel, params.rel)
        moved_logits, _ = forward_score(2, 1, moved, PRIORI, cfg, mode="eval")
        assert np.array_equal(moved_logits, logits)
        grads = dense_backward(trace, np.linspace(-1.0, 1.0, logits.size)[None])
        g_banks = slice_batch(grads["rel"][1:2], cfg.m, cfg.r_w, cfg.r_h)
        assert np.any(g_banks[:, :2] != 0)
        assert np.all(g_banks[:, 2:] == 0)

    def test_invalid_fraction(self):
        for fraction in (0.0, 1.5):
            with pytest.raises(ConfigError, match="kernel fraction"):
                ModelConfig(kernel_fraction=fraction).validate()


class TestCountParameters:
    def test_zero_tables(self):
        cfg = tiny_config()
        rr = cfg.r_w * cfg.r_h
        tail = (cfg.k * cfg.d_e + cfg.k * rr + rr + cfg.m + cfg.conv_map * cfg.d_e
                + cfg.d_e + cfg.d_e**2 + cfg.d_e + 2)
        assert count_parameters(cfg, 0, 0) == tail

    def test_tiny_enumeration(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        enumerated = sum(v.size for v in params.named_arrays().values())
        assert count_parameters(cfg, TINY_ENTITIES, TINY_RELATIONS) == enumerated

    def test_layout_names_init_arrays_in_order(self):
        cfg = tiny_config()
        square = tiny_config(**TestPlainConvBaseline.CFG)
        for params, layout in (
            (tiny_params(cfg), param_layout(cfg, TINY_ENTITIES, TINY_RELATIONS)),
            (init_baseline_params(square, 6, 3, RngStream(3, "init")), baseline_layout(square, 6, 3)),
        ):
            shapes = [(name, arr.shape) for name, arr in arrays_of(params).items()]
            assert shapes == list(layout.items())

    def test_monotone_in_m(self):
        prev = None
        for m in (1, 4, 9):
            cfg = tiny_config(m=m, r_w=2, r_h=2)
            count = count_parameters(cfg, 10, 5)
            if prev is not None:
                assert count > prev
            prev = count

    def test_baseline_enumeration(self):
        cfg = tiny_config(d_w=4, d_h=4, m=4, r_w=2, r_h=2)
        params = init_baseline_params(cfg, 6, 3, RngStream(3, "init"))
        learned = {k: v for k, v in baseline_layout(cfg, 6, 3).items() if k not in RUNNING_STATS}
        assert {k: v.shape for k, v in params.named_arrays().items()} == learned
        enumerated = sum(v.size for v in params.named_arrays().values())
        assert count_parameters(cfg, 6, 3, include_baseline=True) == enumerated


# First 16 hex digits of the SHA-256 of each initial array, per init, for
# INIT_CONFIG, 6 entities, 3 relations and RngStream(3, "init"). Any change
# to the draw order, the fan bounds or the constant inits moves them.
INIT_CONFIG = dict(d_w=4, d_h=4, r_w=2, r_h=2, m=4, k=3, n_static=3)
INIT_SHA256 = {
    "init_params": {
        "ent": "cd1df3d2db2adc88",
        "rel": "247683feec510eea",
        "attn_q": "6678aef06f304fad",
        "attn_k": "980f76da9cdda830",
        "attn_v": "5e4a6b8bd4296642",
        "attn_u": "7a247506d2032cb7",
        "w_fc": "0b27508dcfd58828",
        "b_fc": "38723a2e5e8a17aa",
        "w_out": "7fd7709396500d90",
        "b_out": "38723a2e5e8a17aa",
        "bn_gamma": "6c3c396ed6b5c36d",
        "bn_beta": "af5570f5a1810b7a",
        "bn_mean": "834a709ba2534ebe",
        "bn_var": "19088d37e44fec2a",
    },
    "init_baseline_params": {
        "ent": "cd1df3d2db2adc88",
        "rel": "247683feec510eea",
        "kernels": "cdb678a022232878",
        "w_fc": "bdf2ca9300d33f8d",
        "b_fc": "38723a2e5e8a17aa",
        "w_out": "a73b87322c9da983",
        "b_out": "38723a2e5e8a17aa",
        "bn_gamma": "6c3c396ed6b5c36d",
        "bn_beta": "af5570f5a1810b7a",
        "bn_mean": "696bda342649ec92",
        "bn_var": "35bcfe1256e32004",
    },
}


@pytest.mark.parametrize("init", [init_params, init_baseline_params], ids=["dynamic", "baseline"])
def test_init_bytes_are_pinned(init):
    params = init(ModelConfig(**INIT_CONFIG), 6, 3, RngStream(3, "init"))
    digests = {name: hashlib.sha256(arr.tobytes()).hexdigest()[:16]
               for name, arr in arrays_of(params).items()}
    assert list(digests.items()) == list(INIT_SHA256[init.__name__].items())


class TestPlainConvBaseline:
    CFG = dict(d_w=4, d_h=4, m=4, r_w=2, r_h=2)

    def test_dimension_constraint_enforced(self):
        cfg = tiny_config()  # d_e = 12, d_r = 16
        with pytest.raises(ConfigError):
            init_baseline_params(cfg, 5, 2, RngStream(0, "init"))

    def test_zero_embeddings_bias_only(self):
        cfg = tiny_config(**self.CFG)
        params = init_baseline_params(cfg, 5, 2, RngStream(1, "init"))
        params.ent[:] = 0.0
        params.rel[:] = 0.0
        logits = score_plain_conv(0, 0, params, cfg)
        # ent is zero, so every score collapses to ent @ z = 0.
        assert np.all(logits == 0)

    def test_deterministic(self):
        cfg = tiny_config(**self.CFG)
        params = init_baseline_params(cfg, 5, 2, RngStream(2, "init"))
        assert np.array_equal(
            score_plain_conv(1, 1, params, cfg), score_plain_conv(1, 1, params, cfg)
        )

    def test_against_oracle(self):
        cfg = tiny_config(**self.CFG)
        params = init_baseline_params(cfg, 5, 2, RngStream(4, "init"))
        st = RngStream(5, "stats")
        params.bn_mean = st.uniform_signed(params.bn_mean.size, 0.3)
        params.bn_var = 0.5 + st.uniform(params.bn_var.size)
        arrays = {**params.named_arrays(), "bn_mean": params.bn_mean, "bn_var": params.bn_var}
        for h, r in ((0, 0), (3, 1)):
            got = score_plain_conv(h, r, params, cfg)
            want = oracle_plain_conv(h, r, arrays, dims_of(cfg))
            assert rel_err(got, want) <= 1e-10

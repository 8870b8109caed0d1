import numpy as np
import pytest

from convd.data import PrioriTable
from convd.errors import ConfigError, DegenerateBatchError, DimensionError, StateError
from convd.model import (
    backward,
    count_parameters,
    forward_batch,
    forward_score,
    init_baseline_params,
    kernel_fraction_mask,
    score_plain_conv,
)
from convd.numerics import conv2d_batch, finite_diff_grad
from convd.rng import RngStream, stream_bundle
from convd.training import DROPOUT_LABELS, bce_loss

from conftest import TINY_ENTITIES, TINY_RELATIONS, rel_err, tiny_config, tiny_params
from oracles import BatchNormState, batchnorm_apply, oracle_forward, oracle_plain_conv

PRIORI = PrioriTable(freq={(0, 0): 3, (2, 1): 5, (5, 2): 1, (1, 0): 2}, log_base=2.0)


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
            expected = oracle_forward(h, r, arrays_of(params), dims_of(cfg), PRIORI.value(h, r))
            assert rel_err(logits, expected) <= 1e-10

    def test_m_one_reduces_to_static_kernel_pipeline(self):
        cfg = tiny_config(m=1, r_w=2, r_h=2, priori_weight=0.0)
        params = tiny_params(cfg)
        # One kernel, softmax prob 1; scale a_v so the value is exactly 1.
        kappa = params.rel[1].copy()
        params.attn.a_v = kappa / float(kappa @ kappa)
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
    def _trace(self, ablation, bundle):
        cfg = tiny_config(
            ablation=ablation, dropout_in=0.2, dropout_feat=0.2, dropout_out=0.3,
            priori_weight=0.3,
        )
        params = tiny_params(cfg)
        _, trace = forward_batch(
            np.array([0, 2]), np.array([0, 1]), params, PRIORI, cfg,
            mode="train", rng=bundle,
        )
        return trace

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
        for field in ("mask_in", "plane", "banks"):
            assert np.array_equal(getattr(full, field), getattr(cut, field)), field
        for field in ("q", "keys", "kappa", "logits"):
            assert np.array_equal(getattr(full.attn, field), getattr(cut.attn, field)), field
        assert np.allclose(cut.attn.alpha, 1.0 / 4)
        assert not np.array_equal(full.attn.alpha, cut.attn.alpha)

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
        logits, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        return cfg, params, logits, trace

    def test_zero_grad_logits(self):
        cfg, params, logits, trace = self._setup()
        grads = backward(trace, np.zeros_like(logits), params, cfg)
        assert all(np.all(g == 0) for g in grads.values())

    def test_backward_is_linear(self):
        cfg, params, logits, trace = self._setup()
        g = RngStream(4, "g").uniform_signed(logits.size, 1.0).reshape(logits.shape)
        g1 = backward(trace, g, params, cfg)
        g2 = backward(trace, 2.0 * g, params, cfg)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], atol=1e-12)

    def test_trace_params_mismatch(self):
        cfg, params, logits, trace = self._setup()
        other = tiny_params(cfg, seed=99)
        with pytest.raises(StateError):
            backward(trace, np.zeros_like(logits), other, cfg)

    def test_gradients_match_finite_differences_batch_stats(self):
        cfg = tiny_config(bn_frozen=False)
        params = tiny_params(cfg, randomize_stats=False)
        h_ids, r_ids = np.array([0, 2, 5, 1]), np.array([0, 1, 2, 0])
        targets = (RngStream(12, "t").uniform(4 * TINY_ENTITIES).reshape(4, -1) < 0.3) * 0.9 + 0.01

        def loss_for(arrs):
            p = params.with_arrays(arrs)
            logits, _ = forward_batch(h_ids, r_ids, p, PRIORI, cfg, mode="train")
            return bce_loss(logits, targets)[0]

        logits, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        _, grad_logits = bce_loss(logits, targets)
        analytic = backward(trace, grad_logits, params, cfg)
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
        targets = np.full((1, TINY_ENTITIES), 0.01)
        targets[0, 3] = 0.91
        logits, trace = forward_batch(h_ids, r_ids, params, PRIORI, cfg, mode="train")
        _, grad_logits = bce_loss(logits, targets)
        grads = backward(trace, grad_logits, params, cfg)
        new_arrays, _ = adam_step(params.named_arrays(), grads, adam_init(before), 0.01)
        for name, arr in new_arrays.items():
            assert not np.array_equal(arr, before[name]), f"{name} silently dead"


class TestKernelFraction:
    def test_full_fraction_identity(self):
        cfg_full = tiny_config()
        cfg_masked = tiny_config(kernel_fraction=1.0)
        params = tiny_params(cfg_full)
        l1, _ = forward_score(0, 0, params, PRIORI, cfg_full, mode="eval")
        l2, _ = forward_score(0, 0, params, PRIORI, cfg_masked, mode="eval")
        assert np.array_equal(l1, l2)

    def test_quarter_fraction_single_kernel(self):
        cfg = tiny_config()
        active = kernel_fraction_mask(cfg, 0.25)
        assert active.tolist() == [0]

    def test_masked_softmax_sums_to_one(self):
        cfg = tiny_config(kernel_fraction=0.5)
        params = tiny_params(cfg)
        _, trace = forward_score(2, 1, params, PRIORI, cfg, mode="eval")
        probs = trace.attn.probs[0]
        active = kernel_fraction_mask(cfg, 0.5)
        assert abs(probs[active].sum() - 1.0) < 1e-12
        inactive = np.setdiff1d(np.arange(cfg.m), active)
        assert np.all(probs[inactive] == 0)
        assert np.all(trace.attn.alpha[0][inactive] == 0)

    def test_invalid_fraction(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            kernel_fraction_mask(cfg, 0.0)
        with pytest.raises(ConfigError):
            kernel_fraction_mask(cfg, 1.5)


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
        enumerated = sum(v.size for v in params.named_arrays().values())
        assert count_parameters(cfg, 6, 3, include_baseline=True) == enumerated


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

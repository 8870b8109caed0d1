import numpy as np
import pytest

from convd.attention import (
    AttentionParams,
    attention_forward,
    attention_weights_backward,
    slice_batch,
    unslice_batch,
)
from convd.errors import ConfigError
from convd.numerics import finite_diff_grad
from convd.rng import RngStream

from conftest import rel_err
from oracles import oracle_attention, oracle_kernel_slices

D_E, M, R_W, R_H, K = 12, 4, 2, 2, 2
D_R = M * R_W * R_H


def make_params(seed=0, lam=0.1, u=None):
    rng = RngStream(seed, "attn")
    return AttentionParams(
        a_q=rng.uniform_signed(K * D_E, 0.7).reshape(K, D_E),
        a_k=rng.uniform_signed(K * R_W * R_H, 0.7).reshape(K, R_W * R_H),
        a_v=rng.uniform_signed(R_W * R_H, 0.7),
        u=np.linspace(-0.1, 0.1, M) if u is None else np.asarray(u, dtype=np.float64),
        lam=lam,
    )


def bank_of(e_r, m, r_w, r_h):
    """The (m, r_w, r_h) kernel bank of one relation row."""
    return slice_batch(np.asarray(e_r, dtype=np.float64)[None], m, r_w, r_h)[0]


def attend_one(e_h, bank, p_hr, params):
    """attention_forward on a batch of one. Returns (alpha, probs, logits)."""
    trace = attention_forward(np.asarray(e_h)[None], bank[None], np.array([p_hr]), params)
    return trace.alpha[0], trace.probs[0], trace.logits[0]


class TestKernelSlices:
    def test_m_one_is_full_reshape(self):
        e_r = np.arange(6.0)
        bank = bank_of(e_r, 1, 2, 3)
        assert np.array_equal(bank[0], e_r.reshape(2, 3))

    def test_index_arithmetic_case(self):
        bank = bank_of(np.arange(16.0), 4, 2, 2)
        expected = oracle_kernel_slices(np.arange(16.0), 4, 2, 2)
        for got, want in zip(bank, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(bank[0], [[0, 1], [4, 5]])
        assert np.array_equal(bank[3], [[10, 11], [14, 15]])

    def test_partition_round_trip_bit_exact(self):
        rng = RngStream(3, "x")
        for m, rw, rh in ((1, 3, 2), (4, 2, 2), (9, 2, 3)):
            e_r = rng.uniform(m * rw * rh)[None]
            banks = slice_batch(e_r, m, rw, rh)
            assert np.array_equal(unslice_batch(banks, m, rw, rh), e_r)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            bank_of(np.arange(15.0), 4, 2, 2)

    def test_non_square_m(self):
        with pytest.raises(ConfigError):
            bank_of(np.arange(12.0), 3, 2, 2)


class TestAttentionWeights:
    def test_identical_kernels_lambda_zero_gives_uniform(self):
        params = make_params(lam=0.0)
        block = np.arange(4.0).reshape(2, 2)
        # Build e_r so all four slices are the same block.
        grid = np.block([[block, block], [block, block]])
        bank = bank_of(grid.reshape(-1), M, R_W, R_H)
        for k in bank:
            assert np.array_equal(k, bank[0])
        e_h = RngStream(1, "e").uniform(D_E)
        alpha, probs, _ = attend_one(e_h, bank, 1.5, params)
        assert np.allclose(probs, 0.25, atol=1e-12)
        assert np.allclose(alpha, alpha[0], atol=1e-12)

    def test_constant_u_shift_invariance_is_bit_level(self):
        e_h = RngStream(2, "e").uniform(D_E)
        e_r = RngStream(2, "r").uniform(D_R)
        bank = bank_of(e_r, M, R_W, R_H)
        results = []
        for lam, p_hr in ((0.0, 0.0), (0.1, 2.0), (0.4, 7.3)):
            params = make_params(lam=lam, u=np.full(M, 0.37))
            alpha, probs, _ = attend_one(e_h, bank, p_hr, params)
            results.append((alpha, probs))
        for alpha, probs in results[1:]:
            assert np.array_equal(alpha, results[0][0])
            assert np.array_equal(probs, results[0][1])

    def test_learned_u_reacts_to_lambda(self):
        e_h = RngStream(4, "e").uniform(D_E)
        bank = bank_of(RngStream(4, "r").uniform(D_R), M, R_W, R_H)
        a1, _, _ = attend_one(e_h, bank, 2.0, make_params(lam=0.1))
        a2, _, _ = attend_one(e_h, bank, 2.0, make_params(lam=0.4))
        assert not np.allclose(a1, a2)

    def test_tiny_config_against_oracle(self):
        rng = RngStream(9, "data")
        e_h = rng.uniform_signed(D_E, 1.0)
        e_r = rng.uniform_signed(D_R, 1.0)
        params = make_params(seed=9, lam=0.1)
        bank = bank_of(e_r, M, R_W, R_H)
        alpha, probs, logits = attend_one(e_h, bank, 2.0, params)
        o_alpha, o_probs, o_logits = oracle_attention(
            e_h, e_r, M, R_W, R_H, params.a_q, params.a_k, params.a_v, params.u,
            params.lam, 2.0,
        )
        assert np.allclose(alpha, o_alpha, atol=1e-12)
        assert np.allclose(probs, o_probs, atol=1e-12)
        assert np.allclose(logits, o_logits, atol=1e-12)

    def test_probs_sum_to_one(self):
        rng = RngStream(10, "d")
        for trial in range(20):
            e_h = rng.uniform_signed(D_E, 2.0)
            bank = bank_of(rng.uniform_signed(D_R, 2.0), M, R_W, R_H)
            _, probs, _ = attend_one(e_h, bank, rng.uniform(1)[0], make_params(seed=trial))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0)


class TestAttentionBackward:
    def _forward(self, seed=0, lam=0.2, p=1.7):
        rng = RngStream(seed, "case")
        e_h = rng.uniform_signed(D_E, 1.0)[None]
        e_r = rng.uniform_signed(D_R, 1.0)[None]
        params = make_params(seed=seed + 100, lam=lam)
        banks = slice_batch(e_r, M, R_W, R_H)
        trace = attention_forward(e_h, banks, np.array([p]), params)
        return e_h, e_r, params, trace

    def test_zero_grad_gives_zero(self):
        _, _, _, trace = self._forward()
        g_eh, g_kappa, grads = attention_weights_backward(trace, np.zeros((1, M)))
        assert np.all(g_eh == 0) and np.all(g_kappa == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_m_one_degenerate_softmax(self):
        rng = RngStream(5, "m1")
        e_h = rng.uniform_signed(D_E, 1.0)[None]
        e_r = rng.uniform_signed(R_W * R_H, 1.0)[None]
        params = AttentionParams(
            a_q=rng.uniform_signed(K * D_E, 0.5).reshape(K, D_E),
            a_k=rng.uniform_signed(K * R_W * R_H, 0.5).reshape(K, R_W * R_H),
            a_v=rng.uniform_signed(R_W * R_H, 0.5),
            u=np.zeros(1),
            lam=0.3,
        )
        banks = slice_batch(e_r, 1, R_W, R_H)
        trace = attention_forward(e_h, banks, np.array([2.0]), params)
        assert trace.probs[0, 0] == 1.0
        assert trace.alpha[0, 0] == pytest.approx(trace.values[0, 0])
        g = np.array([[1.7]])
        _, _, grads = attention_weights_backward(trace, g)
        # alpha = a_v . kappa, so d alpha / d a_v = kappa.
        assert np.allclose(grads["attn_v"], 1.7 * trace.kappa[0, 0], atol=1e-12)

    def test_matches_finite_differences(self):
        e_h, e_r, params, _ = self._forward(seed=3)
        weights = RngStream(33, "w").uniform_signed(M, 1.0)

        def loss_for(arrays):
            p = AttentionParams(
                a_q=arrays["attn_q"], a_k=arrays["attn_k"], a_v=arrays["attn_v"],
                u=arrays["attn_u"], lam=params.lam,
            )
            banks = slice_batch(arrays["e_r"], M, R_W, R_H)
            trace = attention_forward(arrays["e_h"], banks, np.array([1.7]), p)
            return float(np.sum(trace.alpha * weights))

        arrays = {
            "attn_q": params.a_q, "attn_k": params.a_k, "attn_v": params.a_v,
            "attn_u": params.u, "e_h": e_h, "e_r": e_r,
        }
        fd = finite_diff_grad(loss_for, arrays, h=1e-5)

        banks = slice_batch(e_r, M, R_W, R_H)
        trace = attention_forward(e_h, banks, np.array([1.7]), params)
        g_eh, g_kappa, grads = attention_weights_backward(trace, weights[None])
        g_er = unslice_batch(g_kappa.reshape(1, M, R_W, R_H), M, R_W, R_H)

        assert rel_err(g_eh, fd["e_h"]) <= 1e-4
        assert rel_err(g_er, fd["e_r"]) <= 1e-4
        for name in ("attn_q", "attn_k", "attn_v", "attn_u"):
            assert rel_err(grads[name], fd[name]) <= 1e-4, name

    def test_gradient_reaches_both_embeddings(self):
        hits_eh = hits_er = 0
        rng = RngStream(77, "trials")
        for trial in range(100):
            e_h = rng.uniform_signed(D_E, 1.0)[None]
            e_r = rng.uniform_signed(D_R, 1.0)[None]
            params = make_params(seed=trial, lam=0.2)
            banks = slice_batch(e_r, M, R_W, R_H)
            trace = attention_forward(e_h, banks, np.array([1.0]), params)
            g_eh, g_kappa, _ = attention_weights_backward(
                trace, rng.uniform_signed(M, 1.0)[None]
            )
            hits_eh += bool(np.any(g_eh != 0))
            hits_er += bool(np.any(g_kappa != 0))
        assert hits_eh >= 99
        assert hits_er >= 99

    def test_lambda_zero_ignores_priori(self):
        rng = RngStream(8, "p")
        e_h = rng.uniform_signed(D_E, 1.0)
        bank = bank_of(rng.uniform_signed(D_R, 1.0), M, R_W, R_H)
        params = make_params(lam=0.0)
        a1, p1, l1 = attend_one(e_h, bank, 0.0, params)
        a2, p2, l2 = attend_one(e_h, bank, 123.0, params)
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2) and np.array_equal(l1, l2)

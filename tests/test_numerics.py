import numpy as np
import pytest

from convd.attention import AttentionParams, attention_forward
from convd.errors import ConfigError, DegenerateBatchError, DimensionError, NumericError
from convd.model import ModelConfig
from convd.numerics import (
    adam_init,
    adam_step,
    conv2d_batch,
    dropout_mask,
    finite_diff_grad,
)
from convd.rng import RngStream

from oracles import BatchNormState, batchnorm_apply, oracle_adam_scalar, oracle_conv2d


def conv_one(image, kernel):
    """One image and one kernel through the batched convolution."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    return conv2d_batch(image[None], kernel[None])[0]


def attention_probs(logits):
    """Attention probabilities whose logits are exactly `logits`: the query
    projection is zero, so each logit is the priori bias 1 * 1 * u_i."""
    u = np.asarray(logits, dtype=np.float64)
    params = AttentionParams(
        a_q=np.zeros((1, 1)), a_k=np.zeros((1, 1)), a_v=np.ones(1), u=u, lam=1.0
    )
    trace = attention_forward(np.zeros((1, 1)), np.zeros((1, u.size, 1, 1)), np.ones(1), params)
    return trace.probs[0]


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        image = rng.normal(size=(5, 6))
        assert np.array_equal(conv_one(image, [[1.0]]), image)

    def test_zero_input(self):
        out = conv_one(np.zeros((4, 4)), np.ones((2, 2)))
        assert out.shape == (3, 3)
        assert np.all(out == 0)

    def test_against_nested_loop_oracle(self):
        image = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        kernel = [[1, 0], [0, 1]]
        expected = oracle_conv2d(image, kernel)
        assert np.array_equal(expected, [[6, 8], [12, 14]])
        assert np.array_equal(conv_one(image, kernel), expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            image = rng.normal(size=(rng.integers(2, 8), rng.integers(2, 8)))
            kh = rng.integers(1, image.shape[0] + 1)
            kw = rng.integers(1, image.shape[1] + 1)
            kernel = rng.normal(size=(kh, kw))
            assert np.allclose(
                conv_one(image, kernel), oracle_conv2d(image, kernel), atol=1e-12
            )

    def test_bilinearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=(6, 5))
            y = rng.normal(size=(6, 5))
            k = rng.normal(size=(3, 2))
            k2 = rng.normal(size=(3, 2))
            a, b = rng.normal(size=2)
            lhs = conv_one(a * x + b * y, k)
            rhs = a * conv_one(x, k) + b * conv_one(y, k)
            assert np.allclose(lhs, rhs, atol=1e-10)
            lhs_k = conv_one(x, a * k + b * k2)
            rhs_k = a * conv_one(x, k) + b * conv_one(x, k2)
            assert np.allclose(lhs_k, rhs_k, atol=1e-10)

    def test_kernel_larger_than_image_raises(self):
        # The convolution itself does not check; the config guards every caller.
        with pytest.raises(ConfigError):
            ModelConfig(d_w=2, d_h=2, r_w=3, r_h=3, m=1).validate()


class TestSoftmax:
    def test_uniform_logits(self):
        for c in (-3.0, 0.0, 17.5):
            assert np.allclose(attention_probs(np.full(4, c)), 0.25, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=9)
        for c in (-100.0, 0.5, 1234.0):
            assert np.allclose(attention_probs(x + c), attention_probs(x), atol=1e-12)

    def test_closed_form(self):
        assert np.allclose(attention_probs(np.array([0.0, np.log(3.0)])), [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = attention_probs(rng.normal(size=rng.integers(1, 30)) * 50)
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.all(s >= 0)

    def test_empty_rejected(self):
        # An empty kernel set never reaches the softmax: m >= 1 is a config rule.
        with pytest.raises(ConfigError):
            ModelConfig(m=0).validate()

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            attention_probs(np.array([0.0, np.inf]))


class TestBatchNorm:
    def test_constant_batch_is_all_beta(self):
        y, _ = batchnorm_apply(np.full(8, 3.7), BatchNormState(gamma=1.0, beta=0.0), "train")
        assert np.allclose(y, 0.0, atol=1e-9)

    def test_eval_is_pure(self):
        state = BatchNormState(gamma=1.5, beta=0.3, running_mean=0.2, running_var=2.0)
        x = np.array([0.1, -0.5, 2.0])
        y1, s1 = batchnorm_apply(x, state, "eval")
        y2, s2 = batchnorm_apply(x, s1, "eval")
        assert np.array_equal(y1, y2)
        assert s1 == state and s2 == state

    def test_two_element_closed_form(self):
        y, _ = batchnorm_apply(np.array([-1.0, 1.0]), BatchNormState(gamma=2.0, beta=3.0), "train")
        expected = np.array([3 - 2 / np.sqrt(1 + 1e-5), 3 + 2 / np.sqrt(1 + 1e-5)])
        assert np.allclose(y, expected, atol=1e-14)

    def test_running_stats_update(self):
        state = BatchNormState()
        _, new = batchnorm_apply(np.array([2.0, 4.0]), state, "train")
        assert new.running_mean == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert new.running_var == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            batchnorm_apply(np.array([1.0]), BatchNormState(), "train")


class TestDropout:
    def test_p_zero_all_ones(self):
        mask = dropout_mask(RngStream(1, "d"), 0.0, 64)
        assert np.all(mask == 1.0)

    def test_unbiased_scaling(self):
        for p in (0.1, 0.5, 0.9):
            mask = dropout_mask(RngStream(5, "d"), p, 200_000)
            assert abs(mask.mean() - 1.0) < 1e-2

    def test_replay(self):
        m1 = dropout_mask(RngStream(9, "d"), 0.5, 8)
        m2 = dropout_mask(RngStream(9, "d"), 0.5, 8)
        assert np.array_equal(m1, m2)
        assert set(np.unique(m1)) <= {0.0, 2.0}

    def test_invalid_probability(self):
        with pytest.raises(DimensionError):
            dropout_mask(RngStream(1, "d"), 1.0, 4)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = adam_init(params)
        zeros = {"w": np.zeros(3)}
        current = params
        for _ in range(5):
            current, state = adam_step(current, zeros, state, lr=0.1)
        assert np.array_equal(current["w"], params["w"])

    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([0.5, -1.5, 2.0])}
        grads = {"w": np.array([3.0, -0.01, 1e-6])}
        new, _ = adam_step(params, grads, adam_init(params), lr=0.1)
        step = new["w"] - params["w"]
        assert np.allclose(step, -0.1 * np.sign(grads["w"]), atol=1e-3)

    def test_three_steps_match_hand_trace(self):
        w = {"w": np.array([1.0])}
        state = adam_init(w)
        grads = []
        current = w
        for _ in range(3):
            g = 2.0 * current["w"][0]  # f(w) = w^2
            grads.append(g)
            current, state = adam_step(current, {"w": np.array([g])}, state, lr=0.1)
        assert current["w"][0] == pytest.approx(oracle_adam_scalar(1.0, grads, 0.1), abs=1e-12)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(DimensionError):
            adam_step(params, {"w": np.zeros(4)}, adam_init(params), 0.1)

    def test_step_counter_increments(self):
        params = {"w": np.zeros(2)}
        state = adam_init(params)
        _, s1 = adam_step(params, {"w": np.ones(2)}, state, 0.01)
        _, s2 = adam_step(params, {"w": np.ones(2)}, s1, 0.01)
        assert (state.step, s1.step, s2.step) == (0, 1, 2)


class TestFiniteDiff:
    def test_constant_function(self):
        grads = finite_diff_grad(lambda p: 42.0, {"a": np.ones((2, 3))})
        assert np.all(grads["a"] == 0)

    def test_quadratic(self):
        rng = np.random.default_rng(8)
        theta = {"a": rng.normal(size=5), "b": rng.normal(size=(2, 2))}

        def loss(p):
            return 0.5 * sum(float(np.sum(v * v)) for v in p.values())

        grads = finite_diff_grad(loss, theta, h=1e-5)
        for name in theta:
            assert np.allclose(grads[name], theta[name], atol=1e-8)

    def test_non_finite_loss_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda p: float("nan"), {"a": np.ones(1)})

import functools
import itertools
import sys
import threading

import numpy as np
import pytest

import convd.numerics

from convd.attention import attention_forward
from convd.errors import ConfigError, DegenerateBatchError, DimensionError, NumericError
from convd.model import ModelConfig, ModelParams
from convd.numerics import (
    BLOCK,
    adam_init,
    adam_step,
    block_runs,
    conv2d_batch,
    dropout_mask,
    finite_diff_grad,
    parallel,
)
from convd.rng import RngStream

from conftest import worker_counts
from oracles import (
    BatchNormState,
    batchnorm_apply,
    oracle_adam,
    oracle_adam_scalar,
    oracle_conv2d,
)


def conv_one(image, kernel):
    """One image and one kernel through the batched convolution."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    return conv2d_batch(image[None], kernel[None])[0]


def attention_probs(logits):
    """Attention probabilities whose logits are exactly `logits`: the query
    projection is zero, so each logit is the priori bias 1 * 1 * u_i."""
    u = np.asarray(logits, dtype=np.float64)
    params = ModelParams(
        {"attn_q": np.zeros((1, 1)), "attn_k": np.zeros((1, 1)), "attn_v": np.ones(1), "attn_u": u}
    )
    trace = attention_forward(
        np.zeros((1, 1)), np.zeros((1, u.size, 1, 1)), np.ones(1), params, 1.0
    )
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
        start = params["w"].copy()  # adam_step updates params in place
        state = adam_init(params)
        zeros = {"w": np.zeros(3)}
        current = params
        for _ in range(5):
            current, state = adam_step(current, zeros, state, lr=0.1)
        assert np.array_equal(current["w"], start)

    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([0.5, -1.5, 2.0])}
        before = {"w": params["w"].copy()}  # adam_step updates params in place
        grads = {"w": np.array([3.0, -0.01, 1e-6])}
        new, _ = adam_step(params, grads, adam_init(params), lr=0.1)
        step = new["w"] - before["w"]
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
        seen = [state.step]  # the state is updated in place, so record as we go
        _, s1 = adam_step(params, {"w": np.ones(2)}, state, 0.01)
        seen.append(s1.step)
        _, s2 = adam_step(params, {"w": np.ones(2)}, s1, 0.01)
        seen.append(s2.step)
        assert tuple(seen) == (0, 1, 2)

    @staticmethod
    def _adam_case(seed):
        # Two full blocks plus a partial one, then arrays shorter than a block.
        rng = np.random.default_rng(seed)
        shapes = {"long": (2 * BLOCK + 3,), "matrix": (37, 11), "single": (1,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grad_steps = [
            {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
             for name, shape in shapes.items()}
            for _ in range(3)
        ]
        return params, grad_steps

    def test_in_place_matches_textbook_oracle_bit_for_bit(self, monkeypatch):
        start, grad_steps = self._adam_case(41)
        want_p, want_m, want_v = oracle_adam(start, grad_steps, lr=0.003)
        for _ in worker_counts(monkeypatch):
            params = {name: arr.copy() for name, arr in start.items()}
            state = adam_init(params)
            for grads in grad_steps:
                adam_step(params, grads, state, 0.003)
            assert state.step == 3
            for name in params:
                assert params[name].tobytes() == want_p[name].tobytes(), name
                assert state.first_moment[name].tobytes() == want_m[name].tobytes(), name
                assert state.second_moment[name].tobytes() == want_v[name].tobytes(), name

    def test_returns_the_objects_it_was_given(self):
        params, grad_steps = self._adam_case(42)
        arrays = dict(params)
        state = adam_init(params)
        moments = (dict(state.first_moment), dict(state.second_moment))
        out_params, out_state = adam_step(params, grad_steps[0], state, 0.01)
        assert out_params is params and out_state is state
        for name, arr in arrays.items():
            assert out_params[name] is arr
            assert out_state.first_moment[name] is moments[0][name]
            assert out_state.second_moment[name] is moments[1][name]

    def test_rejected_call_changes_nothing(self, monkeypatch):
        # "a" alone would be split over the workers.
        for size, _ in itertools.product((3, 2 * BLOCK + 1), worker_counts(monkeypatch)):
            params = {"a": np.ones(size), "b": np.ones((4, 2))[:, 0]}  # b is a strided view
            state = adam_init(params)
            with pytest.raises(DimensionError):
                adam_step(params, {"a": np.ones(size), "b": np.ones(4)}, state, 0.1)
            assert np.array_equal(params["a"], np.ones(size))
            assert state.step == 0 and not state.first_moment["a"].any()
            assert not state.second_moment["a"].any()


class TestParallel:
    def test_runs_every_task_and_raises_the_first_error_after_all(self, monkeypatch):
        for n_workers in worker_counts(monkeypatch):
            done = []

            def fail(tag):
                done.append(tag)
                raise ValueError(tag)

            tasks = [lambda: done.append(0), lambda: fail("first"), lambda: fail("second"),
                     lambda: done.append(3)]
            with pytest.raises(ValueError, match="first"):
                parallel(tasks)
            # Inline, the first error ends the run; across threads, no task
            # is still running when the error reaches the caller.
            want = ["0", "first"] if n_workers == 1 else ["0", "3", "first", "second"]
            assert sorted(map(str, done)) == want

    def test_each_task_runs_once_with_more_threads_than_cpus(self, monkeypatch):
        # Eight threads take tasks from one queue while the interpreter
        # switches threads every microsecond: a task taken twice or lost
        # shows in the counts.
        monkeypatch.setattr(convd.numerics, "workers", lambda: 8)
        convd.numerics._pool.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                counts = np.zeros(500, dtype=np.int64)
                tasks = [functools.partial(np.add.at, counts, i, 1) for i in range(500)]
                done = threading.Thread(target=parallel, args=(tasks,))
                done.start()
                done.join(timeout=60)
                assert not done.is_alive()
                assert np.array_equal(counts, np.ones(500, dtype=np.int64))
        finally:
            sys.setswitchinterval(interval)
            convd.numerics._pool().shutdown()
            convd.numerics._pool.cache_clear()

    def test_parallel_inside_a_task_runs_inline(self, monkeypatch):
        # The pool is rebuilt with one thread. Two outer tasks meet at a
        # barrier, so one of them runs on that thread: an inner call queued
        # on the pool would wait behind the thread that waits on it.
        convd.numerics._pool.cache_clear()
        try:
            for n_workers in worker_counts(monkeypatch, (2, 3)):
                ran = []
                barrier = threading.Barrier(2, timeout=30)

                def outer(tag):
                    barrier.wait()
                    parallel([functools.partial(ran.append, (tag, i)) for i in range(4)])

                outer_tasks = [functools.partial(outer, tag) for tag in "ab"]
                done = threading.Thread(target=parallel, args=(outer_tasks,), daemon=True)
                done.start()
                done.join(timeout=60)
                assert not done.is_alive(), f"nested parallel hung at {n_workers} workers"
                assert sorted(ran) == [(tag, i) for tag in "ab" for i in range(4)]
                # Inline, so each outer task's inner tasks run in order.
                for tag in "ab":
                    assert [i for t, i in ran if t == tag] == list(range(4))
        finally:
            convd.numerics._pool().shutdown(wait=False)
            convd.numerics._pool.cache_clear()

    @pytest.mark.parametrize("sizes", [
        [5000 * 200, 2 * 400 * 9, 32 * 100, 32 * 9, 9, 4, 64 * 100, 100, 100 * 100, 100, 1, 1],
        [2 * BLOCK + 1], [BLOCK, BLOCK], [3 * BLOCK, 10, 10, BLOCK + 5],
    ])
    def test_runs_cover_every_block_once_and_balance_elements(self, monkeypatch, sizes):
        want = [(i, lo, min(lo + BLOCK, size))
                for i, size in enumerate(sizes) for lo in range(0, size, BLOCK)]
        for n_workers in worker_counts(monkeypatch, (1, 2, 3)):
            runs = block_runs(sizes)
            # Every element once, in array order, in blocks of BLOCK.
            assert [block for run in runs for block in run] == want
            assert all(runs) and min(n_workers, 2) <= len(runs) <= n_workers
            # Each run is within a block of its share of the elements.
            for run in runs:
                count = sum(hi - lo for _, lo, hi in run)
                assert abs(count - sum(sizes) / len(runs)) <= BLOCK

    def test_fewer_than_two_blocks_run_as_one(self, monkeypatch):
        for _ in worker_counts(monkeypatch, (2, 3)):
            assert len(block_runs([2 * BLOCK - 1])) == 1
            assert len(block_runs([BLOCK - 1, BLOCK - 1, 1])) == 1


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

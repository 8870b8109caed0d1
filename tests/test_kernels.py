import numpy as np
import pytest

import convd
from convd.numerics import conv2d_batch, conv2d_batch_backward


def _random_case(rng):
    b = int(rng.integers(1, 6))
    h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    planes = rng.normal(size=(b, h, w))
    kers = rng.normal(size=(b, kh, kw))
    grad = rng.normal(size=(b, h - kh + 1, w - kw + 1))
    return planes, kers, grad


def test_fallback_forward_matches_dot_definition():
    rng = np.random.default_rng(0)
    planes, kers, _ = _random_case(rng)
    out = conv2d_batch(planes, kers)
    b, kh, kw = kers.shape
    for i in range(b):
        for o in range(out.shape[1]):
            for p in range(out.shape[2]):
                ref = np.sum(planes[i, o : o + kh, p : p + kw] * kers[i])
                assert out[i, o, p] == pytest.approx(ref, abs=1e-12)


def test_fallback_backward_matches_finite_difference():
    rng = np.random.default_rng(1)
    planes, kers, grad = _random_case(rng)
    gp, gk = conv2d_batch_backward(planes, kers, grad)
    h = 1e-6

    def loss(pl, ke):
        return float(np.sum(conv2d_batch(pl, ke) * grad))

    for arr, g in ((planes, gp), (kers, gk)):
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss(planes, kers)
            flat[idx] = orig - h
            down = loss(planes, kers)
            flat[idx] = orig
            assert g.reshape(-1)[idx] == pytest.approx((up - down) / (2 * h), abs=1e-5)


def test_selected_backend_announced():
    assert convd.KERNEL_BACKEND == "python"


def test_wrapper_accepts_non_contiguous():
    rng = np.random.default_rng(3)
    planes = rng.normal(size=(4, 8, 8))[:, ::2, ::2]
    kers = rng.normal(size=(4, 2, 2))
    out = conv2d_batch(planes, kers)
    assert out.shape == (4, 3, 3)
    assert np.array_equal(out, conv2d_batch(np.ascontiguousarray(planes), kers))

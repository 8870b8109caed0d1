"""Dense numerical primitives: convolution, dropout masks, Adam, and a
central-difference gradient oracle.

Everything is 64-bit float and referentially transparent: randomness and
optimizer state enter only through explicit arguments, and mutation happens
only through returned updated states.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .rng import RngStream

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def conv2d_batch(planes: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """planes (B,H,W) correlated with per-element kernels (B,kh,kw) -> (B,oh,ow).

    Valid cross-correlation, stride 1, no padding, one plane and one kernel
    per batch element: out[b, i, j] = sum_{a, c} planes[b, i + a, j + c] *
    kernels[b, a, c]. The loops run over kernel taps only, so the cost is
    kh * kw vectorized slice operations per call.
    """
    b, h, w = planes.shape
    _, kh, kw = kernels.shape
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((b, oh, ow), dtype=np.float64)
    for a in range(kh):
        for c in range(kw):
            out += planes[:, a : a + oh, c : c + ow] * kernels[:, a, c][:, None, None]
    return out


def conv2d_batch_backward(planes, kernels, grad_out):
    """Gradients of conv2d_batch w.r.t. planes and kernels."""
    b, h, w = planes.shape
    _, kh, kw = kernels.shape
    _, oh, ow = grad_out.shape
    grad_planes = np.zeros_like(planes)
    grad_kernels = np.zeros_like(kernels)
    for a in range(kh):
        for c in range(kw):
            grad_planes[:, a : a + oh, c : c + ow] += grad_out * kernels[:, a, c][:, None, None]
            grad_kernels[:, a, c] = np.sum(grad_out * planes[:, a : a + oh, c : c + ow], axis=(1, 2))
    return grad_planes, grad_kernels


def dropout_mask(rng: RngStream, p: float, n: int) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 with probability p, else 1/(1-p).

    p == 0 returns all ones without consuming the stream, so disabling one
    dropout site leaves the other streams' draws untouched.
    """
    if not 0.0 <= p < 1.0:
        raise DimensionError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(n, dtype=np.float64)
    keep = rng.uniform(n) >= p
    return keep.astype(np.float64) / (1.0 - p)


@dataclass
class AdamState:
    """First/second moments per named parameter plus the shared step count."""

    first_moment: dict
    second_moment: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def adam_init(params: dict, beta1=0.9, beta2=0.999, epsilon=1e-8) -> AdamState:
    return AdamState(
        first_moment={k: np.zeros_like(v) for k, v in params.items()},
        second_moment={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    new_params = {}
    m = {}
    v = {}
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        m[name] = state.beta1 * state.first_moment[name] + (1 - state.beta1) * g
        v[name] = state.beta2 * state.second_moment[name] + (1 - state.beta2) * g * g
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return new_params, AdamState(m, v, t, state.beta1, state.beta2, state.epsilon)


def finite_diff_grad(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradient of loss_fn over every coordinate.

    loss_fn must be deterministic (dropout off, batch norm frozen or in eval
    mode). This is the oracle the analytic backward passes are checked
    against; it never shares code with them.
    """
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in work.items()}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(work)
            flat[i] = orig - h
            down = loss_fn(work)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss while differencing {name}[{i}]")
            gflat[i] = (up - down) / (2.0 * h)
    return grads

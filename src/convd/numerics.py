"""Dense numerical primitives: convolution, dropout masks, Adam, and a
central-difference gradient oracle.

Everything is 64-bit float. Randomness and optimizer state enter only
through explicit arguments. Adam is the one routine that mutates its
arguments: it updates the parameters and both moments in place.

BLOCK is the one block size of the elementwise passes over large arrays:
Adam here and the 1-N loss in training.py walk their arrays BLOCK
elements at a time, so each block stays in cache across its passes.
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moments per named parameter plus the shared step count."""

    first_moment: dict
    second_moment: dict
    step: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        first_moment={k: np.zeros_like(v) for k, v in params.items()},
        second_moment={k: np.zeros_like(v) for k, v in params.items()},
    )


# Elements per block: a block and two float64 scratch buffers (2 x 128 KiB)
# stay in L2 across the block's elementwise passes.
BLOCK = 16384


def _flat_view(arr: np.ndarray, name: str) -> np.ndarray:
    if not arr.flags.c_contiguous:
        raise DimensionError(f"adam_step updates {name!r} in place and needs it C-contiguous")
    return arr.reshape(-1)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place on the param arrays and on
    the moments in state. Returns (params, state): the objects it was given.

    The arithmetic and its order are those of the textbook form
    p - lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bytes match it; the
    update runs in blocks of BLOCK elements through two scratch buffers.
    """
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    # Every check runs before the first write, so a rejected call changes nothing.
    flat = []
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        flat.append((
            _flat_view(p, name),
            np.ravel(g),
            _flat_view(state.first_moment[name], name),
            _flat_view(state.second_moment[name], name),
        ))
    scratch_a = np.empty(BLOCK, dtype=np.float64)
    scratch_b = np.empty(BLOCK, dtype=np.float64)
    for p_flat, g_flat, m_flat, v_flat in flat:
        for lo in range(0, p_flat.size, BLOCK):
            hi = min(lo + BLOCK, p_flat.size)
            pb, gb, mb, vb = p_flat[lo:hi], g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            mb *= b1
            np.multiply(gb, 1 - b1, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, 1 - b2, out=b)
            b *= gb
            vb += b
            np.divide(mb, bc1, out=a)
            a *= lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPSILON
            a /= b
            pb -= a
    state.step = t
    return params, state


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

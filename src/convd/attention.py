"""Per-kernel contribution weights from a priori-biased scaled dot-product.

A (head entity, relation) pair yields one scalar alpha_i per active
kernel: the relation embedding is cut into m kernel slices, of which the
caller passes the n active ones; each is projected to a key and reduced to
a scalar value, the entity embedding is projected to a single query, and
the softmax over the n biased key/query logits is multiplied elementwise by
the values.

The learned arrays are read by their param_layout names from a
model.ModelParams: attn_q (k, d_e) projects the entity to the query,
attn_k (k, r_w * r_h) and attn_v (r_w * r_h,) project each slice to its key
and value, and attn_u (m,) is the per-kernel priori modulation. A constant
attn_u provably cancels under the softmax, which is why it is learned per
kernel (see attention_forward).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


def _sqrt_m(m: int) -> int:
    s = math.isqrt(m)
    if s * s != m or m < 1:
        raise ConfigError(f"kernel count must be a positive perfect square, got {m}")
    return s


def slice_batch(e_r: np.ndarray, m: int, r_w: int, r_h: int) -> np.ndarray:
    """(B, d_r) relation rows -> (B, m, r_w, r_h) kernel banks."""
    s = _sqrt_m(m)
    b, d_r = e_r.shape
    if d_r != m * r_w * r_h:
        raise ConfigError(f"relation width {d_r} != m*r_w*r_h = {m * r_w * r_h}")
    grid = e_r.reshape(b, s, r_w, s, r_h)
    return grid.transpose(0, 1, 3, 2, 4).reshape(b, m, r_w, r_h)


def unslice_batch(banks: np.ndarray, m: int, r_w: int, r_h: int) -> np.ndarray:
    """Inverse of slice_batch; reassembles (B, d_r) rows bit-exactly."""
    s = _sqrt_m(m)
    b = banks.shape[0]
    grid = banks.reshape(b, s, s, r_w, r_h).transpose(0, 1, 3, 2, 4)
    return grid.reshape(b, m * r_w * r_h)


@dataclass
class AttentionTrace:
    """Cached forward intermediates, sufficient for the exact backward."""

    e_h: np.ndarray  # (B, d_e)
    kappa: np.ndarray  # (B, n, r_w*r_h) flattened active slices
    p_hr: np.ndarray  # (B,)
    q: np.ndarray  # (B, k)
    keys: np.ndarray  # (B, n, k)
    values: np.ndarray  # (B, n)
    logits: np.ndarray  # (B, n)
    probs: np.ndarray  # (B, n)
    alpha: np.ndarray  # (B, n)
    params: object  # model.ModelParams
    lam: float  # priori weight the logits were biased with


def attention_forward(
    e_h: np.ndarray,
    banks: np.ndarray,
    p_hr: np.ndarray,
    params,
    lam: float,
) -> AttentionTrace:
    """Batched attention over (B, d_e) entities and the (B, n, r_w, r_h)
    banks of the n active kernels, n <= m.

    logit_i = (q . key_i) / sqrt(k) + lam * p_hr * u_i, softmaxed over the n
    kernels; alpha_i = prob_i * value_i. When u[:n] is constant the bias
    shifts every logit equally and cannot change the softmax, so it is
    skipped exactly (this keeps alpha bit-identical across lam and p_hr).
    """
    b, n = banks.shape[0], banks.shape[1]
    kappa = banks.reshape(b, n, -1)
    q = e_h @ params.attn_q.T  # (B, k)
    keys = kappa @ params.attn_k.T  # (B, n, k)
    values = kappa @ params.attn_v  # (B, n)
    logits = np.einsum("bk,bmk->bm", q, keys) / math.sqrt(params.attn_q.shape[0])
    u = params.attn_u[:n]
    if lam != 0.0 and u.max() != u.min():
        logits = logits + lam * np.asarray(p_hr)[:, None] * u[None, :]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite attention logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return AttentionTrace(
        e_h=e_h,
        kappa=kappa,
        p_hr=np.asarray(p_hr, dtype=np.float64),
        q=q,
        keys=keys,
        values=values,
        logits=logits,
        probs=probs,
        alpha=probs * values,
        params=params,
        lam=lam,
    )


def attention_weights_backward(trace: AttentionTrace, grad_alpha: np.ndarray):
    """Exact reverse-mode gradients of alpha w.r.t. every input and parameter.

    Returns (grad_e_h (B, d_e), grad_kappa (B, n, r_w*r_h), param_grads dict
    with keys attn_q, attn_k, attn_v, attn_u). Gradient flows through both
    the key path and the value path into the active kernel slices; attn_u
    keeps its length m, zero past the n active kernels.
    """
    if grad_alpha.shape != trace.alpha.shape:
        raise DimensionError(
            f"grad_alpha shape {grad_alpha.shape} != alpha shape {trace.alpha.shape}"
        )
    params = trace.params
    scale = 1.0 / math.sqrt(params.attn_q.shape[0])
    probs, values = trace.probs, trace.values

    g_probs = grad_alpha * values
    g_values = grad_alpha * probs
    dot = np.sum(g_probs * probs, axis=1, keepdims=True)
    g_logits = probs * (g_probs - dot)

    g_q = np.einsum("bm,bmk->bk", g_logits, trace.keys) * scale
    g_keys = g_logits[:, :, None] * trace.q[:, None, :] * scale
    lam_p = trace.lam * trace.p_hr
    g_u = np.zeros_like(params.attn_u)
    g_u[: probs.shape[1]] = np.einsum("b,bm->m", lam_p, g_logits)

    g_e_h = g_q @ params.attn_q
    g_a_q = np.einsum("bk,bd->kd", g_q, trace.e_h)
    g_kappa = np.einsum("bmk,kf->bmf", g_keys, params.attn_k)
    g_kappa += g_values[:, :, None] * params.attn_v[None, None, :]
    g_a_k = np.einsum("bmk,bmf->kf", g_keys, trace.kappa)
    g_a_v = np.einsum("bm,bmf->f", g_values, trace.kappa)

    param_grads = {"attn_q": g_a_q, "attn_k": g_a_k, "attn_v": g_a_v, "attn_u": g_u}
    return g_e_h, g_kappa, param_grads

"""Per-kernel contribution weights from a priori-biased scaled dot-product.

A (head entity, relation) pair yields m scalars alpha_i: the relation
embedding is cut into m kernel slices, each slice is projected to a key and
reduced to a scalar value, the entity embedding is projected to a single
query, and the softmax over the biased key/query logits is multiplied
elementwise by the values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


@dataclass
class AttentionParams:
    """Learned projections. u is the per-kernel priori modulation; a constant
    u provably cancels under the softmax, which is why it must be learned
    per kernel (see attention_forward)."""

    a_q: np.ndarray  # (k, d_e)
    a_k: np.ndarray  # (k, r_w * r_h)
    a_v: np.ndarray  # (r_w * r_h,)
    u: np.ndarray  # (m,)
    lam: float = 0.1

    @property
    def d_k(self) -> int:
        return self.a_q.shape[0]


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
    kappa: np.ndarray  # (B, m, r_w*r_h) flattened slices
    p_hr: np.ndarray  # (B,)
    q: np.ndarray  # (B, k)
    keys: np.ndarray  # (B, m, k)
    values: np.ndarray  # (B, m)
    logits: np.ndarray  # (B, m); inactive entries -inf
    probs: np.ndarray  # (B, m); inactive entries 0
    alpha: np.ndarray  # (B, m); inactive entries 0
    active: np.ndarray  # active kernel indices
    params: AttentionParams


def attention_forward(
    e_h: np.ndarray,
    banks: np.ndarray,
    p_hr: np.ndarray,
    params: AttentionParams,
    active: np.ndarray | None = None,
) -> AttentionTrace:
    """Batched attention over (B, d_e) entities and (B, m, r_w, r_h) banks.

    logit_i = (q . key_i) / sqrt(k) + lam * p_hr * u_i, softmaxed over the
    active kernel set; alpha_i = prob_i * value_i. When u is constant the
    bias shifts every logit equally and cannot change the softmax, so it is
    skipped exactly (this keeps alpha bit-identical across lam and p_hr).
    """
    b, m = banks.shape[0], banks.shape[1]
    kappa = banks.reshape(b, m, -1)
    if active is None:
        active = np.arange(m)
    q = e_h @ params.a_q.T  # (B, k)
    keys = kappa @ params.a_k.T  # (B, m, k)
    values = kappa @ params.a_v  # (B, m)
    logits = np.einsum("bk,bmk->bm", q, keys) / math.sqrt(params.d_k)
    u = params.u
    if params.lam != 0.0 and u[active].max() != u[active].min():
        logits = logits + params.lam * np.asarray(p_hr)[:, None] * u[None, :]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite attention logits")
    sub = logits[:, active]
    shifted = sub - sub.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs_active = exp / exp.sum(axis=1, keepdims=True)
    probs = np.zeros_like(logits)
    probs[:, active] = probs_active
    masked_logits = np.full_like(logits, -np.inf)
    masked_logits[:, active] = logits[:, active]
    alpha = probs * values
    return AttentionTrace(
        e_h=e_h,
        kappa=kappa,
        p_hr=np.asarray(p_hr, dtype=np.float64),
        q=q,
        keys=keys,
        values=values,
        logits=masked_logits,
        probs=probs,
        alpha=alpha,
        active=np.asarray(active),
        params=params,
    )


def attention_weights_backward(trace: AttentionTrace, grad_alpha: np.ndarray):
    """Exact reverse-mode gradients of alpha w.r.t. every input and parameter.

    Returns (grad_e_h (B, d_e), grad_kappa (B, m, r_w*r_h), param_grads dict
    with keys attn_q, attn_k, attn_v, attn_u). Gradient flows through both
    the key path and the value path into the kernel slices.
    """
    if grad_alpha.shape != trace.alpha.shape:
        raise DimensionError(
            f"grad_alpha shape {grad_alpha.shape} != alpha shape {trace.alpha.shape}"
        )
    params = trace.params
    scale = 1.0 / math.sqrt(params.d_k)
    probs, values = trace.probs, trace.values

    g_probs = grad_alpha * values
    g_values = grad_alpha * probs
    # Softmax backward over the active set; inactive entries carry zero prob.
    dot = np.sum(g_probs * probs, axis=1, keepdims=True)
    g_logits = probs * (g_probs - dot)

    g_q = np.einsum("bm,bmk->bk", g_logits, trace.keys) * scale
    g_keys = g_logits[:, :, None] * trace.q[:, None, :] * scale
    lam_p = params.lam * trace.p_hr
    g_u = np.einsum("b,bm->m", lam_p, g_logits)

    g_e_h = g_q @ params.a_q
    g_a_q = np.einsum("bk,bd->kd", g_q, trace.e_h)
    g_kappa = np.einsum("bmk,kf->bmf", g_keys, params.a_k)
    g_kappa += g_values[:, :, None] * params.a_v[None, None, :]
    g_a_k = np.einsum("bmk,bmf->kf", g_keys, trace.kappa)
    g_a_v = np.einsum("bm,bmf->f", g_values, trace.kappa)

    param_grads = {"attn_q": g_a_q, "attn_k": g_a_k, "attn_v": g_a_v, "attn_u": g_u}
    return g_e_h, g_kappa, param_grads

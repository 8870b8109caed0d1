"""The dynamic-convolution scorer and its exact analytic backward, plus a
plain-convolution baseline and parameter accounting.

Scoring pipeline for one (head, relation) query:
  1. entity row -> input dropout -> 2D plane (d_w x d_h)
  2. relation row -> m kernel slices (r_w x r_h each)
  3. attention turns the pair into m contribution weights alpha
  4. one valid convolution of the plane with sum_i alpha_i * kernel_i
     (equal, by bilinearity, to summing m per-kernel convolutions)
  5. batch norm (scalar gamma/beta, per-feature statistics), ReLU,
     feature dropout on the flattened map
  6. fully connected projection to d_e
  7. output dropout, ReLU, second projection d_e -> d_e
  8. logits = entity_table @ hidden, one score per candidate entity
Probabilities are produced by the loss (sigmoid there, not here).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .attention import (
    AttentionParams,
    attention_forward,
    attention_weights_backward,
    slice_batch,
    unslice_batch,
)
from .data import PrioriTable
from .errors import (
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    NumericError,
    StateError,
)
from .numerics import BN_EPS, BN_MOMENTUM, conv2d_batch, conv2d_batch_backward, dropout_mask
from .rng import RngStream

ABLATION_MODES = ("full", "no_priori", "no_attention", "no_both")


@dataclass
class ModelConfig:
    d_w: int = 10
    d_h: int = 10
    r_w: int = 3
    r_h: int = 3
    m: int = 4
    k: int = 32
    priori_weight: float = 0.1  # lambda in the attention bias
    priori_base: float = 2.0  # log base of the priori table
    dropout_in: float = 0.2
    dropout_feat: float = 0.2
    dropout_out: float = 0.3
    label_smoothing: float = 0.1
    lr: float = 0.003
    batch_size: int = 128
    seed: int = 0
    ablation: str = "full"
    kernel_fraction: float = 1.0
    bn_frozen: bool = False
    sigmoid_pre_dot: bool = False
    n_static: int = 4  # external kernels of the plain-conv baseline

    @property
    def d_e(self) -> int:
        return self.d_w * self.d_h

    @property
    def d_r(self) -> int:
        return self.m * self.r_w * self.r_h

    @property
    def conv_shape(self) -> tuple:
        return (self.d_w - self.r_w + 1, self.d_h - self.r_h + 1)

    @property
    def conv_map(self) -> int:
        oh, ow = self.conv_shape
        return oh * ow

    def validate(self) -> None:
        # Values arrive from JSON, where true is not 1 and 2.5 is not an int:
        # int fields take only int, float fields int or float, bool fields
        # only bool; the other fields take exactly their declared type.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif f.type is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, f.type)
            if not ok:
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        s = math.isqrt(self.m)
        if self.m < 1 or s * s != self.m:
            raise ConfigError(f"m must be the square of a positive integer, got {self.m}")
        if self.r_w > self.d_w or self.r_h > self.d_h:
            raise ConfigError(
                f"kernel {self.r_w}x{self.r_h} larger than entity plane {self.d_w}x{self.d_h}"
            )
        if min(self.d_w, self.d_h, self.r_w, self.r_h, self.k) < 1:
            raise ConfigError("all dimensions must be positive")
        for name in ("dropout_in", "dropout_feat", "dropout_out", "label_smoothing"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.priori_weight < 0:
            raise ConfigError(f"priori weight must be >= 0, got {self.priori_weight}")
        if not self.priori_base > 1.0:
            raise ConfigError(f"priori log base must be > 1, got {self.priori_base}")
        if self.ablation not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation mode {self.ablation!r}")
        if not 0.0 < self.kernel_fraction <= 1.0:
            raise ConfigError(f"kernel fraction must be in (0, 1], got {self.kernel_fraction}")
        if self.n_static < 1:
            raise ConfigError(f"n_static must be >= 1, got {self.n_static}")


def kernel_fraction_mask(cfg: ModelConfig, fraction: float) -> np.ndarray:
    """Indices of the ceil(fraction * m) active kernels (lowest first)."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"kernel fraction must be in (0, 1], got {fraction}")
    return np.arange(math.ceil(fraction * cfg.m))


@dataclass
class ModelParams:
    """Every learned array, plus batch-norm running statistics.

    gamma/beta are single scalars (one normalized channel); the running
    statistics are per feature of the flattened convolution map and are not
    counted as learned parameters.
    """

    ent: np.ndarray  # (n_entities, d_e)
    rel: np.ndarray  # (n_relations, d_r)
    attn: AttentionParams
    w_fc: np.ndarray  # (conv_map, d_e)
    b_fc: np.ndarray  # (d_e,)
    w_out: np.ndarray  # (d_e, d_e)
    b_out: np.ndarray  # (d_e,)
    bn_gamma: np.ndarray  # (1,)
    bn_beta: np.ndarray  # (1,)
    bn_mean: np.ndarray  # (conv_map,) running mean
    bn_var: np.ndarray  # (conv_map,) running variance

    def named_arrays(self) -> dict:
        """Learned arrays in checkpoint/optimizer order (live views)."""
        return {
            "ent": self.ent,
            "rel": self.rel,
            "attn_q": self.attn.a_q,
            "attn_k": self.attn.a_k,
            "attn_v": self.attn.a_v,
            "attn_u": self.attn.u,
            "w_fc": self.w_fc,
            "b_fc": self.b_fc,
            "w_out": self.w_out,
            "b_out": self.b_out,
            "bn_gamma": self.bn_gamma,
            "bn_beta": self.bn_beta,
        }

    def running_arrays(self) -> dict:
        return {"bn_mean": self.bn_mean, "bn_var": self.bn_var}

    def with_arrays(self, arrays: dict) -> "ModelParams":
        """New ModelParams around the given learned arrays (stats copied)."""
        return ModelParams(
            ent=arrays["ent"],
            rel=arrays["rel"],
            attn=AttentionParams(
                a_q=arrays["attn_q"],
                a_k=arrays["attn_k"],
                a_v=arrays["attn_v"],
                u=arrays["attn_u"],
                lam=self.attn.lam,
            ),
            w_fc=arrays["w_fc"],
            b_fc=arrays["b_fc"],
            w_out=arrays["w_out"],
            b_out=arrays["b_out"],
            bn_gamma=arrays["bn_gamma"],
            bn_beta=arrays["bn_beta"],
            bn_mean=self.bn_mean.copy(),
            bn_var=self.bn_var.copy(),
        )

    def copy(self) -> "ModelParams":
        p = self.with_arrays({k: v.copy() for k, v in self.named_arrays().items()})
        return p

    def check_finite(self) -> None:
        for name, arr in {**self.named_arrays(), **self.running_arrays()}.items():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite values in parameter block {name!r}")


def _fan_uniform(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform_signed(rows * cols, bound).reshape(rows, cols)


def init_params(cfg: ModelConfig, n_entities: int, n_relations: int, rng: RngStream) -> ModelParams:
    """Symmetric uniform fan-based init; biases zero; u spread over
    [-0.1, 0.1] so the priori path is not born degenerate."""
    cfg.validate()
    f = cfg.conv_map
    rr = cfg.r_w * cfg.r_h
    return ModelParams(
        ent=_fan_uniform(rng, n_entities, cfg.d_e),
        rel=_fan_uniform(rng, n_relations, cfg.d_r),
        attn=AttentionParams(
            a_q=_fan_uniform(rng, cfg.k, cfg.d_e),
            a_k=_fan_uniform(rng, cfg.k, rr),
            a_v=_fan_uniform(rng, 1, rr)[0],
            u=np.linspace(-0.1, 0.1, cfg.m),
            lam=cfg.priori_weight,
        ),
        w_fc=_fan_uniform(rng, f, cfg.d_e),
        b_fc=np.zeros(cfg.d_e),
        w_out=_fan_uniform(rng, cfg.d_e, cfg.d_e),
        b_out=np.zeros(cfg.d_e),
        bn_gamma=np.ones(1),
        bn_beta=np.zeros(1),
        bn_mean=np.zeros(f),
        bn_var=np.ones(f),
    )


def count_parameters(cfg: ModelConfig, n_entities: int, n_relations: int,
                     include_baseline: bool = False) -> int:
    """Exact count of learned scalars (running stats excluded)."""
    rr = cfg.r_w * cfg.r_h
    if include_baseline:
        if cfg.d_r != cfg.d_e:
            raise ConfigError("plain-conv baseline requires d_e == d_r")
        f2 = cfg.n_static * (2 * cfg.d_w - cfg.r_w + 1) * (cfg.d_h - cfg.r_h + 1)
        return (
            n_entities * cfg.d_e
            + n_relations * cfg.d_r
            + cfg.n_static * rr
            + f2 * cfg.d_e
            + cfg.d_e
            + cfg.d_e * cfg.d_e
            + cfg.d_e
            + 2
        )
    return (
        n_entities * cfg.d_e
        + n_relations * cfg.d_r
        + cfg.k * cfg.d_e
        + cfg.k * rr
        + rr
        + cfg.m
        + cfg.conv_map * cfg.d_e
        + cfg.d_e
        + cfg.d_e * cfg.d_e
        + cfg.d_e
        + 2
    )


@dataclass
class ForwardTrace:
    """Everything one backward pass needs, exactly as the forward saw it."""

    h_ids: np.ndarray
    r_ids: np.ndarray
    mode: str
    batch_stats: bool  # True when batch statistics were used for norm
    e_h: np.ndarray  # (B, d_e) raw entity rows
    mask_in: np.ndarray  # (B, d_e)
    plane: np.ndarray  # (B, d_w, d_h) post-dropout
    banks: np.ndarray  # (B, m, r_w, r_h)
    attn: object  # AttentionTrace
    w_mix: np.ndarray  # (B, r_w, r_h)
    conv: np.ndarray  # (B, oh, ow)
    norm_mean: np.ndarray  # (F,) statistics actually used
    norm_var: np.ndarray  # (F,)
    new_running: tuple | None  # (mean, var) to commit after the step
    x_hat: np.ndarray  # (B, F)
    y_bn: np.ndarray  # (B, F)
    mask_feat: np.ndarray  # (B, F)
    a2: np.ndarray  # (B, F) post ReLU+dropout features
    v_out: np.ndarray  # (B, d_e)
    mask_out: np.ndarray  # (B, d_e)
    h1: np.ndarray  # (B, d_e) post dropout+ReLU hidden
    z: np.ndarray  # (B, d_e)
    params_ref: object
    cfg_ref: object


def _dropout(rng_bundle, label, p, shape, training):
    if not training or p == 0.0:
        return np.ones(shape, dtype=np.float64)
    if rng_bundle is None:
        raise ConfigError("train mode with dropout requires an rng bundle")
    n = int(np.prod(shape))
    return dropout_mask(rng_bundle[label], p, n).reshape(shape)


def forward_batch(
    h_ids,
    r_ids,
    params: ModelParams,
    priori: PrioriTable | None,
    cfg: ModelConfig,
    mode: str = "eval",
    rng: dict | None = None,
):
    """Score a batch of (h, r) queries against every entity.

    Returns (logits (B, n_entities), ForwardTrace). Train mode consumes the
    rng bundle for the three dropout sites and normalizes with batch
    statistics unless cfg.bn_frozen; eval mode consumes nothing and uses the
    running statistics, so repeated eval calls are bit-identical.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    if cfg.sigmoid_pre_dot and mode == "train":
        raise ConfigError("sigmoid_pre_dot reproduces the literal scoring formula "
                          "for inspection only; its loss is undefined, so it is eval-only")
    h_ids = np.asarray(h_ids, dtype=np.int64)
    r_ids = np.asarray(r_ids, dtype=np.int64)
    if h_ids.size == 0 or h_ids.shape != r_ids.shape:
        raise DimensionError("need matching, non-empty head and relation id arrays")
    n_entities = params.ent.shape[0]
    if h_ids.min() < 0 or r_ids.min() < 0 or h_ids.max() >= n_entities \
            or r_ids.max() >= params.rel.shape[0]:
        raise DimensionError("entity or relation id out of range")
    if params.ent.shape[1] != cfg.d_e or params.rel.shape[1] != cfg.d_r:
        raise ConfigError("parameter shapes do not match the configuration")
    training = mode == "train"
    b = h_ids.shape[0]

    e_h = params.ent[h_ids]  # (B, d_e)
    mask_in = _dropout(rng, "dropout.in", cfg.dropout_in, (b, cfg.d_e), training)
    plane = (e_h * mask_in).reshape(b, cfg.d_w, cfg.d_h)

    banks = slice_batch(params.rel[r_ids], cfg.m, cfg.r_w, cfg.r_h)
    active = kernel_fraction_mask(cfg, cfg.kernel_fraction)

    if cfg.ablation in ("no_priori", "no_both") or priori is None:
        p_vals = np.zeros(b)
    else:
        p_vals = priori.values(h_ids, r_ids)
    attn_trace = attention_forward(e_h, banks, p_vals, params.attn, active=active)
    if cfg.ablation in ("no_attention", "no_both"):
        # Equal-weight multi-kernel sum: uniform softmax, unit values.
        probs = np.zeros_like(attn_trace.probs)
        probs[:, active] = 1.0 / active.size
        attn_trace.probs = probs
        attn_trace.values = np.ones_like(attn_trace.values)
        attn_trace.alpha = probs.copy()

    # One convolution with the mixed kernel; bilinearity makes this equal to
    # summing the m per-kernel feature maps.
    w_mix = np.einsum("bm,bmwh->bwh", attn_trace.alpha, banks)
    conv = conv2d_batch(plane, w_mix)
    feats = conv.reshape(b, cfg.conv_map)

    use_batch_stats = training and not cfg.bn_frozen
    new_running = None
    if use_batch_stats:
        if b < 2:
            raise DegenerateBatchError(
                "batch statistics need batch size >= 2; freeze the norm for single queries"
            )
        mean = feats.mean(axis=0)
        var = feats.var(axis=0)
        new_running = (
            (1 - BN_MOMENTUM) * params.bn_mean + BN_MOMENTUM * mean,
            (1 - BN_MOMENTUM) * params.bn_var + BN_MOMENTUM * var,
        )
    else:
        mean = params.bn_mean
        var = params.bn_var
    x_hat = (feats - mean) / np.sqrt(var + BN_EPS)
    y_bn = params.bn_gamma[0] * x_hat + params.bn_beta[0]

    a1 = np.maximum(y_bn, 0.0)
    mask_feat = _dropout(rng, "dropout.feat", cfg.dropout_feat, (b, cfg.conv_map), training)
    a2 = a1 * mask_feat

    v_out = a2 @ params.w_fc + params.b_fc
    mask_out = _dropout(rng, "dropout.out", cfg.dropout_out, (b, cfg.d_e), training)
    h1 = np.maximum(v_out * mask_out, 0.0)
    z = h1 @ params.w_out + params.b_out
    if cfg.sigmoid_pre_dot:
        logits = (1.0 / (1.0 + np.exp(-z))) @ params.ent.T
    else:
        logits = z @ params.ent.T
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")

    trace = ForwardTrace(
        h_ids=h_ids,
        r_ids=r_ids,
        mode=mode,
        batch_stats=use_batch_stats,
        e_h=e_h,
        mask_in=mask_in,
        plane=plane,
        banks=banks,
        attn=attn_trace,
        w_mix=w_mix,
        conv=conv,
        norm_mean=mean,
        norm_var=var,
        new_running=new_running,
        x_hat=x_hat,
        y_bn=y_bn,
        mask_feat=mask_feat,
        a2=a2,
        v_out=v_out,
        mask_out=mask_out,
        h1=h1,
        z=z,
        params_ref=params,
        cfg_ref=cfg,
    )
    return logits, trace


def forward_score(h_id, r_id, params, priori, cfg, mode="eval", rng=None):
    """Single-query scoring. Returns (logits (n_entities,), trace)."""
    logits, trace = forward_batch(
        np.array([h_id]), np.array([r_id]), params, priori, cfg, mode=mode, rng=rng
    )
    return logits[0], trace


def backward(trace: ForwardTrace, grad_logits: np.ndarray, params: ModelParams,
             cfg: ModelConfig) -> dict:
    """Exact gradients of a scalar loss given d loss / d logits.

    Covers every learned array: both routes into the relation row (kernel
    values through the convolution, keys/values through the attention), the
    dense 1-N route into the whole entity table plus the head-entity input
    route, and the scalar gamma/beta of the normalization.
    """
    if trace.params_ref is not params or trace.cfg_ref is not cfg:
        raise StateError("trace does not belong to these parameters and configuration")
    if cfg.sigmoid_pre_dot:
        raise ConfigError("no backward for the sigmoid_pre_dot inspection path")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.ndim == 1:
        grad_logits = grad_logits[None]
    if grad_logits.shape != (trace.z.shape[0], params.ent.shape[0]):
        raise DimensionError(f"grad_logits shape {grad_logits.shape} does not match the trace")
    b = grad_logits.shape[0]

    grads = {k: np.zeros_like(v) for k, v in params.named_arrays().items()}

    # (8) logits = z @ ent.T
    g_z = grad_logits @ params.ent  # (B, d_e)
    grads["ent"] += grad_logits.T @ trace.z  # dense 1-N route

    # (7) z = h1 @ w_out + b_out; h1 = relu(v_out * mask_out)
    grads["w_out"] += trace.h1.T @ g_z
    grads["b_out"] += g_z.sum(axis=0)
    g_h1 = g_z @ params.w_out.T
    g_v = g_h1 * (trace.h1 > 0.0) * trace.mask_out

    # (6) v_out = a2 @ w_fc + b_fc
    grads["w_fc"] += trace.a2.T @ g_v
    grads["b_fc"] += g_v.sum(axis=0)
    g_a2 = g_v @ params.w_fc.T

    # (5) a2 = relu(y_bn) * mask_feat
    g_y = g_a2 * trace.mask_feat * (trace.y_bn > 0.0)
    grads["bn_gamma"][0] += np.sum(g_y * trace.x_hat)
    grads["bn_beta"][0] += np.sum(g_y)
    g_xhat = g_y * params.bn_gamma[0]
    inv_std = 1.0 / np.sqrt(trace.norm_var + BN_EPS)
    if trace.batch_stats:
        # Batch statistics couple the examples; standard batch-norm backward.
        g_feats = inv_std * (
            g_xhat
            - g_xhat.mean(axis=0)
            - trace.x_hat * np.mean(g_xhat * trace.x_hat, axis=0)
        )
    else:
        g_feats = g_xhat * inv_std

    # (4) conv with the mixed kernel
    g_conv = g_feats.reshape(trace.conv.shape)
    g_plane, g_wmix = conv2d_batch_backward(trace.plane, trace.w_mix, g_conv)

    # w_mix = sum_i alpha_i * kernel_i
    g_alpha = np.einsum("bwh,bmwh->bm", g_wmix, trace.banks)
    g_banks = trace.attn.alpha[:, :, None, None] * g_wmix[:, None, :, :]

    # (3) attention
    if cfg.ablation in ("no_attention", "no_both"):
        g_e_h_attn = np.zeros_like(trace.e_h)
        g_kappa = np.zeros_like(trace.attn.kappa)
    else:
        g_e_h_attn, g_kappa, attn_grads = attention_weights_backward(trace.attn, g_alpha)
        for name, g in attn_grads.items():
            grads[name] += g

    # (2) kernel slices back to relation rows
    g_banks += g_kappa.reshape(trace.banks.shape)
    g_rel_rows = unslice_batch(g_banks, cfg.m, cfg.r_w, cfg.r_h)
    np.add.at(grads["rel"], trace.r_ids, g_rel_rows)

    # (1) input plane and raw entity rows
    g_e_h = g_plane.reshape(b, cfg.d_e) * trace.mask_in + g_e_h_attn
    np.add.at(grads["ent"], trace.h_ids, g_e_h)
    return grads


def commit_running_stats(params: ModelParams, trace: ForwardTrace) -> None:
    """Fold the batch statistics of a training forward into the params.
    Called between steps by the training loop (single writer)."""
    if trace.new_running is not None:
        params.bn_mean = trace.new_running[0]
        params.bn_var = trace.new_running[1]


@dataclass
class BaselineParams:
    """Plain-convolution baseline: stacked planes, external static kernels."""

    ent: np.ndarray
    rel: np.ndarray
    kernels: np.ndarray  # (n_static, r_w, r_h)
    w_fc: np.ndarray  # (n_static * conv_map2, d_e)
    b_fc: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray

    def named_arrays(self) -> dict:
        return {
            "ent": self.ent,
            "rel": self.rel,
            "kernels": self.kernels,
            "w_fc": self.w_fc,
            "b_fc": self.b_fc,
            "w_out": self.w_out,
            "b_out": self.b_out,
            "bn_gamma": self.bn_gamma,
            "bn_beta": self.bn_beta,
        }


def baseline_conv_shape(cfg: ModelConfig) -> tuple:
    return (2 * cfg.d_w - cfg.r_w + 1, cfg.d_h - cfg.r_h + 1)


def init_baseline_params(cfg, n_entities, n_relations, rng: RngStream) -> BaselineParams:
    cfg.validate()
    if cfg.d_r != cfg.d_e:
        raise ConfigError(
            f"plain convolution stacks the two planes and therefore requires "
            f"d_e == d_r, got d_e={cfg.d_e}, d_r={cfg.d_r}"
        )
    oh, ow = baseline_conv_shape(cfg)
    f2 = cfg.n_static * oh * ow
    rr = cfg.r_w * cfg.r_h
    return BaselineParams(
        ent=_fan_uniform(rng, n_entities, cfg.d_e),
        rel=_fan_uniform(rng, n_relations, cfg.d_r),
        kernels=_fan_uniform(rng, cfg.n_static, rr).reshape(cfg.n_static, cfg.r_w, cfg.r_h),
        w_fc=_fan_uniform(rng, f2, cfg.d_e),
        b_fc=np.zeros(cfg.d_e),
        w_out=_fan_uniform(rng, cfg.d_e, cfg.d_e),
        b_out=np.zeros(cfg.d_e),
        bn_gamma=np.ones(1),
        bn_beta=np.zeros(1),
        bn_mean=np.zeros(f2),
        bn_var=np.ones(f2),
    )


def score_plain_conv(h_id, r_id, params: BaselineParams, cfg: ModelConfig,
                     mode: str = "eval", rng: dict | None = None) -> np.ndarray:
    """Static-kernel reference scorer: stack the entity plane on top of the
    relation plane, convolve with the shared external kernels, then follow
    pipeline steps 5-8. Requires d_e == d_r."""
    if cfg.d_r != cfg.d_e:
        raise ConfigError("plain-conv baseline requires d_e == d_r")
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    training = mode == "train"
    h_id, r_id = int(h_id), int(r_id)
    e_plane = params.ent[h_id].reshape(cfg.d_w, cfg.d_h)
    r_plane = params.rel[r_id].reshape(cfg.d_w, cfg.d_h)
    stacked = np.concatenate([e_plane, r_plane], axis=0)
    mask_in = _dropout(rng, "dropout.in", cfg.dropout_in, stacked.shape, training)
    stacked = stacked * mask_in

    n = cfg.n_static
    maps = conv2d_batch(np.repeat(stacked[None], n, axis=0), params.kernels)
    feats = maps.reshape(-1)

    # Scoring-only reference: normalization always uses the running stats.
    x_hat = (feats - params.bn_mean) / np.sqrt(params.bn_var + BN_EPS)
    y = params.bn_gamma[0] * x_hat + params.bn_beta[0]
    a1 = np.maximum(y, 0.0)
    mask_feat = _dropout(rng, "dropout.feat", cfg.dropout_feat, a1.shape, training)
    v_out = (a1 * mask_feat) @ params.w_fc + params.b_fc
    mask_out = _dropout(rng, "dropout.out", cfg.dropout_out, v_out.shape, training)
    h1 = np.maximum(v_out * mask_out, 0.0)
    z = h1 @ params.w_out + params.b_out
    logits = params.ent @ z
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    return logits

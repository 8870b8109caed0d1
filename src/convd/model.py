"""The dynamic-convolution scorer and its exact analytic backward, its
parameter layout and parameter accounting.

Scoring pipeline for one (head, relation) query:
  1. entity row -> input dropout -> 2D plane (d_w x d_h)
  2. relation row -> m kernel slices (r_w x r_h each)
  3. the first n = cfg.active_kernels kernels are active; attention turns
     the pair into their n contribution weights alpha, its logits
     biased by lambda = cfg.priori_weight (read from the config, never
     stored with the arrays). no_priori runs it with lambda = 0;
     no_attention and no_both run no attention and take alpha_i = 1/n
  4. one valid convolution of the plane with sum_i alpha_i * kernel_i over
     the active kernels (equal, by bilinearity, to summing n per-kernel
     convolutions)
  5. batch norm (scalar gamma/beta, per-feature statistics), ReLU,
     feature dropout on the flattened map
  6. fully connected projection to d_e
  7. output dropout, ReLU, second projection d_e -> d_e
  8. logits = entity_table @ hidden, one score per candidate entity
Steps 1-4 are the dynamic front-end; steps 5-7 are scorer_head. Step 8
runs here at evaluation only: training fuses it into its loss
(training.bce_loss), which applies the sigmoid, and backward starts at
step 7 from the gradients that loss returns.

param_layout is the one statement of which arrays the model holds and
their shapes. The ModelParams container holds them, and init, parameter
counts and the checkpoint format are derived from it.
"""

import functools
import math
import sys
from dataclasses import dataclass, fields
from decimal import Decimal

import numpy as np

from .attention import (
    attention_forward,
    attention_weights_backward,
    slice_batch,
    unslice_batch,
)
from .data import PrioriTable
from .errors import ConfigError, DegenerateBatchError, DimensionError, NumericError
from .numerics import (
    BN_EPS,
    BN_MOMENTUM,
    conv2d_batch,
    conv2d_batch_backward,
    dropout_mask,
    parallel,
)
from .rng import RngStream

ABLATION_MODES = ("full", "no_priori", "no_attention", "no_both")

# Entity rows per task of the 1-N work: the evaluation logits here, and in
# training the fused logits, loss and entity products of
# training.bce_loss, whose loss and g_z are summed in block order. A
# constant, never derived from the worker count, so the partition, and
# with it every byte, is the same at any number of workers. The last block
# takes the remainder (ENTITY_BLOCK to 2 * ENTITY_BLOCK - 1 rows), because
# OpenBLAS computes a product of a few rows with other kernels: with a
# short last block, the logits of its rows differ in the last bits from
# those of the whole product. With every block at least 512 rows, the
# blocked logits equal the whole product byte for byte on OpenBLAS 0.3.31
# at every batch size tried (1 to 512) but 2. Tables of fewer than two
# blocks run one product.
ENTITY_BLOCK = 512


def _entity_blocks(n_entities: int) -> list:
    """(lo, hi) row ranges of the fixed partition: ENTITY_BLOCK rows each,
    the last block with the remainder."""
    starts = [i * ENTITY_BLOCK for i in range(max(n_entities // ENTITY_BLOCK, 1))]
    return list(zip(starts, starts[1:] + [n_entities]))


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

    @property
    def active_kernels(self) -> int:
        """n = ceil(kernel_fraction * m), the fraction read as the decimal it
        prints as: 0.28 of 25 is 7, not 8."""
        return math.ceil(Decimal(repr(float(self.kernel_fraction))) * self.m)

    def validate(self) -> None:
        # Values arrive from JSON, where true is not 1 and 2.5 is not an int:
        # int fields take only int, float fields int or float, bool fields
        # only bool; the other fields take exactly their declared type.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
                # JSON parses NaN, Infinity and ints past the float range.
                if ok and not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            elif f.type is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, f.type)
            if not ok:
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if self.m < 1 or math.isqrt(self.m) ** 2 != self.m:
            raise ConfigError(f"m must be the square of a positive integer, got {self.m}")
        if self.r_w > self.d_w or self.r_h > self.d_h:
            raise ConfigError(
                f"kernel {self.r_w}x{self.r_h} larger than entity plane {self.d_w}x{self.d_h}"
            )
        if min(self.d_w, self.d_h, self.r_w, self.r_h, self.k) < 1:
            raise ConfigError("all dimensions must be positive")
        # Refuse, before anything is allocated, an array whose size the
        # config alone sets and that NumPy cannot index: w_out (d_e x d_e)
        # bounds the plane and w_fc, attn_q is k x d_e, and a relation row
        # holds d_r = m * r_w * r_h values.
        limit = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
        for names, array, size in (("d_w and d_h", "w_out", self.d_e ** 2),
                                   ("k", "attn_q", self.k * self.d_e),
                                   ("m", "rel", self.d_r)):
            if size > limit:
                raise ConfigError(f"{names} too large: {array} would hold {size} values, "
                                  f"more than NumPy can index")
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


RUNNING_STATS = ("bn_mean", "bn_var")


def param_layout(cfg: ModelConfig, n_entities: int, n_relations: int) -> dict:
    """Name -> shape of every stored array, in checkpoint order. The batch-norm
    running statistics (RUNNING_STATS) come last and are not learned."""
    rr = cfg.r_w * cfg.r_h
    return {
        "ent": (n_entities, cfg.d_e),
        "rel": (n_relations, cfg.d_r),
        "attn_q": (cfg.k, cfg.d_e),
        "attn_k": (cfg.k, rr),
        "attn_v": (rr,),
        "attn_u": (cfg.m,),
        "w_fc": (cfg.conv_map, cfg.d_e),
        "b_fc": (cfg.d_e,),
        "w_out": (cfg.d_e, cfg.d_e),
        "b_out": (cfg.d_e,),
        "bn_gamma": (1,),
        "bn_beta": (1,),
        "bn_mean": (cfg.conv_map,),
        "bn_var": (cfg.conv_map,),
    }


class ModelParams:
    """The arrays of param_layout, held as attributes named by the layout,
    in layout order: the learned ones plus the batch-norm running
    statistics.

    gamma/beta are single scalars (one normalized channel); the running
    statistics are per feature of the flattened convolution map.
    """

    def __init__(self, arrays: dict):
        vars(self).update(arrays)

    def named_arrays(self) -> dict:
        """Learned arrays in layout order (live views)."""
        return {k: v for k, v in vars(self).items() if k not in RUNNING_STATS}

    def running_arrays(self) -> dict:
        return {name: getattr(self, name) for name in RUNNING_STATS}

    def with_arrays(self, arrays: dict) -> "ModelParams":
        """New ModelParams around the given learned arrays (stats copied)."""
        return ModelParams({**arrays, **{k: v.copy() for k, v in self.running_arrays().items()}})

    def copy(self) -> "ModelParams":
        return self.with_arrays({k: v.copy() for k, v in self.named_arrays().items()})

    def check_finite(self) -> None:
        for name, arr in vars(self).items():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite values in parameter block {name!r}")


def _fan_uniform(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform_signed(rows * cols, bound).reshape(rows, cols)


def init_params(cfg: ModelConfig, n_entities: int, n_relations: int, rng: RngStream) -> ModelParams:
    """Initial arrays of param_layout, drawn in layout order: u spread over
    [-0.1, 0.1] so the priori path is not born degenerate; gamma and the
    running variance one; biases, beta and the running mean zero; every
    other array symmetric uniform over its fan (first axis, the rest), a
    vector counting as one row."""
    cfg.validate()
    arrays = {}
    for name, shape in param_layout(cfg, n_entities, n_relations).items():
        if name == "attn_u":
            arrays[name] = np.linspace(-0.1, 0.1, shape[0])
        elif name in ("bn_gamma", "bn_var"):
            arrays[name] = np.ones(shape)
        elif name in ("b_fc", "b_out", "bn_beta", "bn_mean"):
            arrays[name] = np.zeros(shape)
        else:
            rows, cols = (1, shape[0]) if len(shape) == 1 else (shape[0], math.prod(shape[1:]))
            arrays[name] = _fan_uniform(rng, rows, cols).reshape(shape)
    return ModelParams(arrays)


def count_parameters(cfg: ModelConfig, n_entities: int, n_relations: int) -> int:
    """Exact count of learned scalars: param_layout without its running
    stats."""
    layout = param_layout(cfg, n_entities, n_relations)
    return sum(math.prod(shape) for name, shape in layout.items() if name not in RUNNING_STATS)


@dataclass
class ForwardTrace:
    """The handle of one forward pass: everything its backward needs,
    exactly as the forward saw it, including the params and config it ran
    on, so backward and commit_running_stats take nothing else."""

    h_ids: np.ndarray
    r_ids: np.ndarray
    mask_in: np.ndarray  # (B, d_e)
    plane: np.ndarray  # (B, d_w, d_h) post-dropout
    banks: np.ndarray  # (B, m, r_w, r_h)
    alpha: np.ndarray  # (B, n) weights of the n active kernels
    attn: object  # AttentionTrace, or None when attention is ablated
    w_mix: np.ndarray  # (B, r_w, r_h)
    conv: np.ndarray  # (B, oh, ow)
    # Steps 5-8, as scorer_head returns them.
    batch_stats: bool  # True when batch statistics were used for norm
    norm_var: np.ndarray  # (F,) variance the norm used
    new_running: tuple | None  # (mean, var) to commit after the step
    x_hat: np.ndarray  # (B, F)
    y_bn: np.ndarray  # (B, F)
    mask_feat: np.ndarray  # (B, F)
    a2: np.ndarray  # (B, F) post ReLU+dropout features
    mask_out: np.ndarray  # (B, d_e)
    h1: np.ndarray  # (B, d_e) post dropout+ReLU hidden
    z: np.ndarray  # (B, d_e)
    params: ModelParams
    cfg: ModelConfig


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
    score: bool = True,
):
    """Score a batch of (h, r) queries against every entity.

    Returns (logits (B, n_entities), ForwardTrace) in eval mode. Train mode
    stops at the query vectors trace.z and returns (None, ForwardTrace):
    training scores them in its fused loss, training.bce_loss. So does eval
    mode with score=False, whose caller scores trace.z itself through
    _score_tasks; that front-end calls no `parallel`. Train mode
    consumes the rng bundle for the three dropout sites and normalizes with
    batch statistics unless cfg.bn_frozen; eval mode consumes nothing and
    uses the running statistics, so repeated eval calls are bit-identical.
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
    n = cfg.active_kernels
    active = banks[:, :n]
    if cfg.ablation in ("no_attention", "no_both"):
        # Equal-weight sum of the active kernels.
        attn_trace = None
        alpha = np.full((b, n), 1.0 / n)
    else:
        if cfg.ablation == "no_priori" or priori is None:
            lam, p_vals = 0.0, np.zeros(b)
        else:
            lam, p_vals = cfg.priori_weight, priori.values(h_ids, r_ids)
        attn_trace = attention_forward(e_h, active, p_vals, params, lam)
        alpha = attn_trace.alpha

    # One convolution with the mixed kernel; bilinearity makes this equal to
    # summing the n per-kernel feature maps.
    w_mix = np.einsum("bm,bmwh->bwh", alpha, active)
    conv = conv2d_batch(plane, w_mix)
    head = scorer_head(conv.reshape(b, cfg.conv_map), params, cfg, training, rng)
    logits = None if training or not score else _score_entities(head["z"], params.ent, cfg)
    trace = ForwardTrace(
        h_ids=h_ids,
        r_ids=r_ids,
        mask_in=mask_in,
        plane=plane,
        banks=banks,
        alpha=alpha,
        attn=attn_trace,
        w_mix=w_mix,
        conv=conv,
        params=params,
        cfg=cfg,
        **head,
    )
    return logits, trace


def scorer_head(feats, params, cfg: ModelConfig, training: bool, rng):
    """Pipeline steps 5-7 over (B, F) convolution features: batch norm ->
    ReLU -> feature dropout -> FC -> output dropout -> ReLU -> FC. Normalizes with batch statistics when training
    and not cfg.bn_frozen, else with the running ones. Returns the
    ForwardTrace fields of these steps, the query vectors z included."""
    batch_stats = training and not cfg.bn_frozen
    new_running = None
    if batch_stats:
        if feats.shape[0] < 2:
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
    mask_feat = _dropout(rng, "dropout.feat", cfg.dropout_feat, feats.shape, training)
    a2 = a1 * mask_feat

    v_out = a2 @ params.w_fc + params.b_fc
    mask_out = _dropout(rng, "dropout.out", cfg.dropout_out, v_out.shape, training)
    h1 = np.maximum(v_out * mask_out, 0.0)
    z = h1 @ params.w_out + params.b_out
    return dict(
        batch_stats=batch_stats, norm_var=var, new_running=new_running,
        x_hat=x_hat, y_bn=y_bn, mask_feat=mask_feat, a2=a2,
        mask_out=mask_out, h1=h1, z=z,
    )


def _score_tasks(z, ent, cfg: ModelConfig, logits: np.ndarray) -> list:
    """Step 8 outside training, as `parallel` tasks that write the
    (B, n_entities) logits of the query vectors z (their sigmoid with
    cfg.sigmoid_pre_dot) against every entity row into `logits`. One task
    per entity block, the last and longest first, so the queue ends on
    short tasks. Each task rejects a non-finite logit of its own block, so
    no (B, n_entities) mask is allocated. The tasks hold `logits` until
    they are dropped."""
    query = 1.0 / (1.0 + np.exp(-z)) if cfg.sigmoid_pre_dot else z

    def score_block(lo, hi):
        block = np.matmul(query, ent[lo:hi].T, out=logits[:, lo:hi])
        if not np.isfinite(block).all():
            raise NumericError("non-finite logits")

    return [functools.partial(score_block, lo, hi)
            for lo, hi in reversed(_entity_blocks(ent.shape[0]))]


def _score_entities(z, ent, cfg: ModelConfig) -> np.ndarray:
    """The logits of _score_tasks, its tasks run by `parallel`; a single
    block runs inline."""
    logits = np.empty((z.shape[0], ent.shape[0]))
    parallel(_score_tasks(z, ent, cfg, logits))
    return logits


def forward_score(h_id, r_id, params, priori, cfg, mode="eval", rng=None):
    """Single-query scoring. Returns (logits (n_entities,), trace), the
    logits None in train mode, as forward_batch's are."""
    logits, trace = forward_batch(
        np.array([h_id]), np.array([r_id]), params, priori, cfg, mode=mode, rng=rng
    )
    return (None if logits is None else logits[0]), trace


def backward(trace: ForwardTrace, g_z: np.ndarray, grad_ent: np.ndarray) -> dict:
    """Exact gradients of a scalar loss, taken at the params and config the
    trace's forward ran on, from step 7 down. g_z (B, d_e) is the loss's
    gradient with respect to the query vectors z, and grad_ent the entity
    table's gradient through the 1-N scores of step 8, as training.bce_loss
    returns them. grad_ent becomes grads["ent"]: the head-entity input
    route (1) is added to it in place.

    Covers every learned array: both routes into the relation row (kernel
    values through the convolution, keys/values through the attention), the
    1-N and head-entity routes into the entity table, and the scalar
    gamma/beta of the normalization.
    """
    params, cfg = trace.params, trace.cfg
    if cfg.sigmoid_pre_dot:
        raise ConfigError("no backward for the sigmoid_pre_dot inspection path")
    if g_z.shape != trace.z.shape or grad_ent.shape != params.ent.shape:
        raise DimensionError(f"gradient shapes {g_z.shape} and {grad_ent.shape} do not "
                             f"match the trace's z {trace.z.shape} and ent {params.ent.shape}")
    b = g_z.shape[0]

    grads = {
        k: grad_ent if k == "ent" else np.zeros_like(v)
        for k, v in params.named_arrays().items()
    }

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

    # w_mix = sum_i alpha_i * kernel_i over the n active kernels
    n = trace.alpha.shape[1]
    active = trace.banks[:, :n]
    g_active = trace.alpha[:, :, None, None] * g_wmix[:, None, :, :]
    # (1) input plane to raw entity rows
    g_e_h = g_plane.reshape(b, cfg.d_e) * trace.mask_in

    # (3) attention, unless ablated: alpha = 1/n then carries no gradient
    if trace.attn is not None:
        g_alpha = np.einsum("bwh,bmwh->bm", g_wmix, active)
        g_e_h_attn, g_kappa, attn_grads = attention_weights_backward(trace.attn, g_alpha)
        for name, g in attn_grads.items():
            grads[name] += g
        g_active += g_kappa.reshape(active.shape)
        g_e_h += g_e_h_attn

    # (2) kernel slices back to relation rows; inactive kernels get none
    g_banks = np.zeros_like(trace.banks)
    g_banks[:, :n] = g_active
    g_rel_rows = unslice_batch(g_banks, cfg.m, cfg.r_w, cfg.r_h)
    np.add.at(grads["rel"], trace.r_ids, g_rel_rows)
    np.add.at(grads["ent"], trace.h_ids, g_e_h)
    return grads


def commit_running_stats(trace: ForwardTrace) -> None:
    """Fold the batch statistics of a training forward into the params it
    ran on. Called between steps by the training loop (single writer)."""
    if trace.new_running is not None:
        trace.params.bn_mean, trace.params.bn_var = trace.new_running


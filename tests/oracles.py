"""Independent straight-line reference implementations used as test oracles.

Deliberately naive: plain Python loops, one statement per step, no code
shared with the package internals. Anything here is slow and only run on
tiny instances.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from convd.errors import (
    ConfigError,
    DegenerateBatchError,
    DimensionError,
    NumericError,
    StateError,
)


def oracle_conv2d(image, kernel):
    """Nested-loop valid cross-correlation."""
    ih, iw = len(image), len(image[0])
    kh, kw = len(kernel), len(kernel[0])
    out = np.zeros((ih - kh + 1, iw - kw + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += image[i + a][j + b] * kernel[a][b]
            out[i, j] = acc
    return out


@dataclass(frozen=True)
class BatchNormState:
    """Scale/shift plus running statistics for one normalized feature."""

    gamma: float = 1.0
    beta: float = 0.0
    running_mean: float = 0.0
    running_var: float = 1.0
    eps: float = 1e-5
    momentum: float = 0.1


def batchnorm_apply(x, state: BatchNormState, mode: str):
    """Per-feature batch norm of a 1D batch of scalars. Returns (y, new_state).

    Train mode uses the batch mean and (biased) variance and folds them into
    the running statistics with the momentum; eval mode uses the running
    statistics and leaves the state untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError("batchnorm_apply expects a 1D batch of values")
    if mode == "train":
        if x.size < 2:
            raise DegenerateBatchError("train-mode batch norm needs batch size >= 2")
        mean = x.mean()
        var = x.var()
        y = state.gamma * (x - mean) / np.sqrt(var + state.eps) + state.beta
        new_state = replace(
            state,
            running_mean=(1 - state.momentum) * state.running_mean + state.momentum * mean,
            running_var=(1 - state.momentum) * state.running_var + state.momentum * var,
        )
        return y, new_state
    if mode == "eval":
        y = (
            state.gamma
            * (x - state.running_mean)
            / np.sqrt(state.running_var + state.eps)
            + state.beta
        )
        return y, state
    raise ValueError(f"unknown batch norm mode {mode!r}")


def oracle_kernel_slices(e_r, m, r_w, r_h):
    """Block slicing by explicit index arithmetic."""
    s = int(math.isqrt(m))
    grid = np.zeros((r_w * s, r_h * s))
    for idx, value in enumerate(e_r):
        grid[idx // (r_h * s), idx % (r_h * s)] = value
    kernels = []
    for br in range(s):
        for bc in range(s):
            block = np.zeros((r_w, r_h))
            for a in range(r_w):
                for b in range(r_h):
                    block[a, b] = grid[br * r_w + a, bc * r_h + b]
            kernels.append(block)
    return kernels


def oracle_attention(e_h, e_r, m, r_w, r_h, a_q, a_k, a_v, u, lam, p_hr):
    """Scalar-by-scalar recomputation of the attention weights."""
    k = a_q.shape[0]
    q = np.zeros(k)
    for i in range(k):
        for j in range(len(e_h)):
            q[i] += a_q[i, j] * e_h[j]
    kernels = oracle_kernel_slices(e_r, m, r_w, r_h)
    logits = np.zeros(m)
    values = np.zeros(m)
    for i in range(m):
        flat = kernels[i].reshape(-1)
        key = np.zeros(k)
        for a in range(k):
            for b in range(len(flat)):
                key[a] += a_k[a, b] * flat[b]
        for b in range(len(flat)):
            values[i] += a_v[b] * flat[b]
        dot = 0.0
        for a in range(k):
            dot += q[a] * key[a]
        logits[i] = dot / math.sqrt(k)
        if lam != 0.0 and not np.all(u == u[0]):
            logits[i] += lam * p_hr * u[i]
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    alpha = probs * values
    return alpha, probs, logits


def oracle_forward(h_id, r_id, arrays, dims, p_hr):
    """Straight-line eval-mode scoring of one query against all entities.

    arrays: dict with ent, rel, attn_q, attn_k, attn_v, attn_u, w_fc, b_fc,
    w_out, b_out, bn_gamma, bn_beta, bn_mean, bn_var.
    dims: dict with d_w, d_h, r_w, r_h, m, lam.
    """
    d_w, d_h = dims["d_w"], dims["d_h"]
    r_w, r_h, m = dims["r_w"], dims["r_h"], dims["m"]
    e_h = arrays["ent"][h_id]
    e_r = arrays["rel"][r_id]
    alpha, _, _ = oracle_attention(
        e_h, e_r, m, r_w, r_h,
        arrays["attn_q"], arrays["attn_k"], arrays["attn_v"], arrays["attn_u"],
        dims["lam"], p_hr,
    )
    plane = np.zeros((d_w, d_h))
    for idx, value in enumerate(e_h):
        plane[idx // d_h, idx % d_h] = value
    kernels = oracle_kernel_slices(e_r, m, r_w, r_h)
    summed = np.zeros((d_w - r_w + 1, d_h - r_h + 1))
    for i in range(m):
        summed += oracle_conv2d(plane, alpha[i] * kernels[i])
    feats = summed.reshape(-1)
    normed = np.zeros_like(feats)
    for f in range(feats.size):
        x_hat = (feats[f] - arrays["bn_mean"][f]) / math.sqrt(arrays["bn_var"][f] + 1e-5)
        normed[f] = arrays["bn_gamma"][0] * x_hat + arrays["bn_beta"][0]
    act = np.maximum(normed, 0.0)
    d_e = d_w * d_h
    v_out = np.zeros(d_e)
    for j in range(d_e):
        total = arrays["b_fc"][j]
        for f in range(act.size):
            total += act[f] * arrays["w_fc"][f, j]
        v_out[j] = total
    hidden = np.maximum(v_out, 0.0)
    z = np.zeros(d_e)
    for j in range(d_e):
        total = arrays["b_out"][j]
        for i in range(d_e):
            total += hidden[i] * arrays["w_out"][i, j]
        z[j] = total
    n_entities = arrays["ent"].shape[0]
    logits = np.zeros(n_entities)
    for e in range(n_entities):
        for j in range(d_e):
            logits[e] += arrays["ent"][e, j] * z[j]
    return logits


def oracle_rank(scores, true_id, filter_out):
    """Sort-based tie-average rank among unfiltered candidates."""
    candidates = [true_id] + [
        e for e in range(len(scores)) if e != true_id and e not in filter_out
    ]
    pairs = sorted(((scores[e], e) for e in candidates), key=lambda p: -p[0])
    positions = [i + 1 for i, (s, e) in enumerate(pairs) if s == scores[true_id]]
    return sum(positions) / len(positions)


def oracle_evaluate(score_fn, store, split):
    """Brute-force filtered evaluation: two queries per original triple,
    each scored on its own.

    Ranks are aggregated tail-direction first, then head-direction, the
    same deterministic reduction order the package uses. `by_direction`
    summarizes each direction's ranks alone.
    """
    base = store.n_base_relations
    tail_ranks = []
    head_ranks = []
    for h, r, t in store.split(split):
        if r >= base:
            continue
        for qh, qr, true_id, bucket in (
            (int(h), int(r), int(t), tail_ranks),
            (int(t), int(r) + base, int(h), head_ranks),
        ):
            known = store.tails_by_query.get((qh, qr), set())
            bucket.append(oracle_rank(score_fn(qh, qr), true_id, known - {true_id}))
    def summary(ranks):
        ranks = np.array(ranks)
        return {
            "mrr": float(np.mean(1.0 / ranks)),
            "hits": {n: float(np.mean(ranks <= n)) for n in (1, 3, 10)},
            "n_queries": len(ranks),
        }

    return {**summary(tail_ranks + head_ranks),
            "by_direction": {"tail": summary(tail_ranks), "head": summary(head_ranks)}}


def constant_scorer_mrr(store, split):
    """Closed-form filtered MRR of a scorer giving every entity one score:
    each query's tie-average rank is (candidates + 1) / 2."""
    if not store.augmented:
        raise StateError("expects a reciprocal-augmented store")
    base = store.n_base_relations
    n = store.n_entities
    rrs = []
    for h, r, t in store.split(split):
        if r >= base:
            continue
        for (qh, qr, true_id) in ((int(h), int(r), int(t)), (int(t), int(r) + base, int(h))):
            known = store.tails_by_query.get((qh, qr), set())
            candidates = n - len(known - {true_id})
            rrs.append(2.0 / (candidates + 1.0))
    return float(np.mean(rrs))


def oracle_load_triples(path, entities=None, relations=None, strict=True):
    """One triple file read one character at a time: a leading byte-order
    mark is dropped; CRLF, a lone CR and LF each end a line; an empty line
    is skipped; any other line must split into three fields on tabs, else
    ValueError(line number). Without `entities` and `relations` the ids are
    the symbols' positions in sorted order; with them, an unseen symbol is
    KeyError(the first, entities before relations) when strict, else the
    unseen ones are appended, sorted. Returns (entities, relations, list of
    (head, relation, tail) id tuples)."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if text[:1] == "\ufeff":
        text = text[1:]
    lines, current, i = [], "", 0
    while i < len(text):
        if text[i] == "\r" or text[i] == "\n":
            lines.append(current)
            current = ""
            if text[i] == "\r" and text[i + 1:i + 2] == "\n":
                i += 1
        else:
            current += text[i]
        i += 1
    lines.append(current)
    rows = []
    for number, line in enumerate(lines, start=1):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(number)
        rows.append(fields)
    seen_e = {s for h, _, t in rows for s in (h, t)}
    seen_r = {r for _, r, _ in rows}
    if entities is None:
        entities, relations = sorted(seen_e), sorted(seen_r)
    else:
        new_e, new_r = sorted(seen_e - set(entities)), sorted(seen_r - set(relations))
        if strict and (new_e or new_r):
            raise KeyError((new_e + new_r)[0])
        entities, relations = entities + new_e, relations + new_r
    ids = [(entities.index(h), relations.index(r), entities.index(t)) for h, r, t in rows]
    return entities, relations, ids


def oracle_tails_index(triples):
    """(head, relation) -> set of tails of an (n, 3) id array, one numpy row
    at a time; keys and tails are Python ints, and a duplicate triple is
    held once."""
    index = {}
    for h, r, t in triples:
        index.setdefault((int(h), int(r)), set()).add(int(t))
    return index


def oracle_pair_counts(triples):
    """(head, relation) -> number of triples of an (n, 3) id array, one
    row at a time; a duplicate triple counts each time."""
    counts = {}
    for h, r, _ in triples.tolist():
        counts[(h, r)] = counts.get((h, r), 0) + 1
    return counts


def oracle_tails_by_query(store):
    """(head, relation) -> tails over every split."""
    return oracle_tails_index(np.concatenate([store.train, store.valid, store.test]))


def oracle_adam_scalar(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-stepped scalar Adam trace."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


def oracle_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam over a list of gradient dicts, a new array per
    operation. Returns the final (params, first moments, second moments)."""
    p = {name: np.array(arr, copy=True) for name, arr in params.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name in p:
            g = grads[name]
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1**t)
            v_hat = v[name] / (1 - beta2**t)
            p[name] = p[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def oracle_smoothed_targets(queries, positives_by_query, label_smoothing, n_entities):
    """Per-row, per-cell loop over the smoothed 1-N target matrix. A tail
    listed twice (a duplicate triple) is one positive cell."""
    out = np.full((len(queries), n_entities), label_smoothing / n_entities)
    for row, q in enumerate(queries):
        for tail in sorted(set(positives_by_query[q])):
            out[row, tail] += 1.0 - label_smoothing
    return out


def oracle_bce(logits, target):
    """Whole-array mean BCE in one-exp softplus form, one pass per operation.
    Returns (loss, grad_logits) with grad = (sigmoid - y)/n."""
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ConfigError(f"logits shape {logits.shape} != target shape {target.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in the loss")
    e = np.exp(-np.abs(logits))
    # y*softplus(-z) + (1-y)*softplus(z) == softplus(z) - y*z
    per_entity = np.maximum(logits, 0.0)
    per_entity += np.log1p(e)
    per_entity -= target * logits
    loss = per_entity.mean()
    grad = np.where(logits >= 0, 1.0, e)
    e += 1.0
    grad /= e
    grad -= target
    # Batched input averages over queries as well, so the gradient scale is
    # the full element count either way.
    grad /= grad.size
    return loss, grad


def oracle_tail(z, ent, target):
    """The dense 1-N route that `training.bce_loss` fuses: the whole logit
    matrix z @ ent.T, oracle_bce against the dense target matrix, and both
    products of its gradient g. Returns (loss, g @ ent, g.T @ z)."""
    loss, grad = oracle_bce(z @ ent.T, target)
    return loss, grad @ ent, grad.T @ z


_M64 = (1 << 64) - 1


def _oracle_splitmix_round(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def oracle_splitmix64(seed, label, counter, n):
    """Words counter .. counter + n - 1 of the stream (seed, label), in
    Python ints mod 2**64: word i is SplitMix64's finalizer of
    key + (i + 1) * golden, and the key is the finalizer of
    (seed ^ fnv1a64(label)) * golden + golden."""
    golden = 0x9E3779B97F4A7C15
    fnv = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        fnv = ((fnv ^ byte) * 0x100000001B3) & _M64
    key = _oracle_splitmix_round((((seed & _M64) ^ fnv) * golden + golden) & _M64)
    words = []
    for i in range(counter, counter + n):
        words.append(_oracle_splitmix_round((key + (i + 1) * golden) & _M64))
    return words

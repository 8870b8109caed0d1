"""Spans recorded from outside convd, by wrapping its public functions.

Each layer function is replaced, where its callers look it up, by a wrapper
that records a span (name, start, end, parent) in memory. Self time is a
span's duration minus the durations of its child spans; calls are single
threaded, so children never overlap. Nothing inside src/convd changes.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict
from unittest import mock

from convd import checkpoint, data, evaluation, model, numerics, rng, training


def _forward_span(args, kwargs):
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "eval")
    return f"model.forward_batch.{mode}"


def _count_targets(counts, args):
    queries, positives_by_query, _, n_entities = args[:4]
    counts["positives"] += sum(len(positives_by_query[q]) for q in queries)
    counts["target_cells"] += len(queries) * n_entities


def _count_filter(counts, args):
    counts["filtered"] += len(args[2])


def _count_adam(counts, args):
    # Adam reads param, grad and both moments and writes param and both
    # moments: seven float64 passes over every learned array.
    counts["adam_bytes"] += 7 * sum(p.nbytes for p in args[0].values())


def _count_logit_flops(counts, args):
    n_entities, d_e = args[2].ent.shape
    counts["logit_flops_per_query"] = 2 * n_entities * d_e


# (span name, owner objects in which callers look the function up,
#  attribute, optional counter hook). Owners listed together share one
# wrapper, so a function bound by name in several modules is traced once.
LAYER_FUNCTIONS = (
    ("data.TripleStore.from_dir", (data.TripleStore,), "from_dir", None),
    ("data.augment_reciprocal", (data,), "augment_reciprocal", None),
    ("data.build_priori", (data, evaluation), "build_priori", None),
    ("data.smoothed_targets_matrix", (data, training), "smoothed_targets_matrix", _count_targets),
    ("data.PrioriTable.values", (data.PrioriTable,), "values", None),
    ("rng.RngStream.uniform", (rng.RngStream,), "uniform", None),
    ("rng.RngStream.permutation", (rng.RngStream,), "permutation", None),
    ("numerics.dropout_mask", (numerics, model), "dropout_mask", None),
    ("numerics.adam_init", (numerics, training), "adam_init", None),
    ("numerics.adam_step", (numerics, training), "adam_step", _count_adam),
    ("kernels.conv2d_batch", (model,), "conv2d_batch", None),
    ("kernels.conv2d_batch_backward", (model,), "conv2d_batch_backward", None),
    ("attention.attention_forward", (model,), "attention_forward", None),
    ("attention.attention_weights_backward", (model,), "attention_weights_backward", None),
    ("model.init_params", (model, training), "init_params", None),
    ("model.forward_batch", (model, training, evaluation), "forward_batch", _count_logit_flops),
    ("model.backward", (model, training), "backward", None),
    ("model.ModelParams.copy", (model.ModelParams,), "copy", None),
    ("training.train", (training,), "train", None),
    ("training.bce_loss", (training,), "bce_loss", None),
    ("evaluation.evaluate", (evaluation,), "evaluate", None),
    ("evaluation.rank_of", (evaluation,), "rank_of", _count_filter),
    ("checkpoint.save_checkpoint", (checkpoint,), "save_checkpoint", None),
    ("checkpoint.load_checkpoint", (checkpoint,), "load_checkpoint", None),
)

# forward_batch is reported per mode, as two spans.
SPAN_NAMES = tuple(
    name
    for entry in LAYER_FUNCTIONS
    for name in (
        (f"{entry[0]}.train", f"{entry[0]}.eval")
        if entry[0] == "model.forward_batch"
        else (entry[0],)
    )
)


def _unwrap(owner, attr):
    """The plain function behind an attribute, and a rewrapper that turns a
    replacement back into the same kind of attribute."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    return raw, lambda fn: fn


class Recorder:
    """Spans and counters of one traced region, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        namer = _forward_span if name == "model.forward_batch" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, args)
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, patches: contextlib.ExitStack) -> None:
        """Wraps every layer function until `patches` closes."""
        for name, owners, attr, hook in LAYER_FUNCTIONS:
            fn, rewrap = _unwrap(owners[0], attr)
            for owner in owners[1:]:
                if owner.__dict__.get(attr) is not owners[0].__dict__[attr]:
                    raise RuntimeError(f"{owner.__name__}.{attr} is no longer {name}")
            wrapped = rewrap(self._wrap(name, fn, hook))
            for owner in owners:
                patches.enter_context(mock.patch.object(owner, attr, wrapped))

    def summary(self) -> dict:
        """Calls and self milliseconds per span name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_ms[name] += (end - start - inner) * 1000.0
        return {"calls": calls, "self_ms": self_ms}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


class StepClock:
    """The one hook of an untraced run: a clock read when each
    training.adam_step call returns. log_fn marks epoch ends, so step
    intervals never span an epoch's evaluation."""

    def __init__(self):
        self.stamps = []

    def install(self, patches: contextlib.ExitStack) -> None:
        step = training.adam_step
        stamps = self.stamps

        @functools.wraps(step)
        def clocked(*args, **kwargs):
            out = step(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        patches.enter_context(mock.patch.object(training, "adam_step", clocked))

    def epoch_end(self) -> None:
        self.stamps.append(None)

    @property
    def steps(self) -> int:
        return sum(s is not None for s in self.stamps)

    def step_ms(self) -> list:
        return [
            (b - a) * 1000.0
            for a, b in zip(self.stamps, self.stamps[1:])
            if a is not None and b is not None
        ]

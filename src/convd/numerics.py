"""Dense numerical primitives: convolution, dropout masks, Adam, a
central-difference gradient oracle, and the thread pool that spreads the
entity-sized work of a step over the process's CPUs.

Everything is 64-bit float. Randomness and optimizer state enter only
through explicit arguments. Adam is the one routine that mutates its
arguments: it updates the parameters and both moments in place.

BLOCK is Adam's block size: it walks its arrays BLOCK elements at a time,
so each block stays in cache across its passes.

`parallel` runs tasks over a partition that never depends on the worker
count: Adam gives each worker a run of whole blocks, and its results do
not depend on the blocking; the 1-N work (the evaluation logits in
model.py and the fused logits, loss and entity products of
training.bce_loss) splits by the fixed model.ENTITY_BLOCK, and the fused
tail adds its per-block loss sums and g_z partials in block order after
the join; the better/tied counts of evaluation.rank_of split by slabs of
whole query rows, each at most a fixed cell count. Parameter bytes
therefore depend on OPENBLAS_NUM_THREADS, the BLAS build and
ENTITY_BLOCK, never on the number of workers. Ranks add up integer
counts, which are exact in any order, so they depend on the logits alone.
Tasks run NumPy calls only, so the GIL is released while they compute.

At most one task of a `parallel` call runs convd's public layer functions,
such as model.forward_batch: a tracer that wraps them keeps one span
stack for the process, so two of them in flight would nest one thread's
spans in another's. evaluation.evaluate's front-end task of the next
chunk is that one task; the scoring and counting tasks beside it call
none. A `parallel` call made inside a task runs its tasks inline, in
order, so nesting never waits on the pool and never moves a byte.
"""

import concurrent.futures
import functools
import os
import threading
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


# Elements per block (512 KiB of float64); each worker takes a block
# through all of its passes before the next. Smaller blocks make two
# workers hand the GIL back and forth between NumPy calls every few
# microseconds: on a 2-CPU host, Adam over the arrays of a 5000 x 200
# entity table took about 8.1 ms at 16,384 elements and 6.5 ms at 65,536.
# Elementwise results do not depend on this size, and the split over
# workers moves only whole blocks.
BLOCK = 65536


@functools.cache
def workers() -> int:
    """CPUs this process may run on, read at the first call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool() -> concurrent.futures.ThreadPoolExecutor:
    """The calling thread runs tasks too, so the pool holds one thread
    fewer than there are CPUs."""
    return concurrent.futures.ThreadPoolExecutor(workers() - 1, thread_name_prefix="convd")


# Set on a thread while _drain runs a task there.
_in_task = threading.local()


def _drain(queue, lock, errors) -> None:
    """Run tasks taken from the shared queue until it is empty, keeping
    each error with its task's index."""
    while True:
        with lock:
            index, task = next(queue, (None, None))
        if task is None:
            return
        _in_task.active = True
        try:
            task()
        except Exception as exc:  # raised by parallel once every task is done
            errors.append((index, exc))
        finally:
            _in_task.active = False


def parallel(tasks) -> None:
    """Run zero-argument callables: inline, in order, with one CPU or one
    task, where the first error ends the run; else the calling thread and
    the pool's threads take them in order from one queue, so a thread that
    finishes early takes the next task, and every task finishes before the
    first error, in task order, is raised: no task still writes when the
    caller sees it.

    A call made from inside a task runs inline, in order, too: queued on
    the pool, its helpers could wait behind the very thread that waits on
    them."""
    if workers() == 1 or len(tasks) == 1 or getattr(_in_task, "active", False):
        for task in tasks:
            task()
        return
    queue, lock, errors = enumerate(tasks), threading.Lock(), []
    helpers = [_pool().submit(_drain, queue, lock, errors)
               for _ in range(min(workers(), len(tasks)) - 1)]
    _drain(queue, lock, errors)
    concurrent.futures.wait(helpers)
    for helper in helpers:
        helper.result()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def block_runs(sizes) -> list:
    """The BLOCK-element blocks (array index, lo, hi) of arrays of the given
    sizes, in order, cut into one contiguous run per worker with about
    equal element counts; one run when there is one worker or fewer than
    two blocks' worth of elements."""
    blocks = [(i, lo, min(lo + BLOCK, size))
              for i, size in enumerate(sizes) for lo in range(0, size, BLOCK)]
    total = sum(sizes)
    n_runs = workers() if total >= 2 * BLOCK else 1
    if n_runs == 1:
        return [blocks]
    runs = [[] for _ in range(n_runs)]
    start = 0
    for block in blocks:
        size = block[2] - block[1]
        # The run whose share of the elements holds the block's midpoint.
        runs[min(n_runs - 1, n_runs * (2 * start + size) // (2 * total))].append(block)
        start += size
    return [run for run in runs if run]


def _flat_view(arr: np.ndarray, name: str) -> np.ndarray:
    if not arr.flags.c_contiguous:
        raise DimensionError(f"adam_step updates {name!r} in place and needs it C-contiguous")
    return arr.reshape(-1)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place on the param arrays and on
    the moments in state. Returns (params, state): the objects it was given.

    The arithmetic and its order are those of the textbook form
    p - lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bytes match it; the
    update runs in blocks of BLOCK elements, each worker's run of blocks
    through two scratch buffers of its own.
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

    def run_blocks(run):
        width = max((hi - lo for _, lo, hi in run), default=0)
        scratch_a = np.empty(width, dtype=np.float64)
        scratch_b = np.empty(width, dtype=np.float64)
        for i, lo, hi in run:
            p_flat, g_flat, m_flat, v_flat = flat[i]
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

    runs = block_runs([entry[0].size for entry in flat])
    parallel([functools.partial(run_blocks, run) for run in runs])
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

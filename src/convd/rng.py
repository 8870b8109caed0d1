"""Deterministic, platform-independent random streams.

Every stochastic feature (init, the three dropout sites, shuffling) draws
from its own named stream derived from the master seed, so turning one
feature off never perturbs the draws of the others. A stream is a pure
counter-based generator: the value at position i depends only on
(master_seed, label, i), which makes replay and cross-platform
reproducibility trivial. The value at position i is SplitMix64's
finalizer of key + (i + 1) * golden_gamma, computed in place so that a
draw holds no temporary the size of its output.
"""

from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a UTF-8 string."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return int(h)


# Words per chunk of `uniform`.
_CHUNK = 65536


def _finalize(x: np.ndarray) -> None:
    """SplitMix64's mixing rounds, in place, through one scratch array."""
    t = np.empty_like(x)
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(x, np.uint64(shift), out=t)
            x ^= t
            x *= mult
        np.right_shift(x, np.uint64(31), out=t)
        x ^= t


@dataclass
class RngStream:
    """Counter-based stream; identical (seed, label, counter) replays identically."""

    master_seed: int
    label: str = "main"
    counter: int = 0
    _key: np.uint64 = field(init=False, repr=False)

    def __post_init__(self):
        seed = np.uint64(self.master_seed & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            key = np.array([(seed ^ np.uint64(fnv1a64(self.label))) * _GOLDEN + _GOLDEN])
        _finalize(key)
        self._key = key[0]

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; advances the counter by n."""
        x = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            x *= _GOLDEN
            x += self._key
        _finalize(x)
        return x

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) with 53-bit resolution, drawn _CHUNK words
        at a time."""
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _CHUNK):
            words = self.raw(min(_CHUNK, n - lo))
            words >>= np.uint64(11)
            chunk = out[lo:lo + words.size]
            chunk[...] = words
            chunk *= 2.0**-53
        return out

    def uniform_signed(self, n: int, bound: float) -> np.ndarray:
        """n uniforms in [-bound, bound)."""
        u = self.uniform(n)
        u *= 2.0
        u -= 1.0
        u *= bound
        return u

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")


def stream_bundle(master_seed: int, labels: tuple[str, ...]) -> dict[str, RngStream]:
    """Independent named streams off one master seed."""
    return {label: RngStream(master_seed, label) for label in labels}

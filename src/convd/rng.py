"""Deterministic, platform-independent random streams.

Every stochastic feature (init, the three dropout sites, shuffling) draws
from its own named stream derived from the master seed, so turning one
feature off never perturbs the draws of the others. A stream is a pure
counter-based generator: the value at position i depends only on
(master_seed, label, i), which makes replay and cross-platform
reproducibility trivial. The generator is SplitMix64 applied to
key + i * golden_gamma.
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


def _finalize(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


@dataclass
class RngStream:
    """Counter-based stream; identical (seed, label, counter) replays identically."""

    master_seed: int
    label: str = "main"
    counter: int = 0
    _key: np.uint64 = field(init=False, repr=False)

    def __post_init__(self):
        seed = np.uint64(self.master_seed & 0xFFFFFFFFFFFFFFFF)
        mixed = seed ^ np.uint64(fnv1a64(self.label))
        with np.errstate(over="ignore"):
            self._key = np.uint64(_finalize(mixed * _GOLDEN + _GOLDEN))

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; advances the counter by n."""
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _finalize(self._key + (idx + np.uint64(1)) * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_signed(self, n: int, bound: float) -> np.ndarray:
        """n uniforms in [-bound, bound)."""
        return (self.uniform(n) * 2.0 - 1.0) * bound

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")


def stream_bundle(master_seed: int, labels: tuple[str, ...]) -> dict[str, RngStream]:
    """Independent named streams off one master seed."""
    return {label: RngStream(master_seed, label) for label in labels}

import functools
import tracemalloc

import numpy as np
import pytest

from convd.rng import RngStream, fnv1a64, stream_bundle

from oracles import oracle_splitmix64

# A seed past 2**63 and a label of two bytes; the sizes sit on and around
# the 65,536-word chunk of `uniform`.
ORACLE_SEED, ORACLE_LABEL = 2**63 + 5, "in"
ORACLE_SIZES = (1, 65535, 65536, 65537, 200003)


@functools.lru_cache(maxsize=None)
def oracle_words(counter):
    return oracle_splitmix64(ORACLE_SEED, ORACLE_LABEL, counter, max(ORACLE_SIZES))


def test_replay_is_exact():
    a = RngStream(123, "init")
    b = RngStream(123, "init")
    assert np.array_equal(a.uniform(100), b.uniform(100))


def test_counter_positions_are_stable():
    a = RngStream(9, "dropout.in")
    first = a.uniform(10)
    b = RngStream(9, "dropout.in", counter=4)
    assert np.array_equal(first[4:], b.uniform(6))


def test_labels_are_independent():
    u1 = RngStream(5, "dropout.in").uniform(50)
    u2 = RngStream(5, "dropout.feat").uniform(50)
    assert not np.array_equal(u1, u2)
    # Crude independence check: no shared values at all.
    assert len(set(u1) & set(u2)) == 0


def test_uniform_range_and_spread():
    u = RngStream(31, "x").uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_signed_bound():
    u = RngStream(2, "x").uniform_signed(1000, 0.25)
    assert np.all(u >= -0.25) and np.all(u < 0.25)


def test_permutation_is_deterministic_permutation():
    p1 = RngStream(77, "shuffle").permutation(128)
    p2 = RngStream(77, "shuffle").permutation(128)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(128))


def test_different_seeds_differ():
    assert not np.array_equal(
        RngStream(1, "init").uniform(20), RngStream(2, "init").uniform(20)
    )


def test_fnv1a64_known_value():
    # FNV-1a test vector: empty string hashes to the offset basis.
    assert fnv1a64("") == 0xCBF29CE484222325


def test_stream_bundle_labels():
    bundle = stream_bundle(4, ("a", "b"))
    assert set(bundle) == {"a", "b"}
    assert bundle["a"].label == "a"


@pytest.mark.parametrize("counter", [0, 65530])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_draws_match_the_splitmix64_oracle_bit_for_bit(n, counter):
    words = oracle_words(counter)[:n]
    stream = lambda: RngStream(ORACLE_SEED, ORACLE_LABEL, counter)
    assert stream().raw(n).tolist() == words
    uniform = [(w >> 11) * 2.0**-53 for w in words]
    assert stream().uniform(n).tolist() == uniform
    assert stream().uniform_signed(n, 0.3).tolist() == [(u * 2.0 - 1.0) * 0.3 for u in uniform]


def test_uniform_signed_holds_no_draw_sized_temporary():
    # The 10**6 draws are 8 MB; beyond them only one chunk's words and
    # their scratch array are alive.
    tracemalloc.start()
    try:
        RngStream(1, "x").uniform_signed(10**6, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8e6, peak

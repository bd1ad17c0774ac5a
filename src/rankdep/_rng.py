"""Keyed random streams.

Every random draw in the package comes from a Philox generator whose key is
derived by mixing a user seed with integer context labels (replicate index,
column index, purpose tag).  Streams with different labels are independent,
and the same labels always reproduce the same stream regardless of how work
is split across threads.

generator() defines a stream.  keyed_permutations() draws many keyed
permutations from one Philox that it re-keys before each row, with the same
keys and so the same draws, without building a generator per row.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit wrapping)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix_key(*parts: int) -> int:
    """Fold integer labels into a single 64-bit Philox key."""
    state = 0x6A09E667F3BCC909
    for p in parts:
        state = splitmix64(state ^ (int(p) & _MASK))
    return state


def generator(*parts: int) -> np.random.Generator:
    """Philox generator keyed by the given labels."""
    return np.random.Generator(np.random.Philox(key=mix_key(*parts)))


def splitmix64_array(base: int, idx: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 of ``base ^ idx`` for an int array ``idx``."""
    with np.errstate(over="ignore"):
        z = (np.uint64(base) ^ idx.astype(np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def keyed_permutations(n: int, keys: np.ndarray) -> np.ndarray:
    """(len(keys), n) int64; row c equals Philox(key=keys[c])'s Generator.permutation(n).

    The Philox is built per call, not per module, so concurrent callers stay
    independent.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter zero, empty buffer: where Philox(key=k) starts
    key = fresh["state"]["key"]
    out = np.empty((len(keys), n), dtype=np.int64)
    for c, k in enumerate(keys):
        key[0] = k
        bitgen.state = fresh
        out[c] = gen.permutation(n)
    return out

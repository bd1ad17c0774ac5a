"""Keyed random streams.

Every random draw in the package is a function of a user seed mixed with
integer context labels (replicate index, column index, purpose tag).
Streams with different labels are independent, and the same labels always
reproduce the same stream regardless of how work is split across threads.

generator() defines a Philox stream for continuous draws.  key_grid() gives
the splitmix64 keys that permutations and tie-breaks sort: base b, column c,
row i hashes to splitmix64(splitmix64(b ^ c) ^ i).  splitmix64 is a
bijection, so the keys within a column are distinct and any sort orders them
the same way.
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
    """Fold integer labels into a single 64-bit key."""
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


def key_grid(bases, m: int, n: int) -> np.ndarray:
    """(len(bases), m, n) uint64; [b, c, i] = splitmix64(splitmix64(bases[b] ^ c) ^ i).

    With base mix_key(*parts), column c's keys are those of mix_key(*parts, c).
    """
    columns = splitmix64_array(np.array(bases, dtype=np.uint64)[:, None], np.arange(m))
    return splitmix64_array(columns[:, :, None], np.arange(n))

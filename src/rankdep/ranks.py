"""Column ranking of a numeric data matrix.

Ranks are 1-based and each column of a ranked matrix is a permutation of
1..n.  Downstream statistics consume only these ranks, which is what makes
the tests invariant under strictly increasing transformations of each
variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import TiesPresent


class Reject:
    """Tie policy: raise TiesPresent when a column contains duplicates."""

    def __repr__(self) -> str:
        return "Reject"


@dataclass(frozen=True)
class JitterWithSeed:
    """Tie policy: break ties by a keyed hash of the row index.

    Tied values are ordered by splitmix64(seed, column, row), so the result
    is deterministic given the seed and does not depend on thread count or
    on the order in which columns are processed.
    """

    seed: int


REJECT = Reject()

TiePolicy = Reject | JitterWithSeed


@dataclass(frozen=True)
class RankMatrix:
    """n x m matrix whose columns are permutations of 1..n."""

    ranks: np.ndarray  # int64, shape (n, m)

    def __post_init__(self):
        r = self.ranks
        if r.ndim != 2:
            raise ValueError("rank matrix must be 2-dimensional")
        n = r.shape[0]
        bad = (np.sort(r, axis=0) != np.arange(1, n + 1)[:, None]).any(axis=0)
        if bad.any():
            raise ValueError(f"column {int(np.argmax(bad))} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def m(self) -> int:
        return self.ranks.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.ranks[:, j]


def _as_matrix(data) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data must be a 2-dimensional array")
    n, m = x.shape
    if n < 2:
        raise ValueError("need at least 2 rows")
    if m < 2:
        raise ValueError("need at least 2 columns")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite values")
    return x


def detect_ties(data) -> list[tuple[int, float]]:
    """List (column, value) for every value duplicated within a column."""
    x = _as_matrix(data)
    out = []
    for j in range(x.shape[1]):
        vals, counts = np.unique(x[:, j], return_counts=True)
        for v in vals[counts > 1]:
            out.append((j, float(v)))
    return out


def compute_ranks(data, tie_policy: TiePolicy = REJECT) -> RankMatrix:
    """Rank each column of ``data``; ties handled per ``tie_policy``."""
    x = _as_matrix(data)
    n, m = x.shape
    ranks = np.empty((n, m), dtype=np.int64)
    rows = np.arange(n)
    for j in range(m):
        col = x[:, j]
        if isinstance(tie_policy, JitterWithSeed):
            keys = _rng.splitmix64_array(_rng.mix_key(tie_policy.seed, j), rows)
            order = np.lexsort((keys, col))
        else:
            vals, counts = np.unique(col, return_counts=True)
            dup = counts > 1
            if dup.any():
                raise TiesPresent(j, float(vals[dup][0]))
            order = np.argsort(col, kind="stable")
        ranks[order, j] = rows + 1
    return RankMatrix(ranks)

"""Column ranking of a numeric data matrix.

Ranks are 1-based and each column of a ranked matrix is a permutation of
1..n.  Downstream statistics consume only these ranks, which is what makes
the tests invariant under strictly increasing transformations of each
variable.

One sort of the (m, n) transpose ranks all columns and finds their ties: equal
neighbours in a sorted column, reported with the value in the earlier row.
TiesPresent names the first tied column and its smallest tied value.
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

    Tied values are ordered by _rng.key_grid's splitmix64 hash of (seed,
    column, row) with base mix_key(seed), so the result is deterministic
    given the seed and does not depend on thread count or on the order in
    which columns are processed.
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


def _sort_columns(x: np.ndarray, tie_policy: TiePolicy) -> tuple[np.ndarray, list]:
    """(order, ties) of the columns of ``x``, from one sort of its transpose.

    order[j] lists column j's rows in rank order.  ties lists (column, value)
    once per value repeated in a column; under JitterWithSeed there are none.
    """
    xt = np.ascontiguousarray(x.T)
    if isinstance(tie_policy, JitterWithSeed):
        return np.lexsort((_rng.key_grid([_rng.mix_key(tie_policy.seed)], *xt.shape)[0], xt)), []
    order = np.argsort(xt, axis=1, kind="stable")
    s = np.take_along_axis(xt, order, axis=1)
    first = s[:, 1:] == s[:, :-1]
    first[:, 1:] &= ~first[:, :-1]  # keep the first pair of each run of equal values
    cols, pos = np.nonzero(first)
    return order, [(int(j), float(v)) for j, v in zip(cols, s[cols, pos])]


def detect_ties(data) -> list[tuple[int, float]]:
    """List (column, value) for every value duplicated within a column."""
    return _sort_columns(_as_matrix(data), REJECT)[1]


def compute_ranks(data, tie_policy: TiePolicy = REJECT) -> RankMatrix:
    """Rank each column of ``data``; ties handled per ``tie_policy``."""
    order, ties = _sort_columns(_as_matrix(data), tie_policy)
    if ties:
        raise TiesPresent(*ties[0])
    ranks = np.empty(order.shape[::-1], dtype=np.int64)
    ranks[order.T, np.arange(len(order))] = np.arange(1, order.shape[1] + 1)[:, None]
    return RankMatrix(ranks)

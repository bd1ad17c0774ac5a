"""Calibration: asymptotic p-values and Monte Carlo permutation nulls.

Rescaled S, T, and Z statistics are compared against the upper tail of the
standard normal.  S_MAX_TAU uses its extreme-value limit: with
t = (9n/4) s^2 - 4 log m + log log m, the null distribution of t converges
to F(t) = exp(-exp(-t/2) / sqrt(8 pi)).

The Monte Carlo path draws `reps` independent permutation datasets (each
column the argsort of its own splitmix64 keys, keyed by (seed, replicate,
column)), evaluates the raw statistic on each, and uses the add-one estimator
p = (1 + #{null >= observed}) / (reps + 1).  Replicates run in batches: one
(depth, n, m) stack of consecutive replicates at a time, as many as
pairwise.stack_depth fits in its byte budget, drawn by one argsort of their
key grid and passed through the pair stage together.  Every value is
exact-integer up to one rounding and each replicate is reduced on its own,
so a table does not depend on the batches or on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _rng
from .aggregate import StatisticId, check_sample_size, rescale_factor, stacked_raw_statistics
from .errors import ConfigError, DomainError, SampleTooSmall
from .pairwise import stack_depth
from .ranks import RankMatrix


class Asymptotic:
    """Calibration method: limiting normal / Gumbel distribution."""

    def __repr__(self) -> str:
        return "Asymptotic"


ASYMPTOTIC = Asymptotic()


@dataclass(frozen=True)
class MonteCarlo:
    """Calibration method: permutation null with `reps` replicates."""

    reps: int
    seed: int

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError(f"reps must be positive, got {self.reps}")


Method = Asymptotic | MonteCarlo

_SQRT_8PI = math.sqrt(8.0 * math.pi)


def normal_pvalue(z: float) -> float:
    """Upper-tail standard normal probability, abs error below 1e-10."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gumbel_max_pvalue(s_max: float, n: int, m: int) -> float:
    """Upper-tail p-value of the max-|tau| statistic under its Gumbel limit."""
    if m < 3:
        raise DomainError(f"gumbel calibration needs m >= 3, got {m}")
    if n < 2:
        raise DomainError(f"gumbel calibration needs n >= 2, got {n}")
    if not 0.0 <= s_max <= 1.0:
        raise DomainError(f"max-|tau| must lie in [0, 1], got {s_max}")
    t = 2.25 * n * s_max * s_max - 4.0 * math.log(m) + math.log(math.log(m))
    return -math.expm1(-math.exp(-t / 2.0) / _SQRT_8PI)


# --------------------------------------------------------------- null tables

@dataclass(frozen=True)
class NullTable:
    """Sorted raw-statistic values from the permutation null."""

    statistic: StatisticId
    n: int
    m: int
    reps: int
    seed: int
    values: np.ndarray  # float64, ascending

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantile level must be in [0, 1], got {q}")
        idx = min(self.reps - 1, max(0, math.ceil(q * self.reps) - 1))
        return float(self.values[idx])


def _permutation_stack(n: int, m: int, seed: int, replicates: range) -> np.ndarray:
    """(depth, n, m) stack of permutation_ranks(n, m, seed, r).ranks for r in
    replicates, unchecked: its columns are permutations by construction."""
    cols = np.argsort(_rng.key_grid([_rng.mix_key(seed, r) for r in replicates], m, n), axis=-1)
    cols += 1
    return cols.astype(np.int64, copy=False).transpose(0, 2, 1)


def permutation_ranks(n: int, m: int, seed: int, replicate: int) -> RankMatrix:
    """Independent uniform rank columns, keyed by (seed, replicate, column).

    Column c is 1 + the argsort over rows i of
    splitmix64(splitmix64(mix_key(seed, replicate) ^ c) ^ i), the grid of
    _rng.key_grid; the Monte Carlo null sorts one grid per batch.
    """
    return RankMatrix(_permutation_stack(n, m, seed, range(replicate, replicate + 1))[0])


def montecarlo_nulls(
    statistics,
    n: int,
    m: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> list[NullTable]:
    """Null tables of several statistics from one pass over `reps` keyed datasets.

    Each permutation dataset is drawn once and all statistics are evaluated
    on it together, so table i equals montecarlo_null(statistics[i], ...).
    Replicates run in batches of consecutive ones, each batch one stack
    through stacked_raw_statistics, on the calling thread; ``threads`` is
    checked and selects nothing.  Replicate r's value equals
    raw_statistics(permutation_ranks(n, m, seed, r), ...) bitwise.  s_pearson,
    which reads data, has no permutation null.
    """
    stats = list(statistics)
    if reps < 1:
        raise ConfigError(f"reps must be positive, got {reps}")
    if m < 2:
        raise ConfigError(f"need m >= 2 columns, got {m}")
    check_sample_size(stats, n)
    for statistic in stats:
        if not statistic.kind.permutation_null:
            raise ConfigError(f"{statistic.name} supports only asymptotic calibration")
    depth = min(reps, stack_depth(n, m))
    raws = [[] for _ in stats]
    for lo in range(0, reps, depth):
        stack = _permutation_stack(n, m, seed, range(lo, min(reps, lo + depth)))
        for acc, row in zip(raws, stacked_raw_statistics(stack, stats, threads)):
            acc.extend(row)
    vals = np.sort(np.array(raws, dtype=np.float64).reshape(len(stats), reps), axis=1)
    return [
        NullTable(statistic=statistic, n=n, m=m, reps=reps, seed=seed, values=values)
        for statistic, values in zip(stats, vals)
    ]


def montecarlo_null(
    statistic: StatisticId,
    n: int,
    m: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> NullTable:
    """Evaluate the raw statistic on `reps` keyed permutation datasets."""
    return montecarlo_nulls([statistic], n, m, reps, seed, threads)[0]


# ------------------------------------------------------------------ test run

@dataclass(frozen=True)
class TestResult:
    """One statistic's test; its fields, in order, are the report's keys."""

    statistic: StatisticId
    raw: float
    rescaled: float
    p_value: float
    reject: bool
    n: int
    m: int
    method: str  # "asymptotic" or "montecarlo"
    seed: int | None  # Monte Carlo only
    alpha: float
    reps: int | None  # Monte Carlo only

    def to_dict(self) -> dict:
        """The fields in order, with the statistic's name in place of its StatisticId."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"statistic": self.statistic.name}


def stacked_tests(
    stack: np.ndarray,
    statistics,
    alpha: float = 0.05,
    method: Method = ASYMPTOTIC,
    threads: int = 1,
    null_tables=None,
    data=None,
) -> list[list[TestResult]]:
    """Full pipeline for several statistics on each matrix of a (depth, n, m) rank stack
    and the data stack it came from (read by s_pearson only): one list per matrix, each
    equal to run_tests on that matrix alone.  The checks run once per stack, the raw
    values come from one stacked_raw_statistics call and, for Monte Carlo, the tables
    from one montecarlo_nulls pass (unless `null_tables` gives one table per statistic,
    drawn with the method's reps and seed; tables need a MonteCarlo method)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    stats = list(statistics)
    depth, n, m = stack.shape
    montecarlo = isinstance(method, MonteCarlo)
    if null_tables is not None and not montecarlo:
        raise ConfigError(f"null tables need method MonteCarlo, got {method!r}")
    for statistic in stats:
        if not montecarlo and statistic.kind.limit == "gumbel" and m < 3:
            raise SampleTooSmall(f"{statistic.name}'s Gumbel limit needs m >= 3, got {m}")
    raws = stacked_raw_statistics(stack, stats, threads, data)
    factors = [rescale_factor(statistic, n, m) for statistic in stats]
    tables = [None] * len(stats)
    if montecarlo:
        if null_tables is None:
            tables = montecarlo_nulls(stats, n, m, method.reps, method.seed, threads)
        else:
            tables = list(null_tables)
            keys = [(t.statistic, t.n, t.m, t.reps, t.seed) for t in tables]
            if keys != [(statistic, n, m, method.reps, method.seed) for statistic in stats]:
                raise ConfigError("provided null table does not match this test")
    shared = dict(n=n, m=m, method="asymptotic", seed=None, alpha=alpha, reps=None)
    if montecarlo:
        shared.update(method="montecarlo", seed=method.seed, reps=method.reps)
    results = [[] for _ in range(depth)]
    for statistic, column, factor, table in zip(stats, raws, factors, tables):
        for row, raw in zip(results, column):
            if table is not None:
                p = (1 + int(np.count_nonzero(table.values >= raw))) / (table.reps + 1)
            elif statistic.kind.limit == "gumbel":
                p = gumbel_max_pvalue(raw, n, m)
            else:
                p = normal_pvalue(raw * factor)
            row.append(TestResult(statistic, raw, raw * factor, p, p <= alpha, **shared))
    return results


def run_tests(
    ranks: RankMatrix,
    statistics,
    alpha: float = 0.05,
    method: Method = ASYMPTOTIC,
    threads: int = 1,
    null_tables=None,
    data=None,
) -> list[TestResult]:
    """Full pipeline for several statistics on one rank matrix and the data it came
    from: stacked_tests on a stack of one.  Result i equals run_test for statistics[i]."""
    stack = None if data is None else np.asarray(data)[None]
    return stacked_tests(ranks.ranks[None], statistics, alpha, method, threads, null_tables, stack)[0]


def run_test(
    ranks: RankMatrix,
    statistic: StatisticId,
    alpha: float = 0.05,
    method: Method = ASYMPTOTIC,
    null_table: NullTable | None = None,
) -> TestResult:
    """Full pipeline on a rank matrix: raw value, rescaling, p-value, decision."""
    tables = None if null_table is None else [null_table]
    return run_tests(ranks, [statistic], alpha, method, null_tables=tables)[0]

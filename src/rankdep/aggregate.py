"""Aggregate test statistics over all column pairs, and their rescaling.

Three families aggregate a pairwise statistic U_pq or W_pq over the
m(m-1)/2 pairs:

  S   sum of squared U-statistics, centered at its exact null mean
  T   sum of W-statistics (exactly unbiased for the squared signal)
  Z   plain sum of U-statistics (one-sided, positive association)

plus three specials: S_RHO_S, the centered sum of squared classical Spearman
correlations, S_PEARSON, the same on the data's Pearson correlations (Schott
2005's baseline), and S_MAX_TAU, the maximum absolute Kendall tau.

Each StatKind member is one row of facts, and every per-kind rule reads it:
whether the kind takes a kernel, the pair value it reads (U or W of its
kernel, or of tau if it takes none; None for a correlation matrix), its
minimum n in degrees of that kernel, its reducer, its limit, and whether it
has a permutation null.  rescale_factor(statistic, n, m) is the factor that
makes a raw statistic converge to a standard normal (1 for S_MAX_TAU, which
stays on the Gumbel scale).  The factors depend on the kernel degeneracy
order d and the constants zeta_d and eta, all derived from the stamped
covariance ladder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateColumn, SampleTooSmall, UnknownConstant
from .kernels import KernelId, mu_h_exact
from .pairwise import _upper, stacked_pair_values, stacked_spearman
from .ranks import RankMatrix


@enum.unique
class StatKind(enum.Enum):
    """One row of facts per kind: whether it takes a kernel, the pair value it reads,
    its minimum n, its reducer, its limit, and whether it has a permutation null."""

    S = (True, "U", 2, "squares", "normal", True)
    T = (True, "W", 2, "sum", "normal", True)
    Z = (True, "U", 1, "sum", "normal", True)
    S_RHO_S = (False, None, 1, "squares", "normal", True)
    S_PEARSON = (False, None, 1, "squares", "normal", False)  # reads the data, not ranks
    S_MAX_TAU = (False, "U", 1, "max", "gumbel", True)

    def __init__(self, takes_kernel, reads, degrees, reducer, limit, permutation_null):
        self.takes_kernel = takes_kernel
        self.reads = reads  # U or W of the kernel (tau without one); None: correlations
        self.degrees = degrees  # minimum n, in degrees of that kernel
        self.reducer = reducer  # squares less their null mean, sum, or max |.|
        self.limit = limit
        self.permutation_null = permutation_null


@dataclass(frozen=True)
class StatisticId:
    kind: StatKind
    kernel: KernelId | None = None

    def __post_init__(self):
        needs_kernel = self.kind.takes_kernel
        if needs_kernel != (self.kernel is not None):
            raise ConfigError(f"{self.kind.name} statistic {'needs a' if needs_kernel else 'takes no'} kernel")

    @property
    def name(self) -> str:
        for name, sid in NAMED_STATISTICS.items():
            if sid == self:
                return name
        kern = self.kernel.key if self.kernel else ""
        return f"{self.kind.name.lower()}_{kern}"

    def __str__(self) -> str:
        return self.name


NAMED_STATISTICS: dict[str, StatisticId] = {
    "s_tau": StatisticId(StatKind.S, KernelId.TAU),
    "t_tau": StatisticId(StatKind.T, KernelId.TAU),
    "z_tau": StatisticId(StatKind.Z, KernelId.TAU),
    "s_rho_hat": StatisticId(StatKind.S, KernelId.RHO_HAT),
    "t_rho_hat": StatisticId(StatKind.T, KernelId.RHO_HAT),
    "z_rho_hat": StatisticId(StatKind.Z, KernelId.RHO_HAT),
    "s_d": StatisticId(StatKind.S, KernelId.HOEFF_D),
    "z_d": StatisticId(StatKind.Z, KernelId.HOEFF_D),
    "s_tstar": StatisticId(StatKind.S, KernelId.T_STAR),
    "t_tstar": StatisticId(StatKind.T, KernelId.T_STAR),
    "z_tstar": StatisticId(StatKind.Z, KernelId.T_STAR),
    "s_rho_s": StatisticId(StatKind.S_RHO_S),
    "s_pearson": StatisticId(StatKind.S_PEARSON),
    "s_max_tau": StatisticId(StatKind.S_MAX_TAU),
}


def statistic_from_name(name: str) -> StatisticId:
    try:
        return NAMED_STATISTICS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_STATISTICS))
        raise ConfigError(f"unknown statistic {name!r}; known: {known}") from None


def min_sample_size(statistic: StatisticId) -> int:
    return statistic.kind.degrees * (statistic.kernel or KernelId.TAU).degree


def check_sample_size(statistics, n: int) -> None:
    """Raise SampleTooSmall unless n meets every statistic's min_sample_size."""
    for statistic in statistics:
        need = min_sample_size(statistic)
        if n < need:
            raise SampleTooSmall(f"{statistic.name} needs n >= {need}, got {n}")


# ------------------------------------------------------------- raw statistics

def _reduce(statistic: StatisticId, values: np.ndarray, n: int, m: int) -> list[float]:
    """The raw statistic of each row of (depth, C(m,2)) pair values, by the kind's
    reducer: the fsum of the squares less C(m,2) times the null mean of one square
    (the kernel's, or 1/(n-1) for a correlation), the fsum, or the largest |value|."""
    reducer = statistic.kind.reducer
    if reducer == "max":
        return np.abs(values).max(axis=1).tolist()
    if reducer == "squares":
        mean = Fraction(1, n - 1) if statistic.kernel is None else mu_h_exact(statistic.kernel, n)
        center = float(math.comb(m, 2) * mean)
        return [math.fsum(row.tolist()) - center for row in values * values]
    return [math.fsum(row.tolist()) for row in values]


def pair_requirement(statistic: StatisticId) -> tuple[KernelId, str] | None:
    """Which pair-stage result a statistic consumes (None: Spearman's or Pearson's rho)."""
    reads = statistic.kind.reads
    return None if reads is None else (statistic.kernel or KernelId.TAU, reads)


def _correlations(statistic: StatisticId, stack: np.ndarray, data) -> np.ndarray:
    """(depth, C(m,2)) correlations: Spearman's of a rank stack, or, for the kind
    without a permutation null, Pearson's of the data the ranks came from."""
    if statistic.kind.permutation_null:
        return stacked_spearman(stack)
    if data is None or np.shape(data) != stack.shape:
        raise ConfigError("s_pearson needs the data matrix the ranks came from")
    with np.errstate(all="ignore"):
        r = np.array([np.corrcoef(x, rowvar=False) for x in data])
    bad = ~np.isfinite(r)
    if bad.any():  # in the first such matrix, a degenerate column's whole row is NaN
        column = int(np.argmax(bad[np.argmax(bad.any(axis=(1, 2)))].sum(axis=1)))
        raise DegenerateColumn(f"{statistic.name} is undefined: column {column} has zero or non-finite variance")
    return _upper(r)


def stacked_raw_statistics(stack: np.ndarray, statistics, threads: int = 1, data=None) -> list[list[float]]:
    """Raw (unrescaled) values of several statistics on each matrix of a
    (depth, n, m) stack of rank matrices: one list of depth values per statistic.
    ``data``, the (depth, n, m) stack the ranks came from, is read by s_pearson only.

    Statistics are grouped by pair_requirement, and one stacked_pair_values call
    computes each pair result once for the whole stack; ``threads`` is passed
    on to its check.  Each matrix's values are reduced on their own, so they do
    not depend on the stack they came in.
    """
    stats = list(statistics)
    depth, n, m = stack.shape
    check_sample_size(stats, n)
    pairs = stacked_pair_values(stack, {pair_requirement(s) for s in stats} - {None}, threads)
    raws = []
    for statistic in stats:
        req = pair_requirement(statistic)
        raws.append(_reduce(statistic, _correlations(statistic, stack, data) if req is None else pairs[req], n, m))
    return raws


def raw_statistics(ranks: RankMatrix, statistics, threads: int = 1, data=None) -> list[float]:
    """Raw values of several statistics on one rank matrix and the data it came from:
    stacked_raw_statistics on a stack of one.  Values equal raw_statistic's one by one."""
    stack = None if data is None else np.asarray(data)[None]
    return [row[0] for row in stacked_raw_statistics(ranks.ranks[None], statistics, threads, stack)]


def raw_statistic(ranks: RankMatrix, statistic: StatisticId) -> float:
    """Compute the raw (unrescaled) aggregate statistic on a rank matrix."""
    return raw_statistics(ranks, [statistic])[0]


# ----------------------------------------------------------------- rescaling

def limit_family(statistic: StatisticId) -> str:
    return statistic.kind.limit


def rescale_factor(statistic: StatisticId, n: int, m: int) -> float:
    """The factor that scales a raw statistic onto its limiting (normal or Gumbel) scale."""
    from . import constants

    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    if statistic.kind.limit == "gumbel":
        return 1.0  # the Gumbel p-value reads the raw maximum
    if statistic.kernel is None:
        return n / m
    kc = constants.get().kernel(statistic.kernel)
    k, d, zeta_d = statistic.kernel.degree, kc.d, kc.zeta_d
    kind = statistic.kind
    if d == 1:
        if kind is StatKind.Z:
            return math.sqrt(2 * n) / (k * m * math.sqrt(float(zeta_d)))
        return float(Fraction(n, k * k * m) / zeta_d)
    if d == 2:
        ck2 = math.comb(k, 2)
        if kind is StatKind.Z:
            return n / (ck2 * m * math.sqrt(float(zeta_d)))
        mult = 6 if kind is StatKind.S else 2
        radical = math.sqrt(float(zeta_d * zeta_d + mult * kc.eta))
        return n * n / (ck2 * ck2 * 2 * m * radical)
    raise UnknownConstant(f"no rescaling for degeneracy order {d}")

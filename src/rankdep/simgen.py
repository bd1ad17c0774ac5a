"""Scenario generators and the size/power simulation harness.

Data families:

  mvn                multivariate normal with the chosen scatter
  mvt                multivariate t (one chi-square divisor per row)
  iid-null           independent location-shifted t3 margins (exact null)
  contaminated-mvn   mvn with a fraction of entries replaced by sign * N(2.5, 0.2)

Scatter families are identity, equicorrelation, and pentadiagonal (bands 1
and 2).  Signal strength is parameterized so that one number is comparable
across scatter shapes: theta = sqrt(signal / #off-diagonal pairs), mapped to
the latent correlation rho = sin(pi * theta / 2), which makes the population
Kendall tau of a correlated pair exactly theta.

Determinism: replicate r of a scenario draws from streams keyed by
(seed, r, purpose); purpose 0 is the base draw, 1 the contamination, 2 the
tie-breaking jitter.  Changing thread count changes nothing.

Replicates run in batches of pairwise.stack_depth consecutive ones; one
stacked_tests call tests a batch's (depth, n, m) ranks and data, so the
data-reading s_pearson runs beside the rank statistics, asymptotically only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from . import _rng
from .aggregate import StatisticId, check_sample_size, statistic_from_name
from .calibrate import ASYMPTOTIC, Method, MonteCarlo, montecarlo_nulls, stacked_tests
from .errors import ConfigError, InfeasibleSignal, NotPositiveDefinite
from .pairwise import stack_depth
from .ranks import JitterWithSeed, compute_ranks

SCATTER_KINDS = ("identity", "equicorrelation", "pentadiagonal")
FAMILIES = ("mvn", "mvt", "iid-null", "contaminated-mvn")


@dataclass(frozen=True)
class ScatterSpec:
    kind: str
    m: int
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in SCATTER_KINDS:
            raise ConfigError(f"unknown scatter {self.kind!r}; known: {SCATTER_KINDS}")
        if self.m < 2:
            raise ConfigError(f"need m >= 2, got {self.m}")

    def matrix(self) -> np.ndarray:
        m, rho = self.m, self.rho
        if self.kind == "identity":
            return np.eye(m)
        if self.kind == "equicorrelation":
            if not -1.0 / (m - 1) < rho < 1.0:
                raise NotPositiveDefinite(
                    f"equicorrelation needs rho in (-1/(m-1), 1), got {rho}"
                )
            return (1.0 - rho) * np.eye(m) + rho * np.ones((m, m))
        sigma = np.eye(m)
        for band in (1, 2):
            idx = np.arange(m - band)
            sigma[idx, idx + band] = rho
            sigma[idx + band, idx] = rho
        return sigma

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.matrix())
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                f"{self.kind} scatter with rho={self.rho} is not positive definite"
            ) from None


@lru_cache(maxsize=32)
def _cached_cholesky(kind: str, m: int, rho: float):
    return ScatterSpec(kind, m, rho).cholesky()


def _pair_count(kind: str, m: int) -> int:
    return math.comb(m, 2) if kind == "equicorrelation" else 2 * m - 3


def signal_to_rho(signal: float, scatter_kind: str, m: int) -> float:
    """Latent correlation that realizes the requested aggregate signal."""
    if scatter_kind not in SCATTER_KINDS:
        raise ConfigError(f"unknown scatter {scatter_kind!r}")
    if not signal >= 0:  # written so that NaN fails too; inf fails the theta check
        raise InfeasibleSignal(f"signal must be nonnegative, got {signal}")
    if signal == 0:
        return 0.0
    if scatter_kind == "identity":
        raise InfeasibleSignal("identity scatter carries no signal")
    theta = math.sqrt(signal / _pair_count(scatter_kind, m))
    if theta >= 1.0:
        raise InfeasibleSignal(f"signal {signal} needs theta >= 1 at m={m}")
    rho = math.sin(math.pi * theta / 2.0)
    try:
        _cached_cholesky(scatter_kind, m, rho)
    except NotPositiveDefinite as e:
        raise InfeasibleSignal(str(e)) from None
    return rho


@dataclass(frozen=True)
class SimScenario:
    family: str
    n: int
    m: int
    scatter: str = "identity"
    signal: float = 0.0
    seed: int = 0
    df: int = 5
    contam_fraction: float = 0.05

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.n < 2 or self.m < 2:
            raise ConfigError("need n >= 2 and m >= 2")
        if self.family == "mvt" and self.df < 1:
            raise ConfigError(f"mvt needs df >= 1, got {self.df}")
        if not 0.0 <= self.contam_fraction <= 1.0:
            raise ConfigError("contamination fraction must lie in [0, 1]")


def gen_dataset(scenario: SimScenario, replicate: int) -> np.ndarray:
    """One n x m dataset, fully determined by (scenario.seed, replicate)."""
    n, m = scenario.n, scenario.m
    base = _rng.generator(scenario.seed, replicate, 0)
    if scenario.family == "iid-null":
        return base.standard_t(3, size=(n, m)) + 2.0
    rho = signal_to_rho(scenario.signal, scenario.scatter, m)
    lmat = _cached_cholesky(scenario.scatter, m, rho)
    gauss = base.standard_normal((n, m)) @ lmat.T
    if scenario.family == "mvn":
        return gauss
    if scenario.family == "mvt":
        w = base.chisquare(scenario.df, size=n)
        return gauss / np.sqrt(w / scenario.df)[:, None]
    # contaminated-mvn: the base draw is bit-identical to mvn because the
    # replacement entries come from a separate keyed stream
    contam = _rng.generator(scenario.seed, replicate, 1)
    cnt = math.floor(scenario.contam_fraction * n * m)
    if cnt > 0:
        pos = contam.choice(n * m, size=cnt, replace=False)
        signs = contam.integers(0, 2, size=cnt) * 2 - 1
        mags = 2.5 + math.sqrt(0.2) * contam.standard_normal(cnt)
        gauss.flat[pos] = signs * mags
    return gauss


# ----------------------------------------------------------------- harness

@dataclass(frozen=True)
class ExperimentRow:
    """One statistic's rejection rate; its fields, in order, are the CSV columns."""

    statistic: str
    n: int
    m: int
    family: str
    scatter: str
    signal: float
    alpha: float
    method: str
    reps: int
    reject_rate: float
    se: float


def run_experiment(
    scenario: SimScenario,
    statistics,
    reps: int,
    alpha: float = 0.05,
    method: Method = ASYMPTOTIC,
    threads: int = 1,
) -> list[ExperimentRow]:
    """Rejection rate of each statistic over `reps` scenario replicates, run in batches."""
    if reps < 1:
        raise ConfigError(f"reps must be positive, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    sids = [s if isinstance(s, StatisticId) else statistic_from_name(s) for s in statistics]
    if not sids:
        raise ConfigError("no statistics requested")
    # fail fast on an infeasible scenario before burning replicates
    signal_to_rho(scenario.signal, scenario.scatter, scenario.m)

    n, m = scenario.n, scenario.m
    check_sample_size(sids, n)
    montecarlo = isinstance(method, MonteCarlo)
    tables = montecarlo_nulls(sids, n, m, method.reps, method.seed, threads) if montecarlo else None

    depth = stack_depth(n, m)
    rejects = np.zeros(len(sids), dtype=np.int64)
    for lo in range(0, reps, depth):
        batch = range(lo, min(reps, lo + depth))
        data = np.array([gen_dataset(scenario, r) for r in batch])
        keys = [_rng.mix_key(scenario.seed, r, 2) for r in batch]
        ranks = np.array([compute_ranks(x, JitterWithSeed(key)).ranks for x, key in zip(data, keys)])
        for results in stacked_tests(ranks, sids, alpha, method, threads, tables, data):
            rejects += [res.reject for res in results]

    rows = []
    for i, sid in enumerate(sids):
        rate = float(rejects[i]) / reps
        se = math.sqrt(rate * (1.0 - rate) / reps)
        rows.append(
            ExperimentRow(
                statistic=sid.name,
                n=n,
                m=m,
                family=scenario.family,
                scatter=scenario.scatter,
                signal=scenario.signal,
                alpha=alpha,
                method="montecarlo" if montecarlo else "asymptotic",
                reps=reps,
                reject_rate=rate,
                se=se,
            )
        )
    return rows


CSV_FIELDS = [f.name for f in fields(ExperimentRow)]


def write_experiment_csv(rows: list[ExperimentRow], f) -> None:
    """One header line of CSV_FIELDS, then each row's fields in order."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(CSV_FIELDS)
    w.writerows(astuple(r) for r in rows)

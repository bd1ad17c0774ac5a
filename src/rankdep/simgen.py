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

s_pearson, the Pearson-correlation baseline of Schott (2005), is s_rho_s's
centered sum of squares on the data's Pearson correlations, calibrated exactly
as s_rho_s is; having no permutation null, it supports only asymptotic calibration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _rng
from .aggregate import StatisticId, centered_square_sum, check_sample_size, rescale, statistic_from_name
from .calibrate import ASYMPTOTIC, Method, MonteCarlo, montecarlo_nulls, normal_pvalue, run_tests
from .errors import ConfigError, InfeasibleSignal, NotPositiveDefinite
from .ranks import JitterWithSeed, compute_ranks

SCATTER_KINDS = ("identity", "equicorrelation", "pentadiagonal")
FAMILIES = ("mvn", "mvt", "iid-null", "contaminated-mvn")

PEARSON = "s_pearson"  # harness-only baseline, calibrated as s_rho_s


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
    if signal < 0:
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


def _pearson_pvalue(data: np.ndarray) -> float:
    """s_pearson's p-value: s_rho_s's aggregate and calibration on Pearson correlations."""
    n, m = data.shape
    raw = centered_square_sum(np.corrcoef(data, rowvar=False)[np.triu_indices(m, 1)], n, m)
    return normal_pvalue(rescale(statistic_from_name("s_rho_s"), raw, n, m).rescaled)


def run_experiment(
    scenario: SimScenario,
    statistics,
    reps: int,
    alpha: float = 0.05,
    method: Method = ASYMPTOTIC,
    threads: int = 1,
) -> list[ExperimentRow]:
    """Rejection rate of each statistic over `reps` scenario replicates, run in order."""
    if reps < 1:
        raise ConfigError(f"reps must be positive, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    sids = [s if isinstance(s, StatisticId) or s == PEARSON else statistic_from_name(s) for s in statistics]
    if not sids:
        raise ConfigError("no statistics requested")
    # fail fast on an infeasible scenario before burning replicates
    signal_to_rho(scenario.signal, scenario.scatter, scenario.m)

    n, m = scenario.n, scenario.m
    rank_stats = [sid for sid in sids if sid != PEARSON]
    check_sample_size(rank_stats, n)
    tables = None
    if isinstance(method, MonteCarlo):
        if PEARSON in sids:
            raise ConfigError("s_pearson supports only asymptotic calibration")
        tables = montecarlo_nulls(rank_stats, n, m, method.reps, method.seed, threads)

    pvals = np.empty((len(sids), reps), dtype=np.float64)
    for r in range(reps):
        data = gen_dataset(scenario, r)
        ranks = compute_ranks(data, JitterWithSeed(_rng.mix_key(scenario.seed, r, 2)))
        results = iter(run_tests(ranks, rank_stats, alpha, method, threads, tables))
        for i, sid in enumerate(sids):
            pvals[i, r] = _pearson_pvalue(data) if sid == PEARSON else next(results).p_value

    method_name = "montecarlo" if isinstance(method, MonteCarlo) else "asymptotic"
    rows = []
    for i, sid in enumerate(sids):
        rate = float(np.count_nonzero(pvals[i] <= alpha)) / reps
        se = math.sqrt(rate * (1.0 - rate) / reps)
        rows.append(
            ExperimentRow(
                statistic=sid if isinstance(sid, str) else sid.name,
                n=n,
                m=m,
                family=scenario.family,
                scatter=scenario.scatter,
                signal=scenario.signal,
                alpha=alpha,
                method=method_name,
                reps=reps,
                reject_rate=rate,
                se=se,
            )
        )
    return rows


CSV_FIELDS = [
    "statistic", "n", "m", "family", "scatter", "signal",
    "alpha", "method", "reps", "reject_rate", "se",
]


def write_experiment_csv(rows: list[ExperimentRow], f) -> None:
    w = csv.writer(f, lineterminator="\n")
    w.writerow(CSV_FIELDS)
    for r in rows:
        w.writerow([getattr(r, field) for field in CSV_FIELDS])

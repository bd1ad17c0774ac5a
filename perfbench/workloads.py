"""The benchmark's workloads: generated inputs, argv, and output checks.

Each operation (op) is one in-process ``rankdep.cli.main(argv)`` call at the
default ``--threads 1``.  A workload makes its input from the benchmark
seed: a CSV file for ``rankdep test``, the scenario seed for
``rankdep simulate``.  The program sees only that input.

Correctness is checked against a reference computed once per input,
outside the timed loop, from the scalar per-pair functions
(``kendall_tau_fast``, ``rho_hat``, ``w_stat``, ``tstar``, ``hoeffding_d``;
Spearman's rho from its integer form, see ``_spearman``) and the
documented aggregation.  The null means that centre the S statistics come
from the enumeration oracles in ``rankdep.exact``, not from the stamped
constants file, so the checks do not depend on the calibration constants
and stay valid if p-values change.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

import rankdep
from rankdep import pairwise
from rankdep.exact import mu_from_zetas, solve_zetas
from rankdep.kernels import KernelId

ALPHA = 0.05  # the CLI's default --alpha, which the workloads keep

# statistic name -> (aggregation, pairwise statistic, U or W)
STATS = {
    "s_tau": ("S", "tau", "U"),
    "t_tau": ("T", "tau", "W"),
    "z_tau": ("Z", "tau", "U"),
    "s_max_tau": ("MAX", "tau", "U"),
    "s_rho_hat": ("S", "rho_hat", "U"),
    "s_rho_s": ("S", "spearman", "U"),
    "s_tstar": ("S", "tstar", "U"),
    "z_tstar": ("Z", "tstar", "U"),
    "s_d": ("S", "hoeffd", "U"),
    "z_d": ("Z", "hoeffd", "U"),
}


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rho as ``spearman_rho`` defines it, rounded once.

    ``spearman_rho`` evaluates 1 - 6 d2 / den in two roundings and misses
    the correctly rounded value in the last bit for most pairs, while
    ``all_pairs_spearman`` rounds the same integer ratio once.
    """
    n = x.size
    den = n * (n * n - 1)
    d2 = int(np.dot(x - y, x - y))
    return float(Fraction(den - 6 * d2, den))


_SCALAR_U = {
    "tau": pairwise.kendall_tau_fast,
    "rho_hat": pairwise.rho_hat,
    "spearman": _spearman,
    "tstar": pairwise.tstar,
    "hoeffd": pairwise.hoeffding_d,
}


@lru_cache(maxsize=None)
def _null_mean(stat: str, n: int) -> Fraction:
    """Exact E[U^2] under independence, from enumeration (not stamped)."""
    if stat == "spearman":
        return Fraction(1, n - 1)
    kernel = KernelId(stat)
    return mu_from_zetas(kernel, n, solve_zetas(kernel))


def rank_columns(data: np.ndarray) -> np.ndarray:
    """1-based column ranks; the generated inputs never hold ties."""
    for j in range(data.shape[1]):
        if np.unique(data[:, j]).size != data.shape[0]:
            raise ValueError(f"generated column {j} has ties")
    return np.argsort(np.argsort(data, axis=0, kind="stable"), axis=0) + 1


def reference_raws(ranks: np.ndarray, stats) -> dict[str, float]:
    """Raw statistics from the scalar per-pair functions, pair by pair."""
    n, m = ranks.shape
    cols = [ranks[:, j] for j in range(m)]
    pairs: dict[tuple[str, str], list[float]] = {}
    for name in stats:
        _, stat, kind = STATS[name]
        if (stat, kind) in pairs:
            continue
        if kind == "U":
            fn = _SCALAR_U[stat]
        else:
            kernel = KernelId(stat)
            fn = lambda x, y, kernel=kernel: pairwise.w_stat(kernel, x, y)  # noqa: E731
        pairs[(stat, kind)] = [fn(cols[p], cols[q]) for p in range(m) for q in range(p + 1, m)]
    raws = {}
    for name in stats:
        agg, stat, kind = STATS[name]
        vals = pairs[(stat, kind)]
        if agg == "S":
            center = math.comb(m, 2) * _null_mean(stat, n)
            raws[name] = math.fsum(v * v for v in vals) - float(center)
        elif agg == "MAX":
            raws[name] = max(abs(v) for v in vals)
        else:
            raws[name] = math.fsum(vals)
    return raws


def _same(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


@dataclass(frozen=True)
class CsvTestWorkload:
    """``rankdep test`` on a generated n x m CSV."""

    name: str
    n: int
    m: int
    stats: tuple[str, ...]
    factor: float = 0.0  # loading of one common factor shared by all columns
    reps: int = 0  # Monte Carlo replicates; 0 means the asymptotic method
    mc_seed: int = 11

    def pair_evals(self) -> int:
        """Column-pair evaluations one op demands, from argv alone."""
        return math.comb(self.m, 2) * len(self.stats) * (1 + self.reps)

    def make_input(self, seed: int, workdir: Path) -> np.ndarray:
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((self.n, self.m))
        if self.factor:
            data += self.factor * rng.standard_normal((self.n, 1))
        workdir.mkdir(parents=True, exist_ok=True)
        np.savetxt(workdir / "input.csv", data, delimiter=",", fmt="%.17g")
        return data

    def argv(self, workdir: Path, seed: int) -> list[str]:
        argv = ["test", str(workdir / "input.csv"), "--stats", ",".join(self.stats)]
        if self.reps:
            argv += ["--method", "montecarlo", "--reps", str(self.reps), "--seed", str(self.mc_seed)]
        return argv

    def reference(self, data: np.ndarray, seed: int) -> dict[str, float]:
        return reference_raws(rank_columns(data), self.stats)

    def check(self, out: bytes, ref: dict[str, float]) -> list[str]:
        """Reasons the report is wrong; empty when it is right."""
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError) as e:
            return [f"unparseable report: {e}"]
        names = [r.get("statistic") for r in results]
        if names != list(self.stats):
            return [f"statistics {names}, expected {list(self.stats)}"]
        bad = []
        for r in results:
            s = r["statistic"]
            if not _same(r["raw"], ref[s]):
                bad.append(f"{s}: raw {r['raw']!r} != reference {ref[s]!r}")
            if (r["n"], r["m"]) != (self.n, self.m):
                bad.append(f"{s}: shape {(r['n'], r['m'])}")
            if r["reject"] != (r["p_value"] <= ALPHA):
                bad.append(f"{s}: reject {r['reject']} with p {r['p_value']!r}")
            if self.reps:
                k = round(r["p_value"] * (self.reps + 1))
                if not (1 <= k <= self.reps + 1 and _same(r["p_value"], k / (self.reps + 1))):
                    bad.append(f"{s}: MC p-value {r['p_value']!r} is not k/{self.reps + 1}")
                if (r["method"], r["seed"]) != ("montecarlo", self.mc_seed):
                    bad.append(f"{s}: method {r['method']} seed {r['seed']}")
            elif r["method"] != "asymptotic":
                bad.append(f"{s}: method {r['method']}")
        return bad


@dataclass(frozen=True)
class SimulateWorkload:
    """``rankdep simulate`` of an mvn equicorrelation scenario.

    The report holds rejection rates only, so the check recomputes each
    replicate dataset, checks ``run_test``'s raw values on it against the
    scalar reference, and requires the reported rate to equal the share of
    those ``run_test`` p-values at or below alpha.
    """

    name: str
    n: int
    m: int
    reps: int
    stats: tuple[str, ...]
    signal: float = 0.7

    def pair_evals(self) -> int:
        return math.comb(self.m, 2) * len(self.stats) * self.reps

    def make_input(self, seed: int, workdir: Path) -> None:
        return None  # the scenario seed is the whole input

    def argv(self, workdir: Path, seed: int) -> list[str]:
        return [
            "simulate", "--family", "mvn", "--scatter", "equicorrelation",
            "--signal", str(self.signal), "-n", str(self.n), "-m", str(self.m),
            "--reps", str(self.reps), "--seed", str(seed), "--stats", ",".join(self.stats),
        ]  # fmt: skip

    def reference(self, data: None, seed: int) -> dict:
        scenario = rankdep.SimScenario(
            family="mvn", n=self.n, m=self.m, scatter="equicorrelation",
            signal=self.signal, seed=seed,
        )  # fmt: skip
        sids = [rankdep.statistic_from_name(s) for s in self.stats]
        rejects = dict.fromkeys(self.stats, 0)
        bad = []
        for r in range(self.reps):
            ranks = rank_columns(rankdep.gen_dataset(scenario, r))
            ref = reference_raws(ranks, self.stats)
            rm = rankdep.RankMatrix(ranks)
            for s, sid in zip(self.stats, sids):
                res = rankdep.run_test(rm, sid, alpha=ALPHA)
                if not _same(res.raw, ref[s]):
                    bad.append(f"replicate {r} {s}: run_test raw {res.raw!r} != reference {ref[s]!r}")
                rejects[s] += res.p_value <= ALPHA
        return {"rejects": rejects, "bad": bad}

    def check(self, out: bytes, ref: dict) -> list[str]:
        bad = list(ref["bad"])
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        if [r.get("statistic") for r in rows] != list(self.stats):
            return bad + [f"rows {[r.get('statistic') for r in rows]}, expected {list(self.stats)}"]
        for row in rows:
            s = row["statistic"]
            rate = ref["rejects"][s] / self.reps
            se = math.sqrt(rate * (1.0 - rate) / self.reps)
            if (int(row["n"]), int(row["m"]), int(row["reps"])) != (self.n, self.m, self.reps):
                bad.append(f"{s}: n, m, reps {row['n']}, {row['m']}, {row['reps']}")
            if not (_same(float(row["reject_rate"]), rate) and _same(float(row["se"]), se)):
                bad.append(f"{s}: reject_rate {row['reject_rate']} se {row['se']}, expected {rate!r} {se!r}")
        return bad


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        CsvTestWorkload(
            name="test-tall",
            n=768,
            m=32,
            factor=0.15,
            stats=("s_tau", "t_tau", "z_tau", "s_rho_hat", "s_max_tau", "s_rho_s"),
        ),
        CsvTestWorkload(
            name="mc-null",
            n=64,
            m=32,
            reps=199,
            stats=("s_tau", "s_max_tau"),
        ),
        SimulateWorkload(
            name="sim-perpair",
            n=64,
            m=12,
            reps=50,
            stats=("s_tau", "s_d", "z_d", "s_tstar", "z_tstar"),
        ),
    )
}

"""End-to-end acceptance checks.

Each test prints one verdict line (CRITERION NN PASS/FAIL: ...) and then
asserts it, so the suite log doubles as a checklist.  Monte Carlo checks use
pinned seeds; statistical tolerances are three standard errors or the fixed
bands quoted in the docs.  The parallel-speedup assertion in criterion 9
measures real wall time and will fail on a single-core machine.
"""

import math
import os
import time

import numpy as np

from rankdep import (
    KernelId,
    MonteCarlo,
    RankMatrix,
    SimScenario,
    all_pairs,
    compute_ranks,
    gen_dataset,
    hoeffding_d,
    kendall_tau_fast,
    montecarlo_null,
    raw_statistic,
    rescale_factor,
    rho_hat,
    run_experiment,
    run_test,
    spearman_rho,
    statistic_from_name,
    tstar,
    u_stat_naive,
    w_stat,
    w_stat_naive,
)
from rankdep._rng import generator
from rankdep.cli import main as cli_main
from rankdep.exact import mu_from_zetas, solve_zetas
from rankdep.kernels import mu_h_exact
from rankdep.pairwise import _FAST_U

S_TAU = statistic_from_name("s_tau")
T_TAU = statistic_from_name("t_tau")
S_RHO_S = statistic_from_name("s_rho_s")

FAST = _FAST_U


def _verdict(num, ok, detail):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_01_oracle_equivalence():
    rng = generator(101, 0, 0)
    worst_u = 0.0
    for kid in KernelId:
        k = kid.degree
        for _ in range(200):
            n = int(rng.integers(k, 13))
            rx = (rng.permutation(n) + 1).tolist()
            ry = (rng.permutation(n) + 1).tolist()
            worst_u = max(worst_u, _rel_err(FAST[kid](rx, ry), u_stat_naive(kid, rx, ry)))
    worst_w = 0.0
    for kid, lo in [(KernelId.TAU, 4), (KernelId.RHO_HAT, 6)]:
        for _ in range(200):
            n = int(rng.integers(lo, 11))
            rx = (rng.permutation(n) + 1).tolist()
            ry = (rng.permutation(n) + 1).tolist()
            worst_w = max(worst_w, _rel_err(w_stat(kid, rx, ry), w_stat_naive(kid, rx, ry)))
    ok = worst_u <= 1e-10 and worst_w <= 1e-10
    _verdict(1, ok, f"fast vs naive, worst rel err U={worst_u:.2e} W={worst_w:.2e} over 200 pairs/kernel")


def test_criterion_02_extremal_values():
    mono4 = [1, 2, 3, 4]
    mono5 = [1, 2, 3, 4, 5]
    got = (
        kendall_tau_fast(mono5, mono5),
        spearman_rho(mono5, mono5),
        rho_hat(mono5, mono5),
        tstar(mono4, mono4),
        hoeffding_d(mono5, mono5),
    )
    want = (1.0, 1.0, 1.0, 2 / 3, 1 / 30)
    _verdict(2, got == want, f"monotone columns give {got}, want {want}")


def test_criterion_03_moment_identities():
    n, reps = 10, 100_000
    sq = {kid: np.empty(reps) for kid in KernelId}
    x = list(range(1, n + 1))
    for r in range(reps):
        y = (generator(103, r, 0).permutation(n) + 1).tolist()
        for kid in KernelId:
            v = FAST[kid](x, y)
            sq[kid][r] = v * v
    parts = []
    ok = True
    for kid in KernelId:
        mu = float(mu_h_exact(kid, n))
        mean = float(sq[kid].mean())
        se = float(sq[kid].std(ddof=1)) / math.sqrt(reps)
        ok &= abs(mean - mu) <= 3 * se
        parts.append(f"{kid.key}: |{mean:.3e}-{mu:.3e}|<=3*{se:.1e}")
    # the degree-5 kernel's null second moment must also agree exactly with
    # the covariance-ladder expansion re-derived from scratch by enumeration
    zetas = solve_zetas(KernelId.HOEFF_D)
    ladder_ok = all(
        mu_from_zetas(KernelId.HOEFF_D, nn, zetas) == mu_h_exact(KernelId.HOEFF_D, nn)
        for nn in (10, 11, 12)
    )
    ok &= ladder_ok
    parts.append(f"ladder==closed-form at n=10..12: {ladder_ok}")
    _verdict(3, ok, "; ".join(parts))


def test_criterion_04_null_size():
    sc = SimScenario("iid-null", 64, 64, seed=104)
    rows = run_experiment(sc, ["s_rho_s", "s_tau"], reps=2000)
    rate = {r.statistic: r.reject_rate for r in rows}
    ok = 0.035 <= rate["s_rho_s"] <= 0.070 and 0.040 <= rate["s_tau"] <= 0.085
    _verdict(4, ok, f"(64,64) t3 null size: s_rho_s={rate['s_rho_s']:.4f} in [.035,.070], "
                    f"s_tau={rate['s_tau']:.4f} in [.040,.085], 2000 reps")


def test_criterion_05_rescaled_null_is_standard_normal():
    tbl = montecarlo_null(S_TAU, n=128, m=128, reps=2000, seed=105)
    factor = rescale_factor(S_TAU, 128, 128)
    z = tbl.values * factor
    mean = float(z.mean())
    var = float(z.var(ddof=1))
    ok = abs(mean) < 0.1 and 0.85 <= var <= 1.15
    _verdict(5, ok, f"rescaled sum-of-squares null at (128,128): mean={mean:.4f} (|.|<0.1), "
                    f"var={var:.4f} in [0.85,1.15]")


def test_criterion_06_unbiased_signal_estimate():
    signal, reps = 0.3, 2000
    sc = SimScenario("mvn", 64, 32, scatter="equicorrelation", signal=signal, seed=106)
    vals = np.empty(reps)
    for r in range(reps):
        ranks = compute_ranks(gen_dataset(sc, r))
        vals[r] = raw_statistic(ranks, T_TAU)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(reps)
    ok = abs(mean - signal) <= 3 * se
    _verdict(6, ok, f"mean T over {reps} reps = {mean:.4f}, target {signal} +- {3 * se:.4f}")


def test_criterion_07_power_and_max_statistic_weakness():
    sc = SimScenario("mvn", 256, 64, scatter="equicorrelation", signal=0.7, seed=107)
    rows = run_experiment(sc, ["s_tau", "s_max_tau"], reps=500)
    rate = {r.statistic: r.reject_rate for r in rows}
    ok = 0.95 <= rate["s_tau"] <= 1.0 and 0.07 <= rate["s_max_tau"] <= 0.18
    _verdict(7, ok, f"(256,64) signal 0.7: s_tau power={rate['s_tau']:.3f} in [.95,1], "
                    f"s_max_tau power={rate['s_max_tau']:.3f} in [.07,.18], 500 reps")


def _ks_to_standard_normal(values):
    x = np.sort(values)
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in x / math.sqrt(2.0)]))
    i = np.arange(1, x.size + 1)
    return float(np.max(np.maximum(cdf - (i - 1) / x.size, i / x.size - cdf)))


def test_criterion_08_spearman_sum_normal_limit():
    tbl = montecarlo_null(S_RHO_S, n=128, m=128, reps=2000, seed=108)
    factor = rescale_factor(S_RHO_S, 128, 128)  # n/m = 1 here
    ks = _ks_to_standard_normal(tbl.values * factor)
    ok = ks < 0.05
    _verdict(8, ok, f"KS distance of rescaled Spearman sum null to N(0,1): {ks:.4f} < 0.05")


def test_criterion_09_performance():
    rng = generator(109, 0, 0)
    rm = RankMatrix(np.column_stack([rng.permutation(256) + 1 for _ in range(256)]))

    t0 = time.perf_counter()
    run_test(rm, S_TAU)
    t_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw_statistic(rm, T_TAU)
    t_w = time.perf_counter() - t0

    # parallel speedup is exercised on the per-pair stage, which releases the
    # GIL inside numpy; it needs real cores to show a gain
    rng2 = generator(109, 1, 0)
    small = RankMatrix(np.column_stack([rng2.permutation(128) + 1 for _ in range(32)]))
    times = {}
    for threads in (1, 8):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            all_pairs(small, KernelId.T_STAR, "U", threads=threads)
            best = min(best, time.perf_counter() - t0)
        times[threads] = best
    speedup = times[1] / times[8]
    ok = t_s < 5.0 and t_w < 60.0 and speedup >= 3.0
    _verdict(9, ok, f"n=m=256: sum-of-squares pipeline {t_s:.2f}s (<5), unbiased-sum {t_w:.2f}s (<60); "
                    f"pairwise speedup at 8 workers {speedup:.2f}x (>=3 required, "
                    f"{os.cpu_count()} cpu(s) visible)")


def test_criterion_10_determinism(tmp_path):
    rng = generator(110, 0, 0)
    shared = rng.standard_normal(32)
    data = shared[:, None] + 0.8 * rng.standard_normal((32, 6))
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")

    reports = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"r{threads}.json"
        rc = cli_main([
            "test", str(csv_path), "--stats", "s_tau,s_rho_s,s_max_tau",
            "--method", "montecarlo", "--reps", "99", "--seed", "11",
            "--threads", threads, "--out", str(out),
        ])
        assert rc == 0
        reports.append(out.read_bytes())
    json_ok = reports[0] == reports[1] == reports[2]

    tables = [
        montecarlo_null(S_TAU, n=32, m=8, reps=200, seed=12, threads=t).values.tobytes()
        for t in (1, 4, 8)
    ]
    table_ok = tables[0] == tables[1] == tables[2]
    _verdict(10, json_ok and table_ok,
             f"bitwise identical across 1/4/8 threads: json={json_ok}, tables={table_ok}")

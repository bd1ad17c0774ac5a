import io
import math

import numpy as np
import pytest

from rankdep import (
    ASYMPTOTIC,
    CSV_FIELDS,
    ConfigError,
    InfeasibleSignal,
    MonteCarlo,
    NotPositiveDefinite,
    ScatterSpec,
    SimScenario,
    compute_ranks,
    gen_dataset,
    kendall_tau_fast,
    run_experiment,
    run_test,
    run_tests,
    signal_to_rho,
    statistic_from_name,
    write_experiment_csv,
)
from rankdep import simgen
from rankdep.pairwise import stack_depth
from rankdep.ranks import JitterWithSeed
from rankdep.simgen import _cached_cholesky


def test_scatter_matrices():
    eye = ScatterSpec("identity", 4).matrix()
    assert np.array_equal(eye, np.eye(4))

    eq = ScatterSpec("equicorrelation", 3, 0.25).matrix()
    assert eq[0, 0] == 1.0 and eq[0, 1] == 0.25 and eq[2, 0] == 0.25

    pd = ScatterSpec("pentadiagonal", 5, 0.2).matrix()
    assert pd[0, 1] == 0.2 and pd[0, 2] == 0.2 and pd[0, 3] == 0.0
    assert np.array_equal(pd, pd.T)
    ScatterSpec("pentadiagonal", 5, 0.2).cholesky()  # must factor


def test_scatter_validation():
    with pytest.raises(ConfigError):
        ScatterSpec("toeplitz", 4)
    with pytest.raises(ConfigError):
        ScatterSpec("identity", 1)
    with pytest.raises(NotPositiveDefinite):
        ScatterSpec("equicorrelation", 4, 1.0).matrix()
    with pytest.raises(NotPositiveDefinite):
        ScatterSpec("equicorrelation", 4, -0.5).matrix()


def test_signal_map_exact_anchor():
    # theta = sqrt(signal / #pairs); theta = 1/3 maps to rho = sin(pi/6) = 1/2
    assert signal_to_rho(1.0 / 3.0, "equicorrelation", 3) == pytest.approx(0.5, abs=1e-15)
    assert signal_to_rho(5.0 / 9.0, "pentadiagonal", 4) == pytest.approx(0.5, abs=1e-15)
    assert signal_to_rho(0.0, "pentadiagonal", 4) == 0.0


def test_signal_map_pair_count_conventions():
    # equicorrelation spreads signal over all C(m,2) pairs, pentadiagonal
    # over its 2m-3 banded pairs, so the same signal is more dilute for the
    # equicorrelated shape
    m, signal = 16, 0.5
    rho_eq = signal_to_rho(signal, "equicorrelation", m)
    rho_pd = signal_to_rho(signal, "pentadiagonal", m)
    assert 0 < rho_eq < rho_pd < 1
    theta_eq = math.sqrt(signal / math.comb(m, 2))
    assert rho_eq == pytest.approx(math.sin(math.pi * theta_eq / 2), abs=1e-15)


def test_infeasible_signals():
    with pytest.raises(InfeasibleSignal):
        signal_to_rho(-0.1, "equicorrelation", 8)
    with pytest.raises(InfeasibleSignal):
        signal_to_rho(0.5, "identity", 8)
    with pytest.raises(InfeasibleSignal):
        signal_to_rho(3.0, "equicorrelation", 3)  # theta would hit 1
    with pytest.raises(InfeasibleSignal):
        signal_to_rho(10.88, "pentadiagonal", 10)  # factorization fails


@pytest.mark.parametrize("scatter", ["identity", "equicorrelation", "pentadiagonal"])
def test_non_finite_signals_infeasible(scatter):
    # NaN fails every comparison, and Cholesky of a NaN pentadiagonal matrix
    # does not raise, so NaN is refused before any scatter is built
    with pytest.raises(InfeasibleSignal, match="signal must be nonnegative, got nan"):
        signal_to_rho(math.nan, scatter, 5)
    with pytest.raises(InfeasibleSignal):
        signal_to_rho(math.inf, scatter, 5)
    for family in ("mvn", "mvt", "contaminated-mvn"):
        with pytest.raises(InfeasibleSignal):
            run_experiment(SimScenario(family, 10, 3, scatter=scatter, signal=math.nan), ["s_tau"], reps=2)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        SimScenario("lognormal", 32, 8)
    with pytest.raises(ConfigError):
        SimScenario("mvn", 1, 8)
    with pytest.raises(ConfigError):
        SimScenario("mvt", 32, 8, df=0)
    with pytest.raises(ConfigError):
        SimScenario("contaminated-mvn", 32, 8, contam_fraction=1.5)


def test_gen_dataset_deterministic():
    sc = SimScenario("mvt", 20, 5, scatter="equicorrelation", signal=0.4, seed=12)
    a = gen_dataset(sc, 3)
    b = gen_dataset(sc, 3)
    c = gen_dataset(sc, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (20, 5)


def test_contamination_layers_on_base_draw():
    base = SimScenario("mvn", 32, 6, scatter="pentadiagonal", signal=0.2, seed=5)
    clean = SimScenario(
        "contaminated-mvn", 32, 6, scatter="pentadiagonal", signal=0.2, seed=5,
        contam_fraction=0.0,
    )
    dirty = SimScenario(
        "contaminated-mvn", 32, 6, scatter="pentadiagonal", signal=0.2, seed=5,
        contam_fraction=0.1,
    )
    g = gen_dataset(base, 0)
    assert np.array_equal(gen_dataset(clean, 0), g)
    d = gen_dataset(dirty, 0)
    changed = np.count_nonzero(d != g)
    assert changed == math.floor(0.1 * 32 * 6)
    moved = np.abs(d[d != g])
    assert np.all(moved > 0.5) and abs(moved.mean() - 2.5) < 0.5


def test_iid_null_location_shift():
    sc = SimScenario("iid-null", 4000, 2, seed=7)
    data = gen_dataset(sc, 0)
    assert abs(data.mean() - 2.0) < 0.15  # t3 margins recentered at 2


def test_ranks_ignore_monotone_margins():
    sc = SimScenario("mvn", 30, 4, scatter="equicorrelation", signal=0.3, seed=9)
    data = gen_dataset(sc, 1)
    r1 = compute_ranks(data, JitterWithSeed(0))
    r2 = compute_ranks(np.exp(data), JitterWithSeed(0))
    assert np.array_equal(r1.ranks, r2.ranks)


def test_sine_map_recovers_target_tau():
    # population Kendall tau of a correlated pair equals theta by design
    m, signal = 3, 0.75  # theta = 0.5
    sc = SimScenario("mvn", 200, m, scatter="equicorrelation", signal=signal, seed=21)
    taus = []
    for r in range(30):
        rm = compute_ranks(gen_dataset(sc, r))
        for p in range(m):
            for q in range(p + 1, m):
                taus.append(kendall_tau_fast(rm.column(p), rm.column(q)))
    assert abs(np.mean(taus) - 0.5) < 0.05


def test_run_experiment_rows_and_threads():
    sc = SimScenario("mvn", 24, 4, scatter="equicorrelation", signal=0.5, seed=3)
    stats = ["s_tau", "s_rho_s", "s_pearson"]
    rows1 = run_experiment(sc, stats, reps=20, threads=1)
    rows4 = run_experiment(sc, stats, reps=20, threads=4)
    assert rows1 == rows4
    assert [r.statistic for r in rows1] == ["s_tau", "s_rho_s", "s_pearson"]
    for r in rows1:
        assert 0.0 <= r.reject_rate <= 1.0
        assert r.se == pytest.approx(math.sqrt(r.reject_rate * (1 - r.reject_rate) / 20))
        assert (r.n, r.m, r.family, r.method, r.reps) == (24, 4, "mvn", "asymptotic", 20)


def test_run_experiment_per_pair_kernels_thread_invariant():
    # s_tstar and z_d run per-pair kernels, in the observed data and the MC null
    sc = SimScenario("mvn", 16, 4, scatter="equicorrelation", signal=0.5, seed=5)
    for method in (ASYMPTOTIC, MonteCarlo(reps=19, seed=2)):
        rows1 = run_experiment(sc, ["s_tstar", "z_d"], reps=6, method=method, threads=1)
        rows3 = run_experiment(sc, ["s_tstar", "z_d"], reps=6, method=method, threads=3)
        assert rows1 == rows3


@pytest.mark.parametrize("threads", [1, 2])
def test_run_experiment_batches_do_not_change_rows(threads, monkeypatch):
    # replicates one at a time, in batches of 4 (remainders 3 and 1), and in the
    # derived depth (one batch); tau U and W, rho_hat U and W, t* U, D U,
    # Spearman, Pearson and max-tau, asymptotic and by Monte Carlo
    sc = SimScenario("mvn", 12, 4, scatter="equicorrelation", signal=0.5, seed=7)
    assert stack_depth(12, 4) > 11
    ranked = ["s_tau", "t_tau", "s_rho_hat", "s_tstar", "z_d", "t_rho_hat", "s_rho_s", "s_max_tau"]
    for method, stats in ((ASYMPTOTIC, ranked + ["s_pearson"]), (MonteCarlo(reps=19, seed=2), ranked)):
        for reps in (11, 9):
            rows = {}
            for depth in (1, 4, None):
                with monkeypatch.context() as mp:
                    if depth:
                        mp.setattr(simgen, "stack_depth", lambda n, m, d=depth: d)
                    rows[depth] = run_experiment(sc, stats, reps, alpha=0.3, method=method, threads=threads)
            assert rows[4] == rows[1] and rows[None] == rows[1], (method, reps)
            assert 0.0 < sum(r.reject_rate for r in rows[1]) < len(stats), (method, reps)


def test_run_experiment_rejects_threads_below_one():
    sc = SimScenario("iid-null", 12, 3, seed=4)
    for stats in (["s_tau"], ["s_pearson"]):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            run_experiment(sc, stats, reps=2, threads=0)


def test_run_experiment_montecarlo_path():
    sc = SimScenario("iid-null", 12, 3, seed=4)
    rows = run_experiment(sc, ["s_tau"], reps=10, method=MonteCarlo(reps=39, seed=8))
    assert rows[0].method == "montecarlo"
    assert 0.0 <= rows[0].reject_rate <= 1.0


def test_run_experiment_validation():
    sc = SimScenario("mvn", 16, 4)
    with pytest.raises(ConfigError):
        run_experiment(sc, ["s_tau"], reps=0)
    with pytest.raises(ConfigError):
        run_experiment(sc, [], reps=5)
    with pytest.raises(ConfigError):
        run_experiment(sc, ["s_pearson"], reps=5, method=MonteCarlo(reps=9, seed=0))
    bad = SimScenario("mvn", 16, 4, scatter="identity", signal=0.5)
    with pytest.raises(InfeasibleSignal):
        run_experiment(bad, ["s_tau"], reps=5)


def test_experiment_csv_schema():
    sc = SimScenario("mvn", 16, 4, scatter="pentadiagonal", signal=0.2, seed=6)
    rows = run_experiment(sc, ["z_tau"], reps=5)
    buf = io.StringIO()
    write_experiment_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "z_tau" and cells[3] == "mvn" and cells[4] == "pentadiagonal"


def test_s_pearson_is_calibrated_as_s_rho_s():
    # on rank data Pearson's r is Spearman's rho, so the two p-values agree
    for seed in range(5):
        sc = SimScenario("mvn", 30, 5, scatter="equicorrelation", signal=0.4, seed=seed)
        ranks = compute_ranks(gen_dataset(sc, 0))
        rho_s = run_test(ranks, statistic_from_name("s_rho_s"))
        stats = [statistic_from_name("s_pearson")]
        pearson = run_tests(ranks, stats, data=ranks.ranks.astype(float))[0]
        assert pearson.p_value == pytest.approx(rho_s.p_value, rel=1e-9)


def test_scatter_factored_once_per_scenario(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    _cached_cholesky.cache_clear()
    sc = SimScenario("mvt", 20, 7, scatter="pentadiagonal", signal=0.5, seed=2)
    run_experiment(sc, ["s_tau", "s_pearson"], reps=4)
    assert calls == [(7, 7)]

import hashlib
import math
import warnings

import numpy as np
import pytest

from rankdep import _rng, calibrate
from rankdep import (
    ASYMPTOTIC,
    ConfigError,
    DegenerateColumn,
    DomainError,
    NAMED_STATISTICS,
    MonteCarlo,
    NullTable,
    RankMatrix,
    SampleTooSmall,
    compute_ranks,
    gumbel_max_pvalue,
    montecarlo_null,
    montecarlo_nulls,
    normal_pvalue,
    permutation_ranks,
    raw_statistics,
    run_test,
    run_tests,
    statistic_from_name,
)
from rankdep.aggregate import stacked_raw_statistics
from rankdep.calibrate import stacked_tests
from rankdep.pairwise import stack_depth, stacked_pair_values

S_TAU = statistic_from_name("s_tau")


def test_normal_pvalue_reference_points():
    assert normal_pvalue(0.0) == 0.5
    assert normal_pvalue(1.6448536269514722) == pytest.approx(0.05, abs=1e-10)
    assert normal_pvalue(2.3263478740408408) == pytest.approx(0.01, abs=1e-10)
    assert normal_pvalue(3.0) < normal_pvalue(2.0) < normal_pvalue(1.0)


def test_gumbel_domain_checks():
    with pytest.raises(DomainError):
        gumbel_max_pvalue(0.3, n=64, m=2)
    with pytest.raises(DomainError):
        gumbel_max_pvalue(0.3, n=1, m=8)
    with pytest.raises(DomainError):
        gumbel_max_pvalue(1.2, n=64, m=8)
    with pytest.raises(DomainError):
        gumbel_max_pvalue(-0.1, n=64, m=8)


def test_gumbel_critical_value_roundtrip():
    n = m = 128
    t_crit = -2.0 * math.log(math.sqrt(8 * math.pi) * (-math.log(0.95)))
    s_crit = math.sqrt((t_crit + 4 * math.log(m) - math.log(math.log(m))) / (2.25 * n))
    assert s_crit == pytest.approx(0.26709, abs=5e-5)
    assert gumbel_max_pvalue(s_crit, n, m) == pytest.approx(0.05, rel=1e-12)


def test_gumbel_monotone_in_observation():
    ps = [gumbel_max_pvalue(s, 64, 16) for s in (0.1, 0.2, 0.3, 0.5, 0.9)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert 0.0 <= ps[-1] <= ps[0] <= 1.0


def test_permutation_ranks_keyed_streams():
    a = permutation_ranks(12, 4, seed=5, replicate=0)
    b = permutation_ranks(12, 4, seed=5, replicate=0)
    c = permutation_ranks(12, 4, seed=5, replicate=1)
    assert np.array_equal(a.ranks, b.ranks)
    assert not np.array_equal(a.ranks, c.ranks)
    # columns are independent streams: changing m keeps earlier columns intact
    wide = permutation_ranks(12, 6, seed=5, replicate=0)
    assert np.array_equal(wide.ranks[:, :4], a.ranks)


@pytest.mark.parametrize("n", [2, 3, 5, 64, 129, 300])
def test_permutation_ranks_follow_keyed_generator(n):
    # column c is 1 + the argsort over rows i of
    # splitmix64(splitmix64(mix_key(seed, replicate) ^ c) ^ i), here in Python ints
    for seed in (0, 11, 2**63 + 5, -3):
        for replicate in (0, 7, 1999):
            got = permutation_ranks(n, 3, seed=seed, replicate=replicate).ranks
            assert got.dtype == np.int64
            base = _rng.mix_key(seed, replicate)
            for c in range(3):
                column = _rng.splitmix64(base ^ c)
                keys = [_rng.splitmix64(column ^ i) for i in range(n)]
                want = [1 + i for i in sorted(range(n), key=keys.__getitem__)]
                assert got[:, c].tolist() == want, (seed, replicate, c)


def test_permutation_stream_pinned():
    # literals from the splitmix64 key grid of (seed, replicate, column, row)
    assert permutation_ranks(10, 3, seed=5, replicate=2).ranks.T.tolist() == [
        [6, 3, 7, 1, 9, 8, 10, 2, 5, 4],
        [1, 8, 4, 5, 7, 10, 9, 3, 6, 2],
        [3, 4, 7, 2, 6, 5, 8, 10, 1, 9],
    ]
    values = montecarlo_null(S_TAU, n=32, m=8, reps=200, seed=12).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "d501470adf49b74a6d1743eb9600f3c7d26835ddf1c544adca5d4be77762d4fa"
    )


def test_permutation_draws_are_uniform_at_n4():
    # chi-squared over the 24 patterns, at a seed fixed before looking; 49.728
    # is the 0.999 quantile of chi-squared with 23 degrees of freedom
    reps = 4800
    stack = calibrate._permutation_stack(4, 2, 2026, range(reps)) - 1
    first, second = stack[:, :, 0], stack[:, :, 1]
    relative = np.take_along_axis(second, np.argsort(first, axis=1), axis=1)
    for name, patterns in (("column 0", first), ("column 1", second), ("1 relative to 0", relative)):
        _, counts = np.unique(patterns @ np.array([64, 16, 4, 1]), return_counts=True)
        assert len(counts) == 24, name
        expected = reps / 24
        assert ((counts - expected) ** 2 / expected).sum() < 49.728, name


def test_mc_null_shape_tables_pinned():
    # the benchmark's mc-null shape; digests recorded from one replicate at a time
    stats = [S_TAU, statistic_from_name("s_max_tau")]
    tables = montecarlo_nulls(stats, n=64, m=32, reps=199, seed=11)
    assert [hashlib.sha256(t.values.tobytes()).hexdigest() for t in tables] == [
        "815d8844489f8ae9b4230dd392647b3d7333b685e264ce61ff36b14a7c8c682d",
        "086d32eb0e0adb360fd2e51526ac61ba561da32588f40b19d84bf906f794eac7",
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_batches_equal_replicates_one_by_one(threads, monkeypatch):
    # every rank statistic, t_rho_hat and t_tstar included, at n = 10 (t_tstar
    # needs 8); s_pearson reads data and has no permutation null
    n, m, seed = 10, 4, 23
    stats = [sid for name, sid in NAMED_STATISTICS.items() if name != "s_pearson"]
    assert len(stats) == 13
    depth = stack_depth(n, m)
    assert depth > 40
    singles = [raw_statistics(permutation_ranks(n, m, seed, r), stats, threads) for r in range(11)]
    batch = stacked_raw_statistics(calibrate._permutation_stack(n, m, seed, range(11)), stats, threads)
    assert np.array(batch).T.tobytes() == np.array(singles).tobytes()
    # reps below the derived depth (one batch), then batches of 4 with a remainder of 3 and of 1
    for forced, reps in ((None, 11), (4, 11), (4, 9), (4, 3)):
        if forced:
            monkeypatch.setattr(calibrate, "stack_depth", lambda n, m, d=forced: d)
        tables = montecarlo_nulls(stats, n, m, reps, seed, threads)
        for sid, table, want in zip(stats, tables, np.array(singles[:reps]).T):
            assert table.values.tobytes() == np.sort(want).tobytes(), (forced, reps, sid.name)


def test_montecarlo_null_sorted_and_thread_invariant():
    t1 = montecarlo_null(S_TAU, n=16, m=4, reps=40, seed=3, threads=1)
    t4 = montecarlo_null(S_TAU, n=16, m=4, reps=40, seed=3, threads=4)
    assert np.array_equal(t1.values, t4.values)
    assert np.all(np.diff(t1.values) >= 0)
    assert t1.reps == 40 and t1.values.shape == (40,)


def test_montecarlo_nulls_per_pair_kernels_thread_invariant():
    # s_d and t_rho_hat run per-pair kernels, the loop that threads splits
    stats = [statistic_from_name(s) for s in ("s_d", "t_rho_hat")]
    t1 = montecarlo_nulls(stats, n=12, m=4, reps=10, seed=6, threads=1)
    t3 = montecarlo_nulls(stats, n=12, m=4, reps=10, seed=6, threads=3)
    for a, b in zip(t1, t3):
        assert a.values.tobytes() == b.values.tobytes(), a.statistic.name


def test_threads_below_one_rejected():
    rm = permutation_ranks(16, 4, seed=1, replicate=0)
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        montecarlo_null(S_TAU, n=16, m=4, reps=5, seed=0, threads=0)
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        run_tests(rm, [S_TAU], threads=0)
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        run_tests(rm, [statistic_from_name("s_rho_s")], threads=0)  # no pair requirement


def test_joint_nulls_match_separate_tables():
    stats = [statistic_from_name(s) for s in ("s_tau", "s_max_tau", "t_tau")]
    joint = montecarlo_nulls(stats, n=16, m=5, reps=30, seed=7)
    for sid, table in zip(stats, joint):
        alone = montecarlo_null(sid, n=16, m=5, reps=30, seed=7)
        assert table.statistic == sid
        assert table.values.tobytes() == alone.values.tobytes(), sid.name


def test_s_pearson_reads_data_and_has_no_permutation_null():
    data = np.random.default_rng(3).standard_normal((20, 4))
    rm = RankMatrix(data.argsort(axis=0).argsort(axis=0) + 1)
    pearson = statistic_from_name("s_pearson")
    res = run_tests(rm, [pearson], data=data)[0]
    r = np.corrcoef(data, rowvar=False)[np.triu_indices(4, 1)]
    assert res.raw == math.fsum((r * r).tolist()) - 6 / 19
    assert res.p_value == normal_pvalue(res.raw * (20 / 4))
    for data_arg in (None, data[:, :3]):
        with pytest.raises(ConfigError, match="s_pearson needs the data matrix the ranks came from"):
            run_tests(rm, [S_TAU, pearson], data=data_arg)
    with pytest.raises(ConfigError, match="s_pearson supports only asymptotic calibration"):
        montecarlo_null(pearson, n=20, m=4, reps=9, seed=0)
    with pytest.raises(ConfigError, match="s_pearson supports only asymptotic calibration"):
        run_tests(rm, [pearson], method=MonteCarlo(reps=9, seed=0), data=data)


def test_one_column_stack_fails_before_any_engine():
    # the column check runs even when no pair value is requested, so a statistic
    # that reads only correlations cannot reach them with one column
    rm = RankMatrix(np.arange(1, 9)[:, None])
    with pytest.raises(ValueError, match="need at least 2 columns"):
        stacked_pair_values(rm.ranks[None], set())
    for name in ("s_rho_s", "s_pearson"):
        with pytest.raises(ValueError, match="need at least 2 columns"):
            run_tests(rm, [statistic_from_name(name)], data=rm.ranks * 1.5)


def test_s_pearson_on_a_degenerate_column_raises():
    # a zero variance, or one that overflows float64, leaves the correlations undefined
    data = np.random.default_rng(4).standard_normal((6, 3))
    flat, huge = data.copy(), data.copy()
    flat[:, 1] = 1.0
    huge[:, 2] *= 1e307
    pearson = statistic_from_name("s_pearson")
    for x, column in ((flat, 1), (huge, 2)):
        rm = RankMatrix(x.argsort(axis=0, kind="stable").argsort(axis=0) + 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = f"s_pearson is undefined: column {column} has zero or non-finite variance"
            with pytest.raises(DegenerateColumn, match=want):
                run_tests(rm, [S_TAU, pearson], data=x)
            run_tests(rm, [S_TAU], data=x)
        assert caught == []


def test_run_tests_match_run_test():
    rm = permutation_ranks(16, 4, seed=12, replicate=3)
    stats = [statistic_from_name(s) for s in ("s_tau", "t_tau", "s_max_tau", "s_rho_s")]
    for method in (ASYMPTOTIC, MonteCarlo(reps=19, seed=5)):
        joint = run_tests(rm, stats, method=method)
        assert joint == [run_test(rm, sid, method=method) for sid in stats]


def test_stacked_tests_equal_run_tests_one_by_one():
    # every named statistic, each matrix of the stack against run_tests on it
    # alone, bitwise (repr shows every float exactly)
    n, m, depth = 10, 5, 6
    data = np.random.default_rng(9).standard_normal((depth, n, m))
    data[:, :, 1] += data[:, :, 0]
    ranks = [compute_ranks(x) for x in data]
    stack = np.array([rm.ranks for rm in ranks])
    stats = list(NAMED_STATISTICS.values())
    mc = MonteCarlo(reps=19, seed=4)
    rank_stats = [sid for sid in stats if sid.name != "s_pearson"]
    tables = montecarlo_nulls(rank_stats, n, m, mc.reps, mc.seed)
    pair = [S_TAU, statistic_from_name("s_max_tau")]
    cases = [(ASYMPTOTIC, stats, None), (mc, rank_stats, tables), (mc, pair, None)]
    for threads in (1, 2):
        for method, chosen, given in cases:
            got = stacked_tests(stack, chosen, 0.3, method, threads, given, data)
            want = [run_tests(rm, chosen, 0.3, method, threads, given, x) for rm, x in zip(ranks, data)]
            assert len(got) == depth and repr(got) == repr(want), (threads, method)


def test_stacked_tests_check_once_before_the_pair_stage(monkeypatch):
    stack = np.array([_dependent_ranks(8, 2).ranks] * 3)
    s_max = statistic_from_name("s_max_tau")
    mc = MonteCarlo(reps=9, seed=1)
    table = montecarlo_null(S_TAU, n=8, m=2, reps=9, seed=2)
    monkeypatch.setattr(calibrate, "stacked_raw_statistics", lambda *a: pytest.fail("the pair stage ran"))
    with pytest.raises(ConfigError, match="alpha must lie in"):
        stacked_tests(stack, [S_TAU], alpha=1.0)
    with pytest.raises(ConfigError, match="null tables need method MonteCarlo"):
        stacked_tests(stack, [S_TAU], null_tables=[table])
    with pytest.raises(SampleTooSmall, match="s_max_tau's Gumbel limit needs m >= 3, got 2"):
        stacked_tests(stack, [S_TAU, s_max])
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="provided null table does not match this test"):
        stacked_tests(stack, [S_TAU], method=mc, null_tables=[table])


def test_montecarlo_null_validation():
    with pytest.raises(ConfigError):
        montecarlo_null(S_TAU, n=16, m=4, reps=0, seed=0)
    with pytest.raises(ConfigError, match="reps must be positive, got 0"):
        MonteCarlo(reps=0, seed=0)
    with pytest.raises(ConfigError):
        montecarlo_null(S_TAU, n=16, m=1, reps=5, seed=0)
    with pytest.raises(SampleTooSmall):
        montecarlo_null(S_TAU, n=3, m=4, reps=5, seed=0)


def test_quantile_indexing():
    vals = np.arange(1.0, 101.0)
    t = NullTable(statistic=S_TAU, n=16, m=4, reps=100, seed=0, values=vals)
    assert t.quantile(0.95) == 95.0
    assert t.quantile(0.0) == 1.0
    assert t.quantile(1.0) == 100.0
    with pytest.raises(DomainError):
        t.quantile(1.5)


def _dependent_ranks(n, m):
    col = np.arange(1, n + 1)
    return RankMatrix(np.column_stack([col] * m))


def test_run_test_both_methods_reject_identical_columns():
    rm = _dependent_ranks(24, 4)
    asym = run_test(rm, S_TAU, alpha=0.05)
    assert asym.method == "asymptotic"
    assert asym.reject and asym.p_value < 1e-6

    mc = run_test(rm, S_TAU, alpha=0.05, method=MonteCarlo(reps=99, seed=2))
    assert mc.method == "montecarlo"
    assert mc.p_value == pytest.approx(0.01)
    assert mc.reject
    assert mc.reps == 99 and mc.seed == 2


def test_run_test_montecarlo_p_bounds():
    rm = permutation_ranks(16, 4, seed=11, replicate=7)
    res = run_test(rm, S_TAU, method=MonteCarlo(reps=19, seed=4))
    assert 1 / 20 <= res.p_value <= 1.0
    assert res.p_value * 20 == pytest.approx(round(res.p_value * 20))


def test_run_test_gumbel_uses_raw_scale():
    rm = _dependent_ranks(24, 4)
    res = run_test(rm, statistic_from_name("s_max_tau"))
    assert res.raw == 1.0
    assert res.p_value == gumbel_max_pvalue(1.0, 24, 4)


def test_gumbel_limit_needs_three_columns(monkeypatch):
    # too few columns for the asymptotic s_max_tau is a data problem, raised
    # before the pair stage; its permutation null still runs at m = 2
    rm = _dependent_ranks(5, 2)
    s_max = statistic_from_name("s_max_tau")
    with monkeypatch.context() as mp:
        mp.setattr(calibrate, "stacked_raw_statistics", None)
        with pytest.raises(SampleTooSmall, match="s_max_tau's Gumbel limit needs m >= 3, got 2"):
            run_tests(rm, [S_TAU, s_max])
    res = run_test(rm, s_max, method=MonteCarlo(19, 3))
    assert res.raw == 1.0 and 0.0 < res.p_value <= 1.0


def test_run_test_rejects_bad_alpha_and_table():
    rm = _dependent_ranks(16, 4)
    with pytest.raises(ConfigError):
        run_test(rm, S_TAU, alpha=0.0)
    with pytest.raises(ConfigError):
        run_test(rm, S_TAU, alpha=1.0)
    # a table must match the test's statistic, n, m and the method's reps and seed
    for wrong in (
        montecarlo_null(S_TAU, n=12, m=4, reps=10, seed=0),
        montecarlo_null(S_TAU, n=16, m=4, reps=10, seed=5),
        montecarlo_null(S_TAU, n=16, m=4, reps=40, seed=0),
    ):
        with pytest.raises(ConfigError):
            run_test(rm, S_TAU, method=MonteCarlo(10, 0), null_table=wrong)
    right = montecarlo_null(S_TAU, n=16, m=4, reps=10, seed=0)
    assert run_test(rm, S_TAU, method=MonteCarlo(10, 0), null_table=right) == run_test(
        rm, S_TAU, method=MonteCarlo(10, 0)
    )
    # a table under the asymptotic method is an error, not ignored
    with pytest.raises(ConfigError, match="null tables need method MonteCarlo, got Asymptotic"):
        run_test(rm, S_TAU, null_table=right)
    with pytest.raises(ConfigError, match="null tables need method MonteCarlo, got Asymptotic"):
        run_tests(rm, [S_TAU], method=ASYMPTOTIC, null_tables=[right])


def test_result_dict_shape():
    rm = _dependent_ranks(16, 3)
    d = run_test(rm, S_TAU).to_dict()
    assert set(d) == {
        "statistic", "raw", "rescaled", "p_value", "reject", "n", "m", "method", "seed",
        "alpha", "reps",
    }
    assert d["statistic"] == "s_tau" and d["method"] == "asymptotic" and d["seed"] is None
    assert d["alpha"] == 0.05 and d["reps"] is None
    mc = run_test(rm, S_TAU, alpha=0.1, method=MonteCarlo(reps=19, seed=4)).to_dict()
    assert (mc["method"], mc["seed"], mc["reps"], mc["alpha"]) == ("montecarlo", 4, 19, 0.1)

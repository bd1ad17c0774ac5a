import math

import numpy as np
import pytest

from rankdep import (
    ConfigError,
    DegenerateColumn,
    KernelId,
    NAMED_STATISTICS,
    RankMatrix,
    SampleTooSmall,
    StatisticId,
    StatKind,
    all_pairs,
    limit_family,
    min_sample_size,
    montecarlo_nulls,
    mu_h_exact,
    raw_statistic,
    raw_statistics,
    rescale_factor,
    statistic_from_name,
)
from rankdep import pairwise
from rankdep._rng import generator
from rankdep.aggregate import pair_requirement, stacked_raw_statistics


def identical_columns(n, m):
    col = np.arange(1, n + 1)
    return RankMatrix(np.column_stack([col] * m))


def random_ranks(seed, n, m):
    rng = generator(seed, 0, 0)
    return RankMatrix(np.column_stack([rng.permutation(n) + 1 for _ in range(m)]))


def test_named_statistics_catalog():
    assert len(NAMED_STATISTICS) == 14
    for name, sid in NAMED_STATISTICS.items():
        assert sid.name == name
        assert str(sid) == name
        assert statistic_from_name(name) == sid
    assert "t_d" not in NAMED_STATISTICS


def test_unknown_name_rejected():
    with pytest.raises(ConfigError):
        statistic_from_name("t_d")
    with pytest.raises(ConfigError):
        statistic_from_name("s_kendall")


def test_statistic_id_validation():
    with pytest.raises(ConfigError):
        StatisticId(StatKind.S)
    with pytest.raises(ConfigError):
        StatisticId(StatKind.S_RHO_S, KernelId.TAU)


def test_min_sample_size():
    cases = {
        "s_tau": 4, "t_tau": 4, "z_tau": 2,
        "s_rho_hat": 6, "t_rho_hat": 6, "z_rho_hat": 3,
        "s_tstar": 8, "t_tstar": 8, "z_tstar": 4,
        "s_d": 10, "z_d": 5,
        "s_rho_s": 2, "s_max_tau": 2,
    }
    for name, need in cases.items():
        assert min_sample_size(statistic_from_name(name)) == need


def test_statistic_table():
    # each statistic's row of facts: the pair value it reads (None: a correlation
    # matrix), its minimum n, its limit, and whether it has a permutation null
    tau, rho, tstar, d = KernelId.TAU, KernelId.RHO_HAT, KernelId.T_STAR, KernelId.HOEFF_D
    rows = {
        "s_tau": ((tau, "U"), 4, "normal"), "t_tau": ((tau, "W"), 4, "normal"),
        "z_tau": ((tau, "U"), 2, "normal"), "s_rho_hat": ((rho, "U"), 6, "normal"),
        "t_rho_hat": ((rho, "W"), 6, "normal"), "z_rho_hat": ((rho, "U"), 3, "normal"),
        "s_d": ((d, "U"), 10, "normal"), "z_d": ((d, "U"), 5, "normal"),
        "s_tstar": ((tstar, "U"), 8, "normal"), "t_tstar": ((tstar, "W"), 8, "normal"),
        "z_tstar": ((tstar, "U"), 4, "normal"), "s_rho_s": (None, 2, "normal"),
        "s_pearson": (None, 2, "normal"), "s_max_tau": ((tau, "U"), 2, "gumbel"),
    }
    stats = {name: statistic_from_name(name) for name in rows}
    stats["t_hoeffd"] = StatisticId(StatKind.T, d)
    rows["t_hoeffd"] = ((d, "W"), 10, "normal")
    assert set(rows) == set(NAMED_STATISTICS) | {"t_hoeffd"}
    for name, (pair, need, limit) in rows.items():
        sid = stats[name]
        assert (pair_requirement(sid), min_sample_size(sid), limit_family(sid)) == (pair, need, limit), name
        if name == "s_pearson":
            with pytest.raises(ConfigError, match="only asymptotic"):
                montecarlo_nulls([sid], n=10, m=3, reps=2, seed=0)
        else:
            assert montecarlo_nulls([sid], n=10, m=3, reps=2, seed=0)[0].values.shape == (2,), name


def test_s_stat_identical_columns_exact():
    # every pairwise tau is exactly 1, so S = C(m,2) * (1 - mu(n))
    n, m = 5, 4
    rm = identical_columns(n, m)
    got = raw_statistic(rm, statistic_from_name("s_tau"))
    assert got == 6 - 6 * float(mu_h_exact(KernelId.TAU, n))
    assert got == 5.0


def test_s_stat_hoeffding_center():
    n, m = 10, 3
    rm = identical_columns(n, m)
    want = 3 * (1 / 30) ** 2 - 3 * float(mu_h_exact(KernelId.HOEFF_D, n))
    assert raw_statistic(rm, statistic_from_name("s_d")) == pytest.approx(want, rel=1e-14)


def test_s_stat_argument_checks():
    # every statistic checks its own minimum n, not only the pair stage's
    small = identical_columns(3, 3)
    for name in ("s_tau", "t_tau", "z_tstar"):  # n >= 4
        with pytest.raises(SampleTooSmall):
            raw_statistic(small, statistic_from_name(name))
    with pytest.raises(SampleTooSmall):
        raw_statistic(identical_columns(1, 2), statistic_from_name("s_max_tau"))


def test_sums_on_identical_columns():
    rm = identical_columns(6, 4)
    assert raw_statistic(rm, statistic_from_name("z_tau")) == 6.0
    assert raw_statistic(rm, statistic_from_name("t_tau")) == 6.0
    assert raw_statistic(rm, statistic_from_name("s_max_tau")) == 1.0


def test_s_rho_s_small_exact():
    rm = identical_columns(5, 2)
    assert raw_statistic(rm, statistic_from_name("s_rho_s")) == 0.75  # 1 - 1/(n-1)


def test_s_max_tau_column_order_invariant():
    rm = random_ranks(7, 15, 5)
    shuffled = RankMatrix(rm.ranks[:, ::-1].copy())
    a = raw_statistic(rm, statistic_from_name("s_max_tau"))
    b = raw_statistic(shuffled, statistic_from_name("s_max_tau"))
    assert a == b


def test_raw_statistic_guards_sample_size():
    rm = random_ranks(8, 9, 3)
    with pytest.raises(SampleTooSmall):
        raw_statistic(rm, statistic_from_name("s_d"))
    # z_d only needs n >= 5
    raw_statistic(rm, statistic_from_name("z_d"))


def test_raw_statistic_matches_manual_path():
    # raw_statistic equals, bitwise, its reduction written out here from the
    # all_pairs values it reads: S the fsum of the squares less C(m,2) times
    # the null mean of one square, T and Z the fsum, s_max_tau the largest |tau|
    n, m = 12, 4
    rm = random_ranks(9, n, m)
    stats = [sid for name, sid in NAMED_STATISTICS.items() if name not in ("s_rho_s", "s_pearson")]
    stats.append(StatisticId(StatKind.T, KernelId.HOEFF_D))
    for sid in stats:
        if sid.kind is StatKind.S_MAX_TAU:
            v = all_pairs(rm, KernelId.TAU, "U").values
            want = max(abs(x) for x in v.tolist())
        elif sid.kind is StatKind.S:
            v = all_pairs(rm, sid.kernel, "U").values
            want = math.fsum((v * v).tolist()) - float(math.comb(m, 2) * mu_h_exact(sid.kernel, n))
        else:
            v = all_pairs(rm, sid.kernel, "W" if sid.kind is StatKind.T else "U").values
            want = math.fsum(v.tolist())
        assert raw_statistic(rm, sid) == want, sid.name
    assert len(stats) == 13 and stats[-1].name == "t_hoeffd"


def test_stacked_pearson_names_the_first_degenerate_matrix_column():
    # matrix 0 has column 3 constant and matrix 1 column 1: the stack names the
    # column of its first degenerate matrix, as raw_statistics on that matrix does
    data = np.random.default_rng(8).standard_normal((2, 10, 5))
    data[0, :, 3] = 1.0
    data[1, :, 1] = 1.0
    stack = np.array([random_ranks(seed, 10, 5).ranks for seed in (1, 2)])
    pearson = [statistic_from_name("s_pearson")]
    for b, column in ((0, 3), (1, 1)):
        with pytest.raises(DegenerateColumn, match=f"column {column} has zero"):
            raw_statistics(RankMatrix(stack[b]), pearson, data=data[b])
    with pytest.raises(DegenerateColumn, match="column 3 has zero"):
        stacked_raw_statistics(stack, pearson, data=data)
    with pytest.raises(DegenerateColumn, match="column 1 has zero"):
        stacked_raw_statistics(stack[::-1], pearson, data=data[::-1])


def test_raw_statistics_match_single_statistic_calls():
    # one shared pass (tau W yields the Gram for tau U and rho_hat U) gives
    # the same bits as each statistic computed on its own; all 13 rank
    # statistics, without s_pearson, which reads data
    rm = random_ranks(10, 12, 4)
    stats = [sid for name, sid in NAMED_STATISTICS.items() if name != "s_pearson"]
    assert len(stats) == 13
    joint = raw_statistics(rm, stats)
    for sid, value in zip(stats, joint):
        assert value == raw_statistic(rm, sid), sid.name
    assert raw_statistics(rm, stats[::-1]) == joint[::-1]


def test_rank_statistics_metamorphic_identities(monkeypatch):
    # every pair value is an exact integer ratio, fsum is correctly rounded and a
    # max takes no order, so these relabelings keep all 13 rank statistics bit for
    # bit: rows permuted jointly, columns permuted, every column reversed, and one
    # column reversed, for all but z_tau and z_rho_hat, whose pair values with that
    # column change sign (t* and D do not see one coordinate reflected).  The small
    # budget splits every slab, chunk and block; its values must equal the default's.
    names = [name for name in NAMED_STATISTICS if name != "s_pearson"]
    stats = [NAMED_STATISTICS[name] for name in names]
    signed = {"z_tau", "z_rho_hat"}

    def bits(r):
        return [v.hex() for v in raw_statistics(RankMatrix(r), stats)]

    default = pairwise.BYTE_BUDGET
    for seed, (n, m) in enumerate(((10, 3), (11, 4), (12, 5), (13, 6), (10, 6), (13, 3))):
        rng = generator(70 + seed, 0, 0)
        r = random_ranks(70 + seed, n, m).ranks
        monkeypatch.setattr(pairwise, "BYTE_BUDGET", default)
        want = bits(r)
        one, c = r.copy(), rng.integers(m)
        one[:, c] = n + 1 - one[:, c]
        moved = {"rows": r[rng.permutation(n)], "columns": r[:, rng.permutation(m)], "reversed": n + 1 - r}
        for budget in (default, 1024):
            monkeypatch.setattr(pairwise, "BYTE_BUDGET", budget)
            for what, x in moved.items():
                assert bits(x) == want, (n, m, budget, what)
            for name, a, b in zip(names, bits(one), want):
                assert a == b or name in signed, (n, m, budget, name)


def test_rescale_factors_worked_values():
    s_tau = statistic_from_name("s_tau")
    assert 2.0 * rescale_factor(s_tau, n=100, m=50) == pytest.approx(9.0, rel=1e-14)  # factor 4.5
    assert limit_family(s_tau) == "normal"

    r = 3.0 * rescale_factor(statistic_from_name("s_rho_s"), n=64, m=128)
    assert r == pytest.approx(1.5, rel=1e-14)  # factor 0.5

    assert rescale_factor(statistic_from_name("z_tstar"), n=128, m=64) == pytest.approx(5.0, rel=1e-12)

    s_max_tau = statistic_from_name("s_max_tau")
    assert 0.42 * rescale_factor(s_max_tau, n=128, m=64) == 0.42  # passed through for the extreme-value limit
    assert limit_family(s_max_tau) == "gumbel"


def test_rescale_validates_dimensions():
    with pytest.raises(ValueError):
        rescale_factor(statistic_from_name("s_tau"), n=1, m=4)
    with pytest.raises(ValueError):
        rescale_factor(statistic_from_name("s_tau"), n=10, m=1)


def test_limit_family():
    for name in NAMED_STATISTICS:
        want = "gumbel" if name == "s_max_tau" else "normal"
        assert limit_family(statistic_from_name(name)) == want


def test_s_scaling_vs_t_scaling_ordering():
    # the squared-sum family carries the wider null spread, so for the same
    # raw value and geometry its rescaling factor never exceeds the T one
    for kern in ("tstar",):
        s = rescale_factor(statistic_from_name(f"s_{kern}"), n=50, m=10)
        t = rescale_factor(statistic_from_name(f"t_{kern}"), n=50, m=10)
        assert s < t

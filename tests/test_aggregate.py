import dataclasses
import math

import numpy as np
import pytest

from rankdep import (
    ConfigError,
    KernelId,
    NAMED_STATISTICS,
    PairStatistics,
    RankMatrix,
    SampleTooSmall,
    StatisticId,
    StatKind,
    all_pairs,
    limit_family,
    min_sample_size,
    mu_h_exact,
    raw_statistic,
    raw_statistics,
    rescale,
    s_max_tau,
    s_rho_s,
    s_stat,
    statistic_from_name,
    t_stat,
    z_stat,
)
from rankdep._rng import generator
from rankdep.aggregate import pair_requirement


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


def test_s_stat_identical_columns_exact():
    # every pairwise tau is exactly 1, so S = C(m,2) * (1 - mu(n))
    n, m = 5, 4
    rm = identical_columns(n, m)
    pairs = all_pairs(rm, KernelId.TAU, "U")
    got = s_stat(pairs)
    assert got == 6 - 6 * float(mu_h_exact(KernelId.TAU, n))
    assert got == 5.0


def test_s_stat_hoeffding_center():
    n, m = 10, 3
    rm = identical_columns(n, m)
    pairs = all_pairs(rm, KernelId.HOEFF_D, "U")
    want = 3 * (1 / 30) ** 2 - 3 * float(mu_h_exact(KernelId.HOEFF_D, n))
    assert s_stat(pairs) == pytest.approx(want, rel=1e-14)


def test_s_stat_argument_checks():
    rm = identical_columns(6, 3)
    wpairs = all_pairs(rm, KernelId.TAU, "W")
    with pytest.raises(ValueError):
        s_stat(wpairs)
    small = all_pairs(identical_columns(3, 3), KernelId.TAU, "U")
    with pytest.raises(SampleTooSmall):
        s_stat(small)
    # every reducer checks its statistic's minimum n, not only the pair stage's
    three = np.zeros(3)
    with pytest.raises(SampleTooSmall):
        t_stat(PairStatistics(KernelId.TAU, "W", three, n=3, m=3))  # t_tau: n >= 4
    with pytest.raises(SampleTooSmall):
        z_stat(PairStatistics(KernelId.T_STAR, "U", three, n=3, m=3))  # z_tstar: n >= 4
    with pytest.raises(SampleTooSmall):
        s_max_tau(PairStatistics(KernelId.TAU, "U", np.zeros(1), n=1, m=2))


def test_sums_on_identical_columns():
    rm = identical_columns(6, 4)
    upairs = all_pairs(rm, KernelId.TAU, "U")
    wpairs = all_pairs(rm, KernelId.TAU, "W")
    assert z_stat(upairs) == 6.0
    assert t_stat(wpairs) == 6.0
    assert s_max_tau(upairs) == 1.0


def test_s_rho_s_small_exact():
    rm = identical_columns(5, 2)
    assert s_rho_s(rm) == 0.75  # 1 - 1/(n-1)


def test_s_max_tau_requires_tau_pairs():
    rm = identical_columns(6, 3)
    pairs = all_pairs(rm, KernelId.RHO_HAT, "U")
    with pytest.raises(ValueError):
        s_max_tau(pairs)


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
    # each pair-object reducer, given the pair result its statistic reads,
    # equals raw_statistic bitwise; given any other result, or C(m,2) - 1
    # values, it raises ValueError
    rm = random_ranks(9, 12, 4)
    results = [all_pairs(rm, kernel, kind) for kernel in KernelId for kind in "UW"]
    reducers = {StatKind.S: s_stat, StatKind.T: t_stat, StatKind.Z: z_stat, StatKind.S_MAX_TAU: s_max_tau}
    checked = set()
    for kind, reduce in reducers.items():
        for pairs in results:
            sid = StatisticId(kind, None if kind is StatKind.S_MAX_TAU else pairs.kernel)
            if pair_requirement(sid) != (pairs.kernel, pairs.kind):
                with pytest.raises(ValueError):
                    reduce(pairs)
                continue
            assert reduce(pairs) == raw_statistic(rm, sid), sid.name
            with pytest.raises(ValueError):
                reduce(dataclasses.replace(pairs, values=pairs.values[:-1]))
            checked.add(sid.name)
    assert checked == set(NAMED_STATISTICS) - {"s_rho_s", "s_pearson"} | {"t_hoeffd"}


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


def test_rescale_factors_worked_values():
    r = rescale(statistic_from_name("s_tau"), 2.0, n=100, m=50)
    assert r.rescaled == pytest.approx(9.0, rel=1e-14)  # factor 4.5
    assert r.limit == "normal"

    r = rescale(statistic_from_name("s_rho_s"), 3.0, n=64, m=128)
    assert r.rescaled == pytest.approx(1.5, rel=1e-14)  # factor 0.5

    r = rescale(statistic_from_name("z_tstar"), 1.0, n=128, m=64)
    assert r.rescaled == pytest.approx(5.0, rel=1e-12)

    r = rescale(statistic_from_name("s_max_tau"), 0.42, n=128, m=64)
    assert r.rescaled == 0.42  # passed through for the extreme-value limit
    assert r.limit == "gumbel"


def test_rescale_validates_dimensions():
    with pytest.raises(ValueError):
        rescale(statistic_from_name("s_tau"), 1.0, n=1, m=4)
    with pytest.raises(ValueError):
        rescale(statistic_from_name("s_tau"), 1.0, n=10, m=1)


def test_limit_family():
    for name in NAMED_STATISTICS:
        want = "gumbel" if name == "s_max_tau" else "normal"
        assert limit_family(statistic_from_name(name)) == want


def test_s_scaling_vs_t_scaling_ordering():
    # the squared-sum family carries the wider null spread, so for the same
    # raw value and geometry its rescaling factor never exceeds the T one
    for kern in ("tstar",):
        s = rescale(statistic_from_name(f"s_{kern}"), 1.0, n=50, m=10).rescaled
        t = rescale(statistic_from_name(f"t_{kern}"), 1.0, n=50, m=10).rescaled
        assert s < t

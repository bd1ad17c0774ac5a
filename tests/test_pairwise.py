import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rankdep import (
    ConfigError,
    ExactnessCeiling,
    KernelId,
    LengthMismatch,
    PairStatistics,
    RankMatrix,
    SampleTooSmall,
    all_pairs,
    all_pairs_spearman,
    hoeffding_d,
    kendall_tau_fast,
    pair_statistics,
    rho_hat,
    spearman_rho,
    tstar,
    u_stat_naive,
    w_stat,
    w_stat_naive,
)
from rankdep import pairwise
from rankdep._rng import generator
from rankdep.pairwise import _FAST_U, _hoeffding_num

REL = 1e-10


def perm(rng, n):
    return (rng.permutation(n) + 1).tolist()


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_worked_examples():
    assert kendall_tau_fast([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(1 / 3, abs=0)
    assert spearman_rho([1, 2, 3], [1, 3, 2]) == 0.5
    assert rho_hat([1, 2, 3], [1, 3, 2]) == 1.0
    assert w_stat(KernelId.TAU, [1, 2, 3, 4], [2, 1, 4, 3]) == 1.0


def test_extremal_values_exact():
    ident5 = [1, 2, 3, 4, 5]
    assert kendall_tau_fast(ident5, ident5) == 1.0
    assert spearman_rho(ident5, ident5) == 1.0
    assert rho_hat(ident5, ident5) == 1.0
    assert tstar([1, 2, 3, 4], [1, 2, 3, 4]) == 2 / 3
    assert hoeffding_d(ident5, ident5) == 1 / 30
    assert hoeffding_d(ident5, ident5[::-1]) == 1 / 30
    assert kendall_tau_fast(ident5, ident5[::-1]) == -1.0


def test_scalar_rank_sums_exact_past_int64():
    # sum(R_i S_i) of identical columns passes 2^63 from n = 3,024,617 on, and
    # takes four int64 chunks at this n
    n = 3_100_000
    up = np.arange(1, n + 1, dtype=np.int64)
    assert (spearman_rho(up, up), spearman_rho(up, up[::-1])) == (1.0, -1.0)
    assert (rho_hat(up, up), rho_hat(up, up[::-1])) == (1.0, -1.0)


def test_fast_paths_match_subset_enumeration():
    rng = generator(99, 0, 0)
    for kid in KernelId:
        k = kid.degree
        for trial in range(25):
            n = int(rng.integers(k, 13))
            rx, ry = perm(rng, n), perm(rng, n)
            assert close(_FAST_U[kid](rx, ry), u_stat_naive(kid, rx, ry)), (kid, rx, ry)


def test_w_stat_matches_split_enumeration():
    rng = generator(98, 0, 0)
    cases = {
        KernelId.TAU: [4, 5, 7, 9],
        KernelId.RHO_HAT: [6, 7, 8],
        KernelId.T_STAR: [8, 9],
        KernelId.HOEFF_D: [10, 11],
    }
    for kid, sizes in cases.items():
        for n in sizes:
            rx, ry = perm(rng, n), perm(rng, n)
            assert close(w_stat(kid, rx, ry), w_stat_naive(kid, rx, ry)), (kid, n)


def test_w_stat_pinned_beyond_oracle_sizes():
    # literal values from a two-pass form of the same inclusion-exclusion
    # identity, at sizes the split enumeration cannot reach
    cases = [
        (KernelId.RHO_HAT, 120, 91, "-0x1.5a9817461cf1dp-8"),
        (KernelId.T_STAR, 40, 92, "0x1.7247494700f70p-13"),
        (KernelId.HOEFF_D, 16, 93, "-0x1.ee3dc5ca7b89ap-23"),
    ]
    for kid, n, seed, want in cases:
        rng = generator(seed, 0, 0)
        rx, ry = perm(rng, n), perm(rng, n)
        assert w_stat(kid, rx, ry) == float.fromhex(want), kid


def test_w_stat_tau_matches_tau_engine():
    rm = _random_ranks(47, 300, 4)
    (values,) = pairwise.tau_family_pairs(rm.ranks[None], [(KernelId.TAU, "W")])[(KernelId.TAU, "W")]
    ps = PairStatistics(KernelId.TAU, "W", values, rm.n, rm.m)
    for p in range(rm.m):
        for q in range(p + 1, rm.m):
            assert w_stat(KernelId.TAU, rm.column(p), rm.column(q)) == ps.value(p, q), (p, q)


def test_w_stat_raises_above_int64_ceiling():
    ceilings = {KernelId.TAU: 2_097_152, KernelId.RHO_HAT: 8_193, KernelId.T_STAR: 702, KernelId.HOEFF_D: 224}
    assert {kid: pairwise._w_ceiling(kid) for kid in KernelId} == ceilings
    # the guard runs before the O(n^(k-1)) level arrays are allocated
    for kid in (KernelId.T_STAR, KernelId.HOEFF_D):
        n = ceilings[kid] + 1
        with pytest.raises(ValueError, match=f"n <= {ceilings[kid]}, got {n}"):
            w_stat(kid, list(range(1, n + 1)), list(range(n, 0, -1)))


def test_inversions_match_quadratic_count():
    rng = generator(17, 0, 0)
    sizes = [*range(21), 63, 64, 65, 127, 128, 129, *rng.integers(200, 3001, size=3).tolist()]
    for n in sizes:
        ident = np.arange(1, n + 1, dtype=np.int64)
        assert pairwise._inversions(ident) == 0
        assert pairwise._inversions(ident[::-1].copy()) == n * (n - 1) // 2
        seq = rng.permutation(n).astype(np.int64) + 1
        quadratic = int(np.count_nonzero(np.triu(seq[:, None] > seq[None, :])))
        assert pairwise._inversions(seq) == quadratic, n


def test_coordinate_swap_symmetry():
    rng = generator(97, 0, 0)
    for kid in KernelId:
        for trial in range(10):
            n = int(rng.integers(kid.degree, 12))
            rx, ry = perm(rng, n), perm(rng, n)
            assert _FAST_U[kid](rx, ry) == _FAST_U[kid](ry, rx)


def test_monotone_relabeling_invariance():
    # statistics depend on ranks only, so applying the same strictly
    # increasing relabeling to a rank vector must not change anything
    rng = generator(96, 0, 0)
    n = 9
    rx, ry = perm(rng, n), perm(rng, n)
    values = np.sort(rng.normal(size=n))
    data = np.column_stack([values[np.array(rx) - 1], values[np.array(ry) - 1]])
    from rankdep import compute_ranks

    rm = compute_ranks(data)
    assert kendall_tau_fast(rm.column(0), rm.column(1)) == kendall_tau_fast(rx, ry)
    assert hoeffding_d(rm.column(0), rm.column(1)) == hoeffding_d(rx, ry)


def test_validation_errors():
    with pytest.raises(LengthMismatch):
        kendall_tau_fast([1, 2, 3], [1, 2])
    with pytest.raises(SampleTooSmall):
        rho_hat([1, 2], [2, 1])
    with pytest.raises(SampleTooSmall):
        hoeffding_d([1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(SampleTooSmall):
        tstar([1, 2, 3], [1, 2, 3])
    with pytest.raises(SampleTooSmall):
        w_stat(KernelId.TAU, [1, 2, 3], [1, 2, 3])
    with pytest.raises(SampleTooSmall):
        u_stat_naive(KernelId.HOEFF_D, [1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        kendall_tau_fast([1, 2, 2], [1, 2, 3])  # not a permutation


def _random_ranks(seed, n, m):
    rng = generator(seed, 0, 0)
    cols = [rng.permutation(n) + 1 for _ in range(m)]
    return RankMatrix(np.column_stack(cols))


def test_all_pairs_matches_scalar_loops():
    rm = _random_ranks(41, 20, 6)
    scalar = {
        (KernelId.TAU, "U"): kendall_tau_fast,
        (KernelId.RHO_HAT, "U"): rho_hat,
        (KernelId.T_STAR, "U"): tstar,
        (KernelId.HOEFF_D, "U"): hoeffding_d,
        (KernelId.TAU, "W"): lambda a, b: w_stat(KernelId.TAU, a, b),
        (KernelId.RHO_HAT, "W"): lambda a, b: w_stat(KernelId.RHO_HAT, a, b),
    }
    for (kid, kind), fn in scalar.items():
        ps = all_pairs(rm, kid, kind)
        idx = 0
        for p in range(rm.m):
            for q in range(p + 1, rm.m):
                want = fn(rm.column(p), rm.column(q))
                assert close(float(ps.values[idx]), want, 1e-12), (kid, kind, p, q)
                assert ps.value(p, q) == ps.values[idx]
                idx += 1


def test_all_pairs_spearman_matches_scalar():
    rm = _random_ranks(42, 17, 5)
    vals = all_pairs_spearman(rm)
    idx = 0
    for p in range(rm.m):
        for q in range(p + 1, rm.m):
            assert vals[idx] == spearman_rho(rm.column(p), rm.column(q))
            idx += 1


def test_all_pairs_thread_count_does_not_change_bits():
    rm = _random_ranks(43, 40, 10)
    for kid, kind in [
        (KernelId.TAU, "U"),
        (KernelId.RHO_HAT, "U"),
        (KernelId.HOEFF_D, "U"),
        (KernelId.TAU, "W"),
    ]:
        v1 = all_pairs(rm, kid, kind, threads=1).values
        v4 = all_pairs(rm, kid, kind, threads=4).values
        v8 = all_pairs(rm, kid, kind, threads=8).values
        assert np.array_equal(v1, v4) and np.array_equal(v4, v8), (kid, kind)


def test_pair_statistics_matches_all_pairs():
    # one call, a mixed set: the tau family's engine pass and the per-pair
    # kernels split over threads, each equal to its own all_pairs call
    rm = _random_ranks(48, 10, 5)
    reqs = [
        (KernelId.TAU, "U"), (KernelId.RHO_HAT, "U"), (KernelId.TAU, "W"), (KernelId.T_STAR, "U"),
        (KernelId.HOEFF_D, "U"), (KernelId.RHO_HAT, "W"), (KernelId.T_STAR, "W"),
    ]
    want = {req: all_pairs(rm, *req).values for req in reqs}
    for threads in (1, 3):
        got = pair_statistics(rm, reqs, threads)
        assert set(got) == set(reqs)
        for req in reqs:
            assert (got[req].kernel, got[req].kind) == req
            assert got[req].values.tobytes() == want[req].tobytes(), (threads, req)


def test_workers_capped_at_usable_cpus(monkeypatch):
    rm = _random_ranks(51, 10, 6)
    want = all_pairs(rm, KernelId.T_STAR, "U").values

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built with one usable CPU")

    monkeypatch.setattr(pairwise, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(pairwise, "ThreadPoolExecutor", no_pool)
    assert all_pairs(rm, KernelId.T_STAR, "U", threads=8).values.tobytes() == want.tobytes()


def test_eight_way_split_does_not_change_bits(monkeypatch):
    # with 8 CPUs reported, threads=8 really splits the pairs 8 ways
    rm = _random_ranks(52, 12, 8)
    reqs = [(KernelId.T_STAR, "U"), (KernelId.HOEFF_D, "U"), (KernelId.RHO_HAT, "W")]
    want = pair_statistics(rm, reqs, threads=1)
    sizes = []

    class Pool(pairwise.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pairwise, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(pairwise, "ThreadPoolExecutor", Pool)
    got = pair_statistics(rm, reqs, threads=8)
    assert sizes == [8]
    for req in reqs:
        assert got[req].values.tobytes() == want[req].values.tobytes(), req


def test_threads_below_one_rejected():
    rm = _random_ranks(49, 8, 3)
    for threads in (0, -3):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            all_pairs(rm, KernelId.T_STAR, "U", threads=threads)
        with pytest.raises(ConfigError):
            pair_statistics(rm, [], threads)  # even with nothing to compute


def test_float64_ceilings_raise_before_work():
    f64 = 2**53
    rho_max = pairwise._ceiling(KernelId.RHO_HAT, "U")
    tau_w_max = pairwise._ceiling(KernelId.TAU, "W")
    assert (pairwise._ceiling(KernelId.TAU, "U"), rho_max, tau_w_max) == (2**24, 131_071, 13_777)
    # each is the last n whose float64 intermediate is an exact integer
    def rank_gram_bound(n):
        return 2 * n * (n + 1) * (2 * n + 1)

    assert rank_gram_bound(rho_max) <= f64 < rank_gram_bound(rho_max + 1)
    assert math.comb(tau_w_max, 2) ** 2 <= f64 < math.comb(tau_w_max + 1, 2) ** 2

    def ranks(n):
        return RankMatrix(np.column_stack([np.arange(1, n + 1), np.arange(n, 0, -1)]))

    # the guards fire before the O(n^2) sign rows; the errors are ValueErrors too
    with pytest.raises(ExactnessCeiling, match=f"n <= {tau_w_max}, got {tau_w_max + 1}"):
        all_pairs(ranks(tau_w_max + 1), KernelId.TAU, "W")
    big = ranks(rho_max + 1)
    with pytest.raises(ExactnessCeiling, match=f"n <= {rho_max}, got {rho_max + 1}"):
        all_pairs(big, KernelId.RHO_HAT, "U")
    with pytest.raises(ValueError, match=f"n <= {rho_max}, got {rho_max + 1}"):
        all_pairs_spearman(big)
    fake = SimpleNamespace(n=2**24 + 1, m=2)  # the guard reads only n and m
    with pytest.raises(ExactnessCeiling, match=f"n <= {2**24}, got {2**24 + 1}"):
        pair_statistics(fake, [(KernelId.TAU, "U")])


# (kernel, kind) -> (minimum n, largest exact n, engine) of every row of the pair stage
GRAM, W_ENGINE = pairwise.tau_family_pairs, pairwise._w_engine
PAIR_STAGE_ROWS = {
    (KernelId.TAU, "U"): (2, 2**24, GRAM),
    (KernelId.RHO_HAT, "U"): (3, 131_071, GRAM),
    (KernelId.T_STAR, "U"): (4, 3_963_368, (pairwise._tstar, pairwise._tstar_plan)),
    (KernelId.HOEFF_D, "U"): (5, 55_108, (pairwise._hoeffd, pairwise._hoeffd_plan)),
    (KernelId.TAU, "W"): (4, 13_777, GRAM),
    (KernelId.RHO_HAT, "W"): (6, 8_193, W_ENGINE),
    (KernelId.T_STAR, "W"): (8, 702, W_ENGINE),
    (KernelId.HOEFF_D, "W"): (10, 224, W_ENGINE),
}


def test_every_pair_stage_row():
    assert {req: engine for req, (engine, _) in pairwise._PAIR_STAGE.items()} == {
        req: engine for req, (_, _, engine) in PAIR_STAGE_ROWS.items()
    }
    rng = generator(60, 0, 0)
    for req, (min_n, ceiling, _) in PAIR_STAGE_ROWS.items():
        kernel, kind = req
        with pytest.raises(SampleTooSmall, match=rf"{kind}\({kernel.key}\) needs n >= {min_n}, got {min_n - 1}"):
            pair_statistics(SimpleNamespace(n=min_n - 1, m=2), [req])
        rx, ry = perm(rng, min_n), perm(rng, min_n)
        (got,) = all_pairs(RankMatrix(np.column_stack([rx, ry])), kernel, kind).values
        oracle = u_stat_naive if kind == "U" else w_stat_naive
        assert close(got, oracle(kernel, rx, ry)), req
        assert pairwise._ceiling(kernel, kind) == ceiling, req
        with pytest.raises(ExactnessCeiling, match=rf"{kind}\({kernel.key}\) is exact for n <= {ceiling}, got"):
            pair_statistics(SimpleNamespace(n=ceiling + 1, m=2), [req])


def test_mixed_request_raises_before_any_engine():
    # the fakes have no ranks, so any engine that ran would fail on them
    for n, late in ((703, (KernelId.T_STAR, "W")), (55_109, (KernelId.HOEFF_D, "U"))):
        fake = SimpleNamespace(n=n, m=3)
        with pytest.raises(ExactnessCeiling, match=f"n <= {n - 1}, got {n}"):
            pair_statistics(fake, [(KernelId.TAU, "U"), late])


def test_first_ceiling_error_does_not_depend_on_hash_seed():
    # requests arrive as a set, whose order follows PYTHONHASHSEED
    code = (
        "from types import SimpleNamespace; from rankdep import pair_statistics, KernelId as K\n"
        "try: pair_statistics(SimpleNamespace(n=703, m=3), [(K.T_STAR, 'W'), (K.HOEFF_D, 'W')])\n"
        "except ValueError as e: print(e)"
    )
    src = str(Path(pairwise.__file__).parents[1])
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "3", "4")
    }
    assert outs == {"W(hoeffd) is exact for n <= 224, got 703\n"}


def test_tstar_ceiling_raises_before_grid():
    ceiling = pairwise._ceiling(KernelId.T_STAR, "U")

    def row_sum_bound(n):  # row i sums n-1-i terms, each <= i^2: at most 4 n^3 / 27
        return 4 * n**3

    assert ceiling == 3_963_368 and row_sum_bound(ceiling) < 27 * 2**63 <= row_sum_bound(ceiling + 1)
    # the O(n^2) counts at this n would take terabytes; both guards come first
    with pytest.raises(ExactnessCeiling, match=f"n <= {ceiling}, got {ceiling + 1}"):
        pair_statistics(SimpleNamespace(n=ceiling + 1, m=2), [(KernelId.T_STAR, "U")])
    up = np.arange(1, ceiling + 2)
    with pytest.raises(ExactnessCeiling, match=f"n <= {ceiling}, got {ceiling + 1}"):
        tstar(up, up[::-1])


def test_pair_stage_does_not_recheck_columns(monkeypatch):
    # RankMatrix has checked the columns; the per-pair loop calls the cores
    rm = _random_ranks(50, 12, 4)
    reqs = [(KernelId.T_STAR, "U"), (KernelId.HOEFF_D, "U"), (KernelId.RHO_HAT, "W")]
    want = {req: all_pairs(rm, *req).values for req in reqs}

    def fail(*args):
        raise AssertionError("_check_pair called in the pair stage")

    monkeypatch.setattr(pairwise, "_check_pair", fail)
    for req in reqs:
        assert all_pairs(rm, *req).values.tobytes() == want[req].tobytes(), req


def test_hoeffding_ceiling_raises_before_count_matrix():
    ceiling = pairwise._ceiling(KernelId.HOEFF_D, "U")
    assert ceiling == 55_108 and ceiling**4 < 2**63 <= (ceiling + 1) ** 4
    # the count matrix at n = 55,109 would take gigabytes; the guard comes first
    up = np.arange(1, ceiling + 2)
    tracemalloc.start()
    try:
        with pytest.raises(ExactnessCeiling, match=f"n <= {ceiling}, got {ceiling + 1}"):
            hoeffding_d(up, up[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tau_engine_slab_size_does_not_change_bits(monkeypatch):
    # tiny budgets split the sign rows of one i across several slabs
    rm = _random_ranks(45, 37, 6)
    reqs = [(KernelId.TAU, "U"), (KernelId.RHO_HAT, "U"), (KernelId.TAU, "W")]
    want = {req: all_pairs(rm, *req).values for req in reqs}
    for budget in (4, 100, 1000):
        monkeypatch.setattr(pairwise, "BYTE_BUDGET", budget)
        for req in reqs:
            assert np.array_equal(all_pairs(rm, *req).values, want[req]), (budget, req)
        shared = pairwise.tau_family_pairs(rm.ranks[None], reqs)
        for req in reqs:
            assert np.array_equal(shared[req][0], want[req]), (budget, req)


def test_tau_engine_memory_is_bounded():
    # the sign rows are streamed in slabs of BYTE_BUDGET bytes, so the peak
    # does not grow as m * n^2 (about 80 MB for an (n^2, m) sign matrix here)
    rm = _random_ranks(46, 1024, 16)
    for kind in ("U", "W"):
        tracemalloc.start()
        try:
            all_pairs(rm, KernelId.TAU, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (kind, peak)


def test_block_cores_stay_within_the_byte_budget():
    # the t* and D block cores size each block to half of BYTE_BUDGET; numpy's
    # ufunc buffers are not counted, but the whole call stays below the budget,
    # over many short pairs, a square grid and one long pair
    for n, m in ((5, 48), (64, 32), (2048, 2)):
        rm = _random_ranks(62, n, m)
        for kernel in (KernelId.T_STAR, KernelId.HOEFF_D):
            tracemalloc.start()
            try:
                all_pairs(rm, kernel, "U")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < pairwise.BYTE_BUDGET, (n, m, kernel, peak)


def test_tau_w_blocks_count_their_grams():
    # each point's m x m Grams g_i count against the budget beside its sign
    # rows: counting the rows alone, (40, 200) peaked at 16 MiB, and a stack
    # of 8 at (64, 32) at 3.8 MiB
    for stack in (_random_ranks(60, 40, 200).ranks[None], _rank_stack(61, 8, 64, 32)):
        tracemalloc.start()
        try:
            pairwise.tau_family_pairs(stack, [(KernelId.TAU, "W")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * pairwise.BYTE_BUDGET, (stack.shape, peak)


# all_pairs t* U and D U captured from the per-pair path this engine replaced,
# as float.hex; columns 0 and 1 are identical and column 3 reverses column 2
PINNED_BLOCK_VALUES = {
    (KernelId.T_STAR, 64, 12): """
        0x1.5555555555555p-1 -0x1.2194891b15026p-7 -0x1.2194891b15026p-7 -0x1.82b10295c79e4p-7
        -0x1.bae7d4efd6a38p-9 0x1.57446e2f54ad0p-13 -0x1.17ada37741560p-7 -0x1.1ad2ff174deb7p-9
        0x1.4239c63332debp-8 0x1.abf9aeaed179ap-6 -0x1.bf3cd967833efp-9 -0x1.2194891b15026p-7
        -0x1.2194891b15026p-7 -0x1.82b10295c79e4p-7 -0x1.bae7d4efd6a38p-9 0x1.57446e2f54ad0p-13
        -0x1.17ada37741560p-7 -0x1.1ad2ff174deb7p-9 0x1.4239c63332debp-8 0x1.abf9aeaed179ap-6
        -0x1.bf3cd967833efp-9 0x1.5555555555555p-1 0x1.c972f6387588bp-8 0x1.754ef0365b875p-6
        0x1.c01d4b1204a79p-7 0x1.de9805ee4c362p-13 -0x1.304745fa43364p-9 -0x1.c850813daff25p-8
        0x1.8bf979df5e0fep-7 0x1.a15359089e7b9p-9 0x1.c972f6387588bp-8 0x1.754ef0365b875p-6
        0x1.c01d4b1204a79p-7 0x1.de9805ee4c362p-13 -0x1.304745fa43364p-9 -0x1.c850813daff25p-8
        0x1.8bf979df5e0fep-7 0x1.a15359089e7b9p-9 -0x1.29e22700752c5p-9 -0x1.15b7f0aed4c69p-7
        -0x1.1a6960307a6efp-8 -0x1.94544ba198a95p-8 -0x1.e219cc9851d88p-9 -0x1.ca956b333b1f2p-9
        -0x1.4204f6bfc9207p-9 0x1.69d55cc281903p-6 -0x1.46c39a1e49386p-9 0x1.06d0645c3cd47p-10
        -0x1.27339e241682fp-8 0x1.1365d2dc6f2a3p-8 0x1.d93af4358ee37p-10 -0x1.28da19bf64750p-9
        -0x1.a3490bd10b0b0p-8 -0x1.cf88de0524f55p-8 -0x1.864d30f9821fdp-9 -0x1.c9dc951f49053p-8
        0x1.945ae59005e12p-6 0x1.6f6a8ae5df3d1p-5 -0x1.c3c6ad529998ap-10 -0x1.a436b15866e33p-8
        -0x1.6f673deea8a13p-9 -0x1.cb9d78744bd67p-8 -0x1.0529e8c0eee26p-9 0x1.53737058306d4p-8
        -0x1.f8caf02fc198ep-9 -0x1.0f10ce64c28ecp-9
    """,
    (KernelId.HOEFF_D, 64, 12): """
        0x1.1111111111111p-5 -0x1.1b704102e3d26p-12 -0x1.1b704102e3d26p-12 -0x1.6a7623fa0d72cp-12
        -0x1.d066abb6ade13p-15 0x1.038a77bd8ce79p-15 -0x1.1e0ad68625e9ep-12 -0x1.c2147564c25fdp-14
        0x1.026d4ab4b84a9p-12 0x1.370d369cfdc7cp-11 -0x1.0f05121239481p-14 -0x1.1b704102e3d26p-12
        -0x1.1b704102e3d26p-12 -0x1.6a7623fa0d72cp-12 -0x1.d066abb6ade13p-15 0x1.038a77bd8ce79p-15
        -0x1.1e0ad68625e9ep-12 -0x1.c2147564c25fdp-14 0x1.026d4ab4b84a9p-12 0x1.370d369cfdc7cp-11
        -0x1.0f05121239481p-14 0x1.1111111111111p-5 0x1.bdd3644632564p-13 0x1.bbc927ed558b0p-11
        0x1.a60898f1e3f48p-12 0x1.054d1db88ab69p-15 -0x1.e2686d8e1ccbfp-16 -0x1.9d7f6c1cd7ea2p-13
        0x1.f16f5e70b0c1bp-13 0x1.76e152eab7fd1p-14 0x1.bdd3644632564p-13 0x1.bbc927ed558b0p-11
        0x1.a60898f1e3f48p-12 0x1.054d1db88ab69p-15 -0x1.e2686d8e1ccbfp-16 -0x1.9d7f6c1cd7ea2p-13
        0x1.f16f5e70b0c1bp-13 0x1.76e152eab7fd1p-14 -0x1.221bc9ebe984bp-13 -0x1.8758c38688d2bp-13
        -0x1.3a3b145f477d4p-13 -0x1.27d4655ba2657p-13 -0x1.764669dc70bdep-14 -0x1.bc02a91b5c98cp-14
        -0x1.089ec6a9c3ea3p-14 0x1.30f74ed04e5b2p-11 -0x1.8278179f143a7p-15 0x1.4d5d888b8100ap-15
        -0x1.b32e609c7b969p-13 0x1.d09f00760d9b1p-14 0x1.1f442deeaa63dp-13 -0x1.6a06a6e9f552ep-14
        -0x1.bf6718f70b0a6p-13 -0x1.8d86ba2f9e76bp-13 -0x1.c0a19cce36d82p-15 -0x1.6150e1a812d55p-13
        0x1.5959d0a367150p-11 0x1.3f17efdf1c44ep-10 -0x1.907a808c8d748p-16 -0x1.608bb90a43cacp-13
        -0x1.e9603e8f9eca0p-15 -0x1.def38fa547c43p-13 -0x1.3a83d72bcdcd5p-14 0x1.621d14ddcdd71p-13
        -0x1.4e20584c01637p-13 -0x1.860b78c4e7c6fp-14
    """,
    (KernelId.T_STAR, 128, 8): """
        0x1.5555555555555p-1 0x1.94786c36895aep-11 0x1.94786c36895aep-11 0x1.3e4009178c3b1p-8
        -0x1.c09751f19d34cp-9 0x1.374d5942448f6p-9 0x1.2006830707b8ap-8 0x1.94786c36895aep-11
        0x1.94786c36895aep-11 0x1.3e4009178c3b1p-8 -0x1.c09751f19d34cp-9 0x1.374d5942448f6p-9
        0x1.2006830707b8ap-8 0x1.5555555555555p-1 -0x1.23ed27d7bb2a4p-9 -0x1.39284b5279a66p-10
        -0x1.bae707b25b0e8p-13 -0x1.75fffe08bf15dp-9 -0x1.23ed27d7bb2a4p-9 -0x1.39284b5279a66p-10
        -0x1.bae707b25b0e8p-13 -0x1.75fffe08bf15dp-9 0x1.b520b90273b0ep-10 -0x1.161aa7692726dp-8
        -0x1.399b1954b28ffp-8 -0x1.46866b247fce9p-11 0x1.cf20404eaeb97p-10 0x1.01eade6ad125ep-9
    """,
    (KernelId.HOEFF_D, 128, 8): """
        0x1.1111111111111p-5 0x1.64793068534f0p-16 0x1.64793068534f0p-16 0x1.0793360137370p-13
        -0x1.49a1351a78116p-14 0x1.3af511a174c56p-15 0x1.af4b88bf3c82dp-14 0x1.64793068534f0p-16
        0x1.64793068534f0p-16 0x1.0793360137370p-13 -0x1.49a1351a78116p-14 0x1.3af511a174c56p-15
        0x1.af4b88bf3c82dp-14 0x1.1111111111111p-5 -0x1.032a45c25608ap-14 -0x1.5533c64ecd200p-15
        -0x1.2ef553fedd264p-16 -0x1.3f87acb0023b6p-14 -0x1.032a45c25608ap-14 -0x1.5533c64ecd200p-15
        -0x1.2ef553fedd264p-16 -0x1.3f87acb0023b6p-14 0x1.274de2ceddc0dp-15 -0x1.0055a0c069c51p-13
        -0x1.142d3e02ba12fp-13 -0x1.321ff1f597af9p-17 0x1.cfd144f055061p-15 0x1.5c220398ed862p-14
    """,
}


def _pinned_ranks(seed, n, m):
    rng = generator(seed, 0, 0)
    cols = [rng.permutation(n) + 1 for _ in range(m)]
    cols[1] = cols[0].copy()
    cols[3] = n + 1 - cols[2]
    return RankMatrix(np.column_stack(cols))


def test_block_cores_match_pinned_values():
    # the benchmark takes its reference from tstar and hoeffding_d, which now
    # share these cores, so the pins guard them
    for (kid, n, m), text in PINNED_BLOCK_VALUES.items():
        rm = _pinned_ranks(60 if n == 64 else 61, n, m)
        got = [float(v).hex() for v in all_pairs(rm, kid, "U").values]
        assert got == text.split(), (kid, n, m)


def test_block_cores_match_subset_enumeration():
    rng = np.random.default_rng(21)
    for kid, core in ((KernelId.T_STAR, pairwise._tstar), (KernelId.HOEFF_D, pairwise._hoeffd)):
        for n in range(kid.degree, 10):
            up = np.arange(1, n + 1)
            X = np.array([up, up] + [rng.permutation(n) + 1 for _ in range(5)])
            Y = np.array([up, up[::-1]] + [rng.permutation(n) + 1 for _ in range(5)])
            want = [u_stat_naive(kid, x, y) for x, y in zip(X, Y)]
            assert core(X, Y) == want, (kid, n)
            assert [core(X[k : k + 1], Y[k : k + 1])[0] for k in range(len(X))] == want, (kid, n)


# t* U and D U as float.hex where the count type widens: int8 -> int16 from
# n = 12, int16 -> int32 from n = 182.  Per n: a random pair, identical columns
# and reversed columns; identical columns give the largest a(a-1) + b(b-1) and c.
PINNED_WIDTH_EDGES = {
    11: ("0x1.29e4129e4129ep-2 0x1.5555555555555p-1 0x1.5555555555555p-1",
         "0x1.f9f1136e4e2abp-8 0x1.1111111111111p-5 0x1.1111111111111p-5"),
    12: ("-0x1.8d3018d3018d3p-6 0x1.5555555555555p-1 0x1.5555555555555p-1",
         "-0x1.610e4ef473283p-13 0x1.1111111111111p-5 0x1.1111111111111p-5"),
    181: ("-0x1.b2623bbc93fb3p-9 0x1.5555555555555p-1 0x1.5555555555555p-1",
          "-0x1.8e91bcc37479ep-14 0x1.1111111111111p-5 0x1.1111111111111p-5"),
    182: ("-0x1.cc0086ab0b846p-10 0x1.5555555555555p-1 0x1.5555555555555p-1",
          "-0x1.61b508e9b0134p-15 0x1.1111111111111p-5 0x1.1111111111111p-5"),
}  # fmt: skip


def test_block_cores_pinned_where_count_type_widens():
    for n, (want_tstar, want_hoeffd) in PINNED_WIDTH_EDGES.items():
        rng = generator(63, n, 0)
        x, y = rng.permutation(n) + 1, rng.permutation(n) + 1
        X, Y = np.array([x, x, x]), np.array([y, x, n + 1 - x])
        cases = ((pairwise._tstar, tstar, want_tstar), (pairwise._hoeffd, hoeffding_d, want_hoeffd))
        for core, scalar, want in cases:
            assert [v.hex() for v in core(X, Y)] == want.split(), (n, scalar.__name__)
            assert [scalar(a, b).hex() for a, b in zip(X, Y)] == want.split(), (n, scalar.__name__)


def test_count_type_holds_n_squared_and_widens_after():
    for n, width in ((11, np.int8), (181, np.int16), (46_340, np.int32)):
        info = np.iinfo(pairwise._count_type(n))
        assert pairwise._count_type(n) == width and info.min <= -(n * n) and n * n <= info.max, n
        assert np.iinfo(pairwise._count_type(n + 1)).bits == 2 * info.bits, n
    assert pairwise._count_type(pairwise._ceiling(KernelId.T_STAR, "U")) == np.int64


def test_block_budget_does_not_change_bits(monkeypatch):
    # a few bytes give blocks of one pair and chunks of one row; 2 KiB splits
    # D's rows and 32 KiB t*'s rows into chunks and D's pairs into blocks of several
    rm = _random_ranks(54, 37, 7)
    reqs = [(KernelId.T_STAR, "U"), (KernelId.HOEFF_D, "U")]
    want = pair_statistics(rm, reqs)
    plans = set()
    for budget in (4, 2048, 32768):
        monkeypatch.setattr(pairwise, "BYTE_BUDGET", budget)
        plans |= {pairwise._tstar_plan(37), pairwise._hoeffd_plan(37)}
        for threads in (1, 3):
            got = pair_statistics(rm, reqs, threads)
            for req in reqs:
                assert got[req].values.tobytes() == want[req].values.tobytes(), (budget, threads, req)
    assert {(1, 1), (1, 6), (1, 27), (3, 37)} <= plans  # (pairs per block, rows per chunk)


def test_block_plans_at_the_default_budget():
    # a block gets half of the 1 MiB budget: (pairs per block, rows per chunk)
    assert pairwise.BYTE_BUDGET == 1 << 20
    assert [pairwise._tstar_plan(n) for n in (64, 128)] == [(15, 63), (3, 127)]
    assert [pairwise._hoeffd_plan(n) for n in (64, 128)] == [(45, 64), (13, 128)]


def test_one_block_peaks_below_its_share():
    # one block at its plan size, its per-n setup built in the same call, holds less
    # than its share, though the plan does not count numpy's ufunc buffers
    share = pairwise.BYTE_BUDGET // 2
    rng = np.random.default_rng(66)
    cores = (
        (pairwise._tstar, pairwise._tstar_plan, pairwise._tstar_setup),
        (pairwise._hoeffd, pairwise._hoeffd_plan, pairwise._hoeffd_setup),
    )
    for n in (5, 64, 128, 2048, 8192):
        for core, plan, setup in cores:
            pairs = plan(n)[0]
            X, Y = (np.array([rng.permutation(n) + 1 for _ in range(pairs)]) for _ in range(2))
            setup.cache_clear()
            tracemalloc.start()
            try:
                core(X, Y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < share, (core.__name__, n, pairs, peak / share)


def test_tstar_runs_the_chunks_of_the_current_budget(monkeypatch):
    # the block cores keep their per-n values between calls; a t* call after a
    # BYTE_BUDGET change must run the chunks of the new budget.  Each chunk makes
    # one comparison np.less, which a stand-in for the module's numpy counts.
    runs = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def less(self, *args, **kwargs):
            runs.append(1)
            return np.less(*args, **kwargs)

    rm = _random_ranks(57, 37, 2)
    want = tstar(rm.column(0), rm.column(1))
    monkeypatch.setattr(pairwise, "np", CountingNumpy())
    counts = []
    for budget in (4, 65536, 4, 65536):
        monkeypatch.setattr(pairwise, "BYTE_BUDGET", budget)
        for _ in range(2):
            runs.clear()
            assert tstar(rm.column(0), rm.column(1)) == want, budget
            counts.append(len(runs))
            assert len(runs) == len(pairwise._tstar_chunks(37)), budget
    assert counts[0] > counts[2] and counts == counts[:4] * 2, counts


def test_tstar_chunks_sized_by_their_columns():
    # the chunk at lo has n - 1 - lo columns; its rows fill what the plan gave
    # rows of n, so every chunk's counted bytes fit a block's share of the budget.
    # At n = 16,384 one pair's six n-vectors alone take more (590 KB), and no
    # chunk may hold more than the plan's block of one pair and one row of n.
    share = pairwise.BYTE_BUDGET // 2
    for n in (8, 37, 64, 256, 1024, 4096, 8192, 16384):
        pairs, rows = pairwise._tstar_plan(n)
        s = pairwise._count_type(n).itemsize
        planned = pairs * ((24 + 3 * s) * n + rows * (2 + 3 * s) * n)
        assert (planned <= share) == (n < 16384), n
        chunks = pairwise._tstar_chunks(n)
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]] and chunks[-1][1] == n - 1
        for lo, hi in chunks:
            counted = pairs * ((24 + 3 * s) * n + (hi - lo) * (2 + 3 * s) * (n - 1 - lo))
            assert counted <= max(share, planned), (n, lo, hi)
    assert pairwise._tstar_chunks(64) == [(0, 63)]  # n = 64 runs one chunk, as with rows of n
    assert len(pairwise._tstar_chunks(8192)) < 8191  # sized for n columns, every chunk was one row


def test_tstar_setup_does_not_store_its_chunks():
    # the chunks are made as they are run: a list of them took 1.93 budgets at n = 32,768
    pairwise._tstar_setup.cache_clear()
    tracemalloc.start()
    try:
        pairwise._tstar_setup(32768, pairwise.BYTE_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pairwise._tstar_setup.cache_clear()
    assert peak < pairwise.BYTE_BUDGET // 4, peak


def test_tstar_chunk_sums_fall_back_to_row_sums(monkeypatch):
    # one int64 sum per chunk holds every chunk at sim-perpair's n and at the largest n a
    # test runs; near the ceiling a chunk of short rows passes 2^63 and sums row by row
    for n in (64, 8192):
        assert all(pairwise._tstar_chunk_fits(n, lo, hi) for lo, hi in pairwise._tstar_chunks(n)), n
    n = pairwise._ceiling(KernelId.T_STAR, "U")
    assert pairwise._tstar_plan(n)[1] == 1 and pairwise._tstar_chunk_fits(n, 0, 1)
    lo = n - 2001  # the chunk with 2,000 columns takes n // 2000 rows
    assert not pairwise._tstar_chunk_fits(n, lo, lo + n // 2000)
    rm = _random_ranks(63, 37, 5)
    monkeypatch.setattr(pairwise, "BYTE_BUDGET", 4096)  # several chunks per pair
    want = all_pairs(rm, KernelId.T_STAR, "U").values
    monkeypatch.setattr(pairwise, "_tstar_chunk_fits", lambda n, lo, hi: False)
    assert all_pairs(rm, KernelId.T_STAR, "U").values.tobytes() == want.tobytes()


def test_signs_are_copysign_bit_for_bit():
    f32 = np.float32
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0], dtype=f32)
    nans = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001], dtype=np.uint32).view(f32)
    tiny = np.array([1, 0x7FFFFF, 0x80000001, 0x807FFFFF], dtype=np.uint32).view(f32)  # subnormals
    rng = np.random.default_rng(64)
    diffs = rng.integers(1, 2**24 + 1, size=4096) * rng.choice([-1, 1], size=4096)
    ends = [1, -1, 2**24, -(2**24)]
    bits = rng.integers(0, 2**32, size=2**16, dtype=np.uint32).view(f32)
    for x in (special, nans, tiny, np.array(ends + diffs.tolist(), dtype=f32), bits):
        want = np.copysign(f32(1), x)
        got = pairwise._signs(x.copy())
        assert got.dtype == np.float32 and got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


def _rank_stack(seed, depth, n, m):
    rng = generator(seed, 0, 0)
    return np.array([[rng.permutation(n) + 1 for _ in range(m)] for _ in range(depth)]).transpose(0, 2, 1)


def test_stacked_tau_engine_matches_single_calls():
    # a stack of 20 matrices side by side: each U slab holds a fifth of the sign
    # rows, so the U pass flushes several times; W takes 12 points' rows per block
    n, m, depth = 64, 16, 20
    stack = _rank_stack(58, depth, n, m)
    assert pairwise._slab_rows(depth * m, pairwise.BYTE_BUDGET // 2) * 4 < math.comb(n, 2)
    gram_rows = [(KernelId.TAU, "U"), (KernelId.RHO_HAT, "U"), (KernelId.TAU, "W")]
    for reqs in (gram_rows[:2], gram_rows):
        got = pairwise.tau_family_pairs(stack, reqs)
        for b in range(depth):
            alone = pairwise.tau_family_pairs(stack[b : b + 1], reqs)
            for req in reqs:
                assert got[req].shape == (depth, math.comb(m, 2))
                assert got[req][b].tobytes() == alone[req][0].tobytes(), (b, req)
    # a stack of one is the pair stage of one rank matrix, pair by pair
    rm = RankMatrix(stack[3])
    (tau,) = pairwise.tau_family_pairs(stack[3:4], [(KernelId.TAU, "U")])[(KernelId.TAU, "U")]
    ps = PairStatistics(KernelId.TAU, "U", tau, n, m)
    for p in range(m):
        for q in range(p + 1, m):
            assert ps.value(p, q) == kendall_tau_fast(rm.column(p), rm.column(q)), (p, q)


def test_stacked_pair_values_match_pair_statistics():
    # every engine, the block cores split over threads included, on 5 matrices
    n, m, depth = 12, 4, 5
    stack = _rank_stack(59, depth, n, m)
    reqs = [(KernelId.TAU, "U"), (KernelId.RHO_HAT, "W"), (KernelId.T_STAR, "U"), (KernelId.HOEFF_D, "U")]
    for threads in (1, 2):
        got = pairwise.stacked_pair_values(stack, reqs, threads)
        for b in range(depth):
            alone = pair_statistics(RankMatrix(stack[b]), reqs)
            for req in reqs:
                assert got[req][b].tobytes() == alone[req].values.tobytes(), (threads, b, req)


def test_block_core_memory_is_bounded():
    # every live array of a block is counted against the budget, and t* chunks
    # its rows; the per-pair path peaked at about 4.5 MiB for t* at (256, 24)
    for n, m in ((64, 12), (256, 24)):
        rm = _random_ranks(53, n, m)
        for kid in (KernelId.T_STAR, KernelId.HOEFF_D):
            tracemalloc.start()
            try:
                all_pairs(rm, kid, "U")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < pairwise.BYTE_BUDGET, (n, m, kid, peak)


def test_triu_cache_holds_one_width():
    # each width's C(m, 2) index arrays are dropped when the next width comes
    bound = pairwise._triu.cache_info().maxsize
    assert bound == 1
    for m in range(2, 30):
        rm = _random_ranks(56, 8, m)
        pair_statistics(rm, [(KernelId.TAU, "U"), (KernelId.T_STAR, "U")])
        all_pairs_spearman(rm)
        assert pairwise._triu.cache_info().currsize == bound, m


def test_pair_stage_calls_block_cores_per_block(monkeypatch):
    # t* U and D U go through their block cores a block of pairs at a time,
    # never through a per-pair call
    rm = _random_ranks(55, 64, 12)
    reqs = [(KernelId.T_STAR, "U"), (KernelId.HOEFF_D, "U")]
    want = pair_statistics(rm, reqs)
    sizes = {}
    for kid, kind in reqs:
        (core, plan), ceiling = pairwise._PAIR_STAGE[(kid, kind)]
        def counted(X, Y, core=core, kid=kid):
            sizes.setdefault(kid, []).append(len(X))
            return core(X, Y)

        monkeypatch.setitem(pairwise._PAIR_STAGE, (kid, kind), ((counted, plan), ceiling))
    for name in ("tstar", "hoeffding_d"):
        monkeypatch.setattr(pairwise, name, lambda *a: pytest.fail("a scalar kernel ran in the pair stage"))
    got = pair_statistics(rm, reqs)
    for kid, kind in reqs:
        step = pairwise._PAIR_STAGE[(kid, kind)][0][1](64)[0]
        assert step > 1 and sizes[kid] == [step] * (66 // step) + [66 % step] * (66 % step > 0), kid
        assert got[(kid, kind)].values.tobytes() == want[(kid, kind)].values.tobytes()


def test_hoeffding_sums_exact_past_int64():
    # at n = 12,000 the D2 sum exceeds int64; c comes from an O(n log n)
    # count, so the test never builds the n x n comparison matrix
    n = 12_000
    rng = generator(95, 0, 0)
    vx = rng.permutation(n) + 1
    vy = rng.permutation(n) + 1
    xs, ys, cs = vx.tolist(), vy.tolist(), [0] * n
    tree = [0] * (n + 1)  # Fenwick tree over y-ranks, filled in x order
    for i in np.argsort(vx).tolist():
        k = ys[i] - 1
        while k > 0:
            cs[i] += tree[k]
            k -= k & -k
        y = ys[i]
        while y <= n:
            tree[y] += 1
            y += y & -y
    d1 = sum(ci * (ci - 1) for ci in cs)
    d2 = sum((x - 1) * (x - 2) * (y - 1) * (y - 2) for x, y in zip(xs, ys))
    d3 = sum((x - 2) * (y - 2) * ci for x, y, ci in zip(xs, ys, cs))
    assert d2 > 2**63
    want = (n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3
    assert _hoeffding_num(vx[None], vy[None], np.array([cs], dtype=np.int64)) == [want]


def test_all_pairs_sample_size_guards():
    rm = _random_ranks(44, 7, 3)
    with pytest.raises(SampleTooSmall):
        all_pairs(rm, KernelId.HOEFF_D, "W")  # needs n >= 10
    ps = all_pairs(rm, KernelId.HOEFF_D, "U")  # n >= 5 is fine
    assert ps.values.shape == (3,)


def test_w_unbiased_under_exhaustive_null():
    # the average of W over all orderings of one column is exactly zero
    import itertools

    for kid, n, scale_den in [(KernelId.TAU, 4, 6)]:
        total = 0
        for ry in itertools.permutations(range(1, n + 1)):
            total += round(scale_den * w_stat(kid, list(range(1, n + 1)), list(ry)))
        assert total == 0

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdep import KernelId, SampleTooSmall, WrongArity, constants, eval_kernel, mu_h, mu_h_exact
from rankdep.kernels import table


def test_known_kernel_values():
    assert eval_kernel(KernelId.TAU, [(1, 1), (2, 2)]) == 1.0
    assert eval_kernel(KernelId.TAU, [(1, 2), (2, 1)]) == -1.0
    assert eval_kernel(KernelId.RHO_HAT, [(1, 1), (2, 2), (3, 3)]) == 1.0
    assert eval_kernel(KernelId.T_STAR, [(1, 1), (2, 2), (3, 3), (4, 4)]) == 2 / 3
    assert eval_kernel(KernelId.HOEFF_D, [(i, i) for i in range(1, 6)]) == 1 / 30


def test_depends_only_on_relative_order():
    a = eval_kernel(KernelId.RHO_HAT, [(0.1, 5.0), (0.2, -3.0), (0.7, 1.0)])
    b = eval_kernel(KernelId.RHO_HAT, [(10, 900), (20, 100), (70, 500)])
    assert a == b


def test_wrong_arity():
    with pytest.raises(WrongArity):
        eval_kernel(KernelId.TAU, [(1, 1), (2, 2), (3, 3)])
    with pytest.raises(WrongArity):
        eval_kernel(KernelId.HOEFF_D, [(1, 1)])


def test_table_values_and_scaling():
    expected_values = {
        KernelId.TAU: {Fraction(-1), Fraction(1)},
        KernelId.RHO_HAT: {Fraction(-1), Fraction(1)},
        KernelId.T_STAR: {Fraction(2, 3), Fraction(-1, 3)},
        KernelId.HOEFF_D: {Fraction(-1, 60), Fraction(0), Fraction(1, 30)},
    }
    for kid in KernelId:
        tbl = table(kid)
        assert len(tbl) == math.factorial(kid.degree)
        assert set(tbl.values()) == expected_values[kid]
        assert sum(tbl.values()) == 0  # exact zero null mean
        assert all(abs(v) <= 1 for v in tbl.values())
        assert all((v * kid.scale).denominator == 1 for v in tbl.values())


def test_symmetric_in_point_order():
    for kid in (KernelId.TAU, KernelId.RHO_HAT):
        pts = [(1, 2), (2, 1), (3, 3)][: kid.degree]
        base = eval_kernel(kid, pts)
        for perm in itertools.permutations(pts):
            assert eval_kernel(kid, list(perm)) == base


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_swap_coordinates_symmetry(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    for kid in KernelId:
        k = kid.degree
        xs = (rng.permutation(k) + 1).tolist()
        ys = (rng.permutation(k) + 1).tolist()
        pts = list(zip(xs, ys))
        swapped = list(zip(ys, xs))
        assert eval_kernel(kid, pts) == eval_kernel(kid, swapped)


def test_mu_exact_known_values():
    assert mu_h_exact(KernelId.TAU, 3) == Fraction(11, 27)
    assert mu_h_exact(KernelId.TAU, 5) == Fraction(1, 6)
    assert mu_h_exact(KernelId.RHO_HAT, 4) == Fraction(13, 24)
    assert mu_h_exact(KernelId.RHO_HAT, 5) == Fraction(11, 30)
    assert mu_h_exact(KernelId.T_STAR, 4) == Fraction(2, 9)
    assert mu_h_exact(KernelId.T_STAR, 5) == Fraction(656, 9000)
    assert mu_h_exact(KernelId.HOEFF_D, 5) == Fraction(1, 9000)
    assert mu_h_exact(KernelId.HOEFF_D, 8) == Fraction(1, 63000)
    assert mu_h_exact(KernelId.HOEFF_D, 10) == Fraction(59, 7654500)
    assert mu_h(KernelId.TAU, 5) == pytest.approx(1 / 6, abs=0)


def test_mu_pinned_beyond_enumeration_range():
    # exact values far beyond the enumeration range (n <= 10) that stamps the ladders
    want = {
        KernelId.TAU: ("19/2592", "1541/2650752", "40001/8999910000"),
        KernelId.RHO_HAT: ("4093/249984", "196607/150405632", "9999999997/999970000200000"),
        KernelId.T_STAR: (
            "1259/14295960",
            "295549/539345196000",
            "15000249991/468721875515622187500",
        ),
        KernelId.HOEFF_D: (
            "137/1867698000",
            "1427/3351761208000",
            "39064453/1581904690505840390625",
        ),
    }
    for kid, values in want.items():
        for n, v in zip((64, 768, 100_000), values):
            assert mu_h_exact(kid, n) == Fraction(v)


def test_mu_matches_direct_enumeration_at_minimum_n():
    from rankdep.exact import mu_exact

    for kid in KernelId:
        k = kid.degree
        assert mu_h_exact(kid, k) == mu_exact(kid, k)


def test_mu_requires_enough_points():
    with pytest.raises(SampleTooSmall):
        mu_h(KernelId.TAU, 1)
    with pytest.raises(SampleTooSmall):
        mu_h(KernelId.HOEFF_D, 4)
    # valid down to n = k even though the aggregate S needs n >= 2k
    assert mu_h(KernelId.HOEFF_D, 5) > 0


def test_kernel_spec_constants():
    # k, d, zeta_d and eta are all derived from the stamped zeta ladder
    s = constants.get().kernel(KernelId.TAU)
    assert (KernelId.TAU.degree, s.d, s.zeta_d, s.eta) == (2, 1, Fraction(1, 9), None)
    s = constants.get().kernel(KernelId.RHO_HAT)
    assert (KernelId.RHO_HAT.degree, s.d, s.zeta_d, s.eta) == (3, 1, Fraction(1, 9), None)
    s = constants.get().kernel(KernelId.T_STAR)
    assert (KernelId.T_STAR.degree, s.d, s.zeta_d) == (4, 2, Fraction(1, 225))
    assert s.eta == Fraction(2, 525) ** 2
    s = constants.get().kernel(KernelId.HOEFF_D)
    assert (KernelId.HOEFF_D.degree, s.d, s.zeta_d) == (5, 2, Fraction(1, 810000))
    assert s.eta == Fraction(1, 945000) ** 2
    assert s.eta <= s.zeta_d**2  # trace bound

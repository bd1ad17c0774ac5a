import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdep import JitterWithSeed, REJECT, RankMatrix, TiesPresent, compute_ranks, detect_ties


def test_basic_ranking():
    data = [[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]]
    rm = compute_ranks(data)
    assert rm.n == 3 and rm.m == 2
    assert rm.column(0).tolist() == [3, 1, 2]
    assert rm.column(1).tolist() == [1, 3, 2]


def test_reject_ties():
    data = [[1.0, 1.0], [1.0, 2.0], [3.0, 0.5]]
    with pytest.raises(TiesPresent) as ei:
        compute_ranks(data, REJECT)
    assert ei.value.column == 0
    assert ei.value.value == 1.0


def test_detect_ties_lists_each_duplicated_value_once():
    data = [[1.0, 5.0], [1.0, 5.0], [2.0, 5.0], [2.0, 7.0]]
    ties = detect_ties(data)
    assert ties == [(0, 1.0), (0, 2.0), (1, 5.0)]
    assert detect_ties([[1.0, 2.0], [3.0, 4.0]]) == []


def test_jitter_is_deterministic_and_breaks_all_ties():
    data = np.ones((6, 3))
    a = compute_ranks(data, JitterWithSeed(7)).ranks
    b = compute_ranks(data, JitterWithSeed(7)).ranks
    c = compute_ranks(data, JitterWithSeed(8)).ranks
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)  # astronomically unlikely to collide


def test_jitter_preserves_strict_order():
    data = np.array([[1.0], [5.0], [2.0], [2.0]]).repeat(2, axis=1)
    rm = compute_ranks(data, JitterWithSeed(0))
    col = rm.column(0)
    assert col[0] == 1 and col[1] == 4
    assert sorted(col[2:].tolist()) == [2, 3]


def test_idempotent_on_ranks():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(20, 4))
    rm = compute_ranks(data)
    again = compute_ranks(rm.ranks.astype(float))
    assert np.array_equal(rm.ranks, again.ranks)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(15, 3))
    rm1 = compute_ranks(data)
    rm2 = compute_ranks(np.exp(data / 2) + 1)
    assert np.array_equal(rm1.ranks, rm2.ranks)


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        compute_ranks([[1.0, 2.0]])  # single row
    with pytest.raises(ValueError):
        compute_ranks([[1.0], [2.0]])  # single column
    with pytest.raises(ValueError):
        compute_ranks([[1.0, np.nan], [2.0, 3.0]])


def test_rank_matrix_rejects_non_permutation():
    with pytest.raises(ValueError, match="column 1 is not a permutation"):
        RankMatrix(np.array([[1, 1], [2, 3]]))
    with pytest.raises(ValueError, match="column 0 is not a permutation"):
        RankMatrix(np.array([[1, 1], [1, 3], [3, 2]]))
    rm = RankMatrix(np.array([[1, 2], [2, 1]]))
    assert rm.n == 2 and rm.m == 2

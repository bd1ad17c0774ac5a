"""Ranking and tie reports pinned to values recorded before the one-sort ranking.

The pins in data/ranking_pins.json were written by ``observe`` from the
per-column ranking code that ``compute_ranks`` and ``detect_ties`` replaced:

    PYTHONPATH=src python tests/test_ranks_pinned.py > tests/data/ranking_pins.json

Rank matrices are pinned by the SHA-256 of their bytes, tied values by
``float.hex``.  In ``detect_ties`` digests a tied zero is written as +0.0:
which of 0.0 and -0.0 the old per-column ``np.unique`` reported for a long
column followed numpy's unstable sort, and so the CPU.  The sign rule itself
is pinned on short columns below.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdep import JitterWithSeed, REJECT, TiesPresent, compute_ranks, detect_ties
from rankdep._rng import mix_key, splitmix64_array

PINS = pathlib.Path(__file__).parent / "data" / "ranking_pins.json"
SHAPES = [(2, 2), (3, 5), (17, 4), (64, 12), (300, 7), (40, 600), (5000, 3)]
DECIMALS = [None, 0, 1, 2, "mixed"]  # "mixed": column j to [None, 2, 1, 0][j % 4]
SEEDS = [0, 7, -3, 2**63 + 5]


def case_data(n, m, decimals):
    x = np.random.default_rng([n, m]).uniform(-5.0, 5.0, size=(n, m))
    if decimals == "mixed":
        for j in range(m):
            if j % 4:
                x[:, j] = np.round(x[:, j], 3 - j % 4)
        return x
    return x if decimals is None else np.round(x, decimals)


def _ranks_digest(rm):
    r = rm.ranks
    assert r.dtype == np.int64 and r.flags.c_contiguous and r.shape == (rm.n, rm.m)
    return hashlib.sha256(r.tobytes()).hexdigest()


def _reject(x):
    try:
        return {"ranks": _ranks_digest(compute_ranks(x, REJECT))}
    except TiesPresent as e:
        return {"column": e.column, "value": e.value.hex(), "message": str(e)}


def observe(x):
    ties = [(j, (v + 0.0).hex()) for j, v in detect_ties(x)]
    return {
        "ties": [len(ties), hashlib.sha256(repr(ties).encode()).hexdigest()],
        "reject": _reject(x),
        "jitter": [_ranks_digest(compute_ranks(x, JitterWithSeed(s))) for s in SEEDS],
    }


def case_name(n, m, decimals):
    return f"{n}x{m}-" + ("raw" if decimals is None else f"round{decimals}")


CASES = [(n, m, d) for n, m in SHAPES for d in DECIMALS]


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("n,m,decimals", CASES, ids=[case_name(*c) for c in CASES])
def test_ranking_matches_pins(pins, n, m, decimals):
    assert observe(case_data(n, m, decimals)) == pins[case_name(n, m, decimals)]


def test_pins_cover_ties_in_several_columns(pins):
    # guards the data: rounding must leave tied and untied columns to compare
    tied = [c for c in pins.values() if "column" in c["reject"]]
    assert len(tied) >= 12 and len({c["reject"]["column"] for c in tied}) >= 3
    assert any(c["ties"][0] > 1 for c in tied)


@pytest.mark.parametrize(
    "col,value",
    [([0.0, -0.0, 1.0], "0x0.0p+0"), ([-0.0, 0.0, 1.0], "-0x0.0p+0"), ([1.0, 0.0, 2.0, -0.0, 3.0], "0x0.0p+0")],
)
def test_signed_zero_tie_reports_earlier_row(col, value):
    x = np.column_stack([np.arange(len(col), dtype=float), col])
    with pytest.raises(TiesPresent) as ei:
        compute_ranks(x)
    assert (ei.value.column, ei.value.value.hex()) == (1, value)
    assert str(ei.value) == f"tied value {float.fromhex(value)!r} in column 1"
    [(j, v)] = detect_ties(x)
    assert (j, v.hex()) == (1, value)


def test_tie_report_is_first_column_and_smallest_value():
    x = np.tile(np.arange(1.0, 41.0)[:, None], (1, 3))
    x[[3, 30], 1] = -0.0, 0.0
    x[[35, 20], 1] = 7.5
    x[[9, 1], 2] = -2.0
    with pytest.raises(TiesPresent, match=r"^tied value -0\.0 in column 1$"):
        compute_ranks(x)
    assert [(j, v.hex()) for j, v in detect_ties(x)] == [
        (1, "-0x0.0p+0"), (1, (7.5).hex()), (2, (-2.0).hex())
    ]


def reference_ranks(x, seed=None):
    """Per-column ranking: np.unique for ties, one sort per column."""
    n, m = x.shape
    ranks, ties = np.empty((n, m), dtype=np.int64), []
    for j in range(m):
        vals, counts = np.unique(x[:, j], return_counts=True)
        ties += [(j, float(v)) for v in vals[counts > 1]]
        if seed is None:
            order = np.argsort(x[:, j], kind="stable")
        else:
            order = np.lexsort((splitmix64_array(mix_key(seed, j), np.arange(n)), x[:, j]))
        ranks[order, j] = np.arange(1, n + 1)
    return ranks, ties


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40), st.integers(2, 9), st.sampled_from([None, 0, 1]),
    st.integers(-(2**63), 2**64 - 1), st.integers(0, 2**32 - 1),
)
def test_matches_per_column_reference(n, m, decimals, seed, data_seed):
    x = np.random.default_rng(data_seed).uniform(-3.0, 3.0, size=(n, m))
    if decimals is not None:
        x = np.round(x, decimals)
    want, ties = reference_ranks(x)
    assert detect_ties(x) == ties  # == on values: 0.0 == -0.0
    if ties:
        with pytest.raises(TiesPresent) as ei:
            compute_ranks(x)
        assert (ei.value.column, ei.value.value) == ties[0]
    else:
        assert np.array_equal(compute_ranks(x).ranks, want)
    assert np.array_equal(compute_ranks(x, JitterWithSeed(seed)).ranks, reference_ranks(x, seed)[0])


if __name__ == "__main__":
    out = {case_name(*c): observe(case_data(*c)) for c in CASES}
    print(json.dumps(out, indent=1, sort_keys=True))

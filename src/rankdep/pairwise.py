"""Pairwise rank statistics: fast paths, naive oracles, and all-pairs batch.

Every routine here is exact: the scalar fast paths reduce each statistic to
integer counts divided by an integer, the batch paths push the same integers
through GEMMs whose partial sums stay below the exact-integer capacity of
the float type (2^24 for float32 0/1 products, 2^53 for float64), and the
naive oracles enumerate subsets with rational arithmetic.  Exactness is what
makes results bit-identical regardless of BLAS threading or blocking.

stacked_pair_values is the one pair stage: it takes a (depth, n, m) stack of
rank matrices (a stack of one for pair_statistics, a batch of permutation
replicates for the Monte Carlo null) and is the one place that checks it:
each requested (kernel, kind) against its minimum n (k for U, 2k for W) and
its ceiling, before any engine runs.  Each row of _PAIR_STAGE, its one table,
holds a (kernel, kind)'s engine, one per algebraic form, and ceiling.  The last
two engines run over the stack's depth C(m,2) column pairs in order, on the
calling thread; only BLAS, in the tau Gram's GEMMs, runs threads of its own.
Scalar functions check their own input; the scalar Kendall tau and rho_hat
count inversions by a bottom-up merge, log n whole-array numpy steps
(_inversions).

- Tau Gram, tau_family_pairs: tau U, rho_hat U and tau W from the sign
  products sign(R_ip - R_jp) sign(R_iq - R_jq), through the Grams of the 0/1
  indicators [R_jp < R_ip] (the two identities are at _tau_gram and _tau_rows).
  The stack's matrices sit side by side as one (n, depth m) float32 array, so
  one np.less forms a row of indicators for the whole stack.  The U pass
  streams the i < j rows in slabs of at most half of BYTE_BUDGET, and
  stack_depth sizes a stack so that its other arrays fit the other half.  The
  W pass takes blocks of a few points i, each point's n rows of indicators and
  its m x m Grams counted, in at most BYTE_BUDGET (at least one point); halving
  the blocks slowed it at n = 768, m = 32 by about a fifth on 2 vCPUs with 2
  BLAS threads.  Slabs and blocks have fewer than 2^24 rows, and each adds the
  depth diagonal m x m blocks of its Gram by one stacked GEMM, which keeps each
  product exact.
- Dominance count, _tstar and _hoeffd: t* U and D U on a block of P column
  pairs given as two (P, n) rank arrays, in whole-array numpy calls.  Every
  per-element count is held in _count_type(n), the narrowest signed integer
  holding n^2 (int8 to n = 11, int16 to 181, int32 to 46,340, then int64).
  t* compares straight into that type, forms its prefix counts down a chunk
  of rows by ceil(log2 rows) shifted whole-array adds from one buffer into
  a second and back (not a cumsum, which numpy runs as a scalar loop along
  that axis, nor in place, where numpy first copies the overlapping
  operand), and sums each chunk of each pair in one int64 (row by row where
  that could overflow, _tstar_chunk_fits); sums across chunks, and D's, are
  Python ints.  All of a block's temporaries, counted at that width, fit
  half of BYTE_BUDGET (_plan): 15 t* pairs at n = 64 and 3 at n = 128.  The
  scalar tstar and hoeffding_d are the P = 1 case.
- _w_engine, once per pair: the W of every kernel but tau (below).

Largest exact n of each path, derived in code (ExactnessCeiling above it),
the pair stage's in their _PAIR_STAGE rows:
  tau U 2^24 (float32 0/1 products); rho_hat U and Spearman's rho 131,071
  (12 sum R S in float64); all-pairs tau W 13,777 (C(n,2)^2 in float64);
  t* U 3,963,368 (int64 row sums below 4 n^3 / 27); Hoeffding's D U 55,108
  (int64 terms below n^4); _w_engine's W: rho_hat 8,193, t* 702, D 224, and
  tau 2,097,152 in the scalar w_stat only (int64 level sums).  The scalar
  Spearman's rho and rho_hat have none: sum R S is summed in int64 chunks and
  Python ints (_rank_dot); the Kendall merge keys stay below n^2/2 + n.
Time limits t*, D and the W engine well below these (per pair: t* U 0.03 s,
D U 0.002 s at n = 2,048; W of t* 0.4 s at n = 96, of D 0.2 s at n = 24).

U-statistics average the kernel over k-subsets; W-statistics average
h(S1) * h(S2) over ordered pairs of disjoint k-subsets and are exactly
unbiased for the squared signal.  _w_engine computes each scalar W, and the
all-pairs W of every kernel but tau, from C(n,k) C(n-k,k) scale^2 W =
sum_A (-1)^|A| H_A^2, where H_A sums the scaled kernel over the k-subsets
containing the index set A.  One pass fills every H_A with |A| <= k-1 and
sum h^2 in O(n^k) time and O(n^(k-1)) memory.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ExactnessCeiling, LengthMismatch, SampleTooSmall
from .kernels import _FACT, KernelId, pattern, perm_code, scaled_table
from .ranks import RankMatrix


# ---------------------------------------------------------------- validation

def _check_pair(rx, ry, min_n: int, what: str) -> tuple[np.ndarray, np.ndarray, int]:
    vx = np.asarray(rx, dtype=np.int64)
    vy = np.asarray(ry, dtype=np.int64)
    if vx.ndim != 1 or vy.ndim != 1:
        raise ValueError("rank vector must be 1-dimensional")
    if vy.size != vx.size:
        raise LengthMismatch(f"rank vectors differ in length: {vy.size} vs {vx.size}")
    RankMatrix(np.column_stack([vx, vy]))  # each a permutation of 1..n
    n = vx.size
    if n < min_n:
        raise SampleTooSmall(f"{what} needs n >= {min_n}, got {n}")
    return vx, vy, n


def _check_ceiling(n: int, ceiling: int, what: str) -> None:
    if n > ceiling:
        raise ExactnessCeiling(f"{what} is exact for n <= {ceiling}, got {n}")


def _largest_n(fits, lo: int) -> int:
    """Largest n >= lo with fits(n); fits holds at lo and fails from some n < 2^25 on."""
    return lo - 1 + bisect.bisect_left(range(lo, 1 << 25), True, key=lambda n: not fits(n))


# ------------------------------------------------------------ scalar U paths

def _inversions(seq: np.ndarray) -> int:
    """Inversion count of an int64 array with values in 1..n, by a bottom-up merge: at
    width w, with entries keyed by their merged block, one searchsorted counts the larger
    entries of each right block's (full) sorted left sibling, and one sort merges."""
    n = seq.size
    pos = np.arange(n)
    inv, w = 0, 1
    while w < n:
        block = pos // (2 * w) * (n + 1)
        keys = block + seq
        right = (pos & w) > 0  # w is a power of two
        ends = (pos[right] // (2 * w) + 1) * w  # left entries up to the sibling's end
        inv += int((ends - np.searchsorted(keys[~right], keys[right], side="right")).sum())
        seq = np.sort(keys) - block
        w *= 2
    return inv


def _tau_inv(rx: np.ndarray, ry: np.ndarray, n: int) -> int:
    # y-ranks in x-rank order; rx is a permutation so no sort is needed
    seq = np.empty(n, dtype=np.int64)
    seq[rx - 1] = ry
    return _inversions(seq)


def kendall_tau_fast(rx, ry) -> float:
    """Kendall tau of two rank vectors in O(n log n)."""
    vx, vy, n = _check_pair(rx, ry, KernelId.TAU.degree, "kendall_tau_fast")
    inv = _tau_inv(vx, vy, n)
    return (n * (n - 1) - 4 * inv) / (n * (n - 1))


def _rank_dot(vx: np.ndarray, vy: np.ndarray, n: int) -> int:
    """sum(R_i S_i) of two rank vectors, exact at every n: each term is at most n^2,
    summed in int64 over chunks of (2^63 - 1) // n^2 terms (all n terms to n =
    2,097,151) and then in Python ints."""
    step = (2**63 - 1) // (n * n)
    return sum(int(np.dot(vx[lo : lo + step], vy[lo : lo + step])) for lo in range(0, n, step))


def spearman_rho(rx, ry) -> float:
    """Classical Spearman rank correlation.

    The integer ratio (12 sum(R_i S_i) - 3n(n+1)^2) / (n(n^2-1)) is rounded
    once, so the value is bitwise equal to all_pairs_spearman's.
    """
    vx, vy, n = _check_pair(rx, ry, 2, "spearman_rho")
    return (12 * _rank_dot(vx, vy, n) - 3 * n * (n + 1) ** 2) / (n * (n * n - 1))


def rho_hat(rx, ry) -> float:
    """Unbiased grade-correlation U-statistic (degree-3 kernel).

    Single integer numerator: (rho_num - 3 tau_num) / (n(n-1)(n-2)) with
    rho_num = 12 sum(R_i S_i) - 3n(n+1)^2 and tau_num = n(n-1) tau.
    """
    vx, vy, n = _check_pair(rx, ry, KernelId.RHO_HAT.degree, "rho_hat")
    rnum = 12 * _rank_dot(vx, vy, n) - 3 * n * (n + 1) ** 2
    tnum = n * (n - 1) - 4 * _tau_inv(vx, vy, n)
    return (rnum - 3 * tnum) / (n * (n - 1) * (n - 2))


# ------------------------------------------- dominance-count engine: t*, D

BYTE_BUDGET = 1 << 20  # bytes of temporaries a pair engine holds at once


def _plan(rows_cap: int, row_bytes: int, pair_bytes: int) -> tuple[int, int]:
    """(pairs per block, rows per chunk) of a block core whose pairs hold pair_bytes and
    row_bytes per row: a block fits its share, half of BYTE_BUDGET, and its rows half of
    that (at least one pair, one row).  The pair stage holds one block at a time, so
    a call's blocks hold at most one share.  The share suits a 2 MiB
    per-core L2: on a simulate batch at n = 64, t* ran a fifth faster than at a quarter
    or the whole budget, where glibc also unmapped and re-faulted its arrays at 128^2.
    numpy's ufunc buffers are not counted: tracemalloc peaks of one block, its per-n
    setup built in the same call, were 0.41-0.75 of the share for n = 5...8,192, and of
    a whole all_pairs call 0.27-0.63 of the budget at (5, 48) to (8192, 2)."""
    share = BYTE_BUDGET // 2
    rows = min(rows_cap, max(1, share // (2 * row_bytes)))
    return max(1, share // (pair_bytes + rows * row_bytes)), rows


def _count_type(n: int) -> np.dtype:
    """The narrowest signed integer holding -n^2..n^2, the type of every per-element
    count of the block cores: counts <= n, c(c-1) and a(a-1) + b(b-1) below n^2."""
    return np.min_scalar_type(-n * n)


def _tstar_plan(n: int) -> tuple[int, int]:  # per row: 2 bool and 3 count rows of n
    s = _count_type(n).itemsize
    return _plan(n - 1, (2 + 3 * s) * n, (24 + 3 * s) * n)  # per pair: 3 int64, 3 count n-vectors


def _tstar_bounds(n: int, rows: int):
    """_tstar's row chunks [lo, hi), made as they are run rather than stored.  The chunk
    at lo has n - 1 - lo columns, so it takes as many rows as fill the bytes of ``rows``
    rows of n (at least one)."""
    lo = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, rows * n // (n - 1 - lo)))
        yield lo, hi
        lo = hi


def _tstar_chunks(n: int) -> list[tuple[int, int]]:
    """_tstar's row chunks at the current BYTE_BUDGET, as a list (_tstar_bounds)."""
    return list(_tstar_bounds(n, _tstar_plan(n)[1]))


def _hoeffd_plan(n: int) -> tuple[int, int]:  # per row: 2 bool rows of n
    s = _count_type(n).itemsize
    return _plan(n, 2 * n, (48 + 3 * s) * n)  # per pair: 6 int64, 3 count n-vectors


@lru_cache(maxsize=1)  # keyed on the budget too: it sizes the chunks
def _tstar_setup(n: int, budget: int) -> tuple:
    """_tstar's per-n values, built once rather than per block: its count type, rows of
    n per chunk, the mask j > i of a chunk's first rows, and 1..n-1 as a column."""
    w, rows = _count_type(n), _tstar_plan(n)[1]
    most = max(hi - lo for lo, hi in _tstar_bounds(n, rows))
    return w, rows, ~np.tri(most, most, dtype=bool), np.arange(1, n, dtype=w)[:, None]


@lru_cache(maxsize=1)  # keyed on the budget too: it sizes the chunks
def _hoeffd_setup(n: int, budget: int) -> tuple:
    """_hoeffd's count type, rows per chunk, the mask s < t within a chunk, and 1..n."""
    rows = _hoeffd_plan(n)[1]
    return _count_type(n), rows, np.tri(rows, rows, -1, dtype=bool), np.arange(1, n + 1)[None]


def _tstar_chunk_fits(n: int, lo: int, hi: int) -> bool:
    """Whether one int64 sum holds a whole t* chunk: its rows i <= hi have fewer than
    n - 1 - lo terms each, every one below hi^2.  It fails near t*'s ceiling, where a
    chunk of several short rows can pass n^3 > 2^63; _tstar then sums row by row."""
    return (hi - lo) * (n - 1 - lo) * hi * hi < 2**63


def _hoeffding_num(X: np.ndarray, Y: np.ndarray, C: np.ndarray) -> list[int]:
    """(n-2)(n-3) D1 + D2 - 2(n-2) D3 of each row of the (P, n) arrays (X may be one
    row for all), exact: every term is an integer product below n^4, summed in int64
    over chunks of (2^63 - 1) // n^4 points and then, past int64 from n ~ 9,000, in
    Python ints.  The sums do not depend on the order of the points."""
    n = X.shape[1]
    step = (2**63 - 1) // n**4
    d = 0
    for lo in range(0, n, step):
        x, y, c = X[:, lo : lo + step], Y[:, lo : lo + step], C[:, lo : lo + step]
        part = [c * (c - 1), (x - 1) * (x - 2) * (y - 1) * (y - 2), (x - 2) * (y - 2) * c]
        sums = np.array([t.sum(1, dtype=np.int64) for t in part])
        d = d + sums.astype(object)  # Python ints from here on
    d1, d2, d3 = d
    return ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3).tolist()


def _hoeffd(X: np.ndarray, Y: np.ndarray) -> list[float]:
    """Hoeffding's D of each row pair of the (P, n) rank arrays X, Y (see hoeffding_d)."""
    P, n = X.shape
    w, rows, before, x = _hoeffd_setup(n, BYTE_BUDGET)
    S = np.empty((P, n), dtype=w)  # y-ranks in x-order
    S[np.arange(P)[:, None], X - 1] = Y
    c = np.empty((P, n), dtype=w)
    for lo in range(0, n, rows):  # c of points t in [lo, hi): the s < t below them in y
        hi = min(n, lo + rows)
        less = S[:, None, :hi] < S[:, lo:hi, None]
        less[:, :, lo:] &= before[: hi - lo, : hi - lo]
        less.sum(axis=2, dtype=w, out=c[:, lo:hi])
    return [num / math.perm(n, 5) for num in _hoeffding_num(x, S, c)]  # n(n-1)..(n-4)


def hoeffding_d(rx, ry) -> float:
    """Degree-5 joint-vs-product-distance U-statistic in O(n^2).

    Count form: with c_i = #{j : R_j < R_i and S_j < S_i},
    D = [(n-2)(n-3) D1 + D2 - 2(n-2) D3] / (n..(n-4)) where D1 = sum c(c-1),
    D2 = sum (R-1)(R-2)(S-1)(S-2), D3 = sum (R-2)(S-2)c.  The ceiling
    (see _hoeffding_num) is checked before any count is made.
    """
    vx, vy, n = _check_pair(rx, ry, KernelId.HOEFF_D.degree, "hoeffding_d")
    _check_ceiling(n, _ceiling(KernelId.HOEFF_D, "U"), "U(hoeffd)")
    return _hoeffd(vx[None], vy[None])[0]


def _tstar(X: np.ndarray, Y: np.ndarray) -> list[float]:
    """t* of each row pair of the (P, n) rank arrays X, Y (see tstar).

    With a pair's points in descending x-order, V_s = n - (y-rank of the
    s-th) and H[i, j] = #{s < i : V_s < V_j}, of the i points of larger x
    than points i < j, a = min(H[i, j], H[i, i]) lie above both in y and
    b = i - max(H[i, j], H[i, i]) below both: Q1 + Q2 = sum C(a,2) + C(b,2)."""
    P, n = X.shape
    w, rows, after, i_col = _tstar_setup(n, BYTE_BUDGET)
    V = np.empty((P, n), dtype=w)
    V[np.arange(P)[:, None], n - X] = n - Y
    q = 0  # Python ints once a chunk's sums are added
    for lo, hi in _tstar_bounds(n, rows):  # rows i = s + 1 of points s in [lo, hi), columns j > lo
        h, g = (np.empty((P, hi - lo, n - 1 - lo), dtype=w) for _ in range(2))
        np.less(V[:, lo:hi, None], V[:, None, lo + 1 :], out=h)
        if lo:
            h[:, 0] += carry[:, lo - prev :]  # the counts over s < lo, carried
        k = 1
        while k < hi - lo:  # running sums down the rows, ceil(log2 rows) shifted adds
            np.add(h[:, k:], h[:, :-k], out=g[:, k:])  # into g: an in-place add would copy
            g[:, :k] = h[:, :k]
            h, g = g, h
            k *= 2
        prev = lo
        carry = h[:, -1].copy()
        d = np.diagonal(h, axis1=1, axis2=2)[:, :, None].copy()  # H[i, i]
        a = np.minimum(h, d, out=g)
        a *= a - 1
        np.maximum(h, d, out=h)
        np.subtract(i_col[lo:hi], h, out=h)  # b
        h *= h - 1
        h += a
        h[:, :, : hi - lo] *= after[: hi - lo, : hi - lo]  # the pairs i < j only
        if _tstar_chunk_fits(n, lo, hi):
            q = q + h.sum(axis=(1, 2), dtype=np.int64).astype(object)
        else:
            q = q + h.sum(axis=2, dtype=np.int64).astype(object).sum(axis=1)
    tot = math.comb(n, 4)
    return [(3 * (x // 2) - tot) / (3 * tot) for x in q]


def tstar(rx, ry) -> float:
    """Degree-4 concordance-of-quadruples U-statistic in O(n^2).

    The kernel is 2/3 on a quadruple whose two x-smallest points are also
    the two y-smallest or the two y-largest, and -1/3 otherwise.  Counting
    qualifying quadruples by their two x-smallest points gives
    t* = (3(Q1+Q2) - C(n,4)) / (3 C(n,4)).
    """
    vx, vy, n = _check_pair(rx, ry, KernelId.T_STAR.degree, "tstar")
    _check_ceiling(n, _ceiling(KernelId.T_STAR, "U"), "U(tstar)")
    return _tstar(vx[None], vy[None])[0]


_FAST_U = {
    KernelId.TAU: kendall_tau_fast,
    KernelId.RHO_HAT: rho_hat,
    KernelId.T_STAR: tstar,
    KernelId.HOEFF_D: hoeffding_d,
}


# ------------------------------------------------------------- naive oracles

def _h_naive(tvec: np.ndarray, vx: np.ndarray, vy: np.ndarray, idx) -> int:
    """Scaled kernel on the points idx: their y-pattern in x-order, looked up."""
    order = sorted(idx, key=lambda i: vx[i])
    return int(tvec[perm_code(pattern([vy[i] for i in order]))])


def u_stat_naive(kernel: KernelId, rx, ry) -> float:
    """U-statistic by direct enumeration of all k-subsets (oracle)."""
    k = kernel.degree
    vx, vy, n = _check_pair(rx, ry, k, "u_stat_naive")
    tvec = scaled_table(kernel)
    tot = sum(_h_naive(tvec, vx, vy, idx) for idx in itertools.combinations(range(n), k))
    return float(Fraction(tot, math.comb(n, k) * kernel.scale))


def w_stat_naive(kernel: KernelId, rx, ry) -> float:
    """W-statistic by enumerating 2k-subsets and all k/k splits (oracle)."""
    k = kernel.degree
    vx, vy, n = _check_pair(rx, ry, 2 * k, "w_stat_naive")
    tvec = scaled_table(kernel)
    tot = 0
    for u in itertools.combinations(range(n), 2 * k):
        for j in itertools.combinations(u, k):
            comp = tuple(x for x in u if x not in j)
            tot += _h_naive(tvec, vx, vy, j) * _h_naive(tvec, vx, vy, comp)
    den = math.comb(n, 2 * k) * math.comb(2 * k, k) * kernel.scale**2
    return float(Fraction(tot, den))


# ------------------------------------------------------------ W fast engine

@lru_cache(maxsize=None)
def _w_ceiling(kernel: KernelId) -> int:
    """Largest n at which _w_engine's level sums of squares fit in int64:
    level a has C(n,a) entries, each at most max|h| C(n-a,k-a) in size."""
    k = kernel.degree
    hmax = int(np.abs(scaled_table(kernel)).max())

    def fits(n):
        return all(math.comb(n, a) * (hmax * math.comb(n - a, k - a)) ** 2 < 2**63 for a in range(1, k))

    return _largest_n(fits, 2 * k)


def _w_engine(kernel: KernelId, vx: np.ndarray, vy: np.ndarray, n: int) -> float:
    """W-statistic by inclusion-exclusion (module docstring) in one pass: the
    slab h(c + {a, b}) of each (k-2)-prefix c, over the pairs a < b after it in
    x-rank order, adds into every H_A with |A| <= k-1 and into sum h^2."""
    k = kernel.degree
    tvec = scaled_table(kernel)
    s = vy[np.argsort(vx)].astype(np.int64)  # y-ranks in x-order
    f = k - 2
    weights = [_FACT[k - 1 - i] for i in range(f)]
    levels = {a: np.zeros((n,) * a, dtype=np.int64) for a in range(1, k)}
    h_all = h_sq = 0  # H_empty and sum h^2, in Python ints

    for c in itertools.combinations(range(n - 2), f):
        lo = c[-1] + 1 if c else 0
        ya = s[lo:]
        fixed = [int(s[i]) for i in c]
        # Lehmer code of the pattern of (fixed..., ya[a], ya[b])
        const = 0
        va = np.zeros(ya.size, dtype=np.int64)
        for i in range(f):
            const += weights[i] * sum(1 for j in range(i + 1, f) if fixed[j] < fixed[i])
            va += weights[i] * (ya < fixed[i])
        h = np.triu(tvec[const + va[:, None] + va[None, :] + (ya[None, :] < ya[:, None])], 1)
        tot = int(h.sum())
        h_all += tot
        h_sq += int(np.vdot(h, h))
        rows = h.sum(axis=1) + h.sum(axis=0)
        grow = slice(lo, n)
        for r in range(f + 1):
            for csub in itertools.combinations(c, r):
                if r >= 1:
                    levels[r][csub] += tot
                levels[r + 1][csub + (grow,)] += rows
                if r + 2 <= k - 1:
                    levels[r + 2][csub + (grow, grow)] += h

    num = h_all * h_all + (-1) ** k * h_sq
    for a, lv in levels.items():
        num += (-1) ** a * int(np.vdot(lv, lv))
    den = math.comb(n, k) * math.comb(n - k, k) * kernel.scale**2
    return float(Fraction(num, den))


def w_stat(kernel: KernelId, rx, ry) -> float:
    """Unbiased squared-signal W-statistic for one pair of rank vectors."""
    vx, vy, n = _check_pair(rx, ry, 2 * kernel.degree, "w_stat")
    _check_ceiling(n, _w_ceiling(kernel), f"W({kernel.key})")
    return _w_engine(kernel, vx, vy, n)


# ------------------------------------------------------------ batch all-pairs

@dataclass(frozen=True)
class PairStatistics:
    """Values of one statistic on all m(m-1)/2 column pairs, (p,q) lex order."""

    kernel: KernelId
    kind: str  # "U" or "W"
    values: np.ndarray
    n: int
    m: int

    def value(self, p: int, q: int) -> float:
        if not 0 <= p < q < self.m:
            raise IndexError("need 0 <= p < q < m")
        idx = p * self.m - p * (p + 1) // 2 + (q - p - 1)
        return float(self.values[idx])


# The tau engine.  With s_ij^p = sign(R_ip - R_jp), every tau-family pair
# statistic is an exact integer function of the sign products s^p s^q:
#   G = n(n-1) tau = sum_{i != j} s_ij^p s_ij^q = 2 sum_{i < j} s_ij^p s_ij^q
#   g_i = sum_j s_ij^p s_ij^q (so G = sum_i g_i) and, with T = G / 2,
#   C(n,2) C(n-2,2) W_tau = T^2 - sum_i g_i^2 + C(n,2).
# Ranks in a column are distinct, so for j != i the sign is 2 [R_jp < R_ip] - 1:
# both passes form 0/1 indicators by one np.less, and their Grams give the signs'.

_F32_EXACT = 2 ** (np.finfo(np.float32).nmant + 1)  # every integer up to 2^24
_F64_EXACT = 2 ** (np.finfo(np.float64).nmant + 1)  # every integer up to 2^53

# in float64, 12 sum R S <= 2n(n+1)(2n+1): rho_hat U and Spearman's rho
_RANK_GRAM_CEILING = _largest_n(lambda n: 2 * n * (n + 1) * (2 * n + 1) <= _F64_EXACT, 2)


def _slab_rows(width: int, budget: int) -> int:
    rows = max(1, budget // (4 * width))  # float32 indicator rows
    # a slab's column products sum at most `rows` terms of 0 or 1, exact in float32
    assert rows <= _F32_EXACT
    return rows


def stack_depth(n: int, m: int) -> int:
    """How many (n, m) rank matrices one stack holds: as many as fit the half of
    BYTE_BUDGET that the indicator slab leaves (at least one), counting for each its
    ranks twice and four m x m Grams or scaled copies, all in 8-byte words."""
    return max(1, BYTE_BUDGET // 2 // (8 * m * (2 * n + 4 * m)))


def _gram(a: np.ndarray) -> np.ndarray:
    """a^T a of each matrix in a stack (..., rows, m): one stacked GEMM."""
    return np.swapaxes(a, -1, -2) @ a


def _tau_gram(rf: np.ndarray, depth: int) -> np.ndarray:
    """G = n(n-1) tau for every column pair of the ``depth`` matrices side by side in
    rf, (n, depth m): a (depth, m, m) array, from the N = C(n,2) rows i < j only.  Their
    indicators u = [R_j < R_i] are the signs' (s + 1) / 2, so with c = U^T U and d its
    diagonal, G = 2 (4 c - 2 d_p - 2 d_q + N)."""
    n, width = rf.shape
    m = width // depth
    cap = _slab_rows(width, BYTE_BUDGET // 2)
    slab = np.empty((min(cap, n * (n - 1) // 2), width), dtype=np.float32)
    c = np.zeros((depth, m, m), dtype=np.float64)
    fill = 0

    def flush(rows):
        np.add(c, _gram(rows.reshape(len(rows), depth, m).transpose(1, 0, 2)), out=c)

    for i in range(n - 1):
        lo = i + 1
        while lo < n:
            take = min(n - lo, cap - fill)
            np.less(rf[lo : lo + take], rf[i], out=slab[fill : fill + take])
            fill += take
            lo += take
            if fill == cap:
                flush(slab)
                fill = 0
    flush(slab[:fill])
    d = 2.0 * np.diagonal(c, axis1=1, axis2=2)
    return 2.0 * (4.0 * c - d[:, :, None] - d[:, None, :] + math.comb(n, 2))


def _tau_rows(rf: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """G = sum_i g_i and sum_i g_i**2 (elementwise) of each of the ``depth`` matrices
    side by side in rf, (n, depth m), blocks of rows i at a time.  Point i's indicators
    L_i[j, p] = [R_jp < R_ip] are zero on its own row j = i and sum to R_ip - 1 down a
    column, so g_i = n + 3 - 2 R_ip - 2 R_iq + 4 L_i^T L_i = 4 (L_i - 1/2)^T (L_i - 1/2) - 1:
    the centred indicators' Gram, in multiples of 1/4 below n/4, exact in float32."""
    n, width = rf.shape
    m = width // depth
    # per point i: its n x depth m float32 indicators and depth m x m Grams, float32 and float64
    step = max(1, BYTE_BUDGET // (4 * n * width + 12 * width * m))
    q, q2 = np.zeros((2, depth, m, m), dtype=np.float64)
    buf = np.empty((min(step, n), n, width), dtype=np.float32)
    for lo in range(0, n, step):
        k = min(step, n - lo)
        b = np.less(rf, rf[lo : lo + k, None], out=buf[:k])
        b -= 0.5
        gi = _gram(b.reshape(k, n, depth, m).transpose(0, 2, 1, 3)).astype(np.float64)
        q += gi.sum(axis=0)
        q2 += np.einsum("kbpq,kbpq->bpq", gi, gi)
    # with h_i = 4 gi = g_i + 1: G = sum h_i - n, sum g_i^2 = sum h_i^2 - 2 sum h_i + n
    return 4.0 * q - n, 16.0 * q2 - 8.0 * q + n


def _rank_gram(stack: np.ndarray) -> np.ndarray:
    return _gram(stack.astype(np.float64))


@lru_cache(maxsize=1)  # a pair stage asks for one m; a caller seeing many widths holds one
def _triu(m: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(m, 1)
    for a in iu:
        a.flags.writeable = False
    return iu


def _upper(mats: np.ndarray) -> np.ndarray:
    """The (depth, C(m,2)) upper triangles of a (depth, m, m) stack, (p,q) lex order."""
    p, q = _triu(mats.shape[-1])
    return mats[:, p, q]


def stacked_spearman(stack: np.ndarray) -> np.ndarray:
    """Spearman rho for all column pairs of each matrix of a (depth, n, m) rank
    stack: (depth, C(m,2)), lexicographic order.

    One integer ratio (12 sum RS - 3n(n+1)^2) / (n(n^2-1)) per pair, exact in
    float64 for n <= 131,071.  The rank Grams are one stacked GEMM.
    """
    n = stack.shape[1]
    if n < 2:
        raise SampleTooSmall(f"spearman needs n >= 2, got {n}")
    _check_ceiling(n, _RANK_GRAM_CEILING, "spearman")
    return _upper((12.0 * _rank_gram(stack) - 3.0 * n * (n + 1) ** 2) / (n * (n * n - 1)))


def all_pairs_spearman(ranks: RankMatrix) -> np.ndarray:
    """Spearman rho for all column pairs of one rank matrix (see stacked_spearman)."""
    return stacked_spearman(ranks.ranks[None])[0]


def tau_family_pairs(stack: np.ndarray, requirements) -> dict[tuple[KernelId, str], np.ndarray]:
    """Tau U, rho_hat U and tau W on every column pair of each matrix of a
    (depth, n, m) rank stack, as (depth, C(m,2)) arrays, from one tau-engine pass.

    ``requirements`` is a collection of (kernel, kind) pairs whose _PAIR_STAGE row
    names this engine, checked by the caller (stacked_pair_values) against their
    minimum n and ceiling.  The indicators [R_jp < R_ip], whose Grams give the sign
    products', are formed once: by the per-row W pass when tau W is requested (it also
    yields G), otherwise by the upper-triangle U pass.  Each value is an exact integer
    ratio rounded once, so the result does not depend on BLAS threading, blocking or the depth.
    """
    reqs = set(requirements)
    if not reqs:
        return {}
    depth, n, m = stack.shape
    rf = np.ascontiguousarray(stack.transpose(1, 0, 2), dtype=np.float32).reshape(n, depth * m)
    if (KernelId.TAU, "W") in reqs:
        g, g2 = _tau_rows(rf, depth)
    else:
        g = _tau_gram(rf, depth)
    out = {}
    for kernel, kind in reqs:
        if kind == "W":
            t = g / 2.0
            mat = (t * t - g2 + math.comb(n, 2)) / (math.comb(n, 2) * math.comb(n - 2, 2))
        elif kernel is KernelId.TAU:
            mat = g / (n * (n - 1))
        else:
            rg = _rank_gram(stack)
            mat = (12.0 * rg - 3.0 * n * (n + 1) ** 2 - 3.0 * g) / (n * (n - 1) * (n - 2))
        out[(kernel, kind)] = _upper(mat)
    return out


# The pair stage's one table: (kernel, kind) -> (engine, largest exact n).  The rows
# whose engine is the tau Gram are the tau family, run in one pass.  A W row's ceiling
# is _w_ceiling, run on first use: it builds the kernel's pattern table (tens of ms).
_PAIR_STAGE = {
    (KernelId.TAU, "U"): (tau_family_pairs, _F32_EXACT),  # float32 indicators and slab Grams
    (KernelId.RHO_HAT, "U"): (tau_family_pairs, _RANK_GRAM_CEILING),
    # in float64, T^2 <= C(n,2)^2
    (KernelId.TAU, "W"): (tau_family_pairs, _largest_n(lambda n: math.comb(n, 2) ** 2 <= _F64_EXACT, 4)),
    # t* sums row i's n-1-i terms a(a-1) + b(b-1) <= i^2 (a + b <= i) in int64
    (KernelId.T_STAR, "U"): ((_tstar, _tstar_plan), _largest_n(lambda n: 4 * n**3 < 27 * 2**63, 4)),
    # every term of D1, D2 and D3 is an int64 product below n^4
    (KernelId.HOEFF_D, "U"): ((_hoeffd, _hoeffd_plan), _largest_n(lambda n: n**4 < 2**63, 5)),
    (KernelId.RHO_HAT, "W"): (_w_engine, _w_ceiling),
    (KernelId.T_STAR, "W"): (_w_engine, _w_ceiling),
    (KernelId.HOEFF_D, "W"): (_w_engine, _w_ceiling),
}


def _ceiling(kernel: KernelId, kind: str) -> int:
    """Largest exact n of a pair-stage (kernel, kind), read from its row."""
    ceiling = _PAIR_STAGE[(kernel, kind)][1]
    return ceiling(kernel) if callable(ceiling) else ceiling


def _check_requests(reqs: set, n: int, m: int, threads: int) -> None:
    """The pair stage's one check: ``threads`` (at least 1; it selects no code path),
    at least 2 columns (even with no request, so a correlation-only stack fails here
    too), and every request's minimum n and _ceiling, in a fixed order (the same first
    error under any hash seed)."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if m < 2:
        raise ValueError("need at least 2 columns")
    for kernel, kind in sorted(reqs, key=str):
        if kind not in ("U", "W"):
            raise ValueError(f"kind must be 'U' or 'W', got {kind!r}")
        min_n = kernel.degree if kind == "U" else 2 * kernel.degree
        if n < min_n:
            raise SampleTooSmall(f"{kind}({kernel.key}) needs n >= {min_n}, got {n}")
        _check_ceiling(n, _ceiling(kernel, kind), f"{kind}({kernel.key})")


def _pair_values(stack: np.ndarray, reqs: set) -> dict[tuple, np.ndarray]:
    depth, n, m = stack.shape
    gram = {req for req in reqs if _PAIR_STAGE[req][0] is tau_family_pairs}
    out = tau_family_pairs(stack, gram)
    rest = reqs - gram
    if not rest:
        return out
    # row b m + p: column p of matrix b; pair i of the stack is (ps[i], qs[i])
    cols = np.ascontiguousarray(stack.transpose(0, 2, 1)).reshape(depth * m, n)
    ps, qs = ((m * np.arange(depth)[:, None] + t).ravel() for t in _triu(m))
    for kernel, kind in rest:
        engine = _PAIR_STAGE[(kernel, kind)][0]
        row = np.empty(ps.size, dtype=np.float64)
        if engine is _w_engine:
            for i in range(ps.size):
                row[i] = _w_engine(kernel, cols[ps[i]], cols[qs[i]], n)
        else:
            core, plan = engine
            step = plan(n)[0]
            for a in range(0, ps.size, step):
                row[a : a + step] = core(cols[ps[a : a + step]], cols[qs[a : a + step]])
        out[(kernel, kind)] = row.reshape(depth, -1)
    return out


def stacked_pair_values(stack: np.ndarray, requirements, threads: int = 1) -> dict[tuple, np.ndarray]:
    """Every requested (kernel, kind) statistic on every column pair of each matrix
    of a (depth, n, m) stack of rank matrices, as (depth, C(m,2)) arrays.

    The one pair stage (module docstring).  The stack's columns are trusted to be
    permutations of 1..n: RankMatrix checked them, or they were drawn as such.
    The tau family comes from one tau_family_pairs pass over the whole stack.
    t* U and D U run their block core on blocks of pairs, and every other W its
    _w_engine once per pair, over the depth C(m,2) pairs in order on the calling
    thread.  ``threads`` is checked (at least 1) and selects nothing.  All paths
    are exact-integer, so no value depends on ``threads`` or on how matrices are
    stacked.
    """
    reqs = set(requirements)
    _check_requests(reqs, stack.shape[1], stack.shape[2], threads)
    return _pair_values(stack, reqs)


def pair_statistics(ranks: RankMatrix, requirements, threads: int = 1) -> dict[tuple, PairStatistics]:
    """Every requested (kernel, kind) statistic on every column pair of one rank
    matrix: stacked_pair_values on a stack of one, checked before the ranks are read."""
    reqs = set(requirements)
    n, m = ranks.n, ranks.m
    _check_requests(reqs, n, m, threads)
    vals = _pair_values(ranks.ranks[None], reqs)
    return {req: PairStatistics(*req, values=v[0], n=n, m=m) for req, v in vals.items()}


def all_pairs(ranks: RankMatrix, kernel: KernelId, kind: str = "U", threads: int = 1) -> PairStatistics:
    """Evaluate one pairwise statistic on every column pair (see stacked_pair_values)."""
    return pair_statistics(ranks, [(kernel, kind)], threads)[(kernel, kind)]

"""Exact small-sample enumeration oracles.

mu_exact(kernel, n) enumerates E[U^2] over all n! orderings of one column
(the other can be held at identity by exchangeability of the full
U-statistic) in exact integer arithmetic.  The orderings are materialised
as one array (n <= 10), and each k-subset's pattern code is computed for a
block of them at once.  solve_zetas recovers the covariance ladder
zeta_1..zeta_k from mu at n = k..2k-1 via the hypergeometric variance
expansion

    mu(n) * C(n,k) = sum_c C(k,c) * C(n-k,k-c) * zeta_c,

which is triangular in c: n = k pins zeta_k, n = k+1 pins zeta_{k-1}, and so
on down to zeta_1 at n = 2k-1.  These routines are the ground truth against
which the stamped ladders are checked; mu_from_zetas, the expansion read the
other way, lives in kernels and is re-exported here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .kernels import _FACT, KernelId, mu_from_zetas, scaled_table


def all_perms(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 as an (n!, n) int8 array."""
    if n > 10:
        raise ValueError("n! too large to materialize")
    it = itertools.chain.from_iterable(itertools.permutations(range(n)))
    flat = np.fromiter(it, dtype=np.int8, count=_FACT[n] * n)
    return flat.reshape(_FACT[n], n)


def mu_exact(kernel: KernelId, n: int) -> Fraction:
    """Exact E[U^2] at sample size n by full permutation enumeration."""
    k = kernel.degree
    if n < k:
        raise ValueError(f"need n >= {k}")
    tvec = scaled_table(kernel)
    perms = all_perms(n)
    weights = [_FACT[k - 1 - i] for i in range(k)]
    subsets = list(itertools.combinations(range(n), k))
    chunk = 400_000  # permutations per block, bounding the int64 work arrays
    tot = 0
    for lo in range(0, perms.shape[0], chunk):
        block = perms[lo : lo + chunk]
        u = np.zeros(block.shape[0], dtype=np.int64)
        for s in subsets:
            sub = block[:, s]
            code = np.zeros(block.shape[0], dtype=np.int64)
            for i in range(k):
                below = np.zeros(block.shape[0], dtype=np.int64)
                for j in range(i + 1, k):
                    below += sub[:, j] < sub[:, i]
                code += below * weights[i]
            u += tvec[code]
        tot += int(np.dot(u, u))
    return Fraction(tot, _FACT[n] * math.comb(n, k) ** 2 * kernel.scale**2)


def solve_zetas(kernel: KernelId, mus: dict[int, Fraction] | None = None) -> dict[int, Fraction]:
    """Recover zeta_1..zeta_k from exact mu(n), n = k..2k-1."""
    k = kernel.degree
    if mus is None:
        mus = {n: mu_exact(kernel, n) for n in range(k, 2 * k)}
    zetas: dict[int, Fraction] = {}
    for n in range(k, 2 * k):
        lhs = mus[n] * math.comb(n, k)
        for c in range(k, 0, -1):
            coef = math.comb(k, c) * math.comb(n - k, k - c) if k - c <= n - k else 0
            if c in zetas:
                lhs -= coef * zetas[c]
            else:
                zetas[c] = lhs / coef
                break
    return zetas


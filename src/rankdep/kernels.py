"""Symmetric rank-correlation kernels and their exact null moments.

Four kernels are supported.  Each KernelId member is its kernel's one row of
facts (key, degree k, scale, definition), read as kernel.degree and so on:

  TAU      degree 2   scale 1    sign concordance of a pair
  RHO_HAT  degree 3   scale 1    symmetrized grade-correlation kernel
  T_STAR   degree 4   scale 3    concordance-of-quadruples kernel
  HOEFF_D  degree 5   scale 60   joint-vs-product distribution distance kernel

Each kernel depends on its k points only through the relative order of the
x-coordinates and of the y-coordinates, so it is tabulated once per kernel,
on first use: with x-ranks fixed ascending, the kernel value is a function of
the pattern (within-tuple ranks) of the y-coordinates.  All table values are
exact rationals that the kernel's integer scale clears, which lets every
downstream statistic be computed in exact integer arithmetic.  The pair
stage's engines and their exact-n ceilings are rows of a (kernel, kind)
table in pairwise.

mu_h(kernel, n) is the exact null second moment E[U^2] of the corresponding
pairwise U-statistic when the two rank columns are independent uniform
permutations of 1..n.  It follows at every n from the kernel's stamped
covariance ladder zeta_1..zeta_k by Hoeffding's variance expansion

    mu(n) * C(n,k) = sum_c C(k,c) * C(n-k,k-c) * zeta_c.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SampleTooSmall, TiesPresent, WrongArity

_FACT = [math.factorial(i) for i in range(13)]


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _h_tau(rx, ry) -> Fraction:
    return Fraction(_sgn(rx[0] - rx[1]) * _sgn(ry[0] - ry[1]))


def _h_rho_hat(rx, ry) -> Fraction:
    s = 0
    for p in itertools.permutations(range(3)):
        s += _sgn(rx[p[0]] - rx[p[1]]) * _sgn(ry[p[0]] - ry[p[2]])
    return Fraction(s, 2)


def _phi_d(r) -> int:
    return ((r[0] >= r[1]) - (r[0] >= r[2])) * ((r[0] >= r[3]) - (r[0] >= r[4]))


def _h_hoeff_d(rx, ry) -> Fraction:
    s = 0
    for p in itertools.permutations(range(5)):
        s += _phi_d([rx[i] for i in p]) * _phi_d([ry[i] for i in p])
    return Fraction(s, 4 * 120)


def _phi_t(r) -> int:
    a = max(r[0], r[2]) < min(r[1], r[3])
    b = min(r[0], r[2]) > max(r[1], r[3])
    c = max(r[0], r[1]) < min(r[2], r[3])
    d = min(r[0], r[1]) > max(r[2], r[3])
    return a + b - c - d


def _h_t_star(rx, ry) -> Fraction:
    s = 0
    for p in itertools.permutations(range(4)):
        s += _phi_t([rx[i] for i in p]) * _phi_t([ry[i] for i in p])
    return Fraction(s, 24)


class KernelId(enum.Enum):
    """One row per kernel: key (the value), degree k, scale and definition h(rx, ry)."""

    TAU = ("tau", 2, 1, _h_tau)
    RHO_HAT = ("rho_hat", 3, 1, _h_rho_hat)
    T_STAR = ("tstar", 4, 3, _h_t_star)
    HOEFF_D = ("hoeffd", 5, 60, _h_hoeff_d)

    def __new__(cls, key, degree, scale, definition):
        member = object.__new__(cls)
        member._value_ = key
        member.degree = degree
        member.scale = scale
        member.definition = definition
        return member

    @property
    def key(self) -> str:
        return self.value


def pattern(values) -> tuple[int, ...]:
    """Within-tuple ranks (1-based) of a sequence of distinct values."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    r = [0] * len(values)
    for rank0, i in enumerate(order):
        r[i] = rank0 + 1
    return tuple(r)


def perm_code(p) -> int:
    """Lexicographic index (Lehmer code) of a 1-based pattern."""
    k = len(p)
    code = 0
    for i in range(k):
        below = sum(1 for j in range(i + 1, k) if p[j] < p[i])
        code += below * _FACT[k - 1 - i]
    return code


@lru_cache(maxsize=None)
def table(kernel: KernelId) -> dict[tuple[int, ...], Fraction]:
    """y-pattern (x fixed ascending) -> exact kernel value."""
    xid = tuple(range(1, kernel.degree + 1))
    return {p: kernel.definition(xid, p) for p in itertools.permutations(xid)}


@lru_cache(maxsize=None)
def scaled_table(kernel: KernelId) -> np.ndarray:
    """int64 vector of kernel.scale * h, indexed by perm_code of the pattern."""
    s = kernel.scale
    vec = np.zeros(_FACT[kernel.degree], dtype=np.int64)
    for p, v in table(kernel).items():
        sv = v * s
        if sv.denominator != 1:
            raise AssertionError(f"scaling {s} does not clear {v} for {kernel}")
        vec[perm_code(p)] = int(sv)
    return vec


def eval_kernel(kernel: KernelId, points) -> float:
    """Kernel value on k (x, y) points, using only within-tuple ranks."""
    k = kernel.degree
    pts = list(points)
    if len(pts) != k:
        raise WrongArity(f"{kernel.key} kernel takes {k} points, got {len(pts)}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if len(set(xs)) != k:
        raise TiesPresent(0, float(next(v for v in xs if xs.count(v) > 1)))
    if len(set(ys)) != k:
        raise TiesPresent(1, float(next(v for v in ys if ys.count(v) > 1)))
    order = sorted(range(k), key=lambda i: xs[i])
    key = pattern([ys[i] for i in order])
    return float(table(kernel)[key])


def mu_from_zetas(kernel: KernelId, n: int, zetas: dict[int, Fraction]) -> Fraction:
    """E[U^2] at any n >= k from the covariance ladder, over one common denominator."""
    k = kernel.degree
    den = math.lcm(*(z.denominator for z in zetas.values()))
    num = sum(
        math.comb(k, c) * math.comb(n - k, k - c) * z.numerator * (den // z.denominator)
        for c, z in zetas.items()
    )
    return Fraction(num, den * math.comb(n, k))


def mu_h_exact(kernel: KernelId, n: int) -> Fraction:
    """Exact rational E[U^2] for sample size n (valid for all n >= degree)."""
    k = kernel.degree
    if n < k:
        raise SampleTooSmall(f"mu_h({kernel.key}) needs n >= {k}, got {n}")
    from . import constants

    return mu_from_zetas(kernel, n, constants.get().kernel(kernel).zetas)


def mu_h(kernel: KernelId, n: int) -> float:
    return float(mu_h_exact(kernel, n))

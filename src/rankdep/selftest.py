"""Built-in correctness checks, runnable via the CLI.

Each check re-derives a fact from first principles (enumeration oracles,
closed forms, known example values) and compares it with what the package
actually computes.  The constants file is verified against a fresh
derivation, so a stale or hand-edited file fails here by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _rng, constants
from .calibrate import gumbel_max_pvalue, normal_pvalue
from .errors import DomainError
from .aggregate import rescale_factor, statistic_from_name
from .kernels import KernelId, eval_kernel, mu_h_exact
from .pairwise import (
    _FAST_U,
    hoeffding_d,
    kendall_tau_fast,
    rho_hat,
    spearman_rho,
    tstar,
    u_stat_naive,
    w_stat,
    w_stat_naive,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _rand_perm(rng, n):
    return (rng.permutation(n) + 1).tolist()


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def run_selftest(constants_path: str | None = None) -> list[CheckResult]:
    """Run every check; the ladders verified are those of ``constants_path``
    if given, the other checks use the constants in effect as usual."""
    consts = constants.get() if constants_path is None else constants.load(constants_path)
    checks = [CheckResult(*c) for c in constants.verify(consts)]

    # single kernel evaluations
    kv = [
        ("kernel_value_tau", eval_kernel(KernelId.TAU, [(1, 1), (2, 2)]), 1.0),
        ("kernel_value_tau_discordant", eval_kernel(KernelId.TAU, [(1, 2), (2, 1)]), -1.0),
        ("kernel_value_rho_hat", eval_kernel(KernelId.RHO_HAT, [(1, 1), (2, 2), (3, 3)]), 1.0),
        ("kernel_value_tstar", eval_kernel(KernelId.T_STAR, [(1, 1), (2, 2), (3, 3), (4, 4)]), 2 / 3),
        ("kernel_value_hoeffd", eval_kernel(KernelId.HOEFF_D, [(i, i) for i in range(1, 6)]), 1 / 30),
    ]
    for name, got, want in kv:
        checks.append(CheckResult(name, got == want, f"got {got}, want {want}"))

    # extremal per-pair values on monotone data
    ex = [
        ("extremal_tau", kendall_tau_fast([1, 2, 3, 4], [1, 2, 3, 4]), 1.0),
        ("extremal_spearman", spearman_rho([1, 2, 3], [1, 2, 3]), 1.0),
        ("extremal_rho_hat", rho_hat([1, 2, 3], [1, 2, 3]), 1.0),
        ("extremal_tstar", tstar([1, 2, 3, 4], [1, 2, 3, 4]), 2 / 3),
        ("extremal_hoeffd", hoeffding_d([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]), 1 / 30),
        ("extremal_hoeffd_reversed", hoeffding_d([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]), 1 / 30),
    ]
    for name, got, want in ex:
        checks.append(CheckResult(name, got == want, f"got {got}, want {want}"))

    # exact null moments at small n
    mus = [
        ("mu_tau", KernelId.TAU, {3: Fraction(11, 27), 5: Fraction(1, 6)}),
        ("mu_rho_hat", KernelId.RHO_HAT, {4: Fraction(13, 24), 5: Fraction(11, 30)}),
        ("mu_tstar", KernelId.T_STAR, {4: Fraction(2, 9), 5: Fraction(656, 9000)}),
        ("mu_hoeffd", KernelId.HOEFF_D, {5: Fraction(1, 9000), 10: Fraction(59, 7654500)}),
    ]
    for name, kid, table in mus:
        bad = {n: mu_h_exact(kid, n) for n in table if mu_h_exact(kid, n) != table[n]}
        checks.append(CheckResult(name, not bad, f"mismatches: {bad}" if bad else ""))

    # fast paths against subset-enumeration oracles
    rng = _rng.generator(2024, 0, 0)
    for kid in KernelId:
        bad = 0
        for _ in range(8):
            n = int(rng.integers(kid.degree, 10))
            rx, ry = _rand_perm(rng, n), _rand_perm(rng, n)
            if not _close(_FAST_U[kid](rx, ry), u_stat_naive(kid, rx, ry)):
                bad += 1
        checks.append(CheckResult(f"oracle_u_{kid.key}", bad == 0, f"{bad} mismatches"))

    w_cases = {
        KernelId.TAU: [4, 5, 6, 7, 8],
        KernelId.RHO_HAT: [6, 7],
        KernelId.T_STAR: [8, 9],
        KernelId.HOEFF_D: [10],
    }
    for kid, sizes in w_cases.items():
        bad = 0
        for n in sizes:
            rx, ry = _rand_perm(rng, n), _rand_perm(rng, n)
            if not _close(w_stat(kid, rx, ry), w_stat_naive(kid, rx, ry)):
                bad += 1
        checks.append(CheckResult(f"oracle_w_{kid.key}", bad == 0, f"{bad} mismatches"))

    # exact unbiasedness of the tau W-statistic at n = 4 (exhaustive mean 0).
    # every value is a multiple of 1/6 here, so scaling by 6 recovers ints
    import itertools

    tot = sum(
        round(6 * w_stat(KernelId.TAU, [1, 2, 3, 4], list(ry)))
        for ry in itertools.permutations(range(1, 5))
    )
    checks.append(CheckResult("w_tau_unbiased_n4", tot == 0, f"6 * mean * 24 = {tot}"))

    # grade-correlation identity: (n+1) rho_s = (n-2) rho_hat + 3 tau
    bad = 0
    for _ in range(6):
        n = int(rng.integers(5, 12))
        rx, ry = _rand_perm(rng, n), _rand_perm(rng, n)
        lhs = (n + 1) * spearman_rho(rx, ry)
        rhs = (n - 2) * rho_hat(rx, ry) + 3 * kendall_tau_fast(rx, ry)
        if not _close(lhs, rhs, 1e-10):
            bad += 1
    checks.append(CheckResult("spearman_identity", bad == 0, f"{bad} mismatches"))

    # calibration reference points
    p = normal_pvalue(1.6448536269514722)
    checks.append(CheckResult("normal_tail", abs(p - 0.05) <= 1e-10, f"p {p}"))
    checks.append(CheckResult("normal_median", normal_pvalue(0.0) == 0.5, ""))
    n, m = 128, 128
    t_crit = -2.0 * math.log(math.sqrt(8 * math.pi) * (-math.log(0.95)))
    s_crit = math.sqrt((t_crit + 4 * math.log(m) - math.log(math.log(m))) / (2.25 * n))
    p = gumbel_max_pvalue(s_crit, n, m)
    checks.append(
        CheckResult(
            "gumbel_critical_value",
            abs(p - 0.05) <= 1e-9 and abs(s_crit - 0.26709) <= 5e-4,
            f"p {p}, s_crit {s_crit}",
        )
    )
    mono = all(
        gumbel_max_pvalue(0.1 + 0.1 * i, n, m) > gumbel_max_pvalue(0.1 + 0.1 * (i + 1), n, m)
        for i in range(8)
    )
    checks.append(CheckResult("gumbel_monotone", mono, ""))
    try:
        gumbel_max_pvalue(0.5, 128, 2)
        checks.append(CheckResult("gumbel_domain", False, "m=2 accepted"))
    except DomainError:
        checks.append(CheckResult("gumbel_domain", True, ""))

    # rescaling factors on worked examples
    rs = [
        ("rescale_s_tau", rescale_factor(statistic_from_name("s_tau"), 100, 50), 4.5),
        ("rescale_s_rho_s", rescale_factor(statistic_from_name("s_rho_s"), 64, 128), 0.5),
        ("rescale_z_tstar", rescale_factor(statistic_from_name("z_tstar"), 128, 64), 5.0),
        (
            "rescale_t_tstar",
            rescale_factor(statistic_from_name("t_tstar"), 10, 4),
            float(100 / (36 * 2 * 4 * float(Fraction(11, 1575)))),
        ),
    ]
    for name, got, want in rs:
        checks.append(CheckResult(name, _close(got, want, 1e-12), f"got {got}, want {want}"))

    return checks


def format_report(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        mark = "ok  " if c.ok else "FAIL"
        suffix = f"  ({c.detail})" if (c.detail and not c.ok) else ""
        lines.append(f"{mark} {c.name}{suffix}")
    failed = [c.name for c in checks if not c.ok]
    lines.append(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed"
        + (f"; failing: {', '.join(failed)}" if failed else "")
    )
    return "\n".join(lines)

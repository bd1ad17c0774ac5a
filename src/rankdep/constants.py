"""Stamped limiting constants for each kernel.

The rescaling of the aggregate statistics needs, per kernel: the degeneracy
order d, the covariance ladder zeta_1..zeta_k, the fourth-moment quantity
eta (degenerate kernels only), and the rational prefactor of the closed-form
null moment mu_h.  All of these are derived, not transcribed: stamp() runs
the exact enumeration oracles and writes the results to a JSON file shipped
with the package.  verify() re-derives everything and reports one named
check per fact, so a corrupted or stale file is caught by the selftest.

For the two degenerate kernels the fourth-moment quantity follows from the
squared-eigenvalue ladder of the second-order projection, whose spectrum is
proportional to 1/(i^2 j^2) over integer pairs; the resulting ratio
eta / zeta_2^2 equals (90^2/9450)^2 = 36/49 and was confirmed by direct
Monte Carlo on both kernels.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import UnknownConstant
from .exact import mu_from_zetas, solve_zetas
from .kernels import DEGREE, _MU_POLY, KernelId

_ENV_VAR = "RANKDEP_CONSTANTS"
_ETA_RATIO = Fraction(36, 49)  # eta / zeta_d^2 for the degenerate kernels


@dataclass(frozen=True)
class KernelConstants:
    k: int
    d: int
    zetas: dict[int, Fraction]
    eta: Fraction | None
    mu_prefactor: Fraction

    @property
    def zeta_d(self) -> Fraction:
        return self.zetas[self.d]


@dataclass(frozen=True)
class Constants:
    version: int
    kernels: dict[str, KernelConstants]

    def kernel(self, kernel: KernelId) -> KernelConstants:
        try:
            return self.kernels[kernel.key]
        except KeyError:
            raise UnknownConstant(f"no constants for kernel {kernel.key}") from None


def default_path() -> Path:
    return Path(__file__).parent / "_data" / "constants.json"


def resolve_path(path: str | os.PathLike | None = None) -> Path:
    if path is not None:
        return Path(path)
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return default_path()


def _derive_kernel(kernel: KernelId) -> KernelConstants:
    k = DEGREE[kernel]
    zetas = solve_zetas(kernel)
    d = min(c for c in range(1, k + 1) if zetas[c] != 0)
    eta = _ETA_RATIO * zetas[d] ** 2 if d == 2 else None
    num, den = _MU_POLY[kernel]
    prefs = {mu_from_zetas(kernel, n, zetas) * den(n) / num(n) for n in range(2 * k, 2 * k + 3)}
    if len(prefs) != 1:
        raise AssertionError(f"mu polynomial shape wrong for {kernel.key}: {prefs}")
    return KernelConstants(k=k, d=d, zetas=zetas, eta=eta, mu_prefactor=prefs.pop())


def stamp() -> Constants:
    """Derive all constants from the enumeration oracles (a few seconds)."""
    return Constants(version=1, kernels={kid.key: _derive_kernel(kid) for kid in KernelId})


def _frac_to_str(f: Fraction | None) -> str | None:
    return None if f is None else f"{f.numerator}/{f.denominator}"


def _frac_from_str(s: str | None) -> Fraction | None:
    if s is None:
        return None
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def to_json(consts: Constants) -> str:
    obj = {
        "version": consts.version,
        "kernels": {
            key: {
                "k": kc.k,
                "d": kc.d,
                "mu_prefactor": _frac_to_str(kc.mu_prefactor),
                "eta": _frac_to_str(kc.eta),
                "zetas": {str(c): _frac_to_str(z) for c, z in sorted(kc.zetas.items())},
            }
            for key, kc in consts.kernels.items()
        },
    }
    return json.dumps(obj, indent=2)


def from_json(text: str) -> Constants:
    try:
        obj = json.loads(text)
        kernels = {}
        for key, kc in obj["kernels"].items():
            kernels[key] = KernelConstants(
                k=int(kc["k"]),
                d=int(kc["d"]),
                zetas={int(c): _frac_from_str(z) for c, z in kc["zetas"].items()},
                eta=_frac_from_str(kc.get("eta")),
                mu_prefactor=_frac_from_str(kc["mu_prefactor"]),
            )
        return Constants(version=int(obj["version"]), kernels=kernels)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise UnknownConstant(f"constants file unreadable: {e}") from e


def write(consts: Constants, path: str | os.PathLike) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(to_json(consts) + "\n")


def load(path: str | os.PathLike | None = None) -> Constants:
    """Load constants, regenerating (and rewriting) the file if missing."""
    p = resolve_path(path)
    if p.exists():
        return from_json(p.read_text())
    consts = stamp()
    try:
        write(consts, p)
    except OSError:
        pass  # read-only install: serve from memory
    return consts


# keyed on the arguments of resolve_path, so that a hit is one dict lookup
_CACHE: dict[tuple, Constants] = {}


def get(path: str | os.PathLike | None = None) -> Constants:
    key = (path, os.environ.get(_ENV_VAR))
    if key not in _CACHE:
        _CACHE[key] = load(path)
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()


def verify(consts: Constants) -> list[tuple[str, bool, str]]:
    """Re-derive every stored constant; one (name, ok, detail) per check."""
    checks: list[tuple[str, bool, str]] = []
    for kid in KernelId:
        key = kid.key
        stored = consts.kernels.get(key)
        if stored is None:
            checks.append((f"constants_present_{key}", False, "missing entry"))
            continue
        fresh = solve_zetas(kid)
        ok = stored.zetas == fresh
        checks.append((f"zeta_ladder_{key}", ok, "" if ok else f"expected {fresh}"))
        d = min(c for c in fresh if fresh[c] != 0)
        checks.append((f"degeneracy_{key}", stored.d == d, f"d={stored.d} vs derived {d}"))
        if d == 2:
            eta_ok = stored.eta == _ETA_RATIO * fresh[2] ** 2 and stored.eta <= fresh[2] ** 2
            checks.append((f"eta_{key}", eta_ok, f"eta={stored.eta}"))
        # closed-form moment must match the ladder expansion at several n
        num, den = _MU_POLY[kid]
        k = stored.k
        ns = range(2 * k, 2 * k + 3) if kid is not KernelId.HOEFF_D else range(10, 13)
        mism = [
            n
            for n in ns
            if mu_from_zetas(kid, n, fresh) != stored.mu_prefactor * Fraction(num(n), den(n))
        ]
        name = "mu_hoeffd_resolution" if kid is KernelId.HOEFF_D else f"mu_prefactor_{key}"
        checks.append((name, not mism, "" if not mism else f"mismatch at n={mism}"))
    return checks

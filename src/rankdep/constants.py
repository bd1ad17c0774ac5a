"""Stamped limiting constants for each kernel.

The only stored fact per kernel is its covariance ladder zeta_1..zeta_k,
found by exact enumeration: stamp() runs the oracles in the exact module,
and to_json() gives the JSON file shipped with the package.  The file is
only ever read; a missing one is an error, not regenerated, and so is a
ladder whose length is not its kernel's degree k (its KernelId row).  The
rest is derived from the ladder on load: the degeneracy order d (the first
non-zero zeta_c), the fourth-moment quantity eta (degenerate kernels only),
and, in kernels.mu_h_exact, the exact null moment mu_h at every n.
verify() re-derives each ladder and reports one named check per kernel, so
a corrupted or stale file is caught by the selftest.

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
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .errors import UnknownConstant
from .exact import solve_zetas
from .kernels import KernelId

_ENV_VAR = "RANKDEP_CONSTANTS"
_ETA_RATIO = Fraction(36, 49)  # eta / zeta_d^2 for the degenerate kernels


@dataclass(frozen=True)
class KernelConstants:
    """A kernel's zeta ladder; d, zeta_d and eta are derived once per instance, and
    equality compares the ladder only."""

    zetas: dict[int, Fraction]  # c -> zeta_c for c = 1..k, k the kernel's degree

    @cached_property
    def d(self) -> int:
        return min(c for c, z in self.zetas.items() if z != 0)

    @cached_property
    def zeta_d(self) -> Fraction:
        return self.zetas[self.d]

    @cached_property
    def eta(self) -> Fraction | None:
        return _ETA_RATIO * self.zeta_d**2 if self.d == 2 else None


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


def stamp() -> Constants:
    """Derive all constants from the enumeration oracles (a few seconds)."""
    kernels = {kid.key: KernelConstants(solve_zetas(kid)) for kid in KernelId}
    return Constants(version=2, kernels=kernels)


def to_json(consts: Constants) -> str:
    obj = {
        "version": consts.version,
        "kernels": {
            key: {
                "zetas": {
                    str(c): f"{z.numerator}/{z.denominator}" for c, z in sorted(kc.zetas.items())
                }
            }
            for key, kc in consts.kernels.items()
        },
    }
    return json.dumps(obj, indent=2)


def _frac_from_str(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def from_json(text: str) -> Constants:
    try:
        obj = json.loads(text)
        kernels = {
            key: KernelConstants({int(c): _frac_from_str(z) for c, z in kc["zetas"].items()})
            for key, kc in obj["kernels"].items()
        }
        for key, kc in kernels.items():  # k is the kernel's degree; d is read off the ladder
            k = KernelId(key).degree
            if sorted(kc.zetas) != list(range(1, k + 1)) or not any(kc.zetas.values()):
                raise ValueError(f"{key} needs zeta_1..zeta_k (k = {k}), not all zero")
        return Constants(version=int(obj["version"]), kernels=kernels)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise UnknownConstant(f"constants file unreadable: {e}") from e


def load(path: str | os.PathLike | None = None) -> Constants:
    """Read a constants file; stamp() and to_json() make a new one."""
    p = resolve_path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise UnknownConstant(f"cannot read constants file {p}: {e.strerror or e}") from e
    return from_json(text)


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
    """Re-derive every stored ladder; one (name, ok, detail) per check."""
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
    return checks

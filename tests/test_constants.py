import json
import re
from fractions import Fraction

import pytest

from rankdep import constants
from rankdep.exact import mu_exact, mu_from_zetas, solve_zetas
from rankdep.kernels import KernelId


def test_packaged_file_matches_fresh_derivation():
    packaged = constants.load(constants.default_path())
    assert constants.to_json(packaged) == constants.to_json(constants.stamp())
    assert all(ok for _, ok, _ in constants.verify(packaged))


def test_zeta_ladders():
    assert solve_zetas(KernelId.TAU) == {1: Fraction(1, 9), 2: Fraction(1)}
    assert solve_zetas(KernelId.RHO_HAT) == {
        1: Fraction(1, 9),
        2: Fraction(7, 18),
        3: Fraction(1),
    }
    assert solve_zetas(KernelId.T_STAR) == {
        1: Fraction(0),
        2: Fraction(1, 225),
        3: Fraction(8, 225),
        4: Fraction(2, 9),
    }


def test_derived_constants_are_cached_and_equality_reads_the_ladder():
    ladder = solve_zetas(KernelId.T_STAR)
    kc = constants.KernelConstants(ladder)
    assert (kc.d, kc.zeta_d, kc.eta) == (2, Fraction(1, 225), Fraction(36, 49) / 225**2)
    assert kc.eta is kc.eta  # derived once
    assert kc == constants.KernelConstants(dict(ladder))  # the cached values do not count


def test_ladder_expansion_reproduces_enumerated_moments():
    for kid in (KernelId.TAU, KernelId.RHO_HAT, KernelId.T_STAR):
        zetas = solve_zetas(kid)
        k = kid.degree
        for n in range(k, 2 * k + 2):
            assert mu_from_zetas(kid, n, zetas) == mu_exact(kid, n)


def test_roundtrip_json():
    c = constants.load(constants.default_path())
    assert constants.from_json(constants.to_json(c)) == c


def test_missing_file_raises_and_creates_nothing(tmp_path):
    path = tmp_path / "typo" / "c.json"
    with pytest.raises(constants.UnknownConstant, match=re.escape(str(path))):
        constants.load(path)
    assert list(tmp_path.iterdir()) == []


def test_perturbed_file_fails_named_check(tmp_path):
    obj = json.loads(constants.to_json(constants.load(constants.default_path())))
    obj["kernels"]["hoeffd"]["zetas"]["2"] = "1/405000"  # wrong by 2x
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    bad = constants.load(path)
    failing = {name for name, ok, _ in constants.verify(bad) if not ok}
    assert failing == {"zeta_ladder_hoeffd"}


def test_unreadable_file_raises(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(constants.UnknownConstant):
        constants.load(path)
    # a ladder that cannot give k and d is rejected on load, not when first used
    for ladder in ({"1": "0/1", "2": "0/1"}, {"1": "1/9", "3": "1/1"}, {"1": "1/9", "2": "1/1", "3": "0/1"}):
        obj = json.loads(constants.to_json(constants.load(constants.default_path())))
        obj["kernels"]["tau"]["zetas"] = ladder
        path.write_text(json.dumps(obj))
        with pytest.raises(constants.UnknownConstant, match="tau needs zeta_1..zeta_k"):
            constants.load(path)
    # a ladder's length is its kernel's degree, so a ladder for no kernel is rejected too
    obj = json.loads(constants.to_json(constants.load(constants.default_path())))
    obj["kernels"]["bogus"] = {"zetas": {"1": "1/9"}}
    path.write_text(json.dumps(obj))
    with pytest.raises(constants.UnknownConstant, match="'bogus' is not a valid KernelId"):
        constants.load(path)


def test_get_follows_env_override_and_clear_cache(tmp_path, monkeypatch):
    obj = json.loads(constants.to_json(constants.load(constants.default_path())))
    obj["kernels"]["tau"]["zetas"]["1"] = "1/3"
    path = tmp_path / "other.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("RANKDEP_CONSTANTS", raising=False)
    packaged = constants.get()
    assert constants.get() is packaged  # a hit returns the cached object
    monkeypatch.setenv("RANKDEP_CONSTANTS", str(path))
    assert constants.get().kernels["tau"].zetas[1] == Fraction(1, 3)
    path.write_text(constants.to_json(packaged))
    assert constants.get().kernels["tau"].zetas[1] == Fraction(1, 3)  # still cached
    constants.clear_cache()
    assert constants.get() == packaged  # reloaded from the rewritten file
    monkeypatch.delenv("RANKDEP_CONSTANTS")
    constants.clear_cache()
    assert constants.get() == packaged

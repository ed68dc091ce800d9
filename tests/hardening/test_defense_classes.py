"""The protection table and its use by the speculation rule: a custom
defense (a FineIBT- or PAC-style backend) plugs in by registration, with
no rule edit."""

from __future__ import annotations

import pytest

from repro.hardening.classes import (
    KNOWN_CLASSES,
    LVI,
    RET2SPEC,
    SPECTRE_V2,
    defense_classes,
    required_classes,
)
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
    register_defense,
)
from repro.hardening.defenses import Defense, DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import Opcode
from repro.static import analyze_module
from repro.static.rules.speculation import SpeculationCoverageRule


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    clear_registry()


def _register(name, protects):
    register_defense(
        CustomDefense(
            name, kind="forward", cycles=1.0, protects=frozenset(protects)
        )
    )


# -- table semantics ----------------------------------------------------------


def test_stock_tags_seeded_from_lowering_tables():
    assert SPECTRE_V2 in defense_classes(Defense.RETPOLINE.value)
    assert defense_classes(Defense.FENCED_RETPOLINE.value) >= {
        SPECTRE_V2,
        LVI,
    }
    assert RET2SPEC in defense_classes(Defense.RET_RETPOLINE.value)
    assert defense_classes(Defense.LVI_CFI_FWD.value) == frozenset({LVI})


def test_stock_tag_cannot_be_remapped():
    with pytest.raises(ValueError, match="stock defense tag"):
        _register(Defense.RETPOLINE.value, {LVI})
    # Nor through the pass, which registers what it is given.
    with pytest.raises(ValueError, match="stock defense tag"):
        CustomHardeningPass(
            forward=CustomDefense(
                Defense.RETPOLINE.value, kind="forward", cycles=1.0
            )
        )
    assert defense_classes(Defense.RETPOLINE.value) == frozenset({SPECTRE_V2})


def test_unknown_class_rejected():
    with pytest.raises(ValueError, match="unknown attack vectors"):
        _register("fineibt", {"meltdown"})


def test_register_and_unregister_extension():
    assert defense_classes("fineibt") == frozenset()
    _register("fineibt", {SPECTRE_V2, LVI})
    assert defense_classes("fineibt") == frozenset({SPECTRE_V2, LVI})
    clear_registry()
    assert defense_classes("fineibt") == frozenset()
    assert defense_classes(None) == frozenset()


def test_required_classes_follow_config():
    allcfg = DefenseConfig.all_defenses()
    assert set(required_classes(Opcode.ICALL, allcfg)) == {SPECTRE_V2, LVI}
    assert set(required_classes(Opcode.RET, allcfg)) == {RET2SPEC, LVI}
    none = DefenseConfig.none()
    assert required_classes(Opcode.ICALL, none) == []
    retp = DefenseConfig.retpolines_only()
    assert required_classes(Opcode.ICALL, retp) == [SPECTRE_V2]
    assert required_classes(Opcode.RET, retp) == []


def test_cache_env_is_canonical_and_tracks_registrations():
    rule = SpeculationCoverageRule()
    module = _hardened_module()
    _register("pac_cfi_b", {SPECTRE_V2})
    before = rule.cache_env(module, None)["custom_registry"]
    _register("pac_cfi_a", {LVI, SPECTRE_V2})
    after = rule.cache_env(module, None)["custom_registry"]
    assert after != before
    assert after == sorted(after)
    assert ("pac_cfi_a", "forward", (LVI, SPECTRE_V2)) in after
    assert KNOWN_CLASSES == {SPECTRE_V2, RET2SPEC, LVI}


# -- speculation-rule integration ---------------------------------------------


def _hardened_module(config=None):
    module = Module("ext")
    module.add_function(build_leaf("a", num_params=1))
    caller = Function("caller")
    b = IRBuilder(caller)
    b.icall({"a": 1}, num_args=1)
    b.ret()
    module.add_function(caller)
    HardeningPass(config or DefenseConfig.all_defenses()).run(module)
    return module


def _retag(module, opcode, tag):
    for inst in module.instructions():
        if inst.opcode == opcode and inst.defense is not None:
            inst.defense = tag
    module.bump_version()


def _errors(module):
    report = analyze_module(module, rules=["speculation-coverage"])
    return [d.code for d in report.errors()]


def test_covering_extension_tag_accepted_as_alternative_lowering():
    _register("fineibt_lvi", {SPECTRE_V2, LVI})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt_lvi")
    assert _errors(module) == []


def test_undercovering_extension_tag_is_pibe507():
    # Protects forward edges but not LVI, while the config demands both.
    _register("fineibt", {SPECTRE_V2})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt")
    codes = _errors(module)
    assert "PIBE507" in codes


def test_extension_tag_on_wrong_edge_kind_is_pibe507():
    _register("fineibt", {SPECTRE_V2})
    module = _hardened_module()
    _retag(module, Opcode.RET, "fineibt")
    codes = _errors(module)
    assert "PIBE507" in codes


def test_unregistered_tag_still_pibe506():
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "mystery")
    assert "PIBE506" in _errors(module)


def test_custom_stamp_on_unhardened_module_promises_nothing():
    # No stock config ran, so nothing is promised: a forward-only stamp
    # that leaves LVI open is not a lint finding.
    module = _hardened_module(DefenseConfig.none())
    weak = CustomDefense(
        "fineibt", kind="forward", cycles=1.0, protects=frozenset({SPECTRE_V2})
    )
    CustomHardeningPass(forward=weak).run(module)
    assert _errors(module) == []


def test_registry_change_invalidates_lint_cache(tmp_path):
    from repro.evaluation.cache import DiskCache
    from repro.static import lint_module

    cache = DiskCache(tmp_path / "cache")
    _register("fineibt_lvi", {SPECTRE_V2, LVI})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt_lvi")
    clean = lint_module(module, rules=["speculation-coverage"], cache=cache)
    assert not clean.errors()
    # Shrinking the tag's coverage must invalidate the cached verdict.
    clear_registry()
    _register("fineibt_lvi", {SPECTRE_V2})
    dirty = lint_module(module, rules=["speculation-coverage"], cache=cache)
    assert dirty.stats["cache_misses"] > 0
    assert any(d.code == "PIBE507" for d in dirty.errors())

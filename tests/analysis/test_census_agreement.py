"""The Table 11 census and the attack models read one protection table,
so on every image they count the same open branches."""

import copy

import pytest

from repro.analysis.gadgets import backward_edge_census, forward_edge_census
from repro.core.config import PibeConfig
from repro.cpu.attacks import LVIAttack, Ret2specAttack, SpectreV2Attack
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import DEFENSE_NAMES
from repro.ir.types import Opcode

PSCFI_FWD = CustomDefense(
    "pscfi_fwd",
    kind="forward",
    cycles=35.0,
    protects=frozenset({"spectre_v2", "lvi"}),
)
PSCFI_RET = CustomDefense(
    "pscfi_ret",
    kind="backward",
    cycles=28.0,
    protects=frozenset({"ret2spec", "lvi"}),
)
#: Closes Spectre V2 on the forward edge and nothing else.
V2_ONLY_FWD = CustomDefense(
    "v2_only_fwd",
    kind="forward",
    cycles=5.0,
    protects=frozenset({"spectre_v2"}),
)

STOCK = ["none", "retpolines", "ret-retpolines", "lvi", "all"]
CUSTOM = {
    "pscfi": dict(forward=PSCFI_FWD, backward=PSCFI_RET),
    "v2-only-forward": dict(forward=V2_ONLY_FWD),
}


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    clear_registry()


def _image(small_pipeline, case):
    if case in CUSTOM:
        lto = small_pipeline.build_variant(PibeConfig.lto_baseline()).module
        module = copy.deepcopy(lto)
        CustomHardeningPass(**CUSTOM[case]).run(module)
        return module
    config = PibeConfig.hardened(DEFENSE_NAMES[case]())
    return small_pipeline.build_variant(config).module


def _opcodes(sites, opcode):
    return {id(inst) for _, inst in sites if inst.opcode == opcode}


@pytest.mark.parametrize("case", STOCK + sorted(CUSTOM))
def test_census_agrees_with_attack_models(small_pipeline, case):
    module = _image(small_pipeline, case)
    v2 = SpectreV2Attack().hijackable_sites(module)
    lvi = LVIAttack().hijackable_sites(module)
    ret2spec = Ret2specAttack().hijackable_sites(module)

    forward = forward_edge_census(module)
    open_icalls = _opcodes(v2, Opcode.ICALL) | _opcodes(lvi, Opcode.ICALL)
    assert forward.vulnerable_icalls == len(open_icalls)
    assert forward.vulnerable_ijumps == len(_opcodes(v2, Opcode.IJUMP))
    assert backward_edge_census(module)["vulnerable"] == len(ret2spec)

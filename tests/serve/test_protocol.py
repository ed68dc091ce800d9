"""Wire-protocol codec: config round-trips, strict rejection, framing."""

import dataclasses
import json

import pytest

from repro.core.config import PibeConfig
from repro.evaluation.harness import bench_names, cell_key
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.serve import protocol
from repro.serve.protocol import ProtocolError


CONFIGS = [
    PibeConfig.lto_baseline(),
    PibeConfig.pibe_baseline(),
    PibeConfig.lax(DefenseConfig.all_defenses()),
    PibeConfig.hardened(DefenseConfig.lvi_only(), icp_budget=0.99),
    PibeConfig(
        defenses=DefenseConfig(
            retpolines=True,
            nontransient=frozenset(
                {NonTransientDefense.LLVM_CFI, NonTransientDefense.SAFESTACK}
            ),
        ),
        inline_budget=0.5,
        use_default_inliner=True,
        run_dce=False,
        caller_threshold=123,
        callee_threshold=45,
    ),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label())
def test_config_roundtrip(config):
    data = protocol.config_to_dict(config)
    json.dumps(data)  # must be directly serializable
    assert protocol.config_from_dict(data) == config


def test_config_defaults_and_partial_dicts():
    assert protocol.config_from_dict({}) == PibeConfig()
    # omitted fields take dataclass defaults, not wire-level surprises
    partial = protocol.config_from_dict({"icp_budget": 0.9})
    assert partial == PibeConfig(icp_budget=0.9)


def test_config_rejects_unknown_and_mistyped_fields():
    with pytest.raises(ProtocolError, match="unknown config field"):
        protocol.config_from_dict({"icp_bugdet": 0.9})
    with pytest.raises(ProtocolError, match="unknown defense field"):
        protocol.config_from_dict({"defenses": {"retpoline": True}})
    with pytest.raises(ProtocolError, match="must be a number"):
        protocol.config_from_dict({"icp_budget": "0.9"})
    with pytest.raises(ProtocolError, match="must be an integer"):
        protocol.config_from_dict({"caller_threshold": 1.5})
    with pytest.raises(ProtocolError, match="must be an object"):
        protocol.config_from_dict([1, 2])
    with pytest.raises(ProtocolError):
        protocol.config_from_dict({"defenses": {"nontransient": ["bogus"]}})


def test_benches_resolution():
    default = protocol.benches_from_params({})
    assert [b.name for b in default]  # full suite, non-empty
    null_read = protocol.benches_from_params({"benches": ["null", "read"]})
    assert [b.name for b in null_read] == ["null", "read"]
    with pytest.raises(ProtocolError, match="unknown benchmark"):
        protocol.benches_from_params({"benches": ["nope"]})
    with pytest.raises(ProtocolError, match="non-empty"):
        protocol.benches_from_params({"benches": []})


def test_workload_validation():
    assert protocol.workload_from_params({}) == "lmbench"
    assert protocol.workload_from_params({"workload": "apache"}) == "apache"
    with pytest.raises(ProtocolError, match="unknown workload"):
        protocol.workload_from_params({"workload": "spec2017"})


def test_measure_key_is_semantic():
    """A served measurement is keyed by the harness's cell_key over the
    decoded config value, in single-flight and in the memo alike."""
    names = bench_names(protocol.benches_from_params({"benches": ["null"]}))
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    key = cell_key(config, "lmbench", names)
    # same semantic cell from different JSON spellings -> same key
    respelled = protocol.config_from_dict(
        json.loads(json.dumps(protocol.config_to_dict(config)))
    )
    terse = protocol.config_from_dict(  # defaults omitted, fields reordered
        {
            "lax_heuristics": True,
            "inline_budget": 0.999999,
            "icp_budget": 0.999999,
            "defenses": {
                "lvi_cfi": True,
                "ret_retpolines": True,
                "retpolines": True,
            },
        }
    )
    for spelling in (respelled, terse):
        assert cell_key(spelling, "lmbench", names) == key
        assert hash(cell_key(spelling, "lmbench", names)) == hash(key)
    # any semantic difference -> different key, including the fields
    # label() leaves out
    assert cell_key(config, "apache", names) != key
    assert cell_key(PibeConfig(), "lmbench", names) != key
    assert cell_key(config, "lmbench", ("read",)) != key
    for changed in (
        dataclasses.replace(config, run_dce=False),
        dataclasses.replace(config, callee_threshold=3_000),
        dataclasses.replace(
            config,
            defenses=dataclasses.replace(
                config.defenses,
                nontransient=frozenset({NonTransientDefense.LLVM_CFI}),
            ),
        ),
    ):
        assert changed.label() == config.label()
        assert cell_key(changed, "lmbench", names) != key


def test_request_framing_roundtrip():
    line = protocol.encode_request(7, "measure", {"workload": "apache"})
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    request = protocol.decode_request(line)
    assert request.id == 7
    assert request.op == "measure"
    assert request.params == {"workload": "apache"}
    # params are optional
    bare = protocol.decode_request(protocol.encode_request(1, "ping"))
    assert bare.params == {}


def test_decode_rejects_malformed_lines():
    with pytest.raises(ProtocolError, match="invalid JSON"):
        protocol.decode_request(b"{nope\n")
    with pytest.raises(ProtocolError, match="JSON object"):
        protocol.decode_request(b"[1,2]\n")
    with pytest.raises(ProtocolError, match="string 'op'"):
        protocol.decode_request(b'{"id": 1}\n')
    with pytest.raises(ProtocolError, match="must be an object"):
        protocol.decode_request(b'{"op": "ping", "params": 3}\n')


def test_response_envelopes():
    ok = json.loads(protocol.encode_response(3, result={"x": 1}))
    assert ok == {"id": 3, "ok": True, "result": {"x": 1}}
    err = json.loads(
        protocol.encode_response(4, error=(protocol.ERROR_BAD_REQUEST, "why"))
    )
    assert err == {
        "id": 4,
        "ok": False,
        "error": {"kind": "bad_request", "message": "why"},
    }

"""Wire protocol of the evaluation server.

Newline-delimited JSON: every request and every response is one JSON
object on one line. Requests carry a client-chosen ``id`` echoed back in
the response, so clients may pipeline — responses are written in
*completion* order, not arrival order (a cache hit overtakes a cold
evaluation on the same connection).

Request::

    {"id": 7, "op": "measure", "params": {...}}

Response::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"kind": "bad_request", "message": "..."}}

Error kinds mirror the failure taxonomy of the parallel harness
(:mod:`repro.evaluation.failures`): a cell that exhausts every recovery
path inside ``measure_many`` surfaces as a ``FailureReport`` in the
*result* (the request itself succeeded — the table has a gap), while
malformed input, unknown operations and server-side exceptions map to
the ``error`` envelope here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.config import PibeConfig
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.workloads.base import Benchmark
from repro.workloads.lmbench import resolve_benches
from repro.workloads.training import TRAINING_WORKLOADS

#: Bump on incompatible wire-format changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Stable error kinds carried in the ``error`` envelope.
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_EXCEPTION = "exception"
ERROR_SHUTDOWN = "shutdown"

#: Operations the server understands.
OPS = (
    "ping",
    "build",
    "measure",
    "measure_many",
    "lint",
    "security",
    "stats",
    "shutdown",
)


class ProtocolError(ValueError):
    """Malformed request material (maps to ``bad_request`` on the wire)."""


# -- config codec ------------------------------------------------------------
#
# PibeConfig/DefenseConfig are frozen dataclasses; the JSON form spells
# out every field so a request is self-describing and diffable. Unknown
# fields are rejected rather than ignored — a typo'd knob silently
# falling back to a default would measure the wrong variant.


def config_to_dict(config: PibeConfig) -> Dict[str, Any]:
    """JSON form of a :class:`PibeConfig` (inverse of
    :func:`config_from_dict`)."""
    return {
        "defenses": {
            "retpolines": config.defenses.retpolines,
            "ret_retpolines": config.defenses.ret_retpolines,
            "lvi_cfi": config.defenses.lvi_cfi,
            "nontransient": sorted(
                d.value for d in config.defenses.nontransient
            ),
        },
        "icp_budget": config.icp_budget,
        "inline_budget": config.inline_budget,
        "lax_heuristics": config.lax_heuristics,
        "caller_threshold": config.caller_threshold,
        "callee_threshold": config.callee_threshold,
        "use_default_inliner": config.use_default_inliner,
        "run_dce": config.run_dce,
    }


_DEFENSE_FIELDS = {"retpolines", "ret_retpolines", "lvi_cfi", "nontransient"}
_CONFIG_FIELDS = {
    "defenses",
    "icp_budget",
    "inline_budget",
    "lax_heuristics",
    "caller_threshold",
    "callee_threshold",
    "use_default_inliner",
    "run_dce",
}


def config_from_dict(data: Any) -> PibeConfig:
    """Parse a :class:`PibeConfig` from its JSON form.

    Every field is optional (defaults match the dataclass), unknown
    fields raise :class:`ProtocolError`.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"config must be an object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ProtocolError(f"unknown config field(s): {sorted(unknown)}")
    defense_data = data.get("defenses", {})
    if not isinstance(defense_data, dict):
        raise ProtocolError("config.defenses must be an object")
    unknown = set(defense_data) - _DEFENSE_FIELDS
    if unknown:
        raise ProtocolError(f"unknown defense field(s): {sorted(unknown)}")
    try:
        nontransient = frozenset(
            NonTransientDefense(v)
            for v in defense_data.get("nontransient", ())
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    defenses = DefenseConfig(
        retpolines=bool(defense_data.get("retpolines", False)),
        ret_retpolines=bool(defense_data.get("ret_retpolines", False)),
        lvi_cfi=bool(defense_data.get("lvi_cfi", False)),
        nontransient=nontransient,
    )
    kwargs: Dict[str, Any] = {"defenses": defenses}
    for name in (
        "icp_budget", "inline_budget", "caller_threshold", "callee_threshold"
    ):
        if name in data:
            kwargs[name] = data[name]
    for flag in ("lax_heuristics", "use_default_inliner", "run_dce"):
        if flag in data:
            kwargs[flag] = bool(data[flag])
    try:
        return PibeConfig(**kwargs)
    except ValueError as exc:  # PibeConfig's budget and threshold rule
        raise ProtocolError(str(exc)) from None


def benches_from_params(params: Dict[str, Any]) -> Tuple[Benchmark, ...]:
    """The ``benches`` of a request (default: the full LMBench suite)."""
    names = params.get("benches")
    if names is not None and not (isinstance(names, (list, tuple)) and names):
        raise ProtocolError("benches must be a non-empty list of names")
    try:
        return resolve_benches(names)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def workload_from_params(params: Dict[str, Any]) -> str:
    workload = params.get("workload", "lmbench")
    if not isinstance(workload, str) or workload not in TRAINING_WORKLOADS:
        raise ProtocolError(f"unknown workload {workload!r}")
    return workload


# -- framing -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One decoded request line."""

    id: Any
    op: str
    params: Dict[str, Any]


def decode_request(line: bytes) -> Request:
    """Parse one request line (raises :class:`ProtocolError`)."""
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op'")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    return Request(id=data.get("id"), op=op, params=params)


def encode_response(
    request_id: Any,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[Tuple[str, str]] = None,
) -> bytes:
    """One response line; exactly one of ``result``/``error`` is set."""
    if error is not None:
        kind, message = error
        payload = {
            "id": request_id,
            "ok": False,
            "error": {"kind": kind, "message": message},
        }
    else:
        payload = {"id": request_id, "ok": True, "result": result}
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def encode_request(
    request_id: Any, op: str, params: Optional[Dict[str, Any]] = None
) -> bytes:
    payload: Dict[str, Any] = {"id": request_id, "op": op}
    if params:
        payload["params"] = params
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"

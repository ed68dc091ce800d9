"""Hardening-as-a-service: a long-running evaluation server.

Every CLI invocation re-pays kernel generation, prefix builds and cache
warm-up even though all of that is memoizable. ``repro serve`` keeps the
hot state resident — the generated kernel, staged optimized prefixes,
compiled engine programs and the :class:`~repro.evaluation.cache.DiskCache`
measurement store all live inside one long-lived
:class:`~repro.evaluation.harness.EvalContext` — and answers newline-
delimited JSON requests over TCP or a unix socket.

- :mod:`repro.serve.protocol` — wire format, config codec, error taxonomy;
- :mod:`repro.serve.server` — the asyncio server: single-flight dedup,
  batched dispatch into the persistent worker pool, cache-aware routing;
- :mod:`repro.serve.client` — a synchronous client (used by the ``repro
  client`` CLI, the load-generator benchmark and the tests).
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".client": ("ServeClient", "ServeError"),
        ".protocol": (
            "PROTOCOL_VERSION",
            "ProtocolError",
            "config_from_dict",
            "config_to_dict",
        ),
        ".server": ("ReproServer",),
    },
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "config_from_dict",
    "config_to_dict",
]

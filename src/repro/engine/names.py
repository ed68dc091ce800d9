"""Engine names and the engine version.

Cache keys, settings defaults and the CLI's ``--engine`` choices read
these; they live apart from the engines so that reading them loads no
walker and no CPU model. :mod:`repro.engine.compiled` re-exports all
three.
"""

#: Bumped whenever engine semantics change in a way that affects emitted
#: event streams or measured numbers. Part of every disk-cache key, so a
#: stale ``.repro-cache/`` can never serve results from older semantics.
ENGINE_VERSION = "engine-v3"

#: Engines selectable by name, whether or not their module is loaded.
KNOWN_ENGINES = ("reference", "compiled", "vectorized")

#: Engine used when callers do not specify one.
DEFAULT_ENGINE = "compiled"

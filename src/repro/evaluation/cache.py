"""Persistent result cache for the evaluation harness.

Profiling runs and benchmark measurements are deterministic functions of
(kernel spec, configuration, workload, seed, scale knobs, engine version),
so their results can be stored on disk and replayed: a warm cache turns a
multi-minute table regeneration into file reads. Entries live under
``.repro-cache/<kind>/<sha256>.json``; keys hash a canonical JSON encoding
of every input that influences the result, so any change — a different
kernel spec, a new engine version, edited pass behaviour reflected in the
module fingerprint — lands in a fresh slot rather than serving stale data.

Writes are atomic (temp file + rename) so concurrent workers sharing one
cache directory never observe torn entries. Entries that are corrupt
anyway (a torn write from a pre-atomic version, a manual edit, an
injected fault) are **quarantined** on first read — moved aside into
``quarantine/`` and counted separately — so one bad file costs one
recomputation, not a silent re-parse-and-miss on every future lookup.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro import faults

#: Default cache directory name, created relative to the working directory.
CACHE_DIR_NAME = ".repro-cache"

#: Subdirectory (under the cache root) where corrupt entries are moved.
QUARANTINE_DIR_NAME = "quarantine"


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable data with a stable ordering.

    Dataclasses become sorted field dicts, enums their values, sets sorted
    lists; anything unrecognized falls back to ``repr`` (stable for the
    config objects used in cache keys, which define no identity-based
    reprs).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (frozenset, set)):
        return sorted(repr(canonicalize(v)) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def cache_key(*parts: Any) -> str:
    """Hash arbitrary key material into a filename-safe hex digest."""
    text = json.dumps(canonicalize(list(parts)), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskCache:
    """A content-addressed JSON store under one root directory.

    Entries are grouped by ``kind`` ("profile", "measure", ...) purely for
    human inspection; the key hash alone guarantees uniqueness. The cache
    never evicts — delete the directory to reset.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: per-kind {"hits": n, "misses": n, "corrupt": n} breakdown;
        #: CI smoke jobs assert on e.g. the "prefix" kind's hit count.
        self.by_kind: Dict[str, Dict[str, int]] = {}

    def _bump(self, kind: str, counter: str) -> None:
        entry = self.by_kind.setdefault(
            kind, {"hits": 0, "misses": 0, "corrupt": 0}
        )
        entry[counter] += 1

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR_NAME

    def _quarantine(self, kind: str, key: str, path: Path) -> None:
        """Move a corrupt entry aside so it is parsed (and fails) once."""
        qdir = self.quarantine_dir()
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{kind}-{key}.json")
        except OSError:
            # Quarantine is best-effort; an unmovable entry is deleted so
            # it still can't shadow the slot forever.
            try:
                path.unlink()
            except OSError:
                pass

    def has(self, kind: str, key: str) -> bool:
        """Whether an entry exists on disk, without reading it.

        Used by prewarm planning to find the prefixes already on disk.
        Does not touch the hit/miss counters — it is not a lookup.
        """
        return self._path(kind, key).is_file()

    def quarantine_entry(self, kind: str, key: str) -> bool:
        """Quarantine an entry whose *payload* a caller found corrupt.

        :meth:`get` only catches entries that fail to parse as JSON;
        callers that validate content hashes or decode structured payloads
        (prefix traces) report semantic corruption here so the bad
        entry is moved aside and counted exactly like a parse failure.
        Returns whether an entry existed to quarantine.
        """
        path = self._path(kind, key)
        if not path.is_file():
            return False
        self.corrupt += 1
        self._bump(kind, "corrupt")
        self._quarantine(kind, key, path)
        return True

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload, or ``None`` on a miss.

        A corrupt entry (torn write, manual edit, injected fault) counts
        as a miss, increments the ``corrupt`` counter and is quarantined,
        so the next ``put`` repopulates a clean slot.
        """
        path = self._path(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            self.misses += 1
            self._bump(kind, "misses")
            return None
        except ValueError:
            self.corrupt += 1
            self.misses += 1
            self._bump(kind, "corrupt")
            self._bump(kind, "misses")
            self._quarantine(kind, key, path)
            return None
        self.hits += 1
        self._bump(kind, "hits")
        return payload

    def put(self, kind: str, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` atomically (temp file + rename)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Preserve payload key order: measurement dicts keep benchmark
        # order, so warm runs render identically to cold.
        text = json.dumps(payload)
        spec = faults.fire("cache.put", kind)
        if spec is not None:
            if spec.mode == "truncate":
                text = text[: max(1, len(text) // 2)]
            elif spec.mode == "corrupt":
                text = '\x00garbage\x00' + text[::-1]
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters plus the per-kind breakdown.

        Kinds are sorted (not insertion-ordered), so two processes that
        touched the same kinds in different orders render identically —
        the serve ``stats`` endpoint and snapshot tests string-compare
        this.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "by_kind": {k: dict(self.by_kind[k]) for k in sorted(self.by_kind)},
        }

    def disk_usage(self) -> Dict[str, Dict[str, int]]:
        """On-disk entry counts and byte totals per kind, quarantined
        entries excluded (``repro cache stats`` and the serve ``stats``
        op; see :meth:`quarantined`).

        Unlike :meth:`stats` (this process's counters), this inspects the
        directory, so it reflects entries written by other processes —
        parallel evaluation workers, earlier runs.
        """
        usage: Dict[str, Dict[str, int]] = {}
        if not self.root.is_dir():
            return usage
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir() or kind_dir.name == QUARANTINE_DIR_NAME:
                continue
            entries = 0
            size = 0
            for entry in kind_dir.glob("*.json"):
                try:
                    size += entry.stat().st_size
                except OSError:
                    continue
                entries += 1
            usage[kind_dir.name] = {"entries": entries, "bytes": size}
        return usage

    def quarantined(self) -> int:
        """How many corrupt entries sit in the quarantine directory."""
        qdir = self.quarantine_dir()
        return sum(1 for _ in qdir.glob("*.json")) if qdir.is_dir() else 0

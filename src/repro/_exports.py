"""Lazy package exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
lists them in a table instead of importing them::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".harness": ("EvalContext", "EvalSettings"),
    })

A name's submodule loads the first time the name is read: as an
attribute, by ``from package import name`` or by ``from package import
*``. The value is then bound on the package, so later reads are plain
attribute lookups. Importing a submodule directly (``import
repro.evaluation.harness``) runs the package ``__init__``, which then
loads nothing else. ``dir(package)`` lists every exported name, loaded
or not.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``. ``table`` maps
    each submodule, relative to ``package``, to the names it exports."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__

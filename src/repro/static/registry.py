"""Rule registry: named analyses over modules, selectable by name or code.

Rules are stateless singletons registered at import time with the
:func:`register` decorator, mirroring how clang-tidy checks self-register.
Selection accepts rule names (``"guard-chain-shape"``) or diagnostic code
prefixes (``"PIBE3"``, ``"PIBE304"``), so CLI users can scope a lint run
to one family.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Type

from repro.ir.module import Module
from repro.static.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.static.analyzer import AnalysisContext


class Rule:
    """One registered analysis.

    Subclasses set :attr:`name`, :attr:`codes` (every diagnostic code the
    rule may emit, mapped to a short summary — the rule catalog in
    ``docs/static_analysis.md`` is generated from these) and implement
    :meth:`check_function` and/or :meth:`check_module`, yielding
    :class:`Diagnostic` records.  The split is what makes incremental
    lint possible: per-function findings are cached keyed on the
    function's fingerprint, so a rule must route every finding that can
    be recomputed from one function (plus :meth:`cache_env` facts) through
    :meth:`check_function` and keep genuinely cross-function reasoning in
    :meth:`check_module`.
    """

    #: unique kebab-case rule name
    name: str = ""
    #: one-line description for ``repro lint --list-rules``
    description: str = ""
    #: code -> short summary of the condition it flags
    codes: Dict[str, str] = {}
    #: rules that consume the edge profile are skipped when none is given
    requires_profile: bool = False
    #: bumped whenever the rule's logic changes — part of every lint
    #: cache key, so stale cached diagnostics can never survive a
    #: rule edit
    version: int = 1

    def run(
        self, module: Module, ctx: "AnalysisContext"
    ) -> Iterable[Diagnostic]:
        """All findings: every function's, then the module-scoped ones."""
        for func in module:
            yield from self.check_function(func, module, ctx)
        yield from self.check_module(module, ctx)

    def check_function(
        self, func, module: Module, ctx: "AnalysisContext"
    ) -> Iterable[Diagnostic]:
        """Findings derivable from one function + :meth:`cache_env`."""
        return ()

    def check_module(
        self, module: Module, ctx: "AnalysisContext"
    ) -> Iterable[Diagnostic]:
        """Findings that need the whole module at once (never cached)."""
        return ()

    @property
    def function_scoped(self) -> bool:
        """Whether this rule has a cacheable per-function component.

        True only for rules using the stock :meth:`run` driver with an
        overridden :meth:`check_function`; a rule that overrides
        :meth:`run` itself is opaque to the incremental engine and runs
        whole-module every time.
        """
        cls = type(self)
        return (
            cls.run is Rule.run
            and cls.check_function is not Rule.check_function
        )

    def cache_env(self, module: Module, ctx: "AnalysisContext") -> object:
        """Module-level facts :meth:`check_function` findings depend on.

        Canonicalized into every per-function cache key for this rule:
        when the environment changes, every cached entry keyed under the
        old environment is dead.  The default is maximally conservative —
        the whole-module fingerprint — which is always sound but caches
        nothing across edits; rules override it with the narrow facts
        they actually read (table contents, signature map, defense
        metadata, ...).
        """
        from repro.ir.fingerprint import module_fingerprint

        return module_fingerprint(module)

    def diag(
        self,
        code: str,
        severity: Severity,
        message: str,
        function: Optional[str] = None,
        block: Optional[str] = None,
        site_id: Optional[int] = None,
    ) -> Diagnostic:
        """Build a diagnostic, asserting the code belongs to this rule."""
        assert code in self.codes, f"{self.name} emitting undeclared {code}"
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            rule=self.name,
            function=function,
            block=block,
            site_id=site_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Rule {self.name}>"


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule singleton."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    existing = _REGISTRY.get(rule.name)
    if existing is not None and type(existing) is not cls:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    for name, other in _REGISTRY.items():
        if name == rule.name:
            continue
        clash = set(other.codes) & set(rule.codes)
        if clash:
            raise ValueError(
                f"rule {rule.name!r} reuses codes {sorted(clash)} "
                f"of {name!r}"
            )
    _REGISTRY[rule.name] = rule
    return cls


_builtins_loaded = False


def _ensure_loaded() -> None:
    """Import every built-in rule module, so each registers its rule, and
    list the built-in rules first, in :data:`~repro.static.rules.BUILTIN`
    order, whichever of them registered before (``repro.ir.validate``
    loads ``structural`` alone)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    from repro.static.rules import BUILTIN

    modules = [f"repro.static.rules.{name}" for name in BUILTIN]
    for module in modules:
        importlib.import_module(module)
    rank = {module: i for i, module in enumerate(modules)}
    ordered = sorted(
        _REGISTRY.values(),
        key=lambda rule: rank.get(type(rule).__module__, len(rank)),
    )
    _REGISTRY.clear()
    _REGISTRY.update((rule.name, rule) for rule in ordered)
    _builtins_loaded = True


def all_rules() -> List[Rule]:
    """Every registered rule: the built-in ones in
    :data:`~repro.static.rules.BUILTIN` order, then the rest in
    registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def get_rule(name: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no rule named {name!r}") from None


def select_rules(selectors: Optional[Sequence[str]]) -> List[Rule]:
    """Resolve rule names / code prefixes to rule objects.

    ``None`` selects everything. A selector matches a rule if it equals
    the rule's name or is a prefix of one of its diagnostic codes.
    """
    rules = all_rules()
    if selectors is None:
        return rules
    chosen: List[Rule] = []
    for rule in rules:
        for sel in selectors:
            if sel == rule.name or any(
                code.startswith(sel) for code in rule.codes
            ):
                chosen.append(rule)
                break
    unmatched = [
        sel
        for sel in selectors
        if not any(
            sel == r.name or any(c.startswith(sel) for c in r.codes)
            for r in rules
        )
    ]
    if unmatched:
        known = ", ".join(r.name for r in rules)
        raise KeyError(
            f"unknown rule selector(s) {unmatched}; known rules: {known}"
        )
    return chosen

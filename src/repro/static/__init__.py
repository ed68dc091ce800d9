"""Static CFI analyzer for the PIBE IR — a mini clang-tidy.

Where the execution engines *measure* PIBE's security claims, this
package *proves* them on the IR itself: every module the pipeline emits
can be checked against a registry of rules that each produce
:class:`~repro.static.diagnostics.Diagnostic` records with stable codes
(``PIBE101``..``PIBE5xx``) and severities.

Rule families:

- ``PIBE1xx`` structural well-formedness (the old ``ir.validate`` checks);
- ``PIBE2xx`` type/signature-based feasible-target analysis;
- ``PIBE3xx`` Listing-2 guard-chain shape after ICP;
- ``PIBE4xx`` profile-flow conservation through ICP + inlining;
- ``PIBE5xx`` speculation-defense coverage (Tables 8-12 statically).

Entry points: :func:`analyze_module` for a report, :func:`assert_clean`
to raise on error-severity findings (used by ``PassManager(verify_each=)``
at every pass boundary), and the ``repro lint`` CLI subcommand.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analyzer": (
            "AnalysisContext",
            "StaticAnalysisError",
            "StaticAnalyzer",
            "analyze_module",
            "assert_clean",
        ),
        ".baseline": (
            "BASELINE_FILENAME",
            "load_baseline",
            "new_diagnostics",
            "write_baseline",
        ),
        ".diagnostics": ("Diagnostic", "DiagnosticReport", "Severity"),
        ".incremental": ("LINT_CACHE_VERSION", "lint_module"),
        ".registry": ("Rule", "all_rules", "get_rule", "select_rules"),
        ".sarif": ("to_sarif", "to_sarif_json"),
    },
)

__all__ = [
    "AnalysisContext",
    "BASELINE_FILENAME",
    "Diagnostic",
    "DiagnosticReport",
    "LINT_CACHE_VERSION",
    "Rule",
    "Severity",
    "StaticAnalysisError",
    "StaticAnalyzer",
    "all_rules",
    "analyze_module",
    "assert_clean",
    "get_rule",
    "lint_module",
    "load_baseline",
    "new_diagnostics",
    "select_rules",
    "to_sarif",
    "to_sarif_json",
    "write_baseline",
]

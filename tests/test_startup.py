"""What a process loads at start-up, and that lazy package exports still
answer completely: the import budget of an evaluation context, every
package's ``__all__``, and the registries that fill on import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Modules constructing an evaluation context must not load: each
#: belongs to an engine, analysis, cell or subcommand that construction
#: does not run.
NOT_AT_STARTUP = (
    "repro.engine.vectorized",
    "repro.analysis.pointsto",
    "repro.static.analyzer",
    "repro.static.incremental",
    "repro.evaluation.sweepengine",
    "repro.evaluation.validation",
    "repro.serve",
    "repro.cpu.attacks",
    "repro.ir.parser",
    "repro.tools.cli",
)

#: Most ``repro`` modules (packages included) that constructing a
#: small-kernel context may load: the count when lazy exports and
#: per-cell imports landed. A new top-level import that pulls a
#: subsystem into start-up trips it; raise it only for code that every
#: context runs.
STARTUP_MODULE_BUDGET = 68

#: The built-in lint rules, in the order the registry lists them.
BUILTIN_RULES = [
    "profile-flow-conservation",
    "guard-chain-shape",
    "pointsto-targets",
    "speculation-coverage",
    "structural",
    "type-feasible-targets",
]


def _python(*args: str) -> str:
    """Stdout of a fresh interpreter on this source tree run with
    ``args``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _packages():
    root = Path(repro.__file__).parent
    return sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py")
    )


def test_eval_context_import_budget():
    loaded = _python(
        "-c",
        "import sys\n"
        "from repro.evaluation.harness import EvalContext, EvalSettings\n"
        "from repro.kernel.spec import SmallSpec\n"
        "EvalContext(EvalSettings(spec=SmallSpec())).close()\n"
        "print('\\n'.join(m for m in sys.modules\n"
        "                 if m == 'repro' or m.startswith('repro.')))\n"
    ).split()
    unexpected = [
        name
        for name in loaded
        for banned in NOT_AT_STARTUP
        if name == banned or name.startswith(banned + ".")
    ]
    assert not unexpected, unexpected
    assert len(loaded) <= STARTUP_MODULE_BUDGET, sorted(loaded)


@pytest.mark.parametrize("package_name", _packages())
def test_every_export_resolves_by_attribute_and_star_import(package_name):
    package = importlib.import_module(package_name)
    exported = list(getattr(package, "__all__", ()))
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    assert set(exported) <= set(namespace)
    assert set(exported) <= set(dir(package))


def test_package_exports_load_only_their_own_submodule():
    """Reading one export loads its defining module, not the package's
    other submodules."""
    loaded = _python(
        "-c",
        "import sys\n"
        "from repro.evaluation import EvalSettings\n"
        "from repro import PibeConfig\n"
        "print('\\n'.join(sys.modules))\n"
    ).split()
    assert "repro.evaluation.harness" in loaded
    assert "repro.core.config" in loaded
    for name in ("repro.evaluation.tables", "repro.evaluation.sweepengine"):
        assert name not in loaded


def test_all_rules_lists_every_rule_after_validate_alone():
    """``repro.ir.validate`` registers the structural rule by itself; the
    registry still answers with all six, in their fixed order."""
    printed = _python(
        "-c",
        "import sys\n"
        "import repro.ir.validate\n"
        "assert 'repro.static.rules.pointsto' not in sys.modules\n"
        "from repro.static.registry import all_rules\n"
        "print(' '.join(rule.name for rule in all_rules()))\n"
    )
    assert printed.split() == BUILTIN_RULES


def test_vectorized_engine_with_nothing_imported_first():
    printed = _python(
        "-c",
        "import sys\n"
        "from repro.engine.compiled import create_interpreter\n"
        "from repro.ir.builder import build_leaf\n"
        "from repro.ir.module import Module\n"
        "assert 'repro.engine.vectorized' not in sys.modules\n"
        "module = Module('m')\n"
        "module.add_function(build_leaf('f'))\n"
        "interpreter = create_interpreter(module, engine='vectorized')\n"
        "interpreter.run_function('f', times=3)\n"
        "print(type(interpreter).__name__)\n"
    )
    assert printed.strip() == "VectorizedInterpreter"


def test_engine_registry_and_training_workloads_answer_completely():
    printed = _python(
        "-c",
        "import sys\n"
        "import repro.engine, repro.workloads\n"
        "print(' '.join(sorted(repro.engine.ENGINES)))\n"
        "print(' '.join(sorted(repro.workloads.TRAINING_WORKLOADS)))\n"
        "print(' '.join(m for m in ('repro.workloads.macro',\n"
        "    'repro.workloads.microbench', 'repro.workloads.spec')\n"
        "    if m in sys.modules))\n"
    )
    engines, workloads, drivers = (printed.splitlines() + [""])[:3]
    assert engines.split() == ["compiled", "reference", "vectorized"]
    assert workloads.split() == ["apache", "lmbench"]
    assert drivers == ""


def test_full_evaluation_offers_every_engine():
    usage = _python("examples/full_evaluation.py", "--help")
    assert "{compiled,reference,vectorized}" in usage

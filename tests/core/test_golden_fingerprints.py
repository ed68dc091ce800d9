"""Golden build fingerprints: a fixed matrix of defenses, budgets and
inliners on the default kernel must keep producing the exact
fingerprints frozen in
``golden/build_fingerprints.json``. Every config goes through the
default build path; the all-defenses row also goes through the
``validate=True`` reference path, which runs each pass through the
pass manager.

Site ids come from a process-wide counter, so the matrix is built in a
fresh interpreter (this file run as a script), where the counter starts
from the same state every time. Regenerate only when a change is meant
to move build output::

    PYTHONPATH=src python tests/core/test_golden_fingerprints.py \\
        > tests/core/golden/build_fingerprints.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "build_fingerprints.json"
SRC = Path(__file__).resolve().parents[2] / "src"


def build_matrix():
    """Fingerprint every matrix config (and the all-defenses row again
    through the reference path)."""
    from repro.core.config import PibeConfig
    from repro.core.pipeline import PibePipeline, deterministic_build_ids
    from repro.hardening.defenses import DefenseConfig
    from repro.ir.fingerprint import module_fingerprint
    from repro.kernel.generator import build_kernel
    from repro.kernel.spec import DEFAULT_SPEC
    from repro.workloads.lmbench import lmbench_workload

    pipeline = PibePipeline(build_kernel(DEFAULT_SPEC))
    profile = pipeline.profile(lmbench_workload(ops_scale=0.02), iterations=1)
    result = {"profile_digest": profile.digest(), "fast": {}, "reference": {}}
    for defenses in (
        DefenseConfig.none(),
        DefenseConfig.retpolines_only(),
        DefenseConfig.all_defenses(),
    ):
        configs = [PibeConfig.hardened(defenses)]
        configs += [
            PibeConfig(
                defenses=defenses,
                icp_budget=budget,
                inline_budget=budget,
                lax_heuristics=True,
            )
            for budget in (0.5, 0.99, 0.999999)
        ]
        configs += [
            PibeConfig.hardened(defenses, icp_budget=0.99, inline_budget=0.99),
            PibeConfig(
                defenses=defenses,
                icp_budget=0.99,
                inline_budget=0.99,
                use_default_inliner=True,
            ),
        ]
        paths = [("fast", False)]
        if defenses == DefenseConfig.all_defenses():
            paths.append(("reference", True))
        for config in configs:
            for path, validate in paths:
                with deterministic_build_ids():
                    build = pipeline.build_variant(
                        config, profile, validate=validate
                    )
                result[path][config.label()] = module_fingerprint(
                    build.module
                )
    return result


def test_build_fingerprints_match_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    actual = json.loads(proc.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["fast"]) == 18 and len(golden["reference"]) == 6
    for label, fingerprint in golden["reference"].items():
        assert golden["fast"][label] == fingerprint
    assert actual["profile_digest"] == golden["profile_digest"]
    assert actual["fast"] == golden["fast"]
    assert actual["reference"] == golden["reference"]


if __name__ == "__main__":
    json.dump(build_matrix(), sys.stdout, indent=2)
    sys.stdout.write("\n")

"""CLI toolchain: the full build -> profile -> optimize -> benchmark ->
attack workflow through `python -m repro`."""

import gc
import json
import sys

import pytest

from repro.tools.cli import build_parser, main
from repro.tools.gcpolicy import EVAL_GC_THRESHOLDS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def kernel_file(workdir):
    path = workdir / "kernel.ir"
    assert main(["build-kernel", "--small", "-o", str(path)]) == 0
    assert path.exists()
    return path


@pytest.fixture(scope="module")
def profile_file(workdir, kernel_file):
    path = workdir / "profile.json"
    assert (
        main(
            [
                "profile",
                "-k",
                str(kernel_file),
                "--iterations",
                "1",
                "--ops-scale",
                "0.02",
                "-o",
                str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def hardened_file(workdir, kernel_file, profile_file):
    path = workdir / "hardened.ir"
    assert (
        main(
            [
                "optimize",
                "-k",
                str(kernel_file),
                "-p",
                str(profile_file),
                "--defenses",
                "all",
                "--icp-budget",
                "0.999999",
                "--inline-budget",
                "0.999999",
                "--lax",
                "-o",
                str(path),
            ]
        )
        == 0
    )
    return path


def test_build_kernel_dump_is_parseable(kernel_file):
    from repro.ir.parser import parse_module
    from repro.ir.validate import validate_module

    module = parse_module(kernel_file.read_text())
    validate_module(module)
    assert module.syscalls


def test_profile_json_is_loadable(profile_file):
    data = json.loads(profile_file.read_text())
    assert data["direct"]
    assert data["indirect"]


def test_optimize_emits_hardened_image(hardened_file, capsys):
    text = hardened_file.read_text()
    assert "!defense=" in text
    assert "defenses retpolines=1 ret_retpolines=1 lvi_cfi=1" in text


def test_stats_command(kernel_file, capsys):
    assert main(["stats", "-k", str(kernel_file)]) == 0
    out = capsys.readouterr().out
    assert "functions" in out
    assert "attack surface" in out


def test_benchmark_with_baseline(kernel_file, hardened_file, capsys):
    assert (
        main(
            [
                "benchmark",
                "-k",
                str(hardened_file),
                "--baseline",
                str(kernel_file),
                "--suite",
                "table3",
                "--ops-scale",
                "0.05",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "geomean" in out
    assert "overhead" in out


def test_attack_command(hardened_file, capsys):
    assert main(["attack", "-k", str(hardened_file), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "defenses applied: all-defenses" in out
    assert "ret2spec: 0 hijackable" in out
    assert "spectre_v2" in out


def test_hotspots_command(kernel_file, capsys):
    assert (
        main(
            ["hotspots", "-k", str(kernel_file), "--ops", "5", "--top", "5",
             "-s", "read"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "self%" in out
    # vfs_read dominates the read path's top-5
    assert "vfs_read" in out


def test_hotspots_unknown_syscall(kernel_file, capsys):
    assert (
        main(["hotspots", "-k", str(kernel_file), "-s", "frobnicate"]) == 2
    )


def test_diff_command(kernel_file, hardened_file, capsys):
    assert main(["diff", str(kernel_file), str(hardened_file)]) == 0
    out = capsys.readouterr().out
    assert "size:" in out
    assert "defense" in out


def test_evaluate_single_experiment(capsys):
    assert main(["evaluate", "--fast", "-e", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_evaluate_fans_cells_out_with_same_table(capsys):
    tables = {}
    for jobs in ("2", "1"):
        assert main(["evaluate", "--fast", "-j", jobs, "-e", "table5"]) == 0
        tables[jobs] = capsys.readouterr().out
    assert "Table 5" in tables["1"]
    assert tables["2"] == tables["1"]


def test_evaluate_unknown_experiment(capsys):
    """Every name is checked before anything runs: a valid one listed
    first prints nothing."""
    assert main(["evaluate", "--fast", "-e", "table4", "-e", "table99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown experiment 'table99'" in captured.err


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lint_clean_kernel_text(kernel_file, capsys):
    assert main(["lint", "-k", str(kernel_file)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_hardened_with_profile_json(hardened_file, profile_file, capsys):
    assert (
        main(
            [
                "lint",
                "-k",
                str(hardened_file),
                "-p",
                str(profile_file),
                "--format",
                "json",
            ]
        )
        == 0
    )
    record = json.loads(capsys.readouterr().out)
    assert record["counts"]["error"] == 0
    assert "profile-flow-conservation" in record["rules"]
    assert "speculation-coverage" in record["rules"]


def test_lint_rule_selection(kernel_file, capsys):
    assert main(["lint", "-k", str(kernel_file), "-r", "PIBE1"]) == 0
    out = capsys.readouterr().out
    assert "from 1 rule(s)" in out


@pytest.fixture
def gc_thresholds():
    """Distinct collector thresholds for the test; the host's own are
    restored afterwards."""
    saved = gc.get_threshold()
    gc.set_threshold(701, 11, 11)
    yield (701, 11, 11)
    gc.set_threshold(*saved)


def test_lint_list_rules(capsys, gc_thresholds):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "guard-chain-shape" in out
    assert "PIBE304" in out
    # an in-process call leaves the host's collector alone
    assert gc.get_threshold() == gc_thresholds


def test_program_entry_installs_gc_policy(monkeypatch, capsys, gc_thresholds):
    """Run as the program (no ``argv``), ``main`` installs the evaluation
    GC policy before it does anything else."""
    monkeypatch.setattr(sys, "argv", ["repro", "lint", "--list-rules"])
    assert main() == 0
    assert "PIBE304" in capsys.readouterr().out
    assert gc.get_threshold() == EVAL_GC_THRESHOLDS != gc_thresholds


def test_lint_fails_on_corrupted_image(workdir, hardened_file, capsys):
    text = hardened_file.read_text()
    # Strip every defense tag: hardening promises are now unmet.
    corrupted = workdir / "corrupted.ir"
    corrupted.write_text(text.replace(" !defense=fenced_retpoline", ""))
    assert main(["lint", "-k", str(corrupted)]) == 1
    out = capsys.readouterr().out
    assert "PIBE501" in out
    assert main(["lint", "-k", str(corrupted), "--fail-on", "never"]) == 0
    capsys.readouterr()


def test_lint_output_file(workdir, kernel_file):
    path = workdir / "lint.json"
    assert (
        main(["lint", "-k", str(kernel_file), "--format", "json", "-o", str(path)])
        == 0
    )
    assert json.loads(path.read_text())["counts"]["error"] == 0


def test_faults_stress_subcommand(workdir, capsys):
    """`repro faults` runs a plan, prints per-cell status and writes the
    FailureReport artifact; --expect-failures gates the exit code."""
    from repro.faults import FaultPlan, FaultSpec

    plan_path = workdir / "plan.json"
    plan_path.write_text(
        FaultPlan(
            specs=[FaultSpec(point="measure.cell", mode="raise", times=1)]
        ).to_json()
    )
    report_path = workdir / "failure-report.json"
    assert (
        main(
            [
                "faults",
                "--plan",
                str(plan_path),
                "--configs",
                "3",
                "--jobs",
                "2",
                "--max-retries",
                "2",
                "--expect-failures",
                "0",
                "-o",
                str(report_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[ok    ]" in out and "FAILED" not in out
    report = json.loads(report_path.read_text())
    assert report["total_cells"] == 3
    assert report["completed_cells"] == 3
    assert report["failures"] == []
    # the transient fault really fired: at least one recovery happened
    assert report["retries"] + len(report["degraded"]) >= 1


def test_faults_expect_failures_mismatch_fails(workdir, capsys):
    from repro.faults import FaultPlan, FaultSpec

    plan_path = workdir / "noop-plan.json"
    plan_path.write_text(FaultPlan(specs=[]).to_json())
    assert (
        main(
            [
                "faults",
                "--plan",
                str(plan_path),
                "--configs",
                "2",
                "--expect-failures",
                "1",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_cache_stats_empty(tmp_path, capsys):
    assert (
        main(["cache", "stats", "--cache-dir", str(tmp_path / "missing")])
        == 0
    )
    assert "no cache at" in capsys.readouterr().out


def test_cache_stats_reports_kinds(tmp_path, capsys):
    from repro.evaluation.cache import DiskCache

    cache = DiskCache(tmp_path)
    cache.put("measure", "a", {"cycles": 1})
    cache.put("prefix", "b", {"module": {}})
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "measure" in out and "prefix" in out and "total" in out


def test_cache_stats_json_counts_quarantine(tmp_path, capsys):
    from repro.evaluation.cache import DiskCache

    cache = DiskCache(tmp_path)
    cache.put("measure", "good", {"cycles": 1})
    cache.put("measure", "bad", {"cycles": 2})
    # corrupt one entry, then read it so it gets quarantined
    bad_path = cache._path("measure", "bad")
    bad_path.write_text("{not json")
    assert cache.get("measure", "bad") is None

    assert (
        main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["kinds"]["measure"]["entries"] == 1
    assert payload["total_entries"] == 1
    assert payload["quarantined"] == 1


def test_cache_stats_json_is_byte_stable(tmp_path, capsys):
    """`repro cache stats --json` is a deterministic snapshot: repeated
    invocations over the same cache state render identical bytes (sorted
    keys, stable kind ordering), so CI jobs and docs can diff it."""
    from repro.evaluation.cache import DiskCache

    cache = DiskCache(tmp_path)
    # populate kinds in non-sorted order; output must not depend on it
    cache.put("prefix", "p", {"module": {}})
    cache.put("measure", "m", {"cycles": 1})
    cache.put("lint", "l", {"ok": True})

    assert (
        main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    )
    first = capsys.readouterr().out
    assert (
        main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    )
    second = capsys.readouterr().out
    assert first == second

    payload = json.loads(first)
    assert list(payload["kinds"]) == ["lint", "measure", "prefix"]
    # key order inside the document is sorted too (byte-stability, not
    # just dict equality)
    assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- sweep against a live server ---------------------------------------------

#: 2 defenses x 2 budgets on the small kernel, one seed: one workload
#: group of five cells (the LTO baseline plus the grid).
SWEEP_GRID = json.dumps(
    {
        "budgets": [0.5, 0.999999],
        "defenses": ["retpolines", "llvm-cfi"],
        "workloads": ["lmbench"],
        "scales": ["small"],
        "seeds": 1,
    }
)
SWEEP_BENCHES = "read,write,pipe"


def _repro_env():
    import os
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _csv_rows_without_scale(text):
    rows = [line.split(",") for line in text.splitlines()]
    return [row[1:] for row in rows], {row[0] for row in rows[1:]}


@pytest.fixture(scope="module")
def fast_server(tmp_path_factory):
    """`repro serve --fast` in its own process, listening on the relative
    socket path ``s.sock`` inside the yielded directory."""
    import subprocess
    import time

    from repro.serve.client import ServeClient, ServeError

    root = tmp_path_factory.mktemp("connect")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--fast", "--no-cache",
         "--unix", "s.sock", "--ready-file", "ready"],
        cwd=root,
        env=_repro_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not (root / "ready").exists():
            assert proc.poll() is None, "server exited before listening"
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.05)
        yield root
    finally:
        try:
            with ServeClient(unix=str(root / "s.sock"), timeout=30) as client:
                client.shutdown()
            proc.wait(timeout=30)
        except (ServeError, OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()


def test_sweep_connect_accepts_relative_socket_path(
    fast_server, monkeypatch, capsys
):
    """`--connect s.sock` names a unix socket (it exists), not a host."""
    monkeypatch.chdir(fast_server)
    assert (
        main(
            [
                "sweep", "--connect", "s.sock", "--grid", SWEEP_GRID,
                "--bench", SWEEP_BENCHES, "--csv", "connected.csv",
                "-o", "connected.txt",
            ]
        )
        == 0
    )
    capsys.readouterr()
    _, scales = _csv_rows_without_scale(
        (fast_server / "connected.csv").read_text()
    )
    assert scales == {"serve"}
    # bench names resolve locally: a typo fails before any connection
    assert main(["sweep", "--connect", "nowhere.sock", "--bench", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_connected_sweep_matches_local_fast_sweep(fast_server):
    """`run_sweep(client=)` against `repro serve --fast` reads what a local
    `repro sweep --fast` reads over the same grid, apart from the scale
    column. Both sides run in fresh processes, as a user would."""
    import subprocess

    from repro.evaluation.sweepengine import grid_from_spec, run_sweep
    from repro.serve.client import ServeClient
    from repro.workloads.lmbench import resolve_benches

    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--fast", "--grid",
         SWEEP_GRID, "--bench", SWEEP_BENCHES, "--csv", "local.csv",
         "-o", "local.txt"],
        cwd=fast_server,
        env=_repro_env(),
        check=True,
        capture_output=True,
    )
    with ServeClient(unix=str(fast_server / "s.sock")) as client:
        connected = run_sweep(
            grid_from_spec(SWEEP_GRID),
            benches=resolve_benches(SWEEP_BENCHES.split(",")),
            client=client,
        )
    local_rows, local_scales = _csv_rows_without_scale(
        (fast_server / "local.csv").read_text()
    )
    served_rows, served_scales = _csv_rows_without_scale(connected.to_csv())
    assert (local_scales, served_scales) == ({"small"}, {"serve"})
    assert served_rows == local_rows
    assert connected.stats["connected"] is True
    assert connected.stats["failed_cells"] == 0
    assert all(cell.air is not None for cell in connected.cells)

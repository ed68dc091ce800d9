"""Command-line toolchain — the reproduction's equivalent of the PIBE
artifact's workflow scripts (``compile_install_kernel.py``,
``run_artifact.sh``, ``generate_tables.sh``).

Usage::

    python -m repro build-kernel -o kernel.ir
    python -m repro stats -k kernel.ir
    python -m repro profile -k kernel.ir -w lmbench -o profile.json
    python -m repro optimize -k kernel.ir -p profile.json \\
        --defenses all --lax -o hardened.ir
    python -m repro benchmark -k hardened.ir --baseline kernel.ir
    python -m repro attack -k hardened.ir
    python -m repro evaluate --fast

Kernels are stored as textual IR (site ids included, so profiles taken
on a dump remain valid after reloading); profiles are stored as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline
from repro.core.report import build_overhead_report
from repro.cpu.attacks import ALL_ATTACKS, attack_surface
from repro.hardening.defenses import (
    DEFENSE_NAMES,
    DefenseConfig,
    defense_from_name,
)
from repro.hardening.harden import applied_config
from repro.ir.module import Module
from repro.kernel.generator import build_kernel, kernel_stats
from repro.kernel.spec import DEFAULT_SPEC, KernelSpec, SmallSpec
from repro.profiling.profile_data import EdgeProfile
from repro.tools.gcpolicy import use_eval_gc_policy
from repro.workloads.base import measure_suite
from repro.workloads.lmbench import (
    LMBENCH_BENCHMARKS,
    TABLE3_BENCHMARKS,
    resolve_benches,
)
from repro.workloads.training import TRAINING_WORKLOADS

SUITES = {
    "lmbench": LMBENCH_BENCHMARKS,
    "table3": TABLE3_BENCHMARKS,
}


def _load_kernel(args) -> Module:
    if getattr(args, "kernel", None):
        from repro.ir.parser import parse_module

        text = Path(args.kernel).read_text()
        return parse_module(text)
    spec: KernelSpec = SmallSpec() if args.small else DEFAULT_SPEC
    if args.seed is not None:
        import dataclasses

        spec = dataclasses.replace(spec, seed=args.seed)
    return build_kernel(spec)


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
        print(f"wrote {output} ({len(text.splitlines())} lines)")
    else:
        print(text)


def _add_kernel_args(parser, required_file=False) -> None:
    parser.add_argument(
        "-k",
        "--kernel",
        help="textual IR file; omitted -> build the default synthetic kernel",
        required=required_file,
    )
    parser.add_argument(
        "--small", action="store_true", help="use the reduced test kernel"
    )
    parser.add_argument("--seed", type=int, default=None)


# -- subcommands ------------------------------------------------------------


def cmd_build_kernel(args) -> int:
    """Build (or load) a kernel and dump it as textual IR."""
    from repro.ir.parser import dump_module

    module = _load_kernel(args)
    _write_or_print(dump_module(module), args.output)
    return 0


def cmd_stats(args) -> int:
    """Print the static census and attack surface of an image."""
    module = _load_kernel(args)
    stats = kernel_stats(module)
    print(f"module {module.name}")
    for key, value in stats.as_dict().items():
        print(f"  {key:16s} {value}")
    config = applied_config(module)
    print(f"  defenses         {config.label()}")
    print(f"  attack surface   {attack_surface(module)}")
    return 0


def cmd_profile(args) -> int:
    """Run the profiling phase and write the edge profile as JSON."""
    module = _load_kernel(args)
    workload = TRAINING_WORKLOADS[args.workload](ops_scale=args.ops_scale)
    pipeline = PibePipeline(module)
    profile = pipeline.profile(workload, iterations=args.iterations)
    Path(args.output).write_text(profile.to_json())
    print(
        f"profiled {len(profile.direct)} direct / "
        f"{len(profile.indirect)} indirect sites over "
        f"{profile.runs} iteration(s); wrote {args.output}"
    )
    return 0


def cmd_optimize(args) -> int:
    """Optimize and harden a kernel according to the flags."""
    from repro.ir.parser import dump_module

    module = _load_kernel(args)
    profile = None
    if args.profile:
        profile = EdgeProfile.from_json(Path(args.profile).read_text())
    config = PibeConfig(
        defenses=defense_from_name(args.defenses),
        icp_budget=args.icp_budget,
        inline_budget=args.inline_budget,
        lax_heuristics=args.lax,
        use_default_inliner=args.default_inliner,
    )
    build = PibePipeline(module).build_variant(config, profile)
    _write_or_print(dump_module(build.module), args.output)
    for name, report in build.reports.items():
        summary = getattr(report, "summary", None)
        print(f"[{name}] {summary() if callable(summary) else report}")
    return 0


def cmd_benchmark(args) -> int:
    """Measure suite latencies (and overheads vs a baseline image)."""
    module = _load_kernel(args)
    benches = SUITES[args.suite]
    results = measure_suite(
        module, benches, ops_scale=args.ops_scale, engine=args.engine
    )
    measured = {name: r.cycles_per_op for name, r in results.items()}

    baseline = None
    if args.baseline:
        from repro.ir.parser import parse_module

        base_module = parse_module(Path(args.baseline).read_text())
        base_results = measure_suite(
            base_module, benches, ops_scale=args.ops_scale, engine=args.engine
        )
        baseline = {name: r.cycles_per_op for name, r in base_results.items()}

    print(f"{'bench':14s} {'latency (us)':>14s}" + ("  overhead" if baseline else ""))
    for bench in benches:
        row = f"{bench.name:14s} {results[bench.name].latency_us:>14.3f}"
        if baseline:
            overhead = measured[bench.name] / baseline[bench.name] - 1
            row += f" {overhead:>9.1%}"
        print(row)
    if baseline:
        report = build_overhead_report("cli", baseline, measured)
        print(f"{'geomean':14s} {'':>14s} {report.geomean:>9.1%}")
    return 0


def cmd_attack(args) -> int:
    """Census and simulate transient attacks against an image."""
    module = _load_kernel(args)
    print(f"defenses applied: {applied_config(module).label()}")
    for attack in ALL_ATTACKS:
        if args.vector != "all" and attack.vector != args.vector:
            continue
        sites = attack.hijackable_sites(module)
        print(f"\n{attack.vector}: {len(sites)} hijackable site(s)")
        for func_name, inst in sites[: args.limit]:
            outcome = attack.attempt(module, func_name, inst)
            verdict = "HIJACKED" if outcome.success else "defended"
            print(f"  [{verdict}] @{func_name}: {outcome.detail}")
        if len(sites) > args.limit:
            print(f"  ... and {len(sites) - args.limit} more")
    return 0


def cmd_lint(args) -> int:
    """Run the static CFI analyzer over an image and report diagnostics."""
    from repro.static import (
        Severity,
        all_rules,
        lint_module,
        load_baseline,
        new_diagnostics,
        to_sarif_json,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            codes = ", ".join(sorted(rule.codes))
            print(f"{rule.name:28s} {rule.description}")
            print(f"{'':28s} codes: {codes}")
        return 0

    module = _load_kernel(args)
    profile = None
    if args.profile:
        profile = EdgeProfile.from_json(Path(args.profile).read_text())
    cache = None
    if args.cache_dir:
        from repro.evaluation.cache import DiskCache

        cache = DiskCache(Path(args.cache_dir))
    report = lint_module(
        module,
        rules=args.rules or None,
        profile=profile,
        cache=cache,
        jobs=args.jobs or 1,
    )
    if args.stats and report.stats:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
        print(f"lint stats: {pairs}", file=sys.stderr)

    if args.format == "json":
        _write_or_print(report.to_json(), args.output)
    elif args.format == "sarif":
        _write_or_print(to_sarif_json(report), args.output)
    else:
        _write_or_print(report.to_text(), args.output)

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), report)
        print(f"wrote baseline {args.write_baseline}", file=sys.stderr)

    if args.fail_on == "never":
        return 0
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    if args.baseline:
        fresh = new_diagnostics(report, load_baseline(Path(args.baseline)))
        gated = [d for d in fresh if d.severity >= threshold]
        if gated:
            print(
                f"{len(gated)} new finding(s) not in baseline "
                f"{args.baseline}:",
                file=sys.stderr,
            )
            for diag in gated:
                print(f"  {diag.render()}", file=sys.stderr)
            return 1
        return 0
    return 1 if report.at_least(threshold) else 0


def cmd_security(args) -> int:
    """Residual indirect-target metrics (points-to security report)."""
    from repro.analysis.security import security_metrics

    module = _load_kernel(args)
    metrics = security_metrics(module)
    text = json.dumps(
        metrics.to_dict(include_sites=args.sites), indent=2, sort_keys=True
    )
    _write_or_print(text, args.output)
    return 0


def cmd_hotspots(args) -> int:
    """Per-function cycle attribution over chosen syscalls."""
    from repro.analysis.hotspots import collect_hotspots, format_hotspots

    module = _load_kernel(args)
    syscalls = args.syscall or ["read", "write", "open", "pipe"]
    for syscall in syscalls:
        if syscall not in module.syscalls:
            print(f"unknown syscall {syscall!r}", file=sys.stderr)
            return 2
    spots = collect_hotspots(
        module, syscalls, ops=args.ops, top=args.top
    )
    print(f"hotspots over {syscalls} x{args.ops} ops:")
    print(format_hotspots(spots))
    return 0


def cmd_diff(args) -> int:
    """Structural diff between two dumped images."""
    from repro.analysis.diff import diff_modules
    from repro.ir.parser import parse_module

    before = parse_module(Path(args.before).read_text())
    after = parse_module(Path(args.after).read_text())
    print(diff_modules(before, after).summary())
    return 0


def _eval_settings(args) -> "EvalSettings":  # noqa: F821 — local import below
    """EvalSettings from the shared evaluate/faults CLI knobs."""
    from repro.evaluation.harness import EvalSettings

    import dataclasses

    settings = EvalSettings.fast() if args.fast else EvalSettings()
    overrides = {}
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "cell_timeout", None) is not None:
        overrides["cell_timeout"] = args.cell_timeout
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    return dataclasses.replace(settings, **overrides) if overrides else settings


def _add_engine_arg(parser, default=None) -> None:
    from repro.engine.names import KNOWN_ENGINES

    parser.add_argument(
        "--engine",
        choices=KNOWN_ENGINES,
        default=default,
        help=(
            "execution engine: reference (oracle), compiled (exact replay, "
            "default), vectorized (counting-mode batching — fastest, "
            "measures warm-predictor cycles); every engine but reference "
            "collects profiles on the vectorized engine (same profiles)"
        ),
    )


def _add_harness_args(parser) -> None:
    """Fault-tolerance / scale knobs shared by evaluate and faults."""
    _add_engine_arg(parser)
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for parallel measurement (default: 1)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="resubmissions per failing cell before inline degradation",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell wall-clock limit in seconds (parallel path)",
    )
    parser.add_argument(
        "--cache-dir",
        help="persistent result cache directory (e.g. .repro-cache)",
    )


def cmd_evaluate(args) -> int:
    """Regenerate the paper's tables (all or selected)."""
    # Local import: the evaluation stack is heavy.
    from repro.evaluation import tables
    from repro.evaluation.harness import EvalContext

    generators = {name: run for name, _, run in tables.EXPERIMENTS}
    chosen = args.experiment or list(generators)
    for name in chosen:
        if name not in generators:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
    with EvalContext(_eval_settings(args)) as ctx:
        for name in chosen:
            result = generators[name](ctx)
            print(result.table.to_text())
            print()
    return 0


def _stress_configs(n: int):
    """``n`` distinct measurement cells for the fault stress matrix.

    Budget variants use the grid the fault plans key on (``icp=99%`` for
    the transient spec, ``icp=99.99%`` for the permanent one in the
    default plan).
    """
    budgets = (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)
    pool = [
        PibeConfig.lto_baseline(),
        PibeConfig.hardened(DefenseConfig.retpolines_only()),
    ]
    for budget in budgets:
        pool.append(
            PibeConfig.hardened(
                DefenseConfig.retpolines_only(),
                icp_budget=budget,
                inline_budget=budget,
            )
        )
    for budget in budgets:
        pool.append(
            PibeConfig.hardened(
                DefenseConfig.all_defenses(),
                icp_budget=budget,
                inline_budget=budget,
                lax_heuristics=True,
            )
        )
    if not 1 <= n <= len(pool):
        raise SystemExit(f"--configs must be in 1..{len(pool)}")
    return pool[:n]


def cmd_cache(args) -> int:
    """Inspect the persistent result cache on disk."""
    from repro.evaluation.cache import CACHE_DIR_NAME, DiskCache

    root = Path(args.cache_dir or CACHE_DIR_NAME)
    cache = DiskCache(root)
    usage = cache.disk_usage()
    quarantined = cache.quarantined()
    payload = {
        "root": str(root),
        "kinds": {kind: usage[kind] for kind in sorted(usage)},
        "total_entries": sum(u["entries"] for u in usage.values()),
        "total_bytes": sum(u["bytes"] for u in usage.values()),
        "quarantined": quarantined,
    }
    if args.json:
        # sort_keys so the output is byte-stable for a given cache state:
        # the serve `stats` endpoint and snapshot tests string-compare it.
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not root.is_dir():
        print(f"no cache at {root}")
        return 0
    print(f"cache {root}")
    print(f"{'kind':12s} {'entries':>8s} {'bytes':>12s}")
    for kind, info in usage.items():
        print(f"{kind:12s} {info['entries']:>8d} {info['bytes']:>12d}")
    print(
        f"{'total':12s} {payload['total_entries']:>8d} "
        f"{payload['total_bytes']:>12d}"
    )
    if quarantined:
        print(f"quarantined  {quarantined:>8d}")
    return 0


def cmd_faults(args) -> int:
    """Stress the evaluation harness under an injected fault plan."""
    import tempfile

    from repro import faults as faultlib
    from repro.evaluation.harness import EvalContext, cell_label

    if args.plan:
        plan = faultlib.FaultPlan.from_json(Path(args.plan).read_text())
        source = args.plan
    else:
        plan = faultlib.FaultPlan.from_env()
        source = f"${faultlib.ENV_VAR}"
        if plan is None:
            plan = faultlib.default_stress_plan()
            source = "built-in stress plan"
    args.fast = True  # stress runs always use the reduced-scale matrix
    settings = _eval_settings(args)
    import dataclasses

    if args.jobs is None:
        # Parallel by default: worker crashes/hangs only exist with a pool.
        settings = dataclasses.replace(settings, jobs=2)
    if settings.cache_dir is None:
        settings = dataclasses.replace(
            settings, cache_dir=tempfile.mkdtemp(prefix="repro-faults-cache-")
        )
    configs = _stress_configs(args.configs)

    print(f"fault plan ({source}): {len(plan.specs)} spec(s)")
    for spec in plan.specs:
        times = "unlimited" if spec.times is None else spec.times
        print(f"  {spec.point:14s} {spec.mode:9s} match={spec.match!r} times={times}")
    print(
        f"matrix: {len(configs)} configs x 1 workload, jobs={settings.jobs}, "
        f"max_retries={settings.max_retries}, cell_timeout={settings.cell_timeout}"
    )

    faultlib.install(plan)
    try:
        ctx = EvalContext(settings)
        results = ctx.measure_many(configs)
    finally:
        faultlib.clear()
    report = results.failure_report

    failed = set(report.failed_indices())
    for i, config in enumerate(configs):
        status = "FAILED" if i in failed else "ok"
        print(f"  [{status:6s}] {cell_label(config, 'lmbench')}")
    print(f"report: {report.summary()}")
    print(f"cache: {ctx.cache.stats()}")
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n")
        print(f"wrote {args.output}")
    if args.expect_failures is not None:
        if len(report.failures) != args.expect_failures:
            print(
                f"expected {args.expect_failures} permanent failure(s), "
                f"got {len(report.failures)}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 0 if report.ok else 2


def cmd_serve(args) -> int:
    """Run the persistent evaluation server (until SIGINT or a client
    ``shutdown`` request)."""
    from repro.evaluation.cache import CACHE_DIR_NAME
    from repro.serve.client import DEFAULT_PORT
    from repro.serve.server import ReproServer, run_server

    if getattr(args, "cache_dir", None) is None and not args.no_cache:
        # A server without a disk cache forgets everything on restart;
        # default to the standard cache root instead of nothing.
        args.cache_dir = CACHE_DIR_NAME
    settings = _eval_settings(args)
    server = ReproServer(
        settings,
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        unix_path=args.unix,
    )
    print(
        f"repro serve: kernel {server.ctx.kernel.name} "
        f"({type(settings.spec).__name__}), engine {settings.engine}, "
        f"jobs {settings.jobs}, cache "
        f"{settings.cache_dir or 'disabled'}"
    )

    async def _serve() -> None:
        await server.start()
        print(f"listening on {server.address}")
        if args.ready_file:
            # CI handshake: the file appears only once the socket accepts.
            Path(args.ready_file).write_text(server.address + "\n")
        await server.serve_until_shutdown()

    import asyncio

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        server.ctx.close()
    print("server stopped")
    return 0


def _client_config(args) -> PibeConfig:
    """A PibeConfig from the optimize-style client flags."""
    return PibeConfig(
        defenses=defense_from_name(args.defenses),
        icp_budget=args.icp_budget,
        inline_budget=args.inline_budget,
        lax_heuristics=args.lax,
    )


def cmd_sweep(args) -> int:
    """Full-grid sweep: (budget x defense x workload x scale) cells with
    seed repetition, Pareto frontier and defense crossover analysis."""
    import dataclasses
    import os

    from repro.evaluation.sweepengine import grid_from_spec, run_sweep

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        grid = grid_from_spec(args.grid)
        if args.seeds is not None:
            grid = dataclasses.replace(grid, seeds=args.seeds)
        # Resolved locally in both modes: a typo fails before any server
        # is contacted.
        benches = resolve_benches(args.bench.split(",") if args.bench else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log(f"sweep grid: {grid.describe()}")

    if args.connect:
        from repro.serve.client import DEFAULT_PORT, ServeClient, ServeError

        address = args.connect
        if "/" in address or os.path.exists(address):
            client = ServeClient(unix=address)
        else:
            host, _, port = address.partition(":")
            client = ServeClient(
                host=host or "127.0.0.1",
                port=int(port) if port else DEFAULT_PORT,
            )
        try:
            with client:
                result = run_sweep(
                    grid, benches=benches, log=log, client=client
                )
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot reach server at {address}: {exc}", file=sys.stderr)
            return 1
    else:
        result = run_sweep(
            grid,
            _eval_settings(args),
            benches=benches,
            log=log,
            prewarm=not args.no_prewarm,
        )

    # Accounting goes to stderr only: the report/CSV artifacts must be
    # byte-identical between a cold and a warm run of the same grid.
    log("sweep stats: " + json.dumps(result.stats, sort_keys=True))
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        log(f"wrote {args.csv}")
    _write_or_print(result.render_report(args.format), args.output)
    return 0


def cmd_client(args) -> int:
    """One request against a running ``repro serve`` instance."""
    from repro.serve.client import DEFAULT_PORT, ServeClient, ServeError

    client = ServeClient(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        unix=args.unix,
        timeout=args.timeout,
    )
    benches = args.bench.split(",") if args.bench else None
    try:
        with client:
            if args.op == "ping":
                result = client.ping()
            elif args.op == "stats":
                result = client.stats()
            elif args.op == "shutdown":
                result = client.shutdown()
            elif args.op == "build":
                result = client.build(_client_config(args), args.workload)
            elif args.op == "measure":
                result = client.measure(
                    _client_config(args), benches, args.workload
                )
            elif args.op == "lint":
                result = client.lint(_client_config(args), args.workload)
            elif args.op == "security":
                result = client.security(_client_config(args), args.workload)
            else:  # pragma: no cover — argparse choices guard this
                raise SystemExit(f"unknown op {args.op!r}")
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach server: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# -- argument wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIBE reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kernel", help="build and dump the synthetic kernel")
    _add_kernel_args(p)
    p.add_argument("-o", "--output", help="output .ir file (default: stdout)")
    p.set_defaults(func=cmd_build_kernel)

    p = sub.add_parser("stats", help="static census of a kernel image")
    _add_kernel_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("profile", help="run the profiling phase")
    _add_kernel_args(p)
    p.add_argument(
        "-w",
        "--workload",
        choices=list(TRAINING_WORKLOADS),
        default="lmbench",
    )
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--ops-scale", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True, help="profile JSON path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("optimize", help="optimize and harden a kernel")
    _add_kernel_args(p)
    p.add_argument("-p", "--profile", help="profile JSON from `profile`")
    p.add_argument(
        "--defenses", choices=sorted(DEFENSE_NAMES), default="all"
    )
    p.add_argument("--icp-budget", type=float, default=None)
    p.add_argument("--inline-budget", type=float, default=None)
    p.add_argument("--lax", action="store_true", help="lax size heuristics")
    p.add_argument(
        "--default-inliner",
        action="store_true",
        help="use the LLVM-style bottom-up inliner baseline",
    )
    p.add_argument("-o", "--output", help="output .ir file (default: stdout)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("benchmark", help="measure latencies (and overheads)")
    _add_kernel_args(p)
    p.add_argument("--baseline", help="baseline kernel .ir for overheads")
    p.add_argument("--suite", choices=sorted(SUITES), default="lmbench")
    p.add_argument("--ops-scale", type=float, default=0.5)
    _add_engine_arg(p, default="compiled")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("attack", help="simulate transient attacks on an image")
    _add_kernel_args(p)
    p.add_argument(
        "--vector",
        choices=("all", *(attack.vector for attack in ALL_ATTACKS)),
        default="all",
    )
    p.add_argument("--limit", type=int, default=3, help="attempts to show")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("lint", help="static CFI analysis of a kernel image")
    _add_kernel_args(p)
    p.add_argument("-p", "--profile", help="profile JSON from `profile`")
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    p.add_argument(
        "-r",
        "--rules",
        action="append",
        help="rule name or code prefix to run (repeatable; default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list registered rules"
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for sharded rule evaluation",
    )
    p.add_argument(
        "--cache-dir",
        help="incremental lint cache directory (e.g. .repro-cache)",
    )
    p.add_argument(
        "--baseline",
        help="suppression file: fail only on findings not in it",
    )
    p.add_argument(
        "--write-baseline",
        help="write a baseline accepting every current finding",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print cache-hit/shard statistics to stderr",
    )
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "security",
        help="residual indirect-target metrics (points-to analysis)",
    )
    _add_kernel_args(p)
    p.add_argument(
        "--sites", action="store_true", help="include per-site residuals"
    )
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("hotspots", help="per-function cycle attribution")
    _add_kernel_args(p)
    p.add_argument(
        "-s", "--syscall", action="append",
        help="syscalls to drive (repeatable; default: read/write/open/pipe)",
    )
    p.add_argument("--ops", type=int, default=40)
    p.add_argument("--top", type=int, default=15)
    p.set_defaults(func=cmd_hotspots)

    p = sub.add_parser("diff", help="structural diff between two images")
    p.add_argument("before", help="baseline .ir file")
    p.add_argument("after", help="transformed .ir file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("evaluate", help="regenerate the paper's tables")
    p.add_argument("--fast", action="store_true")
    p.add_argument(
        "-e",
        "--experiment",
        action="append",
        help="which experiment(s); default: all (e.g. -e table5 -e table6)",
    )
    _add_harness_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cache", help="inspect the persistent result cache")
    cache_sub = p.add_subparsers(dest="action", required=True)
    p = cache_sub.add_parser(
        "stats", help="on-disk entry counts and sizes per kind"
    )
    p.add_argument(
        "--cache-dir",
        help="cache directory (default: .repro-cache)",
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "faults",
        help="stress the evaluation harness under an injected fault plan",
    )
    p.add_argument(
        "--plan",
        help=(
            "fault plan JSON file (default: $REPRO_FAULTS, else the "
            "built-in stress plan)"
        ),
    )
    p.add_argument(
        "--configs", type=int, default=8,
        help="measurement cells in the stress matrix (default: 8)",
    )
    _add_harness_args(p)
    p.add_argument(
        "--expect-failures", type=int, default=None,
        help=(
            "exit 0 iff exactly this many cells fail permanently "
            "(default: exit 2 on any failure)"
        ),
    )
    p.add_argument("-o", "--output", help="FailureReport JSON path")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "serve",
        help="run the persistent evaluation server (hardening-as-a-service)",
    )
    p.add_argument("--fast", action="store_true", help="small kernel/scales")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 8642; ignored with --unix)",
    )
    p.add_argument("--unix", help="serve on a unix socket path instead of TCP")
    p.add_argument(
        "--ready-file",
        help="write the listening address here once accepting (CI handshake)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="run without a disk cache (default: .repro-cache)",
    )
    _add_harness_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "sweep",
        help="full-grid sweep with Pareto frontier and crossover analysis",
    )
    p.add_argument(
        "--grid", default="fast",
        help=(
            "grid preset (fast/default/paper), JSON file, or inline JSON "
            "(fields: budgets, defenses, workloads, scales, seeds, "
            "seed_base, lax)"
        ),
    )
    p.add_argument(
        "--seeds", type=int, default=None,
        help="override the grid's seed replica count",
    )
    p.add_argument(
        "--format", choices=("text", "markdown"), default="text",
        help="report rendering",
    )
    p.add_argument(
        "--connect",
        help=(
            "sweep against a running `repro serve` (host:port, or a unix "
            "socket path: any address with a '/' or naming an existing "
            "file) instead of a local harness; the server's kernel/seed "
            "replace the grid's scales/seeds dimensions"
        ),
    )
    p.add_argument(
        "--csv", help="also write the per-cell grid as CSV to this path"
    )
    p.add_argument(
        "--bench", help="comma-separated benchmark names (default: all)"
    )
    p.add_argument("--fast", action="store_true", help="reduced ops scales")
    p.add_argument(
        "--no-prewarm", action="store_true",
        help=(
            "skip the parallel prefix prewarm before each workload group "
            "(cold optimized prefixes then build lazily inline)"
        ),
    )
    _add_harness_args(p)
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "client", help="send one request to a running `repro serve`"
    )
    p.add_argument(
        "op",
        choices=(
            "ping", "stats", "shutdown", "build", "measure", "lint",
            "security",
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--unix", help="unix socket path of the server")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument(
        "--defenses", choices=sorted(DEFENSE_NAMES), default="all",
        help="config for build/measure/lint ops",
    )
    p.add_argument("--icp-budget", type=float, default=None)
    p.add_argument("--inline-budget", type=float, default=None)
    p.add_argument("--lax", action="store_true")
    p.add_argument(
        "-w",
        "--workload",
        choices=list(TRAINING_WORKLOADS),
        default="lmbench",
    )
    p.add_argument(
        "--bench", help="comma-separated benchmark names (measure op)"
    )
    p.set_defaults(func=cmd_client)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Without ``argv`` it runs as the process's program (``python -m
    repro``, the ``repro`` script) and first installs the evaluation GC
    policy; an in-process call with an argument list leaves the host's
    collector settings alone.
    """
    if argv is None:
        use_eval_gc_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away; exit quietly like a
        # well-behaved unix tool
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

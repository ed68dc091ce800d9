#!/usr/bin/env python3
"""End-to-end benchmark: the programs users run, timed from outside.

Every workload runs the real command lines as child processes from this
one load-generating process: ``examples/full_evaluation.py``,
``python -m repro sweep`` and ``python -m repro serve`` driven through
``ServeClient``. This process imports ``repro`` only for that client and
to render goldens. The traced run (``--trace 1``) puts ``trace_hook/`` on
``PYTHONPATH``, so each child times calls into the layers' public
functions itself; nothing under ``src/`` knows about it.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload eval-cold --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload sweep-cold --trace 1
    python3 benchmarks/e2e/run.py --regen-golden
    python3 benchmarks/e2e/run.py compare parent.jsonl change.jsonl
    python3 benchmarks/e2e/run.py history

The last line of a run's standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for
the workloads, the metrics and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXAMPLE = ROOT / "examples" / "full_evaluation.py"
GOLDEN = HERE / "golden"
HOOK = HERE / "trace_hook"
#: Scratch space for runs (ignored by git): per-run temp dirs, the
#: eval-warm cache template, the latest trace of each workload.
WORK = HERE / "work"

WORKLOADS = ("eval-cold", "eval-warm", "sweep-cold", "serve-mixed")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Spawns timed for ``setup_s``; the median is reported.
SETUP_SPAWNS = 5
#: Batch workloads repeat their command until the run length is spent,
#: and at least this often, so the reported median is a middle sample.
MIN_REPS = 3
#: A traced batch run times at least this many (plain, traced) pairs.
TRACE_PAIRS = 2
#: Upper bound on any one child process (the run itself must end in 180 s).
CHILD_TIMEOUT = 150.0

#: A prefix build draws fresh site ids from a process-wide counter, and a
#: few cells measure differently depending on the ids they drew, so a
#: result can depend on which cells the process built before it. The
#: goldens therefore fix the build order, and the seed picks one of a
#: committed set of inputs.
#:
#: ``sweep-cold`` maps the seed onto these grid seed bases. Bases 8 and
#: 14 are left out: there ``repro sweep -j 2``, whose pool workers build
#: in another order, reports a different IQR than the serial harness.
SWEEP_SEED_BASES = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 15)
#: ``serve-mixed`` maps the seed onto this many request streams.
SERVE_STREAMS = 8

SERVE_BENCHES = ("null", "read", "pipe", "open")
SERVE_DEFENSES = ("none", "retpolines", "ret-retpolines", "lvi", "all")
SERVE_WORKLOADS = ("lmbench", "apache")
#: Closed loop: this many clients, one connection each (nproc = 2).
SERVE_CLIENTS = 2
#: One block = 240 requests, 24 of them cold (10%). A block holds one
#: cold cell per budget level, so every block, whatever the seed, costs
#: about the same.
SERVE_BLOCK = 240
COLD_LEVELS = 24
#: Cold cells per budget level, one per (defense, workload) pair; also
#: the most blocks a stream can have.
COLD_VARIANTS = len(SERVE_DEFENSES) * len(SERVE_WORKLOADS)
#: Run length -> stream length: one block per this many seconds, so the
#: stream (and the server's memory, which grows with distinct cells) is
#: the same on every run of a given ``--seconds``.
SERVE_SECONDS_PER_BLOCK = 2.0


# -- child processes --------------------------------------------------------------


def child_env(trace_dir: Optional[Path] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("E2E_TRACE_DIR", None)
    path = [str(SRC)]
    if trace_dir is not None:
        path.insert(0, str(HOOK))
        env["E2E_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def spawn(args: List[str], cwd: Path, env: Dict[str, str], name: str):
    """A Python child in its own session (so a timeout kills its tree),
    with stdout/stderr in ``cwd/<name>.out`` / ``.err``."""
    with open(cwd / f"{name}.out", "wb") as out, open(cwd / f"{name}.err", "wb") as err:
        return subprocess.Popen(
            [sys.executable, *args],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )


def kill_tree(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc, timeout: float = CHILD_TIMEOUT) -> float:
    """Wait for ``proc`` (killing its process group after ``timeout``);
    returns its peak RSS in MB, over it and every descendant it waited
    for."""
    timer = threading.Timer(timeout, kill_tree, (proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_tree(proc)
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        kill_tree(proc)
    return usage.ru_maxrss / 1024.0


@dataclass
class Run:
    wall: float
    rss_mb: float
    ok: bool
    pid: int


def run_program(
    args: List[str], cwd: Path, env: Dict[str, str], name: str
) -> Run:
    start = time.perf_counter()
    proc = spawn(args, cwd, env, name)
    rss = reap(proc)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        err = (cwd / f"{name}.err").read_text(errors="replace")[-2000:]
        print(f"{name}: exit {proc.returncode}\n{err}", file=sys.stderr)
    return Run(wall, rss, proc.returncode == 0, proc.pid)


class Tally:
    """Operations attempted and failed (non-zero exit, ServeError, output
    differing from the golden)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


def new_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def time_setup(settings: str, run_dir: Path, tally: Tally) -> List[float]:
    """Spawn-to-exit time of a child that only constructs the workload's
    ``EvalContext`` (interpreter start, imports, kernel generation)."""
    code = (
        "from repro.evaluation.harness import EvalContext, EvalSettings\n"
        "from repro.kernel.spec import SmallSpec\n"
        f"EvalContext(EvalSettings({settings})).close()\n"
    )
    times = []
    for i in range(SETUP_SPAWNS):
        run = run_program(["-c", code], run_dir, child_env(), f"setup{i}")
        tally.record(run.ok, "setup spawn")
        times.append(run.wall)
    return times


# -- goldens -----------------------------------------------------------------------


def _use_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def inline_eval_text() -> str:
    """The tables full_evaluation.py prints, rendered by the inline
    harness directly (same construction order: kernel first)."""
    _use_src()
    from repro.evaluation import tables
    from repro.evaluation.harness import EvalContext, EvalSettings

    with EvalContext(EvalSettings()) as ctx:
        runs = [tables.figure1, tables.table1] + [
            functools.partial(getattr(tables, name), ctx)
            for name in report.TABLES[2:]
        ]
        text = "".join(run().table.to_text() + "\n\n" for run in runs)
    return report.normalize_eval_output(text)


def sweep_grid_spec(seed_base: int) -> str:
    return json.dumps({"seed_base": seed_base})


def inline_sweep(seed_base: int) -> Dict[str, str]:
    """The sweep CSV and text report from ``run_sweep`` in-process: one
    job, no pool, no prewarm."""
    _use_src()
    from repro.evaluation.harness import EvalSettings
    from repro.evaluation.sweepengine import grid_from_spec, run_sweep

    result = run_sweep(
        grid_from_spec(sweep_grid_spec(seed_base)),
        EvalSettings(),
        jobs=1,
        prewarm=False,
    )
    return {"csv": result.to_csv(), "report": result.render_report("text")}


def serve_settings():
    """``repro serve --fast`` settings (the CLI's ``_eval_settings``)."""
    _use_src()
    from repro.evaluation.harness import EvalSettings
    from repro.kernel.spec import SmallSpec

    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.2,
        measure_ops_scale=0.15,
    )


def serve_cells() -> Dict[str, Tuple[str, Optional[float], str]]:
    """Cell id -> (defense, budget or None for the lax config, workload).

    Hot cells: the 10 lax cells. Cold cells: ``COLD_LEVELS`` budget
    levels, log-spaced from 50% to 99.99% of profile weight, times the 10
    (defense, workload) pairs. Each gets its own budget (offset by 1% of
    the level's remainder per pair), so every cold request is a fresh
    delta prefix build.
    """
    cells: Dict[str, Tuple[str, Optional[float], str]] = {}
    combos = [(d, w) for w in SERVE_WORKLOADS for d in SERVE_DEFENSES]
    for defense, workload in combos:
        cells[f"hot:{defense}:{workload}"] = (defense, None, workload)
    for level in range(COLD_LEVELS):
        exponent = 0.3 + 3.7 * level / (COLD_LEVELS - 1)
        for combo, (defense, workload) in enumerate(combos):
            budget = round(1.0 - 10.0 ** -exponent * (1.0 + 0.01 * combo), 8)
            cells[f"cold:{level}:{combo}"] = (defense, budget, workload)
    return cells


def serve_config(defense: str, budget: Optional[float]):
    _use_src()
    from repro.core.config import PibeConfig
    from repro.evaluation.sweepengine import defense_from_name

    defenses = defense_from_name(defense)
    if budget is None:
        return PibeConfig.lax(defenses)
    return PibeConfig.hardened(defenses, icp_budget=budget, inline_budget=budget)


def inline_serve(stream: int) -> Dict[str, Dict[str, float]]:
    """Every cell of a longest ``stream``, measured by one inline
    ``EvalContext`` in the order the server evaluates them: the hot
    warm-up, then the cold cells in stream order."""
    _use_src()
    from repro.evaluation.harness import EvalContext
    from repro.workloads.lmbench import BY_NAME

    benches = tuple(BY_NAME[name] for name in SERVE_BENCHES)
    cells = serve_cells()
    order = [c for c in cells if c.startswith("hot:")] + [
        c for block in serve_plan(stream, COLD_VARIANTS) for c in block
        if c.startswith("cold:")
    ]
    out = {}
    with EvalContext(serve_settings()) as ctx:
        for cell_id in order:
            defense, budget, workload = cells[cell_id]
            out[cell_id] = ctx.measure(serve_config(defense, budget), benches, workload)
    return json.loads(json.dumps(out))


def _in_fresh_interpreters(jobs: List[Tuple[Callable, tuple]]) -> list:
    """Run each job in its own spawned interpreter: kernel generation
    numbers sites from a process-wide counter, so each golden starts from
    a fresh process exactly like the program it checks."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=2, mp_context=context, max_tasks_per_child=1
    ) as pool:
        futures = [pool.submit(fn, *args) for fn, args in jobs]
        return [f.result() for f in futures]


def regen_golden() -> None:
    """Rewrite ``golden/`` with the inline harness, for every input a seed
    can produce, so no run has to generate one."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    streams = range(SERVE_STREAMS)
    results = _in_fresh_interpreters(
        [(inline_eval_text, ())]
        + [(inline_sweep, (base,)) for base in SWEEP_SEED_BASES]
        + [(inline_serve, (stream,)) for stream in streams]
    )
    eval_text = results[0]
    sweeps = results[1:1 + len(SWEEP_SEED_BASES)]
    serves = results[1 + len(SWEEP_SEED_BASES):]
    (GOLDEN / "eval.txt").write_text(eval_text, encoding="utf-8")
    for name, keys, values in (
        ("sweep.json", SWEEP_SEED_BASES, sweeps),
        ("serve.json", streams, serves),
    ):
        # One line per seed base / stream.
        lines = (
            f"{json.dumps(str(k))}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in zip(keys, values)
        )
        (GOLDEN / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote goldens under {GOLDEN}")


def load_golden(name: str):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    return json.loads(text) if name.endswith(".json") else text


# -- batch workloads --------------------------------------------------------------------


def code_digest() -> str:
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [EXAMPLE]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def eval_rep(
    run_dir: Path,
    golden: str,
    tally: Tally,
    cache: Optional[Path] = None,
    trace_dir: Optional[Path] = None,
) -> Run:
    """One ``full_evaluation.py`` invocation; ``cache`` is copied in as
    the run's ``.repro-cache`` (eval-warm), otherwise ``--no-cache``."""
    work = new_dir(run_dir, "eval-")
    args = [str(EXAMPLE), "--jobs", "1"]
    if cache is None:
        args.append("--no-cache")
    else:
        shutil.copytree(cache, work / ".repro-cache")
    run = run_program(args, work, child_env(trace_dir), "eval")
    out = (work / "eval.out").read_text(encoding="utf-8")
    run.ok = tally.record(
        run.ok and report.normalize_eval_output(out) == golden,
        "full_evaluation.py output differs from the golden",
    )
    shutil.rmtree(work)
    return run


def warm_cache_template(run_dir: Path, golden: str, tally: Tally) -> Path:
    """A cache filled by one untimed eval run of this source tree, made
    once per tree and copied into each eval-warm run. A fill whose output
    is wrong serves this run only."""
    template = WORK / f"warm-cache-{code_digest()}"
    if template.is_dir():
        return template
    work = new_dir(run_dir, "fill-")
    args = [str(EXAMPLE), "--jobs", "1"]
    run = run_program(args, work, child_env(), "fill")
    out = (work / "fill.out").read_text(encoding="utf-8")
    cache = work / ".repro-cache"
    cache.mkdir(exist_ok=True)
    if not tally.record(
        run.ok and report.normalize_eval_output(out) == golden,
        "cache fill run output differs from the golden",
    ):
        return cache
    for stale in WORK.glob("warm-cache-*"):
        shutil.rmtree(stale, ignore_errors=True)
    os.replace(cache, template)
    shutil.rmtree(work)
    return template


def sweep_rep(
    run_dir: Path,
    seed_base: int,
    golden: Dict[str, str],
    tally: Tally,
    trace_dir: Optional[Path] = None,
) -> Run:
    work = new_dir(run_dir, "sweep-")
    args = [
        "-m", "repro", "sweep", "--grid", sweep_grid_spec(seed_base),
        "-j", "2", "--cache-dir", "cache", "--csv", "grid.csv",
        "-o", "report.txt",
    ]
    run = run_program(args, work, child_env(trace_dir), "sweep")
    same = run.ok and all(
        (work / name).is_file()
        and (work / name).read_text(encoding="utf-8") == golden[part]
        for name, part in (("grid.csv", "csv"), ("report.txt", "report"))
    )
    run.ok = tally.record(same, "sweep CSV/report differ from the golden")
    shutil.rmtree(work)
    return run


@dataclass
class BatchWorkload:
    setup_settings: str
    rep: Callable[[Optional[Path]], Run]


def batch_workload(name: str, seed: int, run_dir: Path, tally: Tally) -> BatchWorkload:
    if name == "sweep-cold":
        seed_base = SWEEP_SEED_BASES[seed % len(SWEEP_SEED_BASES)]
        golden = load_golden("sweep.json")[str(seed_base)]
        return BatchWorkload(
            f"spec=SmallSpec(), seed={seed_base}, jobs=2, cache_dir='cache'",
            lambda trace: sweep_rep(run_dir, seed_base, golden, tally, trace),
        )
    golden = load_golden("eval.txt")
    if name == "eval-cold":
        return BatchWorkload(
            "", lambda trace: eval_rep(run_dir, golden, tally, None, trace)
        )
    template = warm_cache_template(run_dir, golden, tally)
    return BatchWorkload(
        "cache_dir='.repro-cache'",
        lambda trace: eval_rep(run_dir, golden, tally, template, trace),
    )


# -- serve-mixed ---------------------------------------------------------------------------


def serve_plan(seed: int, blocks: int) -> List[List[str]]:
    """Request cell ids, block by block.

    Each block gets, for every budget level, one cold cell; which variant
    a block gets at a level, the cold cells' positions among the block's
    240 slots, and the hot cell of every other slot all come from the
    seed.
    """
    rng = random.Random(seed)
    hot = [f"hot:{d}:{w}" for w in SERVE_WORKLOADS for d in SERVE_DEFENSES]
    by_level = [
        rng.sample(range(COLD_VARIANTS), COLD_VARIANTS) for _ in range(COLD_LEVELS)
    ]
    plan = []
    for block in range(blocks):
        cold = [f"cold:{level}:{by_level[level][block]}" for level in range(COLD_LEVELS)]
        rng.shuffle(cold)
        slots = set(rng.sample(range(SERVE_BLOCK), COLD_LEVELS))
        plan.append([
            cold.pop() if i in slots else hot[rng.randrange(len(hot))]
            for i in range(SERVE_BLOCK)
        ])
    return plan


class ServerStartError(RuntimeError):
    """``repro serve`` exited, or timed out, before its ready file appeared."""


class Server:
    """One ``repro serve --fast`` process on a unix socket in ``work``."""

    def __init__(self, run_dir: Path, trace_dir: Optional[Path] = None) -> None:
        self.work = new_dir(run_dir, "serve-")
        start = time.perf_counter()
        self.proc = spawn(
            [
                "-m", "repro", "serve", "--fast", "--unix", "s.sock",
                "--ready-file", "ready", "--cache-dir", "cache",
            ],
            self.work,
            child_env(trace_dir),
            "serve",
        )
        # Relative: unix socket paths are limited to ~108 bytes.
        self.socket = os.path.relpath(self.work / "s.sock")
        self.rss_mb = 0.0
        ready = self.work / "ready"
        deadline = start + 60.0
        while not ready.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise ServerStartError("repro serve never became ready")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - start

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(unix=self.socket, timeout=CHILD_TIMEOUT)

    def stop(self) -> None:
        """Ask for shutdown, then reap (the process is killed if it does
        not exit)."""
        if self.proc.returncode is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 — a dead server is reaped below
                kill_tree(self.proc)
            self.rss_mb = reap(self.proc, 60.0)
        shutil.rmtree(self.work, ignore_errors=True)


@dataclass
class ServeSession:
    block_walls: List[float]
    hot_ms: List[float]
    cold_ms: List[float]
    stats: dict
    rss_mb: float
    ready_s: float
    pid: int


def start_server(
    run_dir: Path, tally: Tally, trace_dir: Optional[Path] = None
) -> Optional[Server]:
    """A ready server, or None (counted as a failure) if it never got
    ready."""
    try:
        server = Server(run_dir, trace_dir)
    except ServerStartError as exc:
        tally.record(False, str(exc))
        return None
    return server


def serve_session(
    run_dir: Path,
    plan: List[List[str]],
    expected: dict,
    tally: Tally,
    trace_dir: Optional[Path] = None,
) -> Optional[ServeSession]:
    """Start a server, warm the hot cells (untimed), then run the plan
    block by block with ``SERVE_CLIENTS`` closed-loop clients. None if
    the server never got ready."""
    from repro.serve.client import ServeError

    server = start_server(run_dir, tally, trace_dir)
    if server is None:
        return None
    cells = serve_cells()
    configs = {cid: serve_config(d, b) for cid, (d, b, _) in cells.items()}
    benches = list(SERVE_BENCHES)
    clients = [server.client() for _ in range(SERVE_CLIENTS)]
    hot_ms: List[float] = []
    cold_ms: List[float] = []
    walls: List[float] = []

    def ask(client, cell_id: str) -> bool:
        try:
            result = client.measure(configs[cell_id], benches, cells[cell_id][2])
        except (ServeError, OSError) as exc:
            print(f"{cell_id}: {exc}", file=sys.stderr)
            return False
        return result["results"] == expected[cell_id]

    # Cold requests go out one at a time, in stream order, so the server
    # builds them in the order the golden was measured in.
    turn = threading.Condition()
    cold_sent = [0]

    def send_cold(client, cell_id: str, rank: int) -> bool:
        with turn:
            turn.wait_for(lambda: cold_sent[0] == rank)
        try:
            start = time.perf_counter()
            ok = ask(client, cell_id)
            cold_ms.append((time.perf_counter() - start) * 1000.0)
        finally:
            with turn:
                cold_sent[0] += 1
                turn.notify_all()
        return ok

    ranked: List[List[Tuple[str, Optional[int]]]] = []
    rank = 0
    for block in plan:
        ranked.append([])
        for cell_id in block:
            cold = cell_id.startswith("cold:")
            ranked[-1].append((cell_id, rank if cold else None))
            rank += cold

    try:
        for cell_id in cells:
            if cell_id.startswith("hot:"):
                tally.record(ask(clients[0], cell_id), f"warm-up {cell_id}")
        for block in ranked:
            queue = iter(block)
            lock = threading.Lock()
            outcomes: List[Tuple[str, bool]] = []

            def loop(client) -> None:
                while True:
                    with lock:
                        cell_id, rank = next(queue, (None, None))
                    if cell_id is None:
                        return
                    if rank is not None:
                        outcomes.append((cell_id, send_cold(client, cell_id, rank)))
                        continue
                    start = time.perf_counter()
                    ok = ask(client, cell_id)
                    hot_ms.append((time.perf_counter() - start) * 1000.0)
                    outcomes.append((cell_id, ok))

            threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - start)
            for cell_id, ok in outcomes:
                tally.record(ok, f"response for {cell_id} differs from the golden")
        try:
            stats = clients[0].stats()
        except (ServeError, OSError) as exc:
            tally.record(False, f"stats: {exc}")
            stats = {}
    finally:
        for client in clients:
            client.close()
        server.stop()
    tally.record(server.proc.returncode == 0, "serve exit status")
    return ServeSession(
        walls, hot_ms, cold_ms, stats, server.rss_mb, server.ready_s, server.proc.pid
    )


def serve_layer_values(session: ServeSession) -> Dict[str, float]:
    """The server's own counters and latencies, from its ``stats`` op."""
    server = session.stats.get("server", {})
    measure = server.get("endpoints", {}).get("measure", {})
    counters = server.get("counters", {})
    out = {key: counters.get(key, 0) for key in (
        "inline_hits", "single_flight_hits", "cells_evaluated", "batches", "errors"
    )}
    out.update({
        "measure.p50_ms": measure.get("p50_ms", 0.0),
        "measure.p99_ms": measure.get("p99_ms", 0.0),
    })
    return out


def serve_client_values(session: ServeSession) -> Dict[str, float]:
    """serve-mixed's own end-to-end metrics, as its clients saw them."""
    hot, cold = sorted(session.hot_ms), sorted(session.cold_ms)
    return {
        "req_per_s": (len(hot) + len(cold)) / sum(session.block_walls),
        "hot_ms.p50": report.median(hot),
        "hot_ms.p99": report.nearest_rank(hot, 0.99),
        "cold_ms.p50": report.median(cold),
        "cold_ms.p90": report.nearest_rank(cold, 0.90),
    }


# -- running a workload ----------------------------------------------------------------------


def summarize_trace(
    trace_dir: Path, root_pid: int, workload: str, serve: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    records = report.read_spans(trace_dir)
    merged = report.merge_spans(records, root_pid)
    values = report.layer_metrics(
        merged, serve,
        {"overhead": overhead, "coverage": merged["coverage"],
         "processes": merged["processes"]},
    )
    out = WORK / "last-trace" / workload
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.json").write_text(json.dumps(report.chrome_trace(records)))
    (out / "layers.json").write_text(json.dumps(values, indent=1) + "\n")
    print(f"trace: {len(records)} flushes from {merged['processes']} process(es); "
          f"chrome trace and layer summary in {out}")
    return values


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Tuple[dict, Dict[str, dict]]:
    """The result object, and the workload's own end-to-end metrics
    (:data:`report.WORKLOAD_METRICS`, untraced runs only). A metric a
    failed run could not measure reads 0."""
    tally = Tally()
    run_dir = new_dir(WORK, f"run-{name}-")
    lines: List[str] = []
    try:
        if name == "serve-mixed":
            values = run_serve(seed, seconds, trace, run_dir, tally, lines)
        else:
            values = run_batch(name, seed, seconds, trace, run_dir, tally, lines)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        units, own_units = report.layer_units(), {}
    else:
        units = END_TO_END_UNITS
        own_units = {m["name"]: m["unit"] for m in report.WORKLOAD_METRICS.get(name, ())}
    for line in lines:
        print(line)
    for key, unit in {**units, **own_units}.items():
        print(f"{key:42s} {values.get(key, 0.0):>14.6g} {unit}")

    def metrics(table: Dict[str, str]) -> Dict[str, dict]:
        return {k: {"value": values.get(k, 0.0), "unit": u} for k, u in table.items()}

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics(units),
    }
    return result, metrics(own_units)


def run_batch(
    name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
    tally: Tally, lines: List[str],
) -> Dict[str, float]:
    workload = batch_workload(name, seed, run_dir, tally)
    if not trace:
        setup = time_setup(workload.setup_settings, run_dir, tally)
        runs: List[Run] = []
        start = time.perf_counter()
        while len(runs) < MIN_REPS or time.perf_counter() - start < seconds:
            runs.append(workload.rep(None))
        walls = [r.wall for r in runs]
        lines.append(f"wall_s: {report.describe(walls)}")
        lines.append(f"setup_s: {report.describe(setup)}")
        return {
            "wall_s": report.median(walls),
            "setup_s": report.median(setup),
            "peak_rss_mb": report.median([r.rss_mb for r in runs]),
        }
    # Back-to-back (plain, traced) pairs: the host's slow phases last far
    # longer than a pair, so the per-pair ratio cancels them.
    ratios: List[float] = []
    traced: List[Dict[str, float]] = []
    start = time.perf_counter()
    while len(ratios) < TRACE_PAIRS or time.perf_counter() - start < seconds:
        plain = workload.rep(None)
        trace_dir = new_dir(run_dir, "trace-")
        run = workload.rep(trace_dir)
        ratios.append(run.wall / plain.wall)
        traced.append(summarize_trace(trace_dir, run.pid, name, {}, 0.0))
    lines.append(f"traced / untraced wall: {report.describe(ratios)}")
    values = {k: report.median([t[k] for t in traced]) for k in traced[0]}
    values["trace.overhead"] = statistics.mean(ratios) - 1.0
    return values


def run_serve(
    seed: int, seconds: float, trace: bool, run_dir: Path, tally: Tally,
    lines: List[str],
) -> Dict[str, float]:
    stream = seed % SERVE_STREAMS
    golden = load_golden("serve.json")[str(stream)]
    blocks = max(
        MIN_REPS, min(COLD_VARIANTS, int(seconds / SERVE_SECONDS_PER_BLOCK))
    )
    plan = serve_plan(stream, blocks)
    lines.append(
        f"stream {stream}: {blocks} block(s) x {SERVE_BLOCK} requests "
        f"({COLD_LEVELS} cold each), {SERVE_CLIENTS} closed-loop clients"
    )
    if not trace:
        ready = []
        for _ in range(SETUP_SPAWNS - 1):
            server = start_server(run_dir, tally)
            if server is not None:
                ready.append(server.ready_s)
                server.stop()
                tally.record(server.proc.returncode == 0, "serve exit status")
        session = serve_session(run_dir, plan, golden, tally)
        if session is None:
            return {"setup_s": report.median(ready)} if ready else {}
        ready.append(session.ready_s)
        lines.append(f"wall_s per block: {report.describe(session.block_walls)}")
        lines.append(f"setup_s: {report.describe(ready)}")
        lines.append(f"hot_ms: {report.describe(session.hot_ms)}")
        lines.append(f"cold_ms: {report.describe(session.cold_ms)}")
        return {
            "wall_s": report.median(session.block_walls),
            "setup_s": report.median(ready),
            "peak_rss_mb": session.rss_mb,
            **serve_client_values(session),
        }
    plain = serve_session(run_dir, plan, golden, tally)
    trace_dir = new_dir(run_dir, "trace-")
    traced = serve_session(run_dir, plan, golden, tally, trace_dir)
    if plain is None or traced is None:
        return {}
    overhead = (
        report.median(traced.block_walls) / report.median(plain.block_walls) - 1.0
    )
    lines.append(f"untraced wall_s per block: {report.describe(plain.block_walls)}")
    lines.append(f"traced wall_s per block: {report.describe(traced.block_walls)}")
    return summarize_trace(
        trace_dir, traced.pid, "serve-mixed", serve_layer_values(plain), overhead
    )


# -- compare / history ---------------------------------------------------------------------------


def read_records(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description=(
            "Judge a change against its parent from run records (JSONL "
            "written with --record): runs pair by workload and seed."
        ),
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = report.compare_rows(
        read_records(args.parent), read_records(args.change), benchmark
    )
    print(report.format_rows(rows))
    return 0


#: ``history`` runs this many sets of this many seeds per workload.
HISTORY_SETS = 2
HISTORY_RUNS = 10


def cmd_history(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py history",
        description=(
            f"Run every workload {HISTORY_RUNS} times in each of "
            f"{HISTORY_SETS} sets (each run a fresh process with its own "
            "seed, at BENCHMARK.json's run_seconds), plus one traced run "
            "each, and append the record to history.json. Refuses a dirty "
            "tree."
        ),
    )
    parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent))
    from _meta import stamp, write_record

    stamp({}, strict=True)  # fail before spending the run time
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    record_file = new_dir(WORK, "history-") / "runs.jsonl"

    def one(workload: str, seed: int, trace: int) -> dict:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--record", str(record_file)],
            cwd=ROOT, capture_output=True, check=True,
        )
        run = read_records(record_file)[-1]
        if not trace:
            values = {**run["result"]["metrics"], **run["workload_metrics"]}
            print(f"{workload} seed={seed}: "
                  + json.dumps({k: v["value"] for k, v in values.items()}),
                  flush=True)
        return run

    sets = []
    for s in range(HISTORY_SETS):
        seeds = [s * HISTORY_RUNS + i + 1 for i in range(HISTORY_RUNS)]
        runs: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
        for seed in seeds:
            for workload in WORKLOADS:
                runs[workload].append(one(workload, seed, 0))
        sets.append({"seeds": seeds, "runs": runs})
    traced = {w: one(w, 7, 1) for w in WORKLOADS}
    shutil.rmtree(record_file.parent)

    def per_set(workload: str, metric: str) -> List[dict]:
        out = []
        for st in sets:
            values = [
                {**r["result"]["metrics"], **r["workload_metrics"]}[metric]["value"]
                for r in st["runs"][workload]
            ]
            out.append({
                "median": report.median(values),
                "spread": report.spread(values),
            })
        return out

    summary = {
        w: {
            m["name"]: per_set(w, m["name"])
            for m in benchmark["end_to_end"] + list(report.WORKLOAD_METRICS.get(w, ()))
        }
        for w in WORKLOADS
    }
    record = {
        "benchmark": "e2e",
        "run_seconds": seconds,
        "machine": f"{os.cpu_count()} CPUs",
        "summary": summary,
        "sets": sets,
        "traced": traced,
    }
    stamp(record, strict=True)
    write_record(HERE / "history.json", record)
    print(json.dumps(summary, indent=1))
    return 0


# -- entry point ---------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["history"]:
        return cmd_history(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="eval-cold")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=Path,
        help=(
            "also append {workload, seed, trace, result, workload_metrics} "
            "to this JSONL file"
        ),
    )
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite golden/ from the inline EvalContext harness and exit",
    )
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "repro", EXAMPLE) if not p.exists()]
    if missing:
        print(
            "error: run from a repository checkout; missing "
            + ", ".join(str(p) for p in missing),
            file=sys.stderr,
        )
        return 2
    if args.regen_golden:
        regen_golden()
        return 0
    _use_src()
    result, workload_metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "result": result,
                "workload_metrics": workload_metrics,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

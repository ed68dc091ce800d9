"""The asyncio evaluation server behind ``repro serve``.

One long-lived :class:`~repro.evaluation.harness.EvalContext` holds every
piece of hot state — the generated kernel, memoized profiles and staged
optimized prefixes, the in-memory measurement memo, the
:class:`~repro.evaluation.cache.DiskCache` and the persistent worker
pool — and this server multiplexes newline-delimited JSON requests onto
it:

- **Cache-aware routing**: a ``measure`` request whose cell is already in
  the in-memory memo or the disk cache is answered inline on the event
  loop; only genuine misses are dispatched for evaluation.
- **Single-flight dedup**: concurrent identical cells (same config,
  benches, workload — keyed by the harness's
  :func:`~repro.evaluation.harness.cell_key`, the same key as its
  memos) coalesce onto one in-flight evaluation; N clients asking for
  the same cold cell cost exactly one evaluation.
- **Batched dispatch**: cells that miss queue up and a dispatcher drains
  the whole queue per round, grouping compatible cells (same benches and
  workload) into single :meth:`EvalContext.measure_many` calls — the
  fault-tolerant parallel fan-out and its persistent pool are reused
  as-is, so a burst of misses is one pool batch, not N sequential
  evaluations.
- **Failure mapping**: cells that exhaust the harness's recovery paths
  surface exactly as they do inline — per-cell ``FailureReport`` entries
  in ``measure_many`` responses, an error envelope carrying the failure
  kind (``crash``/``timeout``/``exception``) for single ``measure``
  requests. The request fails; the server (and every other cell in the
  batch) survives.

Evaluation runs on a single worker thread (``EvalContext`` is not
thread-safe; parallelism happens inside ``measure_many``'s process
pool), so the event loop stays responsive for cache hits, ``stats`` and
new connections while a batch computes.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.evaluation.failures import CellFailure
from repro.evaluation.harness import (
    EvalContext,
    EvalSettings,
    bench_names,
    cell_key,
)
from repro.evaluation.stats import nearest_rank
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, Request
from repro.workloads.base import Benchmark

#: Per-request line limit: a measure_many over the full stress grid with
#: spelled-out configs is a few hundred KB; 8 MiB leaves headroom.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Latency samples retained per endpoint for the histogram.
HISTOGRAM_WINDOW = 10_000


@dataclass
class EndpointStats:
    """Latency/ error accounting for one operation."""

    count: int = 0
    errors: int = 0
    latencies_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=HISTOGRAM_WINDOW)
    )

    def record(self, seconds: float, ok: bool) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        self.latencies_ms.append(seconds * 1000.0)

    def snapshot(self) -> Dict[str, Any]:
        window = sorted(self.latencies_ms)
        if not window:
            return {"count": self.count, "errors": self.errors}
        return {
            "count": self.count,
            "errors": self.errors,
            "mean_ms": round(sum(window) / len(window), 3),
            "p50_ms": round(nearest_rank(window, 0.50), 3),
            "p99_ms": round(nearest_rank(window, 0.99), 3),
        }


@dataclass
class _Cell:
    """One queued measurement cell awaiting the dispatcher."""

    key: Tuple
    config: Any
    benches: Tuple[Benchmark, ...]
    workload: str
    future: "asyncio.Future[Tuple[Optional[Dict[str, float]], Optional[Dict[str, Any]]]]"


class ReproServer:
    """Serve build/measure/lint/stats requests against one warm context.

    Parameters
    ----------
    settings:
        Harness scale knobs; the server builds (and owns) its
        :class:`EvalContext` from them — construction generates the
        kernel, which is exactly the cold cost the server exists to pay
        once.
    host / port:
        TCP endpoint (``port=0`` picks a free port, see
        :attr:`address`). Ignored when ``unix_path`` is given.
    unix_path:
        Optional unix-domain socket path (preferred for local CI runs:
        no port races).
    """

    def __init__(
        self,
        settings: Optional[EvalSettings] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        self.settings = settings or EvalSettings()
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.ctx = EvalContext(self.settings)
        self._eval_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )
        #: single-flight futures, keyed by the op name plus the cell_key
        self._inflight: Dict[Tuple, "asyncio.Future"] = {}
        self._queue: List[_Cell] = []
        self._kick = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional["asyncio.Task"] = None
        self._conn_tasks: set = set()
        self._started = time.monotonic()
        self.endpoint_stats: Dict[str, EndpointStats] = {}
        #: routing counters (surfaced by the ``stats`` endpoint and
        #: asserted by the single-flight tests): ``inline_hits`` were
        #: answered on the event loop, ``single_flight_hits`` coalesced
        #: onto an in-flight evaluation, ``cells_evaluated`` actually
        #: reached the harness.
        self.counters: Dict[str, int] = {
            "requests": 0,
            "connections": 0,
            "inline_hits": 0,
            "single_flight_hits": 0,
            "cells_evaluated": 0,
            "batches": 0,
            "prefixes_prewarmed": 0,
            "errors": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        """Human/CLI-pasteable address of the listening socket."""
        if self.unix_path:
            return self.unix_path
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return f"{host}:{port}"
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        self._started = time.monotonic()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        if self.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path,
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES,
            )

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Unstick connections parked in readline() (clients that never
        # disconnect, e.g. the one that sent the shutdown) so their
        # handlers run their cleanup here, not during loop teardown.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for cell in self._queue:
            if not cell.future.done():
                cell.future.cancel()
        self._queue.clear()
        self._eval_pool.shutdown(wait=True)
        self.ctx.close()
        if self.unix_path and os.path.exists(self.unix_path):
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    # -- connection plumbing ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        self._conn_tasks.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        tasks: set = set()

        async def respond(line: bytes) -> None:
            async with write_lock:
                writer.write(line)
                await writer.drain()

        async def run_one(raw: bytes) -> None:
            await respond(await self._handle_line(raw))

        try:
            while not self._shutdown.is_set():
                try:
                    raw = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized line or peer reset
                if not raw:
                    break
                if not raw.strip():
                    continue
                # Pipelining: every request line runs as its own task, so
                # a cache hit overtakes a cold evaluation on the same
                # connection; responses carry ids for reassociation.
                task = asyncio.get_running_loop().create_task(run_one(raw))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # stop() unparking this connection; fall through to cleanup
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_line(self, raw: bytes) -> bytes:
        self.counters["requests"] += 1
        try:
            request = protocol.decode_request(raw)
        except ProtocolError as exc:
            self.counters["errors"] += 1
            return protocol.encode_response(
                None, error=(protocol.ERROR_BAD_REQUEST, str(exc))
            )
        handler = getattr(self, f"_op_{request.op}", None)
        stats = self.endpoint_stats.setdefault(request.op, EndpointStats())
        started = time.monotonic()
        if handler is None:
            stats.record(time.monotonic() - started, ok=False)
            self.counters["errors"] += 1
            return protocol.encode_response(
                request.id,
                error=(
                    protocol.ERROR_UNKNOWN_OP,
                    f"unknown op {request.op!r} (known: {list(protocol.OPS)})",
                ),
            )
        try:
            result = await handler(request)
        except ProtocolError as exc:
            stats.record(time.monotonic() - started, ok=False)
            self.counters["errors"] += 1
            return protocol.encode_response(
                request.id, error=(protocol.ERROR_BAD_REQUEST, str(exc))
            )
        except _CellFailed as exc:
            stats.record(time.monotonic() - started, ok=False)
            self.counters["errors"] += 1
            return protocol.encode_response(
                request.id, error=(exc.kind, exc.message)
            )
        except Exception as exc:  # noqa: BLE001 — mapped onto the wire
            stats.record(time.monotonic() - started, ok=False)
            self.counters["errors"] += 1
            return protocol.encode_response(
                request.id,
                error=(
                    protocol.ERROR_EXCEPTION,
                    f"{type(exc).__name__}: {exc}",
                ),
            )
        stats.record(time.monotonic() - started, ok=True)
        return protocol.encode_response(request.id, result=result)

    # -- measurement dispatch ------------------------------------------------

    async def _measure_cell(
        self, config, benches: Tuple[Benchmark, ...], workload: str
    ) -> Tuple[Dict[str, float], bool]:
        """Route one cell: inline hit, coalesce, or queue for dispatch.

        Returns ``(values, cached)``; raises :class:`_CellFailed` when
        the harness gave up on the cell.
        """
        key = ("measure",) + cell_key(config, workload, bench_names(benches))
        inflight = self._inflight.get(key)
        if inflight is None:
            cached = self.ctx.cached_measurement(config, benches, workload)
            if cached is not None:
                self.counters["inline_hits"] += 1
                return cached, True
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self._queue.append(
                _Cell(
                    key=key,
                    config=config,
                    benches=benches,
                    workload=workload,
                    future=future,
                )
            )
            self._kick.set()
        else:
            self.counters["single_flight_hits"] += 1
            future = inflight
        # shield: one waiter disconnecting must not cancel the shared
        # evaluation under everybody else.
        values, failure = await asyncio.shield(future)
        if values is None:
            failure = failure or {}
            raise _CellFailed(
                kind=failure.get("kind", protocol.ERROR_EXCEPTION),
                message=failure.get("error", "cell failed"),
            )
        return values, False

    def _measure_batch(self, configs, benches, workload: str):
        """One dispatcher round's evaluation (runs on the eval thread).

        The distinct cold optimized prefixes of the batch are prewarmed
        across the worker pool first, so the serial build_variant path
        inside ``measure_many`` loads them as disk hits instead of
        building each cold prefix in sequence. A no-op without a disk
        cache or with ``jobs <= 1``.
        """
        self.counters["prefixes_prewarmed"] += self.ctx.prewarm_prefixes(
            configs, workload
        )
        return self.ctx.measure_many(configs, benches, workload)

    async def _dispatch_loop(self) -> None:
        """Drain queued cells in rounds, one ``measure_many`` per
        compatible (benches, workload) group.

        Cells arriving while a round evaluates accumulate into the next
        round — that is the batching: a burst of misses against a busy
        server becomes one pool fan-out.
        """
        loop = asyncio.get_running_loop()
        while True:
            await self._kick.wait()
            self._kick.clear()
            batch, self._queue = self._queue, []
            if not batch:
                continue
            self.counters["batches"] += 1
            groups: Dict[Tuple[Tuple[str, ...], str], List[_Cell]] = {}
            for cell in batch:
                group_key = (bench_names(cell.benches), cell.workload)
                groups.setdefault(group_key, []).append(cell)
            for cells in groups.values():
                self.counters["cells_evaluated"] += len(cells)
                try:
                    result = await loop.run_in_executor(
                        self._eval_pool,
                        partial(
                            self._measure_batch,
                            [c.config for c in cells],
                            cells[0].benches,
                            cells[0].workload,
                        ),
                    )
                except Exception as exc:  # noqa: BLE001 — fan the error out
                    for cell in cells:
                        self._inflight.pop(cell.key, None)
                        if not cell.future.done():
                            cell.future.set_exception(exc)
                    continue
                failures = {
                    f.index: f for f in result.failure_report.failures
                }
                for i, cell in enumerate(cells):
                    self._inflight.pop(cell.key, None)
                    if cell.future.done():
                        continue
                    failure = failures.get(i)
                    cell.future.set_result(
                        (
                            result[i],
                            _failure_dict(failure) if failure else None,
                        )
                    )

    # -- operations ----------------------------------------------------------

    async def _op_ping(self, request: Request) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "kernel": self.ctx.kernel.name,
        }

    async def _op_measure(self, request: Request) -> Dict[str, Any]:
        config = protocol.config_from_dict(request.params.get("config", {}))
        benches = protocol.benches_from_params(request.params)
        workload = protocol.workload_from_params(request.params)
        values, cached = await self._measure_cell(config, benches, workload)
        return {
            "label": config.label(),
            "workload": workload,
            "results": values,
            "cached": cached,
        }

    async def _op_measure_many(self, request: Request) -> Dict[str, Any]:
        raw_configs = request.params.get("configs")
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ProtocolError("measure_many needs a non-empty 'configs' list")
        configs = [protocol.config_from_dict(c) for c in raw_configs]
        benches = protocol.benches_from_params(request.params)
        workload = protocol.workload_from_params(request.params)
        # Enqueue every cell before the first await so the whole request
        # lands in one dispatcher round (one pool batch); duplicates and
        # concurrent identical requests coalesce through _inflight.
        waits = [
            self._measure_cell(config, benches, workload)
            for config in configs
        ]
        outcomes = await asyncio.gather(*waits, return_exceptions=True)
        results: List[Optional[Dict[str, float]]] = []
        failures: List[Dict[str, Any]] = []
        for i, (config, outcome) in enumerate(zip(configs, outcomes)):
            if isinstance(outcome, _CellFailed):
                results.append(None)
                failures.append(
                    {
                        "index": i,
                        "label": config.label(),
                        "kind": outcome.kind,
                        "error": outcome.message,
                    }
                )
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                results.append(outcome[0])
        return {
            "labels": [c.label() for c in configs],
            "workload": workload,
            "results": results,
            "failures": failures,
        }

    async def _single_flight(self, key: Tuple, compute) -> Dict[str, Any]:
        """Run ``compute`` on the eval thread, once per ``key`` at a time.

        Concurrent identical requests (a sweep client asks for the
        build, lint or security metrics of every grid variant) await the
        one in-flight result instead of redoing it.
        """
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.counters["single_flight_hits"] += 1
            return dict(await asyncio.shield(inflight))
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        try:
            result = await loop.run_in_executor(self._eval_pool, compute)
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                # consume the error so abandoned-future warnings don't fire
                future.exception()
            raise
        else:
            future.set_result(result)
            return dict(result)
        finally:
            self._inflight.pop(key, None)

    async def _op_build(self, request: Request) -> Dict[str, Any]:
        config = protocol.config_from_dict(request.params.get("config", {}))
        workload = protocol.workload_from_params(request.params)
        return await self._single_flight(
            ("build",) + cell_key(config, workload),
            partial(self._build_inline, config, workload),
        )

    def _build_inline(self, config, workload: str) -> Dict[str, Any]:
        """Runs on the eval thread: build (and memoize) one variant."""
        build = self.ctx.variant(config, workload)
        reports = {}
        for name, report in build.reports.items():
            summary = getattr(report, "summary", None)
            reports[name] = summary() if callable(summary) else repr(report)
        return {
            "label": build.label,
            "functions": len(build.module.functions),
            "reports": reports,
        }

    async def _op_lint(self, request: Request) -> Dict[str, Any]:
        config = protocol.config_from_dict(request.params.get("config", {}))
        workload = protocol.workload_from_params(request.params)
        rules = request.params.get("rules")
        if rules is not None and not isinstance(rules, list):
            raise ProtocolError("'rules' must be a list of rule names")
        selection = tuple(rules) if rules else None
        return await self._single_flight(
            ("lint",) + cell_key(config, workload, selection),
            partial(self._lint_inline, config, workload, rules),
        )

    def _lint_inline(
        self, config, workload: str, rules: Optional[List[str]]
    ) -> Dict[str, Any]:
        """Runs on the eval thread: incrementally lint a (memoized)
        variant.  Sweep variants share an optimized prefix, so their
        function-chunk cache entries overlap heavily and most lints run
        warm; stats are surfaced so clients can see the hit rate."""
        import json as _json

        report = self.ctx.lint(config, workload, rules=rules or None)
        return {
            "label": config.label(),
            "report": _json.loads(report.to_json()),
            "stats": dict(report.stats or {}),
        }

    async def _op_security(self, request: Request) -> Dict[str, Any]:
        config = protocol.config_from_dict(request.params.get("config", {}))
        workload = protocol.workload_from_params(request.params)
        return await self._single_flight(
            ("security",) + cell_key(config, workload),
            partial(self._security_inline, config, workload),
        )

    def _security_inline(self, config, workload: str) -> Dict[str, Any]:
        """Runs on the eval thread: residual-target metrics of a
        (memoized) variant — the security axis of sweep Pareto plots."""
        metrics = self.ctx.security(config, workload)
        return {
            "label": config.label(),
            "workload": workload,
            "metrics": {
                "air": metrics.air,
                "residual_total": metrics.residual_total,
                "residual_mean": metrics.residual_mean,
            },
            "detail": metrics.to_dict(),
        }

    async def _op_stats(self, request: Request) -> Dict[str, Any]:
        cache = self.ctx.cache
        cache_stats: Optional[Dict[str, Any]] = None
        if cache is not None:
            cache_stats = {
                "root": str(cache.root),
                "counters": cache.stats(),
                "disk": cache.disk_usage(),
                "quarantined": cache.quarantined(),
            }
        return {
            "server": {
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "address": self.address,
                "counters": dict(sorted(self.counters.items())),
                "inflight": len(self._inflight),
                "queued": len(self._queue),
                "endpoints": {
                    op: self.endpoint_stats[op].snapshot()
                    for op in sorted(self.endpoint_stats)
                },
            },
            "cache": cache_stats,
            "pipeline": self.ctx.pipeline.prefix_cache_info(),
            "settings": {
                "spec": type(self.settings.spec).__name__,
                "engine": self.settings.engine,
                "jobs": self.settings.jobs,
                "seed": self.settings.seed,
            },
        }

    async def _op_shutdown(self, request: Request) -> Dict[str, Any]:
        # Reply first, then trip the event: serve_until_shutdown handles
        # the actual teardown after this response is written.
        asyncio.get_running_loop().call_soon(self._shutdown.set)
        return {"stopping": True}


@dataclass
class _CellFailed(Exception):
    """A cell the harness permanently gave up on (maps to the error
    envelope with the harness failure kind)."""

    kind: str
    message: str


def _failure_dict(failure: CellFailure) -> Dict[str, Any]:
    return {
        "label": failure.label,
        "kind": failure.kind,
        "attempts": failure.attempts,
        "error": failure.error,
    }


async def _amain(server: ReproServer) -> None:
    await server.start()
    await server.serve_until_shutdown()


def run_server(server: ReproServer) -> None:
    """Blocking entry point used by the CLI."""
    try:
        asyncio.run(_amain(server))
    except KeyboardInterrupt:
        pass

"""The evaluation server end-to-end: one warm server on a unix socket,
driven by real clients — routing counters, single-flight dedup, wire
errors and bit-identical results versus the inline harness."""

import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig, NonTransientDefense
from repro.kernel.spec import SmallSpec
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer, run_server
from repro.workloads.lmbench import BY_NAME

BENCH_NAMES = ["null", "read"]
BENCHES = tuple(BY_NAME[n] for n in BENCH_NAMES)


def _settings(cache_dir=None):
    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.1,
        cache_dir=cache_dir,
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One warm server for the whole module (kernel built once), plus its
    socket path and a client factory."""
    root = tmp_path_factory.mktemp("serve")
    sock = str(root / "repro.sock")
    server = ReproServer(_settings(str(root / "cache")), unix_path=sock)
    thread = threading.Thread(target=run_server, args=(server,), daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    while not os.path.exists(sock):
        if time.monotonic() > deadline:
            raise RuntimeError("server never came up")
        time.sleep(0.05)
    yield server, sock
    try:
        with ServeClient(unix=sock) as client:
            client.shutdown()
    except (ServeError, OSError):
        pass
    thread.join(timeout=30)
    assert not thread.is_alive(), "server thread failed to shut down"


@pytest.fixture()
def client(served):
    _, sock = served
    with ServeClient(unix=sock) as c:
        yield c


def test_ping(client):
    pong = client.ping()
    assert pong["pong"] is True
    assert pong["protocol"] == protocol.PROTOCOL_VERSION


def test_measure_bit_identical_to_inline(client):
    """The service layer may change latency, never values."""
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    served_values = client.measure(config, benches=BENCH_NAMES)["results"]
    with EvalContext(_settings()) as ctx:
        inline = ctx.measure(config, BENCHES)
    # both went through JSON-free float paths; demand exact equality
    assert served_values == inline


def test_repeat_measure_is_inline_cache_hit(served):
    server, sock = served
    config = PibeConfig.hardened(DefenseConfig.retpolines_only())
    with ServeClient(unix=sock) as client:
        first = client.measure(config, benches=BENCH_NAMES)
        before = dict(server.counters)
        second = client.measure(config, benches=BENCH_NAMES)
    assert second["results"] == first["results"]
    assert second["cached"] is True
    assert server.counters["inline_hits"] == before["inline_hits"] + 1
    assert server.counters["cells_evaluated"] == before["cells_evaluated"]


def test_configs_sharing_a_label_are_separate_cells(served):
    """``label()`` drops the LLVM-CFI of an all-defenses config. The
    server must evaluate it as its own cell, not answer it from memory
    with the plain config's numbers."""
    server, sock = served
    plain = PibeConfig.lax(DefenseConfig.all_defenses())
    with_cfi = PibeConfig.lax(
        dataclasses.replace(
            DefenseConfig.all_defenses(),
            nontransient=frozenset({NonTransientDefense.LLVM_CFI}),
        )
    )
    assert with_cfi.label() == plain.label()
    with ServeClient(unix=sock) as client:
        client.measure(plain, benches=BENCH_NAMES)
        before = dict(server.counters)
        served_values = client.measure(with_cfi, benches=BENCH_NAMES)
    assert served_values["cached"] is False
    assert server.counters["cells_evaluated"] == before["cells_evaluated"] + 1
    assert server.counters["inline_hits"] == before["inline_hits"]
    with EvalContext(_settings()) as ctx:
        assert served_values["results"] == ctx.measure(with_cfi, BENCHES)


def test_measure_many_matches_inline_and_batches(served):
    server, sock = served
    configs = [
        PibeConfig.lto_baseline(),
        PibeConfig.hardened(DefenseConfig.lvi_only()),
        PibeConfig.hardened(DefenseConfig.lvi_only(), icp_budget=0.99),
    ]
    before = dict(server.counters)
    with ServeClient(unix=sock) as client:
        response = client.measure_many(
            configs, benches=BENCH_NAMES, workload="lmbench"
        )
    assert response["labels"] == [c.label() for c in configs]
    assert response["failures"] == []
    with EvalContext(_settings()) as ctx:
        inline = ctx.measure_many(configs, BENCHES, "lmbench")
    assert response["results"] == list(inline)
    # all cold cells of one request land in one dispatcher batch
    assert server.counters["batches"] == before["batches"] + 1


def test_single_flight_dedup(served):
    """N concurrent identical cold requests -> exactly one evaluation.

    Raw sockets pipeline the N requests in one burst, so they all reach
    the event loop while the first is still evaluating; the routing
    counters then prove the coalescing: ``cells_evaluated`` moves by one,
    the other N-1 waiters are ``single_flight_hits``.
    """
    server, sock = served
    n = 5
    config = PibeConfig.hardened(  # a cell no other test measures
        DefenseConfig.ret_retpolines_only(), inline_budget=0.97
    )
    params = {
        "config": protocol.config_to_dict(config),
        "benches": BENCH_NAMES,
        "workload": "lmbench",
    }
    before = dict(server.counters)
    pipeline_before = server.ctx.pipeline.stats["staged_builds"]

    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(300.0)
    raw.connect(sock)
    try:
        burst = b"".join(
            protocol.encode_request(i, "measure", params) for i in range(n)
        )
        raw.sendall(burst)
        replies = []
        stream = raw.makefile("rb")
        for _ in range(n):
            replies.append(json.loads(stream.readline()))
    finally:
        raw.close()

    assert sorted(r["id"] for r in replies) == list(range(n))
    results = [r["result"]["results"] for r in replies]
    assert all(r["ok"] for r in replies)
    assert all(values == results[0] for values in results)
    assert server.counters["cells_evaluated"] == before["cells_evaluated"] + 1
    assert (
        server.counters["single_flight_hits"]
        == before["single_flight_hits"] + n - 1
    )
    # the variant prefix was staged exactly once for the whole burst
    assert server.ctx.pipeline.stats["staged_builds"] == pipeline_before + 1


def test_build_and_lint_endpoints(client):
    config = PibeConfig.pibe_baseline()
    build = client.build(config)
    assert build["label"] == config.label()
    assert build["functions"] > 0
    lint = client.lint(config)
    assert lint["label"] == config.label()
    assert "report" in lint
    # The incremental path surfaces its cache/shard accounting.
    assert "stats" in lint and lint["stats"]["functions"] > 0
    # Linting the same variant again is memoized in the harness.
    again = client.lint(config)
    assert again["report"] == lint["report"]


def test_stats_endpoint_shape(client):
    stats = client.stats()
    server_stats = stats["server"]
    assert server_stats["uptime_seconds"] >= 0
    assert set(server_stats["counters"]) == {
        "batches",
        "cells_evaluated",
        "connections",
        "errors",
        "inline_hits",
        "prefixes_prewarmed",
        "requests",
        "single_flight_hits",
    }
    assert "measure" in server_stats["endpoints"]
    assert stats["cache"] is not None
    assert set(stats["cache"]) == {"root", "counters", "disk", "quarantined"}
    pipeline = stats["pipeline"]
    assert pipeline["entries"] >= 1
    assert pipeline["counters"]["staged_builds"] >= 1
    assert stats["settings"]["spec"] == "SmallSpec"


def test_error_mapping(served):
    _, sock = served
    with ServeClient(unix=sock) as client:
        with pytest.raises(ServeError) as exc:
            client.request("frobnicate")
        assert exc.value.kind == protocol.ERROR_UNKNOWN_OP
        with pytest.raises(ServeError) as exc:
            client.request("measure", {"config": {"icp_bugdet": 0.9}})
        assert exc.value.kind == protocol.ERROR_BAD_REQUEST
        with pytest.raises(ServeError) as exc:
            client.request("measure", {"benches": ["nope"]})
        assert exc.value.kind == protocol.ERROR_BAD_REQUEST
        with pytest.raises(ServeError) as exc:
            client.request("measure_many", {"configs": []})
        assert exc.value.kind == protocol.ERROR_BAD_REQUEST
        # the connection survives every error above
        assert client.ping()["pong"] is True


def test_out_of_range_budget_is_a_bad_request(served):
    """The wire rejects a budget the passes would reject, before any
    evaluation: no retries, no cell reaches the harness."""
    server, sock = served
    before = dict(server.counters)
    with ServeClient(unix=sock) as client:
        for config in ({"icp_budget": 2}, {"caller_threshold": True}):
            with pytest.raises(ServeError) as exc:
                client.request("measure", {"config": config, "benches": BENCH_NAMES})
            assert exc.value.kind == protocol.ERROR_BAD_REQUEST
    assert server.counters["cells_evaluated"] == before["cells_evaluated"]


def test_malformed_line_gets_error_envelope(served):
    _, sock = served
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(30.0)
    raw.connect(sock)
    try:
        raw.sendall(b"{not json\n")
        reply = json.loads(raw.makefile("rb").readline())
    finally:
        raw.close()
    assert reply["ok"] is False
    assert reply["error"]["kind"] == protocol.ERROR_BAD_REQUEST


def test_security_endpoint(client):
    """The sweep engine's security axis in connect mode: residual-target
    metrics of a (memoized) server-side variant."""
    config = PibeConfig.hardened(
        DefenseConfig.retpolines_only(), icp_budget=0.99, inline_budget=0.99
    )
    result = client.security(config)
    assert result["label"] == config.label()
    assert result["workload"] == "lmbench"
    metrics = result["metrics"]
    assert 0.0 < metrics["air"] <= 1.0
    assert metrics["residual_total"] >= 0
    assert metrics["residual_mean"] >= 0.0
    # the detail dict rounds for display; the metrics block is exact
    assert result["detail"]["air"] == pytest.approx(metrics["air"], abs=1e-6)
    # repeated request: deterministic, served from the memoized variant
    assert client.security(config) == result
    # and matches the inline analysis of the same variant exactly
    with EvalContext(_settings()) as ctx:
        from repro.analysis.security import security_metrics

        inline = security_metrics(
            ctx.variant(config, "lmbench").module, label=config.label()
        )
    assert metrics["air"] == inline.air
    assert metrics["residual_total"] == inline.residual_total


def test_security_endpoint_bad_workload(client):
    config = PibeConfig.pibe_baseline()
    with pytest.raises(ServeError) as exc:
        client.request(
            "security",
            {"config": protocol.config_to_dict(config), "workload": "nope"},
        )
    assert exc.value.kind == protocol.ERROR_BAD_REQUEST

"""Table generators: the measuring tables fan their cells out at jobs 2
with sequential results, and Tables 7 and 12 render from cached cells.
The paper-shape checks on every table's results are the claims of
``repro.evaluation.validation`` (tests/evaluation/test_validation.py)."""

from repro.evaluation import tables
from repro.evaluation.harness import EvalContext, EvalSettings


def test_measuring_tables_fan_out_at_jobs_2():
    """At jobs > 1 the measuring tables hand their cells to the worker
    pool: the parent process builds no variant for Tables 5, 6 and 2,
    for Table 3 only the image JumpSwitches runs on, and every value
    equals the sequential run's."""
    import dataclasses

    runs = {}
    for jobs in (2, 1):
        settings = dataclasses.replace(EvalSettings.fast(), jobs=jobs)
        with EvalContext(settings) as run_ctx:
            builds = []
            values = []
            for table in (tables.table5, tables.table6, tables.table2):
                result = table(run_ctx)
                builds.append(run_ctx.pipeline.stats["staged_builds"])
                values.append(result.table.to_text())
            t3 = tables.table3(run_ctx)
            builds.append(run_ctx.pipeline.stats["staged_builds"])
            values.append(t3.geomeans)
            runs[jobs] = builds, values
    assert runs[2][0] == [0, 0, 0, 1]
    assert runs[2][1] == runs[1][1]


def test_warm_context_renders_tables_7_and_12_from_cells(tmp_path, monkeypatch):
    """Tables 7 and 12 read the context's throughput and peak-stack
    cells: a fresh context on a filled cache renders both identically
    without one throughput or stack run, and Table 7 builds nothing. A
    stored cell of the wrong shape is quarantined and recomputed."""
    import dataclasses
    import json

    from repro.evaluation import harness

    runs = {"throughput": 0, "stack": 0}
    measure_throughput = harness.measure_throughput

    def counting_throughput(*args, **kwargs):
        runs["throughput"] += 1
        return measure_throughput(*args, **kwargs)

    class CountingTracker(harness.StackUsageTracker):
        def __init__(self):
            runs["stack"] += 1
            super().__init__()

    monkeypatch.setattr(harness, "measure_throughput", counting_throughput)
    monkeypatch.setattr(harness, "StackUsageTracker", CountingTracker)
    settings = dataclasses.replace(EvalSettings.fast(), cache_dir=str(tmp_path))
    rendered = []
    kernel = None  # the later contexts reuse the first one's kernel
    for _ in range(2):
        with EvalContext(settings, kernel=kernel) as run_ctx:
            kernel = run_ctx.kernel
            t7 = tables.table7(run_ctx, batches=3).table.to_text()
            builds = run_ctx.pipeline.stats["staged_builds"]
            t12 = tables.table12(run_ctx).table.to_text()
        rendered.append((t7, t12, builds, dict(runs)))
        runs.update(throughput=0, stack=0)
    cold, warm = rendered
    # 3 apps x (LTO + 4 defenses x unoptimized/PIBE); 12 distinct modules
    assert cold[3] == {"throughput": 27, "stack": 12}
    assert cold[2] > 0
    assert warm[:2] == cold[:2]
    assert warm[2] == 0
    assert warm[3] == {"throughput": 0, "stack": 0}

    def stored(field):
        for path in sorted((tmp_path / "measure").glob("*.json")):
            payload = json.loads(path.read_text())
            if field in payload:
                return path, payload

    path, _ = stored("peak_bytes")
    path.write_text("{}")
    path, payload = stored("throughput")
    del payload["unit"]
    path.write_text(json.dumps(payload))
    with EvalContext(settings, kernel=kernel) as run_ctx:
        t7 = tables.table7(run_ctx, batches=3).table.to_text()
        t12 = tables.table12(run_ctx).table.to_text()
        corrupt = run_ctx.cache.corrupt
        quarantined = run_ctx.cache.quarantined()
    assert (t7, t12) == cold[:2]
    assert (corrupt, quarantined) == (2, 2)
    assert runs == {"throughput": 1, "stack": 1}

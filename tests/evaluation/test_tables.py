"""Table generators: the measuring tables fan their cells out at jobs 2
with sequential results, and every experiment renders from cached cells.
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


def test_warm_context_renders_every_experiment_from_cells(tmp_path, monkeypatch):
    """Every experiment renders from persisted cells. A second context on
    the filled cache, given the first one's kernel as a later process
    builds the same kernel, renders every table byte for byte without
    building a variant, stamping defenses, replaying a prefix trace or
    constructing an interpreter. After one census entry and the Table 1
    entry are overwritten with ``{}``, a third context quarantines and
    recomputes exactly those two."""
    import dataclasses
    import json

    from repro.analysis import stack
    from repro.engine.interpreter import Interpreter
    from repro.evaluation import harness
    from repro.hardening.harden import HardeningPass

    counts = dict.fromkeys(
        ("stamps", "interpreters", "defense_costs", "throughput", "stack"), 0
    )
    stamp = HardeningPass.run
    init = Interpreter.__init__
    measure_defense_costs = harness.measure_defense_costs
    measure_throughput = harness.measure_throughput

    def counting_stamp(self, module):
        counts["stamps"] += 1
        return stamp(self, module)

    def counting_init(self, *args, **kwargs):
        counts["interpreters"] += 1
        init(self, *args, **kwargs)

    def counting_defense_costs(*args):
        counts["defense_costs"] += 1
        return measure_defense_costs(*args)

    def counting_throughput(*args, **kwargs):
        counts["throughput"] += 1
        return measure_throughput(*args, **kwargs)

    class CountingTracker(stack.StackUsageTracker):
        def __init__(self):
            counts["stack"] += 1
            super().__init__()

    monkeypatch.setattr(HardeningPass, "run", counting_stamp)
    monkeypatch.setattr(Interpreter, "__init__", counting_init)
    monkeypatch.setattr(harness, "measure_defense_costs", counting_defense_costs)
    monkeypatch.setattr(harness, "measure_throughput", counting_throughput)
    # The peak-stack cell imports its tracker when it runs.
    monkeypatch.setattr(stack, "StackUsageTracker", CountingTracker)
    settings = dataclasses.replace(EvalSettings.fast(), cache_dir=str(tmp_path))

    def evaluate(kernel=None):
        counts.update(dict.fromkeys(counts, 0))
        with EvalContext(settings, kernel=kernel) as run_ctx:
            rendered = [
                generate(run_ctx).table.to_text()
                for _, _, generate in tables.EXPERIMENTS
            ]
            stats = run_ctx.pipeline.stats
            work = dict(
                counts,
                builds=stats["staged_builds"] + stats["reference_builds"],
                replays=stats["prefix_disk_hits"],
            )
        return run_ctx, rendered, work

    cold, rendered, work = evaluate()
    # A cold run builds its prefixes in memory: it replays no trace.
    assert work.pop("replays") == 0
    assert all(work.values()), work
    # Each distinct cell runs once: Table 7's 3 apps x (LTO + 4 defenses
    # x unoptimized/PIBE), Table 12's 12 distinct modules.
    assert (work["throughput"], work["stack"]) == (27, 12)
    warm, again, work = evaluate(cold.kernel)
    assert again == rendered
    assert work == dict.fromkeys(work, 0)
    assert warm.cache.misses == 0

    census = sorted((tmp_path / "census").glob("*.json"))[0]
    table1 = next(
        path
        for path in sorted((tmp_path / "measure").glob("*.json"))
        if "ticks" in json.loads(path.read_text())
    )
    for path in (census, table1):
        path.write_text("{}")
    mended, again, work = evaluate(cold.kernel)
    assert again == rendered
    assert (mended.cache.corrupt, mended.cache.misses) == (2, 0)
    assert sorted(p.name for p in mended.cache.quarantine_dir().iterdir()) == [
        f"census-{census.name}",
        f"measure-{table1.name}",
    ]
    # One variant rebuilt for its census, one Table 1 run, both re-stored.
    assert (work["builds"], work["defense_costs"]) == (1, 1)
    assert (work["throughput"], work["stack"]) == (0, 0)
    assert "text_bytes" in json.loads(census.read_text())
    assert "ticks" in json.loads(table1.read_text())

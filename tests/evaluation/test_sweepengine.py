"""The grid sweep engine: grid validation, aggregation, Pareto/crossover
analysis, and deterministic renderings.

The expensive end-to-end sweep runs once on a deliberately small grid
(module-scoped); analysis-layer tests use synthetic cells so their edge
cases don't need measurements.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.evaluation.sweepengine import (
    DEFAULT_GRID,
    FAST_GRID,
    SweepCell,
    SweepGrid,
    SweepRunResult,
    defense_from_name,
    find_crossovers,
    grid_from_spec,
    mark_pareto_frontier,
    run_sweep,
)
from repro.hardening.defenses import DefenseConfig
from repro.kernel.spec import SmallSpec
from repro.workloads.lmbench import BY_NAME


# -- grid construction and parsing -------------------------------------------


def test_grid_validation():
    retp = (DefenseConfig.retpolines_only(),)
    with pytest.raises(ValueError, match=">= 1 budget"):
        SweepGrid(budgets=(), defenses=retp)
    with pytest.raises(ValueError, match="out of range"):
        SweepGrid(budgets=(0.0,), defenses=retp)
    with pytest.raises(ValueError, match="out of range"):
        SweepGrid(budgets=(1.5,), defenses=retp)
    with pytest.raises(ValueError, match="unknown workload"):
        SweepGrid(budgets=(0.9,), defenses=retp, workloads=("specint",))
    with pytest.raises(ValueError, match="unknown scale"):
        SweepGrid(budgets=(0.9,), defenses=retp, scales=("huge",))
    with pytest.raises(ValueError, match="seeds"):
        SweepGrid(budgets=(0.9,), defenses=retp, seeds=0)


def test_grid_rejects_repeats():
    """A repeat is the only way two grid cells could share a config, so
    the grid refuses one instead of measuring (and counting) it twice."""
    retp = (DefenseConfig.retpolines_only(),)
    with pytest.raises(ValueError, match="repeated budget"):
        SweepGrid(budgets=(0.9, 0.99, 0.9), defenses=retp)
    with pytest.raises(ValueError, match="repeated defense"):
        SweepGrid(budgets=(0.9,), defenses=retp + retp)
    # all-defenses plus LLVM-CFI carries the plain all-defenses label,
    # so its cells would share rows with the plain ones
    all_cfi = DefenseConfig(
        retpolines=True,
        ret_retpolines=True,
        lvi_cfi=True,
        nontransient=DefenseConfig.llvm_cfi_only().nontransient,
    )
    with pytest.raises(ValueError, match="repeated defense"):
        SweepGrid(
            budgets=(0.9,),
            defenses=(DefenseConfig.all_defenses(), all_cfi),
        )
    with pytest.raises(ValueError, match="repeated budget"):
        grid_from_spec('{"budgets": [0.9, 0.9], "seeds": 1}')
    with pytest.raises(ValueError, match="repeated defense"):
        grid_from_spec('{"defenses": ["llvm-cfi", "retpolines", "llvm-cfi"]}')


def test_presets_meet_acceptance_shape():
    # The fast grid must keep >= 3 defenses x 3 budgets x 2 workloads and
    # 2 seeds (the acceptance shape), and both presets must include the
    # crossover pair: retpolines against the cheap-per-branch CFI.
    for grid in (FAST_GRID, DEFAULT_GRID):
        assert DefenseConfig.llvm_cfi_only() in grid.defenses
        assert DefenseConfig.retpolines_only() in grid.defenses
        assert 0.5 in grid.budgets
    assert len(FAST_GRID.defenses) >= 3
    assert len(FAST_GRID.budgets) >= 3
    assert len(FAST_GRID.workloads) == 2
    assert FAST_GRID.seeds == 2
    assert FAST_GRID.cell_count == 18


def test_defense_from_name():
    assert defense_from_name("retpolines") == DefenseConfig.retpolines_only()
    assert defense_from_name("llvm-cfi") == DefenseConfig.llvm_cfi_only()
    with pytest.raises(ValueError, match="unknown defense"):
        defense_from_name("fineibt")


def test_grid_from_spec_preset_and_inline_json():
    assert grid_from_spec("fast") is FAST_GRID
    grid = grid_from_spec(
        '{"budgets": [0.5, 0.99], "defenses": ["retpolines", "llvm-cfi"],'
        ' "workloads": ["apache"], "seeds": 4}'
    )
    assert grid.budgets == (0.5, 0.99)
    assert grid.defenses == (
        DefenseConfig.retpolines_only(),
        DefenseConfig.llvm_cfi_only(),
    )
    assert grid.workloads == ("apache",)
    assert grid.seeds == 4
    # unspecified fields inherit from the fast preset
    assert grid.scales == FAST_GRID.scales


def test_grid_from_spec_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"budgets": [0.9], "seeds": 1}))
    grid = grid_from_spec(str(path))
    assert grid.budgets == (0.9,)
    assert grid.seeds == 1


def test_grid_from_spec_rejects_garbage(tmp_path):
    with pytest.raises(ValueError, match="neither a preset"):
        grid_from_spec(str(tmp_path / "missing.json"))
    with pytest.raises(ValueError, match="invalid grid JSON"):
        grid_from_spec("{not json")
    listfile = tmp_path / "list.json"
    listfile.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be an object"):
        grid_from_spec(str(listfile))
    with pytest.raises(ValueError, match="unknown grid field"):
        grid_from_spec('{"budget": [0.9]}')


# -- seed aggregation ---------------------------------------------------------


def test_cell_aggregation_hand_fixture():
    cell = SweepCell("small", "lmbench", "retpolines", 0.99)
    cell.geomeans = [0.05, 0.03, 0.07]
    cell.aggregate()
    assert cell.median == 0.05
    assert cell.q1 == 0.03
    assert cell.q3 == 0.07
    assert cell.iqr == pytest.approx(0.04)
    assert cell.failed_seeds == 0


def test_cell_aggregation_skips_failed_seeds():
    cell = SweepCell("small", "lmbench", "retpolines", 0.99)
    cell.geomeans = [0.05, None, 0.03]
    cell.aggregate()
    assert cell.failed_seeds == 1
    # two good seeds: nearest-rank median/q1 = lower, q3 = upper
    assert cell.median == 0.03
    assert cell.q3 == 0.05
    all_failed = SweepCell("small", "lmbench", "retpolines", 0.9)
    all_failed.geomeans = [None, None]
    all_failed.aggregate()
    assert all_failed.median is None


# -- Pareto frontier ----------------------------------------------------------


def _cell(median, air, workload="lmbench"):
    cell = SweepCell("small", workload, "d", 0.9)
    cell.median = median
    cell.air = air
    return cell


def test_frontier_basic_dominance():
    best = _cell(0.01, 0.99)
    dominated = _cell(0.02, 0.98)
    tradeoff = _cell(0.005, 0.90)  # faster but less secure: stays
    unscored = _cell(None, 0.99)
    cells = [best, dominated, tradeoff, unscored]
    mark_pareto_frontier(cells)
    assert best.on_frontier
    assert not dominated.on_frontier
    assert tradeoff.on_frontier
    assert not unscored.on_frontier


def test_frontier_is_per_slice():
    a = _cell(0.02, 0.98, workload="lmbench")
    b = _cell(0.01, 0.99, workload="apache")  # would dominate a cross-slice
    mark_pareto_frontier([a, b])
    assert a.on_frontier and b.on_frontier


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-0.5, max_value=2.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=200)
def test_frontier_never_contains_dominated_point(points):
    cells = [_cell(m, a) for m, a in points]
    mark_pareto_frontier(cells)

    def dominates(x, y):
        return (
            x.median <= y.median
            and x.air >= y.air
            and (x.median < y.median or x.air > y.air)
        )

    for cell in cells:
        dominated = any(
            dominates(other, cell) for other in cells if other is not cell
        )
        # frontier membership is exactly non-dominance
        assert cell.on_frontier == (not dominated)


# -- crossovers ---------------------------------------------------------------


def _grid_cells(series, budgets):
    """series: {defense_label: [median per budget]} -> synthetic cells."""
    cells = []
    for label, medians in series.items():
        for budget, median in zip(budgets, medians):
            cell = SweepCell("small", "lmbench", label, budget)
            cell.median = median
            cells.append(cell)
    return cells


def _synthetic_grid(budgets):
    return SweepGrid(
        budgets=budgets,
        defenses=(DefenseConfig.retpolines_only(),),
        scales=("small",),
    )


def test_crossover_interpolation():
    budgets = (0.5, 0.9)
    cells = _grid_cells({"a": [0.10, 0.00], "b": [0.00, 0.10]}, budgets)
    (x,) = find_crossovers(cells, _synthetic_grid(budgets))
    assert (x.defense_a, x.defense_b) == ("a", "b")
    assert x.budget_low == 0.5 and x.budget_high == 0.9
    # deltas +0.1 -> -0.1: crossing at the midpoint
    assert x.budget_cross == pytest.approx(0.7)
    assert x.delta_low == pytest.approx(0.10)
    assert x.delta_high == pytest.approx(-0.10)


def test_crossover_exact_zero_at_grid_point():
    budgets = (0.5, 0.9, 0.99)
    cells = _grid_cells(
        {"a": [0.10, 0.05, 0.01], "b": [0.20, 0.05, 0.00]}, budgets
    )
    (x,) = find_crossovers(cells, _synthetic_grid(budgets))
    assert x.budget_cross == 0.9
    assert x.budget_low == x.budget_high == 0.9


def test_no_crossover_when_totally_ordered():
    budgets = (0.5, 0.9)
    cells = _grid_cells({"a": [0.10, 0.05], "b": [0.20, 0.15]}, budgets)
    assert find_crossovers(cells, _synthetic_grid(budgets)) == []


def test_crossover_skips_unmeasured_cells():
    budgets = (0.5, 0.9)
    cells = _grid_cells({"a": [0.10, None], "b": [0.00, 0.10]}, budgets)
    assert find_crossovers(cells, _synthetic_grid(budgets)) == []


# -- deterministic renderings on synthetic results ---------------------------


def _synthetic_result():
    budgets = (0.5, 0.9)
    cells = _grid_cells({"a": [0.10, 0.00], "b": [0.00, 0.10]}, budgets)
    for cell in cells:
        cell.geomeans = [cell.median]
        cell.q1 = cell.q3 = cell.median
        cell.iqr = 0.0
        cell.air = 0.98
        cell.residual_total = 100
        cell.residual_mean = 2.5
    grid = _synthetic_grid(budgets)
    mark_pareto_frontier(cells)
    return SweepRunResult(
        grid=grid,
        cells=sorted(cells, key=lambda c: c.key),
        crossovers=find_crossovers(cells, grid),
    )


def test_csv_shape_and_stability():
    result = _synthetic_result()
    csv = result.to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("scale,workload,defense,budget,")
    assert len(lines) == 1 + len(result.cells)
    assert csv == result.to_csv()  # rendering is pure
    row = lines[1].split(",")
    assert row[:5] == ["small", "lmbench", "a", "0.5", "50%"]
    assert row[-1] in ("0", "1")


def test_report_formats():
    result = _synthetic_result()
    text = result.render_report("text")
    assert "Sweep slice: scale=small workload=lmbench" in text
    assert "Pareto frontier" in text
    assert "Budget crossover points" in text
    assert "70.00%" in text  # the interpolated crossover
    md = result.render_report("markdown")
    assert "### Pareto frontier" in md
    assert "| --- |" in md
    with pytest.raises(ValueError, match="unknown report format"):
        result.render_report("html")


# -- measurement-layer integration -------------------------------------------


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return EvalContext(
        EvalSettings(
            spec=SmallSpec(),
            profile_iterations=1,
            profile_ops_scale=0.1,
            measure_ops_scale=0.1,
            cache_dir=str(tmp_path_factory.mktemp("sweep-cache")),
        )
    )


def test_measure_deduped_collapses_equal_configs(ctx):
    """Equal configs are one cell: the harness memo is keyed by the
    config value, so a separately built equal config is a memo hit, and
    a grid cannot request the same config twice at all."""

    def config():
        return PibeConfig.hardened(
            DefenseConfig.retpolines_only(), icp_budget=0.99, inline_budget=0.99
        )

    def measure_cells():
        return sum(1 for key in ctx._memo if key[0] == "measure")

    benches = (BY_NAME["read"],)
    memo_before = measure_cells()
    results = ctx.measure_many(
        [config(), PibeConfig.lto_baseline(), config()], benches
    )
    assert measure_cells() == memo_before + 2  # 3 requested, 2 cells
    assert results[0] is results[2]
    assert results[0] is not None
    assert results[1] is not None
    assert results.failure_report.ok
    with pytest.raises(ValueError, match="repeated budget"):
        SweepGrid(
            budgets=(0.99, 0.99), defenses=(DefenseConfig.retpolines_only(),)
        )


def test_run_sweep_end_to_end(ctx):
    grid = SweepGrid(
        budgets=(0.5, 0.999999),
        defenses=(
            DefenseConfig.retpolines_only(),
            DefenseConfig.llvm_cfi_only(),
        ),
        workloads=("lmbench",),
        scales=("small",),
        seeds=2,
    )
    benches = [BY_NAME[n] for n in ("read", "write", "pipe")]
    result = run_sweep(grid, ctx.settings, benches=benches)
    assert len(result.cells) == 4
    for cell in result.cells:
        assert len(cell.geomeans) == 2
        assert cell.failed_seeds == 0
        assert cell.median is not None
        assert 0.0 < cell.air <= 1.0
        assert cell.residual_total >= 0
    # Security moves monotonically with budget: promotions leave guarded
    # fallback icalls behind, so residual targets grow and AIR shrinks as
    # the budget rises (matching the recorded fast-grid sweep).
    by_key = {c.key: c for c in result.cells}
    low = by_key[("small", "lmbench", "retpolines", 0.5)]
    high = by_key[("small", "lmbench", "retpolines", 0.999999)]
    assert high.residual_total > low.residual_total
    assert high.air < low.air
    assert result.frontier()
    assert result.stats["failed_cells"] == 0
    assert result.stats["cells_requested"] == 2 * (4 + 1)  # + lto baseline
    # warm rerun from the shared cache: byte-identical analysis output
    again = run_sweep(grid, ctx.settings, benches=benches)
    assert again.to_csv() == result.to_csv()
    assert again.render_report("text") == result.render_report("text")
    assert again.stats["disk_cache"]["hits"] > 0

"""Table generators: every experiment runs and reproduces the paper's
directional findings (on the reduced test kernel)."""

import pytest

from repro.evaluation import tables
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.kernel.spec import SmallSpec


@pytest.fixture(scope="module")
def ctx():
    return EvalContext(
        EvalSettings(
            spec=SmallSpec(),
            profile_iterations=1,
            profile_ops_scale=0.2,
            measure_ops_scale=0.12,
        )
    )


def test_table1_microbench_constants():
    result = tables.table1(iterations=300, spec_iterations=10)
    assert result.ticks["retpolines"]["icall"] == pytest.approx(21, abs=1)
    assert result.ticks["return retpolines"]["dcall"] == pytest.approx(
        16, abs=1
    )
    assert result.ticks["all defenses"]["icall"] > 60
    # transient defenses dominate classical ones on SPEC
    assert (
        result.spec_slowdowns["all defenses"]
        > result.spec_slowdowns["LVI-CFI"]
        > result.spec_slowdowns["stackprotector"]
    )
    assert "Table 1" in result.table.to_text()


def test_table2_pgo_speeds_up_kernel(ctx):
    result = tables.table2(ctx)
    assert result.geomean < -0.02  # PGO-only build is faster than LTO
    assert len(result.lto) == 20


def test_table3_ordering(ctx):
    result = tables.table3(ctx)
    g = result.geomeans
    # paper: unoptimized retpolines >> jumpswitches > static icp
    assert g["retpolines"] > g["jumpswitches"] > g["icp 99.999%"]
    assert g["retpolines"] > 0.05
    assert g["icp 99.999%"] < 0.05


def test_table4_single_target_sites_dominate(ctx):
    result = tables.table4(ctx)
    dist = result.distribution
    assert dist["1"] > dist["2"] >= dist["3"]
    assert sum(dist.values()) > 10


def test_table5_budget_progression(ctx):
    result = tables.table5(ctx)
    g = result.geomeans
    assert g["no opt"] > 1.0  # >100% unoptimized
    assert g["no opt"] > g["+icp 99.999%"] > g["+inl 99%"]
    assert g["+inl 99%"] >= g["+inl 99.9%"] >= g["lax heuristics"] - 0.001
    # order-of-magnitude reduction, the paper's headline
    assert g["lax heuristics"] < g["no opt"] / 5


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


def test_table6_per_defense_reduction(ctx):
    result = tables.table6(ctx)
    for defense in ("Retpolines", "Return retpolines", "LVI-CFI", "All"):
        assert result.pibe_geomeans[defense] < result.lto_geomeans[defense]
    assert result.lto_geomeans["All"] > 1.0
    assert result.pibe_geomeans["All"] < 0.35


def test_table7_macro_degradations(ctx):
    result = tables.table7(ctx, batches=6)
    for app in ("Nginx", "Apache", "DBench"):
        unopt, pibe = result.degradations[app]["w/all-defenses"]
        assert unopt < -0.05          # defenses hurt unoptimized kernels
        assert pibe > unopt + 0.02    # PIBE recovers most of it
        assert result.vanilla_throughput[app] > 0


def test_table8_elision_grows_with_budget(ctx):
    result = tables.table8(ctx)
    budgets = sorted(result.stats)
    sites = [result.stats[b].icp_sites for b in budgets]
    ret_sites = [result.stats[b].return_sites for b in budgets]
    assert sites == sorted(sites)
    assert ret_sites == sorted(ret_sites)
    assert result.stats[budgets[0]].icp_weight_fraction > 0.9


def test_table9_rule3_blocks_more_than_rule2(ctx):
    result = tables.table9(ctx)
    for report in result.reports.values():
        assert report.blocked_rule3_weight >= report.blocked_rule2_weight
        assert report.candidate_weight > 0


def test_table10_candidates_are_proper_subset(ctx):
    """The algorithms touch a fraction of all indirect branches. (The
    tiny test kernel has little cold bulk, so fractions are larger than
    the default spec's — the paper-scale check runs in the benchmarks.)"""
    result = tables.table10(ctx)
    budgets = sorted(result.stats)
    for stats in result.stats.values():
        assert stats.total_icalls > stats.icp_candidates
        assert stats.total_returns > 0
    fractions = [result.stats[b].icp_fraction for b in budgets]
    assert fractions == sorted(fractions)  # grows with budget


def test_table11_vulnerable_residue(ctx):
    result = tables.table11(ctx)
    unopt = result.censuses["no opt"]
    assert unopt.vulnerable_ijumps == SmallSpec().num_asm_ijumps
    assert unopt.vulnerable_icalls > 0
    assert unopt.defended_icalls > unopt.vulnerable_icalls
    # inlining duplicates both protected and vulnerable sites
    top = result.censuses[max(result.censuses, key=lambda k: k != "no opt")]
    budget_labels = [k for k in result.censuses if k != "no opt"]
    biggest = result.censuses[budget_labels[-1]]
    assert biggest.vulnerable_icalls >= unopt.vulnerable_icalls
    assert biggest.defended_icalls >= unopt.defended_icalls


def test_table12_size_growth(ctx):
    result = tables.table12(ctx)
    all99 = result.reports["all-defenses @99%"]
    all_max = result.reports["all-defenses @99.9999%"]
    assert all_max.abs_size_increase >= all99.abs_size_increase > 0
    retp = result.reports["retpolines @99.999%"]
    assert retp.abs_size_increase < all99.abs_size_increase


def test_robustness_ordering(ctx):
    result = tables.robustness(ctx)
    assert result.matched_geomean < result.mismatched_geomean
    assert result.icp_overlap > 0.2
    assert result.inline_overlap > 0.2


def test_figure1_rule3_demonstration():
    result = tables.figure1()
    assert result.inlined_without_rule3 == ["foo_1"]
    assert result.inlined_with_rule3 == ["foo_2", "foo_3"]

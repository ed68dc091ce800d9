"""EvalContext.lint: memoization, disk-cache reuse across variants,
parallel sharding over the persistent pool, serve integration."""

from __future__ import annotations

from repro.core.config import PibeConfig
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.hardening.defenses import DefenseConfig
from repro.kernel.spec import SmallSpec
from repro.static import analyze_module


def _settings(tmp_path=None, **kw):
    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.05,
        measure_ops_scale=0.1,
        cache_dir=str(tmp_path) if tmp_path is not None else None,
        **kw,
    )


def test_lint_matches_direct_analysis_and_memoizes():
    ctx = EvalContext(_settings())
    try:
        config = PibeConfig.hardened(DefenseConfig.all_defenses())
        report = ctx.lint(config)
        assert ctx.lint(config) is report
        direct = analyze_module(ctx.variant(config).module)
        assert report.to_json() == direct.to_json()
    finally:
        ctx.close()


def test_lint_optimized_variant_uses_profile():
    ctx = EvalContext(_settings())
    try:
        config = PibeConfig.lax(DefenseConfig.all_defenses())
        report = ctx.lint(config)
        # Profile-gated rules ran (flow conservation needs the profile).
        assert "profile-flow-conservation" in report.rules
        direct = analyze_module(
            ctx.variant(config).module, profile=ctx.profile("lmbench")
        )
        assert report.to_json() == direct.to_json()
    finally:
        ctx.close()


def test_sweep_variants_share_lint_cache(tmp_path):
    ctx = EvalContext(_settings(tmp_path))
    try:
        cold = ctx.lint(PibeConfig.hardened(DefenseConfig.retpolines_only()))
        assert cold.stats["cache_misses"] > 0
        # A different defense stamp over the same prefix: the
        # speculation rule's env changes (config differs) but the
        # defense-insensitive rules (structural/targets/pointsto...)
        # still re-lint; the report must stay correct regardless.
        other = ctx.lint(PibeConfig.hardened(DefenseConfig.all_defenses()))
        direct = analyze_module(
            ctx.variant(PibeConfig.hardened(DefenseConfig.all_defenses())).module
        )
        assert other.to_json() == direct.to_json()
    finally:
        ctx.close()


def test_lint_warm_across_contexts(tmp_path):
    config = PibeConfig.hardened(DefenseConfig.all_defenses())
    a = EvalContext(_settings(tmp_path))
    try:
        cold = a.lint(config)
    finally:
        a.close()
    b = EvalContext(_settings(tmp_path))
    try:
        warm = b.lint(config)
        assert warm.to_json() == cold.to_json()
    finally:
        b.close()


def test_parallel_lint_matches_inline(tmp_path):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    par = EvalContext(_settings(tmp_path / "par", jobs=2))
    seq = EvalContext(_settings())
    try:
        parallel = par.lint(config)
        inline = seq.lint(config)
        assert parallel.to_json() == inline.to_json()
    finally:
        par.close()
        seq.close()


def test_rule_scoped_lint_memo_key_is_distinct():
    ctx = EvalContext(_settings())
    try:
        config = PibeConfig.hardened(DefenseConfig.all_defenses())
        full = ctx.lint(config)
        scoped = ctx.lint(config, rules=["PIBE5"])
        assert scoped is not full
        assert scoped.rules != full.rules
    finally:
        ctx.close()

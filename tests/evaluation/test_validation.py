"""The paper-shape gate: every fast-scale claim holds on one fast pass
(one test per claim), the card judges the claims of its run's scale,
and a build with inlining off fails named claims."""

import dataclasses
import re
from types import SimpleNamespace

import pytest

from repro.evaluation import tables
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.evaluation.validation import (
    CLAIMS,
    FAST,
    FULL,
    Claim,
    Scorecard,
    Verdict,
    scale_of,
    scorecard,
)
from repro.passes.decisions import InlinePlan
from repro.passes.inliner import InlineReport, PibeInliner

FAST_CLAIMS = [claim for claim in CLAIMS if FAST in claim.scales]


def _fast_card() -> Scorecard:
    with EvalContext(EvalSettings.fast()) as ctx:
        results = {name: run(ctx) for name, _, run in tables.EXPERIMENTS}
    return scorecard(results, ctx.settings)


@pytest.fixture(scope="module")
def fast_card():
    return _fast_card()


def _claim_id(claim: Claim) -> str:
    return re.sub(r"[^a-z0-9]+", "-", claim.name.lower()).strip("-")


@pytest.mark.parametrize("claim", FAST_CLAIMS, ids=_claim_id)
def test_claim(claim, fast_card):
    verdict = next(v for v in fast_card.verdicts if v.claim is claim)
    assert verdict.passed, verdict


def test_card_judges_the_claims_of_its_scale(fast_card):
    assert fast_card.scale == FAST
    assert [v.claim for v in fast_card.verdicts] == FAST_CLAIMS
    assert scale_of(EvalSettings()) == FULL
    # jobs and the cache change how a run is computed, not its scale
    fast = dataclasses.replace(EvalSettings.fast(), jobs=2, cache_dir="c")
    assert scale_of(fast) == FAST


def test_inlining_off_fails_named_claims(monkeypatch):
    """A deliberately broken build, PIBE's inliner planning nothing,
    misses the headline band and more."""
    def plan_nothing(self, space):
        return InlinePlan(report=InlineReport(budget=self.budget))

    monkeypatch.setattr(PibeInliner, "plan", plan_nothing)
    card = _fast_card()
    assert "Table 5: all defenses, lax heuristics" in card.failed
    assert "NO" in card.to_table().to_text()


def test_claim_check_mechanics():
    run = SimpleNamespace(settings=None, demo=SimpleNamespace(value=1.2))
    band = Claim("band", lambda r: r.demo.value, band=(0.5, 1.5), paper=1.0)
    assert band.judge(run) == Verdict(band, 1.2, True)
    narrow = Claim("narrow", lambda r: r.demo.value, band=(0.5, 1.0))
    assert not narrow.judge(run).passed
    assert Claim("above", lambda r: r.demo.value > 1).judge(run).passed
    assert not Claim("far", lambda r: r.demo.value > 2).judge(run).passed


def test_scorecard_rendering():
    claims = [
        Claim("a", lambda r: 0.1, band=(0.0, 0.2), paper=0.1),
        Claim("b", lambda r: False),
    ]
    card = Scorecard(FAST, [claim.judge(None) for claim in claims])
    assert card.failed == ["b"]
    text = card.to_table().to_text()
    assert "1/2 claims hold at fast scale" in text
    assert "NO" in text


def test_claim_bands_contain_paper_values():
    assert len({_claim_id(claim) for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert set(claim.scales) <= {FAST, FULL} and claim.scales
        if claim.band is None:
            continue
        low, high = claim.band
        assert low <= high
        # the band should be wide enough that the paper's own number,
        # were it measured, would usually pass (simulator tolerance)
        assert low <= claim.paper * 1.8 + 0.2

import ast
from pathlib import Path

import pytest

import taylorlab.lab as lab
from taylorlab.lab import (
    ApproximantMismatchError,
    check_commutation,
    check_genericity,
    check_head_charac,
    check_norm_charac,
    check_simulation,
    hr_commutation_stats,
    lift_to_source,
    push_forward,
    terms_equal_via_taylor,
)
from taylorlab.beta import head_normalize
from taylorlab.resource import (
    ZERO,
    FiniteSum,
    parse_resource_sum,
    parse_resource_term,
    pretty_resource,
    r_size,
)
from taylorlab.resource_reduction import r_normalize
from taylorlab.syntax import App, FreeVar, parse_term
from taylorlab.taylor import approximates, enumerate_taylor

from corpus import I, II, K, KOMEGA, OMEGA, OMEGA3, XOMEGA, Y, Y_SYS, YG
from support import fresh_session

rp = parse_resource_term


def test_push_forward_redex():
    assert push_forward(rp("<\\a. a>[y]"), parse_term("(\\x. x) y"), ()) == parse_resource_sum("y")
    assert push_forward(rp("<\\a. a>1"), parse_term("(\\x. x) y"), ()) == ZERO


def test_push_forward_under_arg():
    m = parse_term("x ((\\y. y) z)")
    s = rp("<x>[<\\a. a>[z]]")
    assert push_forward(s, m, ("arg",)) == parse_resource_sum("<x>[z]")
    # an annihilating element wipes the addend
    s2 = rp("<x>[<\\a. a>1]")
    assert push_forward(s2, m, ("arg",)) == ZERO


def test_push_forward_mismatch():
    with pytest.raises(ApproximantMismatchError):
        push_forward(rp("x"), parse_term("(\\x. x) y"), ())


def test_push_forward_soundness_random():
    from random import Random

    from taylorlab.beta import beta_step, leftmost_redex
    from taylorlab.gen import random_lambda_term
    from taylorlab.taylor import enumerate_taylor

    rng = Random(61)
    checked = 0
    while checked < 40:
        m = random_lambda_term(rng, 9)
        pos = leftmost_redex(m)
        if pos is None:
            continue
        checked += 1
        n = beta_step(m, pos)
        for s in enumerate_taylor(m, 7):
            for u in push_forward(s, m, pos):
                assert approximates(u, n)


def test_check_simulation_ii():
    report = check_simulation(II, [()], 6)
    assert report.verdict == "pass"
    assert report.stats["target"] == "\\x. x"


def test_check_simulation_empty_steps():
    assert check_simulation(K, [], 6).verdict == "pass"


def test_check_simulation_negative_control(monkeypatch):
    bad = rp("zzz_corrupt")
    monkeypatch.setattr(lab, "push_forward", lambda s, m, at: FiniteSum((bad,)))
    report = lab.check_simulation(II, [()], 6)
    assert report.verdict == "fail"
    assert "zzz_corrupt" in report.witness


def test_lift_to_source_y_chain():
    t3 = rp("\\f. <f>[<f>[<f>1]]")
    s = lift_to_source(t3, fresh_session(Y, 100))
    assert s is not None
    assert approximates(s, Y)
    assert t3 in r_normalize(s)
    assert r_size(s) > 10  # genuinely beyond the plain slice


def test_check_commutation_small():
    for m, bound in [(I, 6), (II, 6), (K, 6), (KOMEGA, 8)]:
        report = check_commutation(m, bound, 200)
        assert report.verdict == "pass", (m, report.reason)


def test_check_commutation_omega():
    report = check_commutation(OMEGA, 10, 200)
    assert report.verdict == "pass"
    assert report.stats["normal_addends"] == 0
    assert report.stats["tree_targets"] == 0


def test_a_cut_that_may_hide_a_target_is_inconclusive():
    """A fuel cut above the truncation depth enumerates to nothing, so the
    check must not pass on the targets it has: it names the least
    approximant that reaches the cut within the size bound. A cut that only
    larger approximants reach hides nothing."""
    report = check_commutation(YG, 6, 1)
    assert report.verdict == "inconclusive" and report.stats["tree_targets"] == 0
    assert report.reason == "a cut may hide targets within the size bound: *, where * marks the cut"
    report = check_commutation(parse_term(r"\f. f (f ((\x. x x x) (\x. x x x)))"), 10, 3)
    assert report.verdict == "inconclusive"
    assert report.reason.endswith(": \\a. <a>[<a>1, <a>1, <a>[*]], where * marks the cut")
    assert check_commutation(App(FreeVar("x"), OMEGA3), 2, 1000).verdict == "pass"


def test_check_commutation_y():
    report = check_commutation(Y, 8, 200)
    assert report.verdict == "pass"
    assert report.stats["constructed_ancestors"] >= 1


def test_checks_on_rational_system():
    assert check_commutation(Y_SYS, 8, 200).verdict == "pass"
    assert check_head_charac(Y_SYS, 8, 200).verdict == "pass"
    r = check_norm_charac(Y_SYS, 3, 8, 200)
    assert r.verdict == "pass"
    assert [lvl["how"] for lvl in r.stats["levels"]] == [
        "slice",
        "slice",
        "slice",
        "constructed",
    ]


def test_check_head_charac():
    r = check_head_charac(XOMEGA, 8, 100)
    assert r.verdict == "pass"
    assert r.witness == "\\a. <a>1"
    r = check_head_charac(OMEGA, 10, 100)
    assert r.verdict == "pass"
    r = check_head_charac(I, 6, 100)
    assert r.verdict == "pass"
    assert check_head_charac(OMEGA3, 6, 5).verdict == "inconclusive"


def test_check_norm_charac_identity():
    r = check_norm_charac(I, 5, 8, 100)
    assert r.verdict == "pass"
    assert all(lvl["witness"] == "\\a. a" for lvl in r.stats["levels"])


def test_check_norm_charac_head_normal_only():
    r = check_norm_charac(XOMEGA, 3, 10, 100)
    assert r.verdict == "pass"
    levels = r.stats["levels"]
    assert levels[0]["prefix"] == "ok" and levels[0]["witness"] is not None
    assert levels[1]["prefix"] == "bottom" and levels[1]["witness"] is None


def test_check_norm_charac_y():
    r = check_norm_charac(Y, 3, 8, 100)
    assert r.verdict == "pass"
    assert all(lvl["prefix"] == "ok" and lvl["witness"] for lvl in r.stats["levels"])
    assert any(lvl["how"] == "constructed" for lvl in r.stats["levels"])


def test_check_norm_charac_reports_the_shallowest_cut():
    # the Boehm tree is cut at its root, so every depth is cut
    r = check_norm_charac(parse_term("let rec F = x F in (\\z. \\x. z x) F"), 5, 10, 1000)
    assert r.verdict == "inconclusive" and r.reason == "prefix cut at d=0"
    assert all(lvl["prefix"] == "cut" for lvl in r.stats["levels"])


def test_equal_via_taylor():
    r = terms_equal_via_taylor(Y_SYS, Y_SYS, 3, 10)
    assert r.verdict == "pass"
    # a missing common approximant is a size bound that ran out, not a
    # witness of a difference: never a fail, even on beta-equal terms
    r = terms_equal_via_taylor(I, parse_term("\\x. \\y. y"), 3, 8)
    assert r.verdict == "inconclusive" and "0-positive" in r.reason and "size bound ran out" in r.reason
    r = terms_equal_via_taylor(parse_term("\\x. x y"), parse_term("\\x. x z"), 3, 8)
    assert r.verdict == "inconclusive" and "1-positive" in r.reason and "size bound ran out" in r.reason
    r = terms_equal_via_taylor(I, parse_term("\\x. (\\y. y) x"), 5, 10)
    assert r.verdict == "inconclusive" and "size bound ran out" in r.reason


def test_genericity_pass():
    c = parse_term("(\\x. \\y. y) *")
    r = check_genericity(c, OMEGA, [I, K, Y], 8, 100, depth=4)
    assert r.verdict == "pass"
    assert r.stats["prefix"] == "\\y. y"


def test_genericity_at_depth_0_compares_nothing():
    r = check_genericity(parse_term("(\\x. \\y. y) *"), OMEGA, [I, K, Y], 8, 100, depth=0)
    assert (r.verdict, r.exit_code, r.reason) == ("inconclusive", 2, "depth 0 compares no node of the prefixes")
    assert check_genericity(parse_term("(\\x. \\y. y) *"), OMEGA, [I], 8, 100, depth=1).verdict == "pass"


def test_genericity_hypothesis_unmet():
    r = check_genericity(parse_term("*"), OMEGA, [I], 8, 100, depth=4)
    assert r.verdict == "inconclusive"
    r = check_genericity(parse_term("(\\z. z) *"), OMEGA, [I], 8, 100, depth=4)
    assert r.verdict == "inconclusive"


def test_genericity_requires_certificate():
    r = check_genericity(parse_term("(\\x. \\y. y) *"), OMEGA3, [I], 8, 5, depth=3)
    assert r.verdict == "inconclusive"
    assert "certificate" in r.reason


def test_hr_commutation_stats():
    out = hr_commutation_stats(II, 7)
    assert out["inclusion"] is True
    assert out["covered"] >= 1
    out = hr_commutation_stats(Y, 8)
    assert out["inclusion"] is True


# ---------------------------------------------------------------------------
# Lifting is the only backward path


def test_forced_lift_failure_ends_inconclusive_naming_the_target(monkeypatch):
    """With every head step uninvertible, the check stops at the least
    target outside the forward normal forms, names it and the step, and
    enumerates nothing beyond the slice and the tree targets."""
    yg = parse_term("(\\f. (\\x. f (x x)) (\\x. f (x x))) g")
    nfs = set(r_normalize(lab.enumerate_taylor(yg, 20)))
    first = next(t for t in lab.enumerate_taylor(lab.bohm_tree(yg, 21, 1000), 20) if t not in nfs)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return enumerate_taylor(*args, **kwargs)

    monkeypatch.setattr(lab, "enumerate_taylor", counted)
    monkeypatch.setattr(lab, "_lift_one_step", lambda *args: None)
    report = check_commutation(yg, 20, 1000)
    assert report.verdict == "inconclusive"
    assert report.reason.startswith(f"no ancestor lifted for {pretty_resource(first)}: the head step from ")
    assert report.reason.endswith(" could not be inverted")
    assert calls == [20, 20]
    assert "backstop" not in report.inputs and "widened_slice" not in report.stats


def test_skeleton_lift_failures_use_the_same_wording(monkeypatch):
    monkeypatch.setattr(lab, "_lift_one_step", lambda *args: None)
    r = check_head_charac(Y, 4, 100)
    assert r.verdict == "inconclusive"
    assert r.reason.startswith("solvable, but no witness in the slice and no ancestor lifted for \\a. <a>1: ")
    r = check_norm_charac(Y, 3, 6, 100)
    assert r.verdict == "inconclusive"
    assert "no ancestor lifted for" in r.reason and r.reason.endswith("could not be inverted")


def test_lift_resolves_references_under_the_head_binder():
    """Un-substitution reads the head redex's body under the head binder,
    so a reference in that body resolves with the binder's hint on the
    stack: ``F`` below resolves its ``x`` to the outer binder, not to
    ``\\y``. Without the hint every target outside the forward normal
    forms failed to lift."""
    m = parse_term("let rec F = x F in \\x. (\\y. F) a")
    report = check_commutation(m, 16, 1000)
    assert report.verdict == "pass"
    assert report.stats["constructed_ancestors"] == 48
    assert "replayed_ancestors" not in report.stats and "verify_fallbacks" not in report.stats
    r = check_norm_charac(m, 5, 10, 1000)
    assert r.verdict == "pass"
    assert [lvl["how"] for lvl in r.stats["levels"]][3:] == ["constructed"] * 3


@pytest.mark.parametrize(
    "src",
    [
        # the argument F lands under \x, and x is free in F's equation
        "let rec F = x F in (\\z. \\x. z x) F",
        # the fired binder \x leaves F, whose x it bound, behind
        "let rec F = x F in (\\x. F) a",
    ],
)
def test_capture_on_a_system_is_inconclusive_not_a_failure(src):
    m = parse_term(src)
    report = check_commutation(m, 8, 1000)
    assert report.verdict == "inconclusive"
    assert "hit a cut" in report.reason
    run = head_normalize(m.root, 1000, m)
    assert run.describe() == "unknown(capture, 0 steps)"


def test_a_binder_of_the_root_captures_nothing():
    """Only the free names of the equations can be captured: the root's
    ``G`` is free in no equation, so firing ``\\G`` is a plain step."""
    m = parse_term(r"let rec F = \G. G f F in \f. F G")
    run = head_normalize(m.root, 1000, m)
    assert run.describe() == "solvable(1)" and str(run.term) == r"\f. G f F"
    assert check_commutation(m, 10, 1000).verdict == "pass"


def test_capture_controls_with_a_fresh_hint_pass():
    for src in ("let rec F = x F in (\\z. \\y. z y) F", "let rec F = x F in \\x. (\\y. F) a"):
        assert check_commutation(parse_term(src), 8, 1000).verdict == "pass", src


def test_every_check_builds_its_report_in_one_place():
    """Each check ends through ``_Check``'s ``fail``, ``inconclusive`` or
    ``passed``, so a report is built in one place only."""
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "CheckReport"
    ]
    assert len(calls) == 1

"""Seeded self-test battery behind ``taylorlab selftest``.

Runs the whole property suite at desk scale and reports one record per
suite. Identical seed and configuration produce byte-identical JSON: all
collections are emitted in canonical order and no wall-clock data is
included in the machine-readable output.
"""

from __future__ import annotations

from random import Random

from .beta import (
    beta_step,
    bohm_tree,
    head_form,
    head_normalize,
    head_redex_position,
    head_step,
    is_bohm_normal,
    min_depth_step,
    stratify,
)
from .gen import random_lambda_term, random_resource_term
from .lab import (
    check_commutation,
    check_genericity,
    check_head_charac,
    check_norm_charac,
    hr_commutation_stats,
    terms_equal_via_taylor,
)
from .resource import FiniteSum, parse_resource_term, r_height, r_size
from .resource_reduction import (
    check_diamond,
    dm_less,
    dm_measure,
    normalize_with,
    r_normalize,
    r_step,
    redex_sites,
    valid_min_depth_sites,
)
from .syntax import alpha_eq, parse_term, pretty, unfold
from .taylor import approximates, enumerate_taylor

_CORPUS = {
    "I": "\\x. x",
    "K": "\\x. \\y. x",
    "S": "\\x. \\y. \\z. (x z) (y z)",
    "II": "(\\x. x) (\\x. x)",
    "KOmega": "(\\x. \\y. y) ((\\x. x x) (\\x. x x))",
    "xOmega": "\\x. x ((\\y. y y) (\\y. y y))",
    "Omega": "(\\x. x x) (\\x. x x)",
    "Y": "\\f. (\\x. f (x x)) (\\x. f (x x))",
    "Yg": "(\\f. (\\x. f (x x)) (\\x. f (x x))) g",
}


def _suite_roundtrip(rng: Random) -> dict:
    bad = 0
    n = 300
    for _ in range(n):
        t = random_lambda_term(rng, 12)
        if not alpha_eq(parse_term(pretty(t)), t):
            bad += 1
    for _ in range(n):
        s = random_resource_term(rng, 12)
        if parse_resource_term(str(s)) is not s:
            bad += 1
    return {"name": "print-parse-roundtrip", "checked": 2 * n, "failures": bad}


def _suite_size_decrease(rng: Random) -> dict:
    bad = 0
    steps = 0
    for _ in range(2000):
        t = random_resource_term(rng, 16)
        for site in redex_sites(t):
            for u in r_step(t, site):
                steps += 1
                if r_size(u) >= r_size(t):
                    bad += 1
    return {"name": "step-size-decrease", "checked": steps, "failures": bad}


def _suite_height_and_min_depth(rng: Random) -> dict:
    bad = 0
    n = 2000
    for _ in range(n):
        t = random_resource_term(rng, 14)
        if r_height(t) > r_size(t):
            bad += 1
        if valid_min_depth_sites(t, r_height(t) + 1):
            bad += 1
    return {"name": "height-bound-and-min-depth-emptiness", "checked": n, "failures": bad}


def _suite_diamond(rng: Random) -> dict:
    bad = 0
    n = 300
    for _ in range(n):
        t = random_resource_term(rng, 10)
        if not check_diamond(t):
            bad += 1
    return {"name": "one-step-diamond", "checked": n, "failures": bad}


def _suite_nf_strategy(rng: Random) -> dict:
    bad = 0
    n = 250
    for _ in range(n):
        t = random_resource_term(rng, 11)
        left = normalize_with(t, lambda sites: sites[0])
        right = normalize_with(t, lambda sites: sites[-1])
        if not (left == right == r_normalize(t)):
            bad += 1
    return {"name": "normal-form-strategy-independence", "checked": n, "failures": bad}


def _suite_dm_decrease(rng: Random) -> dict:
    bad = 0
    checked = 0
    for _ in range(400):
        t = random_resource_term(rng, 12)
        sites = redex_sites(t)
        if not sites:
            continue
        out = r_step(t, sites[0])
        if t in out:
            continue
        checked += 1
        if not dm_less(dm_measure(out), dm_measure(FiniteSum((t,)))):
            bad += 1
    return {"name": "addend-measure-decrease", "checked": checked, "failures": bad}


def _suite_head_fixed_point(rng: Random) -> dict:
    """Head-normal terms are fixed points of the head step; on a head redex
    the head step is the beta step at the head-redex position. (A fixed
    point need not be head normal: ``(\\x. x x) (\\x. x x)`` is one.)"""
    bad = 0
    n = 400
    for _ in range(n):
        t = random_lambda_term(rng, 12)
        hf = head_form(t)
        if hf.has_head_redex:
            expected = beta_step(t, head_redex_position(hf))
        else:
            expected = t
        if not alpha_eq(head_step(t), expected):
            bad += 1
    return {"name": "head-operator-fixed-point", "checked": n, "failures": bad}


def _suite_bohm_prefixes(rng: Random) -> dict:
    bad = 0
    n = 150
    for _ in range(n):
        t = random_lambda_term(rng, 10)
        a = bohm_tree(t, 2, 60)
        b = bohm_tree(t, 3, 60)
        if not alpha_eq(unfold(a, 2), unfold(b, 2)):
            bad += 1
        if not (is_bohm_normal(a) and is_bohm_normal(b)):
            bad += 1
    return {"name": "tree-prefix-stability-and-normality", "checked": n, "failures": bad}


def _suite_slices(rng: Random) -> dict:
    bad = 0
    n = 80
    for _ in range(n):
        t = random_lambda_term(rng, 8)
        small = set(enumerate_taylor(t, 5))
        big = enumerate_taylor(t, 7)
        if not small <= set(big):
            bad += 1
        if not all(approximates(s, t) and r_size(s) <= 7 for s in big):
            bad += 1
        filtered = {s for s in big if r_height(s) < 2}
        if set(enumerate_taylor(t, 7, depth_bound=2)) != filtered:
            bad += 1
    return {"name": "slice-monotonicity-and-membership", "checked": n, "failures": bad}


def _suite_hr_commutation(rng: Random) -> dict:
    bad = 0
    covered = 0
    total = 0
    n = 60
    for _ in range(n):
        t = random_lambda_term(rng, 8)
        out = hr_commutation_stats(t, 7)
        if not out["inclusion"]:
            bad += 1
        covered += out["covered"]
        total += out["reduct_slice"]
    return {
        "name": "head-step-slice-inclusion",
        "checked": n,
        "failures": bad,
        "coverage": f"{covered}/{total}",
    }


def _suite_commutation_corpus(fuel: int, size: int) -> dict:
    verdicts = {}
    bad = 0
    for name, src in _CORPUS.items():
        report = check_commutation(parse_term(src), size, fuel)
        verdicts[name] = report.verdict
        if report.verdict != "pass":
            bad += 1
    return {
        "name": "commutation-corpus",
        "checked": len(_CORPUS),
        "failures": bad,
        "verdicts": verdicts,
    }


def _suite_head_charac(rng: Random, fuel: int) -> dict:
    disagreements = 0
    inconclusive = 0
    n = 100
    terms = [parse_term(src) for src in _CORPUS.values()]
    terms += [random_lambda_term(rng, 9) for _ in range(n)]
    for t in terms:
        report = check_head_charac(t, 9, fuel)
        if report.verdict == "fail":
            disagreements += 1
        elif report.verdict == "inconclusive":
            inconclusive += 1
    return {
        "name": "head-characterization-agreement",
        "checked": len(terms),
        "failures": disagreements,
        "inconclusive": inconclusive,
    }


def _suite_norm_charac(fuel: int) -> dict:
    expected = {
        "I": "pass",
        "xOmega": "pass",
        "Y": "pass",
    }
    bad = 0
    verdicts = {}
    for name, want in expected.items():
        report = check_norm_charac(parse_term(_CORPUS[name]), 4, 9, fuel)
        verdicts[name] = report.verdict
        if report.verdict != want:
            bad += 1
    return {"name": "normalizability-levels", "checked": len(expected), "failures": bad, "verdicts": verdicts}


def _suite_stratification(fuel: int) -> dict:
    y = parse_term(_CORPUS["Y"])
    res = stratify(y, 3, fuel)
    bad = 0
    if res.diagnostic is not None:
        bad += 1
    for d, steps in enumerate(res.step_positions):
        cur = res.levels[d]
        for pos in steps:
            cur = min_depth_step(cur, d, pos)
        if not alpha_eq(cur, res.levels[d + 1]):
            bad += 1
    for d in range(len(res.levels)):
        slices = [
            frozenset(enumerate_taylor(lvl, 8, depth_bound=d))
            for lvl in res.levels[d:]
        ]
        if any(s != slices[0] for s in slices[1:]):
            bad += 1
    return {"name": "stratification-replay-and-slices", "checked": len(res.levels), "failures": bad}


def _suite_spotchecks(fuel: int) -> dict:
    y = parse_term(_CORPUS["Y"])
    y_sys = parse_term("let rec F = f F in \\f. F")
    bad = 0
    if not alpha_eq(bohm_tree(y, 5, 50), unfold(y_sys, 5)):
        bad += 1
    if not alpha_eq(head_normalize(parse_term("((\\x. \\y. x) a) b"), 10).term, parse_term("a")):
        bad += 1
    if terms_equal_via_taylor(y_sys, y_sys, 3, 10).verdict != "pass":
        bad += 1
    gen = check_genericity(
        parse_term("(\\x. \\y. y) *"),
        parse_term(_CORPUS["Omega"]),
        [parse_term(_CORPUS["I"]), parse_term(_CORPUS["K"]), y],
        8,
        fuel,
        depth=4,
    )
    if gen.verdict != "pass":
        bad += 1
    return {"name": "spot-checks", "checked": 4, "failures": bad}


def run_selftest(seed: int, fuel: int = 1000, size_bound: int = 10) -> dict:
    rng = Random(seed)
    results = [
        _suite_roundtrip(rng),
        _suite_size_decrease(rng),
        _suite_height_and_min_depth(rng),
        _suite_diamond(rng),
        _suite_nf_strategy(rng),
        _suite_dm_decrease(rng),
        _suite_head_fixed_point(rng),
        _suite_bohm_prefixes(rng),
        _suite_slices(rng),
        _suite_hr_commutation(rng),
        _suite_commutation_corpus(fuel, size_bound),
        _suite_head_charac(rng, fuel),
        _suite_norm_charac(fuel),
        _suite_stratification(50),
        _suite_spotchecks(fuel),
    ]
    failures = sum(r["failures"] for r in results)
    inconclusive = sum(r.get("inconclusive", 0) for r in results)
    verdict = "pass" if failures == 0 else "fail"
    return {
        "config": {"seed": seed, "fuel": fuel, "size_bound": size_bound},
        "results": results,
        "failures": failures,
        "inconclusive": inconclusive,
        "verdict": verdict,
    }

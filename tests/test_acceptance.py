"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path
from random import Random

from taylorlab.beta import bohm_tree, stratify
from taylorlab.cli import main
from taylorlab.gen import random_lambda_term, random_resource_term
from taylorlab.lab import (
    check_commutation,
    check_genericity,
    check_head_charac,
    check_norm_charac,
)
from taylorlab.resource import r_height, r_size
from taylorlab.resource_reduction import (
    check_diamond,
    r_step,
    redex_sites,
    valid_min_depth_sites,
)
from taylorlab.syntax import parse_term, unfold
from taylorlab.taylor import enumerate_taylor

from corpus import CORPUS, I, K, OMEGA, XOMEGA, Y, Y_SYS


def _report(num, name, detail, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {num} {name}: PASS ({detail}, {elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_size_decrease():
    started = time.time()
    rng = Random(1001)
    steps = 0
    for _ in range(10_000):
        t = random_resource_term(rng, 20)
        size = r_size(t)
        for site in redex_sites(t):
            for u in r_step(t, site):
                steps += 1
                assert r_size(u) < size
    _report(1, "size-decrease", f"10000 terms, {steps} step addends", started, 10)


def test_criterion_02_diamond():
    started = time.time()
    rng = Random(1002)
    for _ in range(1000):
        t = random_resource_term(rng, 12)
        assert check_diamond(t)
    _report(2, "strong-confluence-diamond", "1000 terms", started, 30)


def test_criterion_03_height_bound_min_depth():
    started = time.time()
    rng = Random(1003)
    for _ in range(10_000):
        t = random_resource_term(rng, 16)
        h = r_height(t)
        assert h <= r_size(t)
        assert valid_min_depth_sites(t, h + 1) == []
    _report(3, "height-bound-and-min-depth-emptiness", "10000 terms", started, 10)


def test_criterion_04_commutation_corpus():
    started = time.time()
    for name, src in CORPUS.items():
        report = check_commutation(parse_term(src), 10, 1000)
        assert report.verdict == "pass", (name, report.reason)
        if name == "Omega":
            assert report.stats["normal_addends"] == 0
            assert report.stats["tree_targets"] == 0
    _report(4, "commutation-corpus", f"{len(CORPUS)} terms at size 10", started, 120)


def test_criterion_05_bohm_prefix_of_y():
    started = time.time()
    assert bohm_tree(Y, 5, 50) == unfold(Y_SYS, 5)
    _report(5, "bohm-prefix-of-fixpoint", "depth 5 exact", started, 1)


def test_criterion_06_head_characterization():
    started = time.time()
    terms = [parse_term(src) for src in CORPUS.values()]
    rng = Random(1006)
    terms += [random_lambda_term(rng, 9) for _ in range(200)]
    disagreements = 0
    inconclusive = 0
    for t in terms:
        report = check_head_charac(t, 10, 1000)
        if report.verdict == "fail":
            disagreements += 1
        elif report.verdict == "inconclusive":
            inconclusive += 1
    assert disagreements == 0
    _report(
        6,
        "head-characterization-agreement",
        f"{len(terms)} terms, 0 disagreements, {inconclusive} inconclusive",
        started,
        60,
    )


def test_criterion_07_stratification_coherence():
    started = time.time()
    res = stratify(Y, 4, 50)
    assert res.diagnostic is None
    assert len(res.levels) == 5
    panels = 0
    for d in range(len(res.levels)):
        slices = [
            frozenset(enumerate_taylor(lvl, 10, depth_bound=d)) for lvl in res.levels[d:]
        ]
        for s in slices[1:]:
            assert s == slices[0]
            panels += 1
    _report(7, "stratification-coherence", f"{panels} slice comparisons", started, 30)


def test_criterion_08_genericity():
    started = time.time()
    c = parse_term("(\\x. \\y. y) *")
    ns = [I, K, Y, parse_term("\\z. z z")]
    report = check_genericity(c, OMEGA, ns, 10, 1000, depth=4)
    assert report.verdict == "pass"
    assert report.stats["prefix"] == "\\y. y"
    _report(8, "genericity-experiment", f"{len(ns)} replacements at depth 4", started, 10)


def test_criterion_09_d_positivity():
    started = time.time()
    r = check_norm_charac(XOMEGA, 5, 12, 1000)
    assert r.verdict == "pass"
    levels = {lvl["d"]: lvl for lvl in r.stats["levels"]}
    assert levels[0]["witness"] is not None
    assert levels[1]["prefix"] == "bottom" and levels[1]["witness"] is None
    for name in ("I", "Y"):
        r = check_norm_charac(parse_term(CORPUS[name]), 5, 12, 1000)
        assert r.verdict == "pass", (name, r.reason)
        assert all(lvl["witness"] is not None for lvl in r.stats["levels"])
    _report(9, "d-positivity-characterization", "xOmega fails at d=1; I and Y to d=5", started, 60)


def test_criterion_10_selftest_determinism(capsys):
    started = time.time()
    code1 = main(["selftest", "--seed", "42", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["selftest", "--seed", "42", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.encode() == out2.encode()
    # the determinism canary is also pinned: same bytes as the committed golden run
    assert out1 == (Path(__file__).parent / "golden" / "selftest_seed42.json").read_text(encoding="utf-8")
    with capsys.disabled():
        _report(10, "selftest-determinism", "two byte-identical runs, equal to the golden file", started, 300)

"""Cross-checks between independent routes to the same answer."""

from random import Random

from taylorlab.beta import beta_step, bohm_tree, head_normalize, leftmost_redex
from taylorlab.gen import random_lambda_term
from taylorlab.lab import check_simulation
from taylorlab.resource_reduction import r_normalize
from taylorlab.syntax import (
    Lam,
    RationalSystem,
    Var,
    alpha_eq,
    parse_term,
    pretty,
    unfold,
)
from taylorlab.taylor import enumerate_taylor


def _normal_order_nf(t, max_steps=200):
    for _ in range(max_steps):
        pos = leftmost_redex(t)
        if pos is None:
            return t
        t = beta_step(t, pos)
    return None


def test_bohm_equals_normal_form_when_it_exists():
    # For terms that normalize outright, the tree is the normal form:
    # two independent routes (head machinery vs normal-order reduction).
    rng = Random(83)
    compared = 0
    while compared < 150:
        t = random_lambda_term(rng, 10)
        nf = _normal_order_nf(t)
        if nf is None:
            continue
        compared += 1
        depth = 12
        assert unfold(bohm_tree(t, depth, 500), depth) == unfold(nf, depth)


def test_simulation_along_normal_order_sequences():
    rng = Random(89)
    ran = 0
    while ran < 60:
        t = random_lambda_term(rng, 9)
        steps = []
        cur = t
        for _ in range(4):
            pos = leftmost_redex(cur)
            if pos is None:
                break
            steps.append(pos)
            cur = beta_step(cur, pos)
        if not steps:
            continue
        ran += 1
        assert check_simulation(t, steps, 7).verdict == "pass"


def test_nf_of_slice_is_subset_of_tree_slice():
    # one half of the commutation, on random terms, via plain set inclusion
    rng = Random(97)
    for _ in range(60):
        t = random_lambda_term(rng, 8)
        tree = bohm_tree(t, 9, 300)
        tree_slice = set(enumerate_taylor(tree, 8))
        for s in enumerate_taylor(t, 8):
            for u in r_normalize(s):
                assert u in tree_slice


def test_head_normalize_agrees_with_normal_order_prefix():
    rng = Random(101)
    checked = 0
    while checked < 100:
        t = random_lambda_term(rng, 9)
        run = head_normalize(t, 200)
        if not run.verdict.is_solvable:
            continue
        checked += 1
        nf = _normal_order_nf(t)
        if nf is not None:
            # outer binder structure of the head normal form survives
            a, b = run.term, nf
            while isinstance(a, Lam) and isinstance(b, Lam):
                a, b = a.body, b.body
            assert not isinstance(a, Lam) and not isinstance(b, Lam)


def test_letrec_binder_shadows_recname():
    sys = parse_term("let rec F = \\G. G f F in \\f. F G")
    assert isinstance(sys, RationalSystem)
    body = sys.equations["F"]
    # the inner G is the bound variable, the trailing F is the reference
    assert body == parse_term("let rec F = \\G. (G f) F in F").equations["F"]
    # f and the recursive occurrence both sit one argument edge down
    assert alpha_eq(unfold(sys, 2), parse_term("\\f. (\\G. (G f) (\\G. (G *) *)) G"))
    assert alpha_eq(
        unfold(sys, 3), parse_term("\\f. (\\G. (G f) (\\G. (G f) (\\G. (G *) *))) G")
    )


def test_nested_letrec_roundtrip():
    src = "let rec A = x (B A) and B = \\u. u A in A"
    sys = parse_term(src)
    again = parse_term(str(sys))
    assert isinstance(again, RationalSystem)
    for d in range(4):
        assert unfold(sys, d) == unfold(again, d)


def test_simulation_rejects_invalid_step_lists():
    import pytest

    from taylorlab.beta import InvalidPositionError, NotARedexError

    with pytest.raises(NotARedexError):
        check_simulation(parse_term("\\x. x"), [()], 5)
    with pytest.raises(InvalidPositionError):
        check_simulation(parse_term("(\\x. x) y"), [("body", "body")], 5)


def test_deep_terms_do_not_blow_the_stack():
    from support import power_apply, power_tail
    from taylorlab.syntax import FreeVar

    wide = power_apply(FreeVar("f"), FreeVar("x"), 300)
    tall = power_tail(FreeVar("x"), 300)
    assert alpha_eq(parse_term(pretty(wide)), wide)
    assert alpha_eq(parse_term(pretty(tall)), tall)
    assert bohm_tree(wide, 3, 10) is not None
    assert bohm_tree(tall, 3, 10) is not None

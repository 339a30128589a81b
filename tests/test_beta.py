import itertools
import random
import time

import pytest

import taylorlab.beta as beta
from taylorlab.beta import (
    BohmPrefix,
    DepthTooShallowError,
    InvalidPositionError,
    NotARedexError,
    OracleUndecidedError,
    applicative_depth,
    beta_step,
    bohm_tree,
    bot_step,
    head_form,
    head_normalize,
    head_redex_position,
    head_step,
    is_bohm_normal,
    min_depth_step,
    position_from_str,
    position_to_str,
    _resolve_at_head,
    stratify,
)
from taylorlab.gen import random_lambda_term
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    Lam,
    Var,
    alpha_eq,
    parse_term,
    pretty,
    rebuild,
    split_target,
    subterms,
    unfold,
)

from corpus import CORPUS, I, OMEGA, OMEGA3, SHARING, SHARING_SYS, TERMS, Y, Y_SYS
from support import depth_positions, loop_certified_oracle, stratify_per_position, subterm_at


def test_beta_step_root():
    assert beta_step(parse_term("(\\x. x) y"), ()) == FreeVar("y")


def test_beta_step_omega_self():
    assert beta_step(OMEGA, ()) == OMEGA


def test_beta_step_under_binder():
    assert alpha_eq(beta_step(parse_term("\\z. (\\x. x) z"), ("body",)), I)
    with pytest.raises(NotARedexError):
        beta_step(parse_term("\\z. z"), ())


def test_positions():
    assert position_to_str(("body", "arg", "fun")) == "body.arg.fun"
    assert position_from_str("body.arg.fun") == ("body", "arg", "fun")
    assert position_from_str("root") == ()
    assert applicative_depth(("body", "arg", "fun", "arg")) == 2


def test_a_bad_position_is_an_invalid_position():
    """An unknown component and a path that does not resolve raise the same
    class."""
    with pytest.raises(InvalidPositionError, match="bad position component 'up'"):
        position_from_str("body.up")
    with pytest.raises(InvalidPositionError, match="position body does not resolve"):
        subterm_at(parse_term("x y"), ("body",))


def test_head_form_examples():
    hf = head_form(parse_term("\\x. y x"))
    assert hf.binders == ("x",) and hf.head == FreeVar("y") and hf.spine == (Var(0),)
    hf = head_form(parse_term("((\\z. z) a) b"))
    assert hf.binders == () and hf.has_head_redex
    assert hf.head == parse_term("\\z. z") and hf.spine == (FreeVar("a"), FreeVar("b"))
    hf = head_form(Y)
    assert hf.binders == ("f",)
    # head and argument are the two copies of the self-application body,
    # which reference the peeled binder through a dangling index
    assert hf.has_head_redex
    assert hf.head == subterm_at(Y, ("body", "fun"))
    assert hf.spine == (subterm_at(Y, ("body", "arg")),)
    assert hf.rebuild() == Y


def test_head_step():
    assert head_step(parse_term("(\\x. x) y")) == FreeVar("y")
    hnf = parse_term("\\x. y x")
    assert head_step(hnf) == hnf
    assert head_step(OMEGA) == OMEGA
    assert alpha_eq(head_step(Y), parse_term("\\f. f ((\\x. f (x x)) (\\x. f (x x)))"))


def test_head_step_is_beta_step_at_the_head_redex():
    # a fixed point need not be head normal
    assert head_step(OMEGA) == OMEGA and not head_form(OMEGA).is_head_normal
    for seed in (19, 107):
        rng = random.Random(seed)
        for _ in range(400):
            t = random_lambda_term(rng, 12)
            hf = head_form(t)
            if hf.has_head_redex:
                assert head_step(t) == beta_step(t, head_redex_position(hf))
            else:
                assert hf.is_head_normal and head_step(t) == t


def test_head_normalize_two_steps():
    run = head_normalize(parse_term("((\\x. \\y. x) a) b"), 10)
    assert run.term == FreeVar("a")
    assert run.is_solvable and run.reason == "" and run.describe() == "solvable(2)"
    assert len(run.trace) == 2 and run.hnf == head_form(run.term)


@pytest.mark.parametrize("fuel", [1000, 3])
def test_every_run_records_the_head_forms_of_its_states(fuel):
    """Each run of a prefix keeps the head form of each state before a step,
    one per step (``bench/spans.py`` counts them, and ``describe`` names
    their number). Each rebuilds to a term whose head step, followed on a
    system by resolution at the head, reaches the next form, or the run's
    term after the last one. A run keeps the head form of its term exactly
    when that term is head normal, and then its reason is empty; otherwise
    the reason says why it stopped, and only a loop or bottom certifies."""
    rng = random.Random(31)
    targets = [parse_term(src) for src in TERMS] + [random_lambda_term(rng, 10) for _ in range(60)]
    steps = 0
    for target in targets:
        prefix = BohmPrefix(target, fuel)
        prefix.tree(4)
        for (_, stack), run in prefix.runs.items():
            n = len(run.trace)
            if run.hnf is not None:
                assert run.reason == "" and run.describe() == f"solvable({n})"
            else:
                assert run.reason in ("loop", "bottom", "fuel", "hole", "capture")
                assert run.describe() == f"unknown({run.reason}, {n} steps)"
            assert run.certified_unsolvable == (run.reason in ("loop", "bottom"))
            assert all(hf.has_head_redex for hf in run.trace)
            states = [hf.rebuild() for hf in run.trace] + [run.term]
            for before, after in zip(states, states[1:]):
                reduct = head_step(before)
                if prefix.system is not None:
                    reduct = _resolve_at_head(reduct, prefix.system, stack)
                assert reduct is after
            final = head_form(run.term)
            assert run.hnf == (final if final.is_head_normal else None)
            steps += len(run.trace)
    assert steps > len(targets)


def test_head_normalize_loop():
    run = head_normalize(OMEGA, 100)
    assert not run.is_solvable and run.reason == "loop"
    assert run.certified_unsolvable


def test_head_normalize_y():
    run = head_normalize(Y, 10)
    assert run.is_solvable and run.reason == "" and len(run.trace) == 1
    assert alpha_eq(run.term, parse_term("\\f. f ((\\x. f (x x)) (\\x. f (x x)))"))


def test_head_normalize_bottom_head():
    run = head_normalize(parse_term("\\x. _|_ y"), 5)
    assert run.certified_unsolvable and run.reason == "bottom"


@pytest.mark.parametrize("src", [SHARING, SHARING_SYS])
def test_a_run_that_shares_costs_the_term_graph(src):
    """Each state of the run is a graph of about a hundred nodes whose tree
    grows exponentially with the steps: substitution and the capture check
    walk the graph, so a thousand steps take well under a second."""
    term, system = split_target(parse_term(src))
    start = time.perf_counter()
    run = head_normalize(term, 1000, system)
    assert time.perf_counter() - start < 1.0
    assert run.describe() == "unknown(fuel, 1000 steps)"


def test_min_depth_step():
    t = parse_term("x ((\\y. y) z)")
    assert min_depth_step(t, 1, ("arg",)) == parse_term("x z")
    t2 = parse_term("((\\y. y) z) w")
    with pytest.raises(DepthTooShallowError):
        min_depth_step(t2, 1, ("fun",))
    # any step at depth >= 1 is also a valid step at depth >= 0
    assert min_depth_step(t, 0, ("arg",)) == parse_term("x z")


def test_bot_step():
    oracle = loop_certified_oracle(50)
    assert bot_step(parse_term("\\x. _|_"), (), oracle) == BOTTOM
    assert bot_step(parse_term("_|_ m"), (), oracle) == BOTTOM
    assert bot_step(OMEGA, (), oracle) == BOTTOM
    with pytest.raises(NotARedexError):
        bot_step(I, (), oracle)
    # a fuel-starved oracle refuses rather than guesses
    with pytest.raises(OracleUndecidedError):
        bot_step(OMEGA3, (), loop_certified_oracle(3))


def test_beta_and_bottom_steps_descend_once(monkeypatch):
    """Each step lists the subterms down its position once, and rebuilds the
    term up that same list."""
    walks = []
    original = beta._along

    def counting(t, pos):
        walks.append(pos)
        return original(t, pos)

    monkeypatch.setattr(beta, "_along", counting)
    oracle = loop_certified_oracle(50)
    at = ("arg", "body")
    collapsed = App(FreeVar("f"), Lam("y", BOTTOM))
    steps = [
        (lambda: beta_step(parse_term("f \\y. (\\x. x) y"), at), parse_term("f \\y. y")),
        # the three ways to collapse: a binder over bottom, bottom applied, and the oracle's certificate
        (lambda: bot_step(parse_term("f \\y. \\x. _|_"), at, oracle), collapsed),
        (lambda: bot_step(parse_term("f \\y. _|_ y"), at, oracle), collapsed),
        (lambda: bot_step(App(FreeVar("f"), Lam("y", OMEGA)), at, oracle), collapsed),
    ]
    for step, reduct in steps:
        walks.clear()
        assert step() is reduct
        assert walks == [at]


def test_solvable_examples():
    run = head_normalize(I, 10)
    assert run.is_solvable and run.reason == "" and len(run.trace) == 0
    assert head_normalize(OMEGA, 100).reason == "loop"
    run = head_normalize(parse_term("(\\x. \\y. y) ((\\x. x x) (\\x. x x))"), 10)
    assert run.is_solvable and run.reason == "" and len(run.trace) == 1


def test_bohm_tree_y():
    assert pretty(bohm_tree(Y, 3, 50), cut="◻") == "\\f. f (f (f ◻))"
    assert bohm_tree(Y, 5, 50) == unfold(Y_SYS, 5)


def test_bohm_tree_of_system():
    assert bohm_tree(Y_SYS, 3, 50) == unfold(Y_SYS, 3)


def test_bohm_tree_unsolvable_and_nf():
    assert bohm_tree(OMEGA, 5, 50) == BOTTOM
    assert bohm_tree(parse_term("\\x. _|_"), 5, 50) == BOTTOM
    assert bohm_tree(I, 5, 50) == I
    assert bohm_tree(parse_term("\\x. x ((\\y. y y) (\\y. y y))"), 4, 50) == parse_term("\\x. x _|_")


def test_bohm_tree_fuel_cut_not_bottom():
    assert bohm_tree(OMEGA3, 3, 5) == HOLE


def test_bohm_tree_prefix_stability():
    for d in range(1, 5):
        assert unfold(bohm_tree(Y, d, 50), d) == unfold(bohm_tree(Y, d + 1, 50), d)


def test_bohm_output_is_normal():
    rng = random.Random(43)
    for _ in range(200):
        t = random_lambda_term(rng, 10)
        assert is_bohm_normal(bohm_tree(t, 3, 60))


def test_depth_positions():
    t = parse_term("x ((\\y. y) z)")
    assert depth_positions(t, 0) == [()]
    assert depth_positions(t, 1) == [("arg",)]


def test_stratify_y():
    res = stratify(Y, 2, 50)
    assert res.diagnostic is None
    delta_f = "(\\x. f (x x)) (\\x. f (x x))"
    assert [pretty(t) for t in res.levels] == [
        pretty(Y),
        pretty(parse_term(f"\\f. f ({delta_f})")),
        pretty(parse_term(f"\\f. f (f ({delta_f}))")),
    ]


def test_stratify_normal_form_stutters():
    t = parse_term("\\x. x y")
    res = stratify(t, 3, 10)
    assert all(lvl == t for lvl in res.levels)
    assert all(not steps for steps in res.step_positions)


def test_stratify_replay():
    res = stratify(Y, 3, 50)
    for d, steps in enumerate(res.step_positions):
        cur = res.levels[d]
        for pos in steps:
            cur = min_depth_step(cur, d, pos)
        assert cur == res.levels[d + 1]


def test_stratify_leaves_divergent_subterms():
    res = stratify(OMEGA, 2, 50)
    assert res.levels == (OMEGA, OMEGA, OMEGA)


def test_stratify_fuel_exhaustion_diagnostic():
    res = stratify(OMEGA3, 2, 4)
    assert res.diagnostic is not None and "fuel" in res.diagnostic
    assert res.levels == (OMEGA3,)


def _spine(n, redex_every):
    """``f a0 .. a(n-1)``: every ``redex_every``-th argument is the redex
    ``(\\y. y) x``, the others are ``x``; also the level it stratifies to
    and the positions of its steps there."""
    x, f = FreeVar("x"), FreeVar("f")
    redex = App(Lam("y", Var(0)), x)
    t = level = f
    steps = []
    for k in range(n):
        fires = k % redex_every == 0
        t = App(t, redex if fires else x)
        level = App(level, x)
        if fires:
            steps.append(("fun",) * (n - 1 - k) + ("arg",))
    return t, level, tuple(steps)


def test_stratify_agrees_with_the_per_position_oracle():
    """One rebuild per level gives the levels, steps and diagnostic of the
    per-position walk it replaced: on the corpus, on seeded random terms,
    at a fuel that runs out, and on long spines."""
    rng = random.Random(61)
    terms = [parse_term(src) for src in CORPUS.values()]
    terms += [Y, OMEGA, OMEGA3, parse_term("x ((\\y. y) z) ((\\y. y y) (\\y. y y))")]
    terms += [random_lambda_term(rng, 12) for _ in range(200)]
    terms += [_spine(300, 7)[0], _spine(300, 1)[0]]
    for t in terms:
        for fuel in (4, 50):
            assert stratify(t, 3, fuel) == stratify_per_position(t, 3, fuel)


def _cut_level(level, depth, fuel):
    """A stratified level read as a Boehm prefix: every node at applicative
    depth ``depth`` is cut, and a node above it that is not head-normal is
    bottom when its run is certified unsolvable."""

    def node(u, _d, _hints, argdepth, path):
        if path is not None and path[0] != "arg":
            return None  # inside a node's head normal form
        if argdepth >= depth:
            return HOLE
        if head_form(u).is_head_normal:
            return None
        return BOTTOM if head_normalize(u, fuel).certified_unsolvable else u

    return rebuild(level, node)


def _plant(rng, t):
    """``t`` with a leaf drawn at random replaced by a closed unsolvable
    term, so that its Boehm tree may hold a bottom."""
    leaves = sum(not isinstance(u, (Lam, App)) for u, *_ in subterms(t))
    k, seen = rng.randrange(leaves), itertools.count()
    bad = rng.choice((OMEGA, OMEGA3))
    return rebuild(t, lambda u, *_: None if isinstance(u, (Lam, App)) or next(seen) != k else bad)


def test_stratify_reaches_the_boehm_tree():
    """Stage ``d`` head-normalizes the nodes at depth ``d``, so a level
    ``D`` without a diagnostic, cut at depth ``D``, is the Boehm prefix of
    that depth: on the corpus and on seeded random terms, some with an
    unsolvable leaf planted, at every ``D`` up to 3. At least a tenth of
    the random terms' trees hold a bottom."""
    rng = random.Random(67)
    corpus = [parse_term(src) for src in CORPUS.values()]
    corpus += [Y, OMEGA, parse_term("x ((\\y. y) z) ((\\y. y y) (\\y. y y))")]
    randoms = [random_lambda_term(rng, 12) for _ in range(400)]
    randoms += [_plant(rng, random_lambda_term(rng, 12)) for _ in range(400)]
    compared = random_trees = bottoms = 0
    for k, t in enumerate(corpus + randoms):
        for depth in range(4):
            res = stratify(t, depth, 60)
            if res.diagnostic is None:
                tree = bohm_tree(t, depth, 60)
                assert alpha_eq(_cut_level(res.levels[depth], depth, 60), tree), (pretty(t), depth)
                compared += 1
                if k >= len(corpus):
                    random_trees += 1
                    bottoms += any(u is BOTTOM for u, *_ in subterms(tree))
    assert compared > 2500 and bottoms >= random_trees / 10


def test_stratify_takes_ten_thousand_arguments():
    """Each level is rebuilt once, so a long spine stratifies in linear time;
    the per-position oracle, quadratic, is too slow at this length, so the
    known answer stands in for it."""
    t, level, steps = _spine(10_000, 10_001)
    res = stratify(t, 3, 10)
    assert res.diagnostic is None
    assert res.levels == (t, t, level, level) and res.step_positions == ((), steps, ())
    plain = level
    assert stratify(plain, 3, 10).levels == (plain,) * 4
    t, level, steps = _spine(10_000, 100)
    res = stratify(t, 2, 10)
    assert res.levels == (t, t, level) and res.step_positions == ((), steps)


def test_solvable_k_reaches_head_normal_form():
    rng = random.Random(53)
    for _ in range(300):
        t = random_lambda_term(rng, 10)
        run = head_normalize(t, 100)
        if run.is_solvable:
            cur = t
            for _ in range(len(run.trace)):
                cur = head_step(cur)
            assert head_form(cur).is_head_normal
            assert cur == run.term


def test_min_depth_monotone_on_recorded_steps():
    res = stratify(Y, 3, 50)
    for d, steps in enumerate(res.step_positions):
        if d == 0:
            continue
        cur = res.levels[d]
        for pos in steps:
            assert applicative_depth(pos) >= d
            # the same recorded step is valid at every smaller threshold
            assert min_depth_step(cur, d - 1, pos) == min_depth_step(cur, d, pos)
            cur = min_depth_step(cur, d, pos)

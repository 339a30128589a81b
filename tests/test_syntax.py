import pytest
from hypothesis import given, strategies as st

from taylorlab.beta import beta_step, head_normalize
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    GuardednessError,
    Lam,
    ParseError,
    RationalSystem,
    RecRef,
    UndefinedSymbolError,
    Var,
    alpha_eq,
    bind_free,
    context_fill,
    parse_term,
    pretty,
    pretty_system,
    rebuild,
    resolve_ref,
    subterms,
    unfold,
)
from taylorlab.taylor import enumerate_taylor

from support import power_apply, power_tail

I = parse_term("\\x. x")
OMEGA = parse_term("(\\x. x x) (\\x. x x)")
Y_SYS = parse_term("let rec F = f F in \\f. F")


def test_parse_identity():
    assert I == Lam("x", Var(0))


def test_parse_letrec_shape():
    assert isinstance(Y_SYS, RationalSystem)
    assert set(Y_SYS.equations) == {"F", "it"}
    assert Y_SYS.equations["F"] == parse_term("let rec F = f F in F").equations["F"]
    assert Y_SYS.equations["it"] == Lam("f", RecRef("F"))


def test_guardedness_rejected():
    with pytest.raises(GuardednessError) as err:
        parse_term("let rec G = \\x. G in G")
    assert "G" in str(err.value)


def test_guardedness_mutual():
    # A -> B unguarded, B -> A under an argument: the cycle is guarded.
    sys = parse_term("let rec A = \\x. B and B = x A in A")
    assert isinstance(sys, RationalSystem)
    with pytest.raises(GuardednessError):
        parse_term("let rec A = \\x. B and B = (A) x in A")


def test_guardedness_tree_pair():
    # infinite only through argument positions: fine
    ok = parse_term("let rec A = \\x. x A in A")
    assert isinstance(ok, RationalSystem)
    # infinite through abstraction bodies and function positions: rejected
    with pytest.raises(GuardednessError):
        parse_term("let rec A = \\x. A x in A")


def test_bare_recref_equation_rejected():
    with pytest.raises(Exception):
        parse_term("let rec F = G and G = f F in \\f. F")


def test_alpha_eq():
    assert alpha_eq(parse_term("\\x. x"), parse_term("\\y. y"))
    assert not alpha_eq(parse_term("\\x. \\y. x"), parse_term("\\x. \\y. y"))
    assert alpha_eq(parse_term("(\\x. x) z"), parse_term("(\\y. y) z"))


def _beta_subst(m, x, n):
    # m[n/x], computed by firing the redex (\x. m) n at the root.
    return beta_step(App(Lam(x, bind_free(m, (x,))), n), ())


def _close(n):
    return rebuild(n, lambda u, *_: I if isinstance(u, FreeVar) else None)


def test_subst_base_cases():
    assert _beta_subst(FreeVar("x"), "x", FreeVar("y")) == FreeVar("y")
    assert _beta_subst(App(FreeVar("x"), FreeVar("x")), "x", I) == App(I, I)


def _free_names(t):
    return {u.name for u, *_ in subterms(t) if isinstance(u, FreeVar)}


def _system_free_names(target):
    # every free name of a system shows within its first few unfoldings here
    return _free_names(unfold(target, 4))


def test_free_vars():
    assert _system_free_names(parse_term("\\x. x y")) == {"y"}
    assert _system_free_names(OMEGA) == set()
    assert _system_free_names(Y_SYS) == set()
    assert _system_free_names(parse_term("let rec F = (x) (\\x. F) in F")) == {"x"}


def test_print_renames_a_binder_that_would_capture():
    # \y. y with a free y in the body: the binder hint must print renamed.
    t = Lam("y", FreeVar("y"))
    text = pretty(t)
    assert text == "\\y'. y"
    assert alpha_eq(parse_term(text), t)


def test_unfold_y_star():
    f = FreeVar  # noqa: F841 - readability only
    assert unfold(Y_SYS, 0) == HOLE
    two = unfold(Y_SYS, 2)
    assert pretty(two, cut="?") == "\\f. f (f ?)"
    assert two == Lam("f", App(Var(0), App(Var(0), HOLE)))


def test_unfold_prefix_stability():
    a = unfold(Y_SYS, 3)
    b = unfold(Y_SYS, 4)
    assert unfold(a, 3) == unfold(b, 3)


def test_unfold_plain_term_fixpoint():
    t = parse_term("\\x. x (y z)")
    assert unfold(t, 5) == t
    assert unfold(t, 1) == parse_term("\\x. x *")


def test_a_reference_without_a_system_is_unresolved():
    # one policy, in resolve_ref, for every reader of a reference
    f = RecRef("F")
    for read in (
        lambda: resolve_ref(f, None, ()),
        lambda: unfold(App(f, FreeVar("x")), 3),
        lambda: head_normalize(Lam("x", App(f, Var(0))), 10),
        lambda: enumerate_taylor(App(FreeVar("x"), f), 5),
    ):
        with pytest.raises(UndefinedSymbolError, match="unresolved symbol 'F'"):
            read()


def test_power_shapes():
    x, y = FreeVar("x"), FreeVar("y")
    assert power_apply(x, y, 0) == x
    assert power_apply(x, y, 2) == parse_term("(x y) y")
    assert power_tail(y, 3) == parse_term("y (y y)")
    assert power_tail(y, 1) == y
    with pytest.raises(ValueError):
        power_tail(y, 0)


def test_context_fill():
    assert alpha_eq(context_fill(parse_term("(\\y. y) *"), OMEGA), App(I, OMEGA))
    assert alpha_eq(context_fill(HOLE, OMEGA), OMEGA)
    # Grafting under a binder: the free x of the plug is captured.
    c = parse_term("\\x. * x")
    assert alpha_eq(context_fill(c, FreeVar("y")), parse_term("\\x. y x"))
    assert alpha_eq(context_fill(c, FreeVar("x")), parse_term("\\x. x x"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_term("\\x. (x")
    assert err.value.pos == 6
    with pytest.raises(ParseError):
        parse_term("")


def test_parenthesized_function_application():
    assert parse_term("(x)y") == App(FreeVar("x"), FreeVar("y"))
    assert parse_term("x y z") == App(App(FreeVar("x"), FreeVar("y")), FreeVar("z"))


def test_bottom_and_hole_tokens():
    assert parse_term("_|_") == BOTTOM
    assert parse_term("⊥") == BOTTOM
    assert parse_term("*") == HOLE
    assert parse_term("◻") == HOLE


def test_system_roundtrip():
    text = pretty_system(Y_SYS)
    again = parse_term(text)
    assert isinstance(again, RationalSystem)
    assert unfold(again, 4) == unfold(Y_SYS, 4)


def test_binder_shadowing_print():
    t = Lam("x", Lam("x", App(Var(1), Var(0))))
    text = pretty(t)
    assert alpha_eq(parse_term(text), t)


names = st.sampled_from(["x", "y", "z", "u", "v"])


@st.composite
def lambda_terms(draw, max_depth=5):
    depth = draw(st.integers(0, max_depth))

    def build(d, binders):
        choices = ["free"]
        if binders:
            choices.append("var")
        if d > 0:
            choices += ["lam", "app", "app"]
        kind = draw(st.sampled_from(choices))
        if kind == "var":
            return Var(draw(st.integers(0, binders - 1)))
        if kind == "free":
            return FreeVar(draw(names))
        if kind == "lam":
            return Lam(draw(names), build(d - 1, binders + 1))
        return App(build(d - 1, binders), build(d - 1, binders))

    return build(depth, 0)


@given(lambda_terms())
def test_roundtrip_random(t):
    assert alpha_eq(parse_term(pretty(t)), t)


def _to_named(t, env):
    # Independent named-term view used by the substitution oracle.
    if isinstance(t, Var):
        return ("var", env[t.index])
    if isinstance(t, FreeVar):
        return ("var", t.name)
    if isinstance(t, Lam):
        fresh = f"b{len(env)}"
        return ("lam", fresh, _to_named(t.body, (fresh,) + env))
    if isinstance(t, App):
        return ("app", _to_named(t.fn, env), _to_named(t.arg, env))
    raise AssertionError(t)


def _naive_subst(named, x, named_n):
    # Textbook substitution; safe because the replacement is closed.
    tag = named[0]
    if tag == "var":
        return named_n if named[1] == x else named
    if tag == "lam":
        if named[1] == x:
            return named
        return ("lam", named[1], _naive_subst(named[2], x, named_n))
    return ("app", _naive_subst(named[1], x, named_n), _naive_subst(named[2], x, named_n))


def _from_named(named, env):
    tag = named[0]
    if tag == "var":
        for i, name in enumerate(env):
            if name == named[1]:
                return Var(i)
        return FreeVar(named[1])
    if tag == "lam":
        return Lam(named[1], _from_named(named[2], (named[1],) + env))
    return App(_from_named(named[1], env), _from_named(named[2], env))


@given(lambda_terms(), lambda_terms(max_depth=3), names)
def test_subst_matches_naive_reference_on_closed(m, n, x):
    n = _close(n)
    assert not _free_names(n)
    got = _beta_subst(m, x, n)
    expected = _from_named(_naive_subst(_to_named(m, ()), x, _to_named(n, ())), ())
    assert alpha_eq(got, expected)


def test_subst_matches_naive_reference_bulk():
    from random import Random

    from taylorlab.gen import random_lambda_term

    rng = Random(71)
    for _ in range(1000):
        m = random_lambda_term(rng, 10)
        n = _close(random_lambda_term(rng, 6))
        x = rng.choice(["x", "y", "z"])
        got = _beta_subst(m, x, n)
        expected = _from_named(_naive_subst(_to_named(m, ()), x, _to_named(n, ())), ())
        assert alpha_eq(got, expected)

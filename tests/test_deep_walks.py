"""Every λ-side map and fold on terms 10,000 deep: binder chains, argument
lists and nested arguments, and ``beta_step`` and ``head_normalize`` on top of
them, and ``alpha_eq``; parse→print round trips of both grammars as deep, and
the height of resource terms.
Python's recursion limit is about 1,000, so none of these may recurse on the
term. Results are checked by walking them with loops or by identity, since
nodes are hash-consed."""

from taylorlab.beta import (
    _shift,
    beta_step,
    head_normalize,
    is_bohm_normal,
    leftmost_redex,
    open_bound,
    replace_at,
)
from taylorlab.lab import _prefix_status
from taylorlab.resource import ONE, monomial, parse_resource_term, pretty_resource, r_height, rapp, rfvar, rlam, rvar
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    Hole,
    Lam,
    RationalSystem,
    RecRef,
    Var,
    alpha_eq,
    bind_free,
    context_fill,
    parse_term,
    pretty,
    unfold,
)

from support import depth_positions, power_apply, power_tail

N = 10_000
X, Y = FreeVar("x"), FreeVar("y")


def binders(body, n=N, hint="x"):
    """``\\x. \\x. ... body`` with ``n`` binders."""
    for _ in range(n):
        body = Lam(hint, body)
    return body


def peel(t, n=N):
    """The body under ``n`` binders, each checked to be there."""
    for _ in range(n):
        assert isinstance(t, Lam)
        t = t.body
    return t


def spine(t):
    """Head and arguments of an application chain, first argument first."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, args[::-1]


def nested(t):
    """How deep ``t`` nests in argument position, and what ends it."""
    k = 0
    while isinstance(t, App):
        t, k = t.arg, k + 1
    return k, t


def test_deep_maps():
    assert peel(bind_free(binders(Y), ("y",))).index == N
    assert peel(context_fill(Lam("y", binders(HOLE, N - 1)), Y)).index == N - 1
    assert peel(_shift(binders(Var(N)), 3)).index == N + 3
    assert peel(open_bound(binders(Var(N)), Y)) is Y

    head, args = spine(bind_free(power_apply(FreeVar("f"), X, N), ("x",)))
    assert head.name == "f" and len(args) == N and all(a is Var(0) for a in args)
    k, end = nested(_shift(power_tail(Var(0), N), 1))
    assert k == N - 1 and end.index == 1

    k, end = nested(unfold(power_tail(X, N), N + 1))
    assert k == N - 1 and end is X
    k, end = nested(unfold(power_tail(X, N), N // 2))
    assert k == N // 2 and isinstance(end, Hole)
    k, end = nested(unfold(RationalSystem({"F": App(X, RecRef("F"))}, "F"), N))
    assert k == N and isinstance(end, Hole)

    deep_arg = ("arg",) * (N - 1)
    k, end = nested(replace_at(power_tail(X, N), deep_arg, Y))
    assert k == N - 1 and end is Y
    assert peel(replace_at(binders(X), ("body",) * N, Y)) is Y


def test_deep_folds():
    redex = App(Lam("z", Var(0)), X)
    assert leftmost_redex(binders(redex)) == ("body",) * N
    assert leftmost_redex(power_apply(X, X, N)) is None
    assert leftmost_redex(App(power_apply(X, X, N), redex)) == ("arg",)
    assert is_bohm_normal(binders(X)) and is_bohm_normal(power_tail(X, N))
    assert not is_bohm_normal(binders(Lam("z", BOTTOM)))
    assert depth_positions(power_tail(X, N), N - 1) == [("arg",) * (N - 1)]
    assert len(depth_positions(power_apply(X, X, N), 1)) == N
    assert _prefix_status(power_tail(BOTTOM, N), N) == "bottom"
    assert _prefix_status(power_tail(HOLE, N), N - 1) == "cut"
    assert _prefix_status(binders(HOLE), 0) == "cut"


def test_deep_systems():
    deep = RationalSystem({"F": binders(App(App(X, FreeVar("w")), RecRef("F")))}, "F")
    assert isinstance(peel(unfold(deep, 1)), App)


def test_deep_beta():
    # the redex sits under N binders and its body under N more
    m = binders(App(Lam("z", binders(Var(N))), Y))
    out = beta_step(m, ("body",) * N)
    assert peel(peel(out)) is Y
    run = head_normalize(m, 5)
    assert run.verdict.is_solvable and run.verdict.steps == 1
    assert peel(peel(run.term)) is Y
    # a head redex whose argument list is N long
    run = head_normalize(power_apply(Lam("z", Var(0)), X, N), 5)
    head, args = spine(run.term)
    assert run.verdict.is_solvable and head is X and len(args) == N - 1


def test_deep_loop_detection():
    omega = App(Lam("x", App(Var(0), Var(0))), Lam("x", App(Var(0), Var(0))))
    assert head_normalize(binders(omega), 5).verdict.describe() == "unknown(loop, 1 steps)"


def test_deep_alpha_eq():
    def deep(hint, end):
        """N binders over an argument chain N deep that ends in ``end``."""
        return binders(App(power_tail(X, N - 1), end), hint=hint)

    a = deep("x", Var(N - 1))
    assert a is not deep("y", Var(N - 1)) and alpha_eq(a, deep("y", Var(N - 1)))
    assert not alpha_eq(a, deep("x", Var(N - 2)))
    assert not alpha_eq(a, deep("x", App(X, X)))


def test_deep_lambda_round_trips():
    f = FreeVar("f")
    arg_binders = X
    for _ in range(N):
        arg_binders = App(f, Lam("x", arg_binders))
    terms = {
        "binders": binders(Var(0)),
        "binders renamed": binders(Var(N - 1)),  # every inner binder is printed x'
        "binders over a free name": binders(X),
        "argument list": power_apply(f, X, N),
        "nested arguments": power_tail(X, N),
        "binders in arguments": arg_binders,
    }
    for name, t in terms.items():
        text = pretty(t)
        back = parse_term(text)
        assert alpha_eq(back, t) and pretty(back) == text, name
    assert pretty(terms["binders renamed"]).startswith("\\x. \\x'. \\x'.")
    assert parse_term(pretty(terms["nested arguments"])) is terms["nested arguments"]
    assert parse_term("(" * N + "x" + ")" * N) is X
    assert parse_term("(" * N + "\\x. " * N + "x" + ")" * N) is terms["binders"]


def test_deep_resource_round_trips():
    x = rfvar("x")
    terms = [rvar(N - 1), x, rapp(x, ONE)]
    for _ in range(N):
        terms = [rlam(terms[0]), rapp(terms[1], ONE), rapp(x, monomial([terms[2], x]))]
    for t in terms:
        assert parse_resource_term(pretty_resource(t)) is t
    assert parse_resource_term("(" * N + "x" + ")" * N) is x


def test_deep_resource_height():
    x = rfvar("x")
    t = x
    for _ in range(N):
        t = rapp(x, monomial([t]))  # <x>[<x>[... x ...]]
    assert r_height(t) == N
    assert r_height(t.mono) == N

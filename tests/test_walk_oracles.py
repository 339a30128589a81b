"""The λ-side maps and folds, written as callbacks on ``syntax.subterms`` and
``syntax.rebuild``, and the explicit-stack printers of both calculi, against
frozen copies of the recursive walkers they replaced (``walk_oracles``), on
seeded random terms, contexts, ``let rec`` systems and resource terms. Terms
are hash-consed and compared by identity, so binder hints must agree too."""

import re
from random import Random

from taylorlab.beta import (
    InvalidPositionError,
    _captures,
    _shift,
    bohm_tree,
    head_form,
    is_bohm_normal,
    leftmost_redex,
    open_bound,
    replace_at,
)
from taylorlab.cli import _bohm_dot
from taylorlab.lab import _prefix_status
from taylorlab.resource import HOLE_R, monomial, pretty_resource, rapp, rfvar, rlam, rvar
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    GuardednessError,
    Lam,
    LambdaError,
    RationalSystem,
    RecRef,
    Var,
    alpha_eq,
    bind_free,
    context_fill,
    parse_term,
    pretty,
    pretty_system,
    unfold,
)

from support import depth_positions
from walk_oracles import (
    old_bind_free,
    old_bohm_dot,
    old_bohm_tree,
    old_captures,
    old_context_fill,
    old_depth_positions,
    old_is_bohm_normal,
    old_leftmost_redex,
    old_open_bound,
    old_prefix_status,
    old_pretty,
    old_pretty_resource,
    old_replace_at,
    old_shift,
    old_unfold,
    old_unguarded_cycle,
)

NAMES = ("x", "y", "f")
SYMBOLS = ("F", "G", "H")


def _term(rng, size, depth=0, symbols=(), holes=False, names=NAMES):
    """A random term whose binder hints and free names overlap, so that
    grafting captures; some indices point past every binder."""
    roll = rng.random()
    if size <= 1 or roll < 0.2:
        leaf = rng.random()
        if symbols and leaf < 0.25:
            return RecRef(rng.choice(symbols))
        if holes and leaf < 0.4:
            return HOLE
        if leaf < 0.5:
            return BOTTOM if rng.random() < 0.3 else FreeVar(rng.choice(names + ("z",)))
        return Var(rng.randrange(depth + 2))
    if roll < 0.45:
        return Lam(rng.choice(names), _term(rng, size - 1, depth + 1, symbols, holes, names))
    if roll < 0.6:
        fn = Lam(rng.choice(names), _term(rng, size // 2, depth + 1, symbols, holes, names))
    else:
        fn = _term(rng, size // 2, depth, symbols, holes, names)
    return App(fn, _term(rng, size - 1 - size // 2, depth, symbols, holes, names))


def _positions(t):
    out = [()]
    work = [(t, ())]
    while work:
        u, pos = work.pop()
        if isinstance(u, Lam):
            kids = [(u.body, pos + ("body",))]
        elif isinstance(u, App):
            kids = [(u.fn, pos + ("fun",)), (u.arg, pos + ("arg",))]
        else:
            kids = []
        out += [p for _, p in kids]
        work += kids
    return out


def test_maps_match_the_recursive_walkers():
    rng = Random(1212)
    for _ in range(3000):
        t = _term(rng, rng.randint(1, 14))
        n = _term(rng, rng.randint(1, 5))
        hints = tuple(rng.sample(NAMES, rng.randint(0, 3)))
        assert bind_free(t, hints) is old_bind_free(t, hints)
        d = rng.randint(0, 3)
        assert _shift(t, d) is old_shift(t, d, 0)
        assert open_bound(t, n) is old_open_bound(t, n)
        for k in range(5):
            assert unfold(t, k) is old_unfold(t, k)
        for pos in _positions(t) + [("body",) * 3, ("arg", "fun", "arg")]:
            want = old_replace_at(t, pos, n)
            try:
                got = replace_at(t, pos, n)
            except InvalidPositionError:
                got = None
            assert (got is None and want is None) or got is want, pos


def test_context_fill_matches_the_recursive_walker():
    rng = Random(1213)
    for _ in range(3000):
        c = _term(rng, rng.randint(1, 14), holes=True)
        m = _term(rng, rng.randint(1, 6), holes=rng.random() < 0.2)
        assert context_fill(c, m) is old_context_fill(c, m)


def test_folds_match_the_recursive_walkers():
    rng = Random(1214)
    for _ in range(3000):
        t = _term(rng, rng.randint(1, 16), holes=True)
        assert leftmost_redex(t) == old_leftmost_redex(t)
        assert is_bohm_normal(t) == old_is_bohm_normal(t)
        for d in range(4):
            assert depth_positions(t, d) == old_depth_positions(t, d)
            assert _prefix_status(t, d) == old_prefix_status(t, d)


def test_systems_match_the_recursive_walkers():
    rng = Random(1215)
    built = rejected = 0
    for _ in range(3000):
        symbols = SYMBOLS[: rng.randint(1, 3)]
        equations = {s: _term(rng, rng.randint(1, 10), symbols=symbols) for s in symbols}
        cycle = old_unguarded_cycle(equations)
        try:
            system = RationalSystem(equations, symbols[0])
        except GuardednessError as err:
            assert err.cycle == cycle
            rejected += 1
            continue
        except LambdaError:  # an equation that is a bare reference
            continue
        assert cycle is None
        built += 1
        for k in range(5):
            assert unfold(system, k) is old_unfold(system, k)
    assert built > 500 and rejected > 100


def test_bohm_tree_matches_the_recursive_walker():
    """On terms and on guarded systems, with bottoms, loops, fuel cuts and
    captures, at every depth up to 4."""
    rng = Random(1222)
    inputs = [_term(rng, rng.randint(1, 14)) for _ in range(1500)]
    while len(inputs) < 3000:
        symbols = SYMBOLS[: rng.randint(1, 3)]
        equations = {s: _term(rng, rng.randint(1, 10), symbols=symbols) for s in symbols}
        try:
            inputs.append(RationalSystem(equations, symbols[0]))
        except LambdaError:
            continue
    for t in inputs:
        for fuel in (2, 20):
            for k in range(5):
                assert bohm_tree(t, k, fuel) is old_bohm_tree(t, k, fuel)


def test_capture_guard_matches_its_own_walk():
    rng = Random(1216)
    caught = 0
    for _ in range(3000):
        lam = Lam(rng.choice(NAMES), _term(rng, rng.randint(1, 10), 1, symbols=SYMBOLS))
        arg = _term(rng, rng.randint(1, 4), symbols=SYMBOLS)
        names = frozenset(rng.sample(NAMES, rng.randint(1, 2)))
        got = _captures(head_form(App(lam, arg)), names)
        assert got == old_captures(lam, arg, names)
        caught += got
    assert 300 < caught < 2700


def test_printer_matches_the_recursive_printer():
    rng = Random(1217)
    for _ in range(3000):
        t = _term(rng, rng.randint(1, 16), symbols=SYMBOLS, holes=True)
        cut = rng.choice(("*", "◻"))
        avoid = frozenset(rng.sample(NAMES + SYMBOLS, rng.randint(0, 2)))
        assert pretty(t, cut, avoid) == old_pretty(t, cut, avoid)


def test_printer_matches_the_recursive_printer_on_primed_names():
    """Hints, free names and names to avoid that already end in primes:
    ``Naming`` counts primes on a base name where the frozen printer
    appended them to whole names, so both must try the same names."""
    terms = [parse_term(text) for text in (r"\x'. \x. x' x", r"\x. x x'", r"\x'. \x. x x' x''")]
    clash = Lam("x", Lam("x'", Lam("x", App(App(App(Var(2), Var(1)), Var(0)), FreeVar("x''")))))
    assert pretty(clash) == r"\x. \x'. \x'''. x x' x''' x''"
    for t in terms + [clash]:
        assert pretty(t) == old_pretty(t)
    assert pretty(parse_term(r"\x. x x'"), avoid=frozenset({"x", "x''"})) == r"\x'''. x''' x'"
    rng = Random(1221)
    primed = ("x", "x'", "x''", "y'")
    for _ in range(2000):
        t = _term(rng, rng.randint(1, 16), symbols=SYMBOLS, names=primed)
        avoid = frozenset(rng.sample(primed + SYMBOLS, rng.randint(0, 2)))
        assert pretty(t, "*", avoid) == old_pretty(t, "*", avoid)


def test_system_printer_matches_the_recursive_printer():
    rng = Random(1218)
    printed = 0
    for _ in range(1000):
        symbols = SYMBOLS[: rng.randint(1, 3)]
        equations = {s: _term(rng, rng.randint(1, 10), symbols=symbols) for s in symbols}
        try:
            system = RationalSystem(equations, symbols[0])
        except LambdaError:
            continue
        syms = frozenset(symbols)
        want = " and ".join(f"{s} = {old_pretty(body, avoid=syms)}" for s, body in equations.items())
        assert pretty_system(system) == f"let rec {want} in {symbols[0]}"
        printed += 1
    assert printed > 200


R_NAMES = ("a", "b", "x", "a'")


def _rterm(rng, size, depth=0):
    """A random resource term whose free names clash with the printed
    binder names; some indices point past every binder."""
    roll = rng.random()
    if size <= 1 or roll < 0.2:
        leaf = rng.random()
        if leaf < 0.1:
            return HOLE_R
        if leaf < 0.5:
            return rfvar(rng.choice(R_NAMES))
        return rvar(rng.randrange(depth + 2))
    if roll < 0.5:
        return rlam(_rterm(rng, size - 1, depth + 1))
    elems = [_rterm(rng, size // 4, depth) for _ in range(rng.randint(0, 3))]
    return rapp(_rterm(rng, size // 2, depth), monomial(elems))


def test_resource_printer_matches_the_recursive_printer():
    rng = Random(1219)
    for _ in range(3000):
        t = _rterm(rng, rng.randint(1, 20))
        assert pretty_resource(t) == old_pretty_resource(t)


_DOT_NODE = re.compile(r'  n(\d+) \[label="(.*)"\];')
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


def _dot_text(dot):
    """The term a dot graph draws, written out in full parentheses."""
    labels, kids = {}, {}
    for line in dot.splitlines():
        if m := _DOT_NODE.fullmatch(line):
            labels[int(m[1])] = m[2].replace("\\\\", "\\")
        elif m := _DOT_EDGE.fullmatch(line):
            kids.setdefault(int(m[1]), []).append(int(m[2]))

    def text(n):
        label, below = labels[n], [text(k) for k in kids.get(n, [])]
        if label == "@":
            return f"({below[0]}) ({below[1]})"
        return f"({label}. {below[0]})" if label.startswith("\\") else label

    return text(0)


def test_dot_printer_draws_the_printed_term():
    """The dot graph names binders as ``pretty`` does, so read back it is
    the term; the frozen printer, which used the raw hints, agrees with it
    where no binder is renamed and draws another term on some inputs."""
    rng = Random(1220)
    misdrawn = 0
    for _ in range(3000):
        t = _term(rng, rng.randint(1, 16), holes=True)
        if "#" in pretty(t):
            continue
        dot = _bohm_dot(t)
        assert alpha_eq(parse_term(_dot_text(dot)), t)
        if "'" not in pretty(t):
            assert dot == old_bohm_dot(t)
        misdrawn += not alpha_eq(parse_term(_dot_text(old_bohm_dot(t))), t)
    assert misdrawn > 50

"""The λ-side maps and folds, written as callbacks on ``syntax.subterms`` and
``syntax.rebuild``, against frozen copies of the recursive walkers they
replaced (``walk_oracles``), on seeded random terms, contexts and ``let rec``
systems. Terms are hash-consed and compared by identity, so binder hints
must agree too."""

from random import Random

from taylorlab.beta import (
    InvalidPositionError,
    _captures,
    _shift,
    depth_positions,
    head_form,
    is_bohm_normal,
    leftmost_redex,
    open_bound,
    replace_at,
)
from taylorlab.lab import _prefix_status
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
    bind_free,
    context_fill,
    unfold,
)

from walk_oracles import (
    old_bind_free,
    old_captures,
    old_context_fill,
    old_depth_positions,
    old_is_bohm_normal,
    old_leftmost_redex,
    old_open_bound,
    old_prefix_status,
    old_replace_at,
    old_shift,
    old_unfold,
    old_unguarded_cycle,
)

NAMES = ("x", "y", "f")
SYMBOLS = ("F", "G", "H")


def _term(rng, size, depth=0, symbols=(), holes=False):
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
            return BOTTOM if rng.random() < 0.3 else FreeVar(rng.choice(NAMES + ("z",)))
        return Var(rng.randrange(depth + 2))
    if roll < 0.45:
        return Lam(rng.choice(NAMES), _term(rng, size - 1, depth + 1, symbols, holes))
    if roll < 0.6:
        fn = Lam(rng.choice(NAMES), _term(rng, size // 2, depth + 1, symbols, holes))
    else:
        fn = _term(rng, size // 2, depth, symbols, holes)
    return App(fn, _term(rng, size - 1 - size // 2, depth, symbols, holes))


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
        d, cutoff = rng.randint(0, 3), rng.randint(0, 2)
        assert _shift(t, d, cutoff) is old_shift(t, d, cutoff)
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

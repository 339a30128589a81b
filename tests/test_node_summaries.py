"""Node summaries and the opening cache, cross-checked against slow
references: ``_reference_replace`` is the linear substitution as it was
before nodes carried summaries (every subterm rebuilt once per distinct
ordering, no pruning, no cache), and ``_summary`` recomputes a node's
``loose`` and ``redex`` from scratch."""

from itertools import permutations
from random import Random

import pytest

from taylorlab.resource import (
    HOLE_R,
    ZERO,
    FiniteSum,
    Monomial,
    RApp,
    RFreeVar,
    RHole,
    RLam,
    RVar,
    _rshift,
    monomial,
    open_binder,
    open_redex,
    parse_resource_term,
    pretty_resource,
    r_context_fill,
    r_subst,
    rapp,
    rfvar,
    rlam,
    rvar,
    union_all,
)
from taylorlab.resource_reduction import (
    first_redex_site,
    head_split,
    hr_step,
    normalize_with,
    r_normalize,
    r_step,
    redex_sites,
)

# ---------------------------------------------------------------------------
# Slow references


def _reference_shift(t, d, cutoff=0):
    if isinstance(t, RVar):
        return rvar(t.index + d) if t.index >= cutoff else t
    if isinstance(t, RLam):
        return rlam(_reference_shift(t.body, d, cutoff + 1))
    if isinstance(t, RApp):
        return rapp(_reference_shift(t.fn, d, cutoff), monomial(_reference_shift(e, d, cutoff) for e in t.mono))
    return t


def _is_bound(u, c):
    return isinstance(u, RVar) and u.index == c


def _count(u, match, c=0):
    if match(u, c):
        return 1
    if isinstance(u, RLam):
        return _count(u.body, match, c + 1)
    if isinstance(u, RApp):
        return _count(u.fn, match, c) + sum(_count(e, match, c) for e in u.mono)
    return 0


def _reference_replace(t, match, mono, adjust_bound):
    """Every subterm rebuilt once per distinct ordering of ``mono``."""
    if _count(t, match) != len(mono):
        return ZERO
    results = set()
    for order in set(permutations(mono.elems)):
        k = 0

        def rebuild(u, c):
            nonlocal k
            if match(u, c):
                k += 1
                return _reference_shift(order[k - 1], c) if adjust_bound else order[k - 1]
            if isinstance(u, RVar):
                return rvar(u.index - 1) if adjust_bound and u.index > c else u
            if isinstance(u, RLam):
                return rlam(rebuild(u.body, c + 1))
            if isinstance(u, RApp):
                fn = rebuild(u.fn, c)
                return rapp(fn, monomial(tuple(rebuild(e, c) for e in u.mono)))
            return u

        results.add(rebuild(t, 0))
    return FiniteSum(results)


def _reference_open(body, mono):
    return _reference_replace(body, _is_bound, mono, True)


def _reference_sites(t, path=()):
    """Every redex position, outermost first, walking every node."""
    out = []
    if isinstance(t, RApp):
        if isinstance(t.fn, RLam):
            out.append(path)
        out += _reference_sites(t.fn, path + ("fun",))
        for i, e in enumerate(t.mono):
            out += _reference_sites(e, path + (("arg", i),))
    elif isinstance(t, RLam):
        out += _reference_sites(t.body, path + ("body",))
    return out


def _reference_step(t, site):
    if not site:
        return _reference_open(t.fn.body, t.mono)
    head, rest = site[0], site[1:]
    if head == "body":
        return FiniteSum(rlam(u) for u in _reference_step(t.body, rest))
    if head == "fun":
        return FiniteSum(rapp(u, t.mono) for u in _reference_step(t.fn, rest))
    i, elems = head[1], t.mono.elems
    return FiniteSum(rapp(t.fn, monomial(elems[:i] + (u,) + elems[i + 1 :])) for u in _reference_step(elems[i], rest))


def _reference_hr_step(t):
    binders, head, monos = head_split(t)
    if not (isinstance(head, RLam) and monos):
        return FiniteSum((t,))
    out = set()
    for u in _reference_open(head.body, monos[0]):
        for m in monos[1:]:
            u = rapp(u, m)
        for _ in range(binders):
            u = rlam(u)
        out.add(u)
    return FiniteSum(out)


def _reference_normalize(t, memo):
    got = memo.get(t)
    if got is None:
        sites = _reference_sites(t)
        if not sites:
            got = FiniteSum((t,))
        else:
            got = union_all(_reference_normalize(u, memo) for u in _reference_step(t, sites[0]))
        memo[t] = got
    return got


def _summary(x):
    """``(loose, redex)`` of a term or monomial, from scratch."""
    if isinstance(x, Monomial):
        subs = [_summary(e) for e in x]
        return max((s[0] for s in subs), default=0), any(s[1] for s in subs)
    if isinstance(x, RVar):
        return x.index + 1, False
    if isinstance(x, RLam):
        loose, redex = _summary(x.body)
        return max(loose - 1, 0), redex
    if isinstance(x, RApp):
        fn, mono = _summary(x.fn), _summary(x.mono)
        return max(fn[0], mono[0]), fn[1] or mono[1] or isinstance(x.fn, RLam)
    assert isinstance(x, (RFreeVar, RHole))
    return 0, False


def _nodes(x):
    yield x
    if isinstance(x, Monomial):
        for e in x:
            yield from _nodes(e)
    elif isinstance(x, RLam):
        yield from _nodes(x.body)
    elif isinstance(x, RApp):
        yield from _nodes(x.fn)
        yield from _nodes(x.mono)


def _assert_summaries(*terms):
    for t in terms:
        for node in _nodes(t):
            assert (node.loose, node.redex) == _summary(node), pretty_resource(t)


def _cool(t):
    """Forget every opening cached inside ``t``, so the next one is cold."""
    for node in _nodes(t):
        if isinstance(node, RApp):
            node.fired = None


# ---------------------------------------------------------------------------
# Random open terms


def _term(rng, size, depth):
    """About ``size`` nodes under ``depth`` binders. Indices may escape the
    term by up to two, redexes are planted often, and monomials hold 0-4
    elements, sometimes with repeats."""
    if size <= 1:
        r = rng.random()
        if r < 0.6:
            return rvar(rng.randrange(depth + 2))
        return HOLE_R if r < 0.65 else rfvar(rng.choice("xyz"))
    if rng.random() < 0.3:
        return rlam(_term(rng, size - 1, depth + 1))
    budget = rng.randint(1, size - 1)
    if rng.random() < 0.5:
        fn = rlam(_term(rng, budget, depth + 1))
    else:
        fn = _term(rng, budget, depth)
    elems = []
    left = size - budget
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
        if elems and rng.random() < 0.25:
            elems.append(elems[-1])
        else:
            elems.append(_term(rng, rng.randint(1, max(1, left // 2)), depth))
    return rapp(fn, monomial(elems))


def _mono(rng, count, depth):
    return monomial([_term(rng, rng.randint(1, 4), depth) for _ in range(count)])


def _random_terms(seed, n, max_size=14):
    rng = Random(seed)
    return [(rng, _term(rng, rng.randint(2, max_size), rng.randint(0, 2))) for _ in range(n)]


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_open_binder_agrees_with_the_unpruned_rebuild(seed):
    for rng, body in _random_terms(seed, 300):
        count = _count(body, _is_bound) + rng.choice((0, 0, 0, 1))  # an arity mismatch now and then
        mono = _mono(rng, min(count, 4), rng.randint(0, 2))
        got = open_binder(body, mono)
        assert got == _reference_open(body, mono), pretty_resource(body)
        _assert_summaries(*got)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_steps_agree_with_the_unpruned_rebuild_cold_and_warm(seed):
    for _, t in _random_terms(seed, 250):
        sites = _reference_sites(t)
        assert redex_sites(t) == sites
        assert first_redex_site(t) == (sites[0] if sites else None)
        expected = [_reference_step(t, site) for site in sites]
        _cool(t)
        cold = [r_step(t, site) for site in sites]
        warm = [r_step(t, site) for site in sites]
        assert cold == expected and warm == expected
        for step in expected:
            _assert_summaries(*step)
        head = _reference_hr_step(t)
        _cool(t)
        assert hr_step(t) == head and hr_step(t) == head


@pytest.mark.parametrize("seed", [7, 8])
def test_normalization_agrees_with_the_unpruned_rebuild(seed):
    memo = {}
    for _, t in _random_terms(seed, 200, max_size=12):
        expected = _reference_normalize(t, memo)
        _cool(t)
        assert r_normalize(t) == expected
        assert normalize_with(t, lambda sites: sites[-1]) == expected
        _assert_summaries(*expected)


def test_open_redex_fills_its_cache_once():
    t = parse_resource_term("<\\a. <a>[a]>[x, <\\b. b>[y]]")
    _cool(t)
    first = open_redex(t)
    assert t.fired is first and open_redex(t) is first
    assert first == open_binder(t.fn.body, t.mono) == _reference_open(t.fn.body, t.mono)
    mismatch = parse_resource_term("<\\a. a>1")
    _cool(mismatch)
    assert open_redex(mismatch) == ZERO and mismatch.fired is not None


def test_free_name_and_hole_substitution_agree_with_the_rebuild():
    for rng, t in _random_terms(9, 300):
        name = rfvar(rng.choice("xyz"))
        for match, fill in (
            (lambda u, c: u is name, lambda mono: r_subst(t, name.name, mono)),
            (lambda u, c: u is HOLE_R, lambda mono: r_context_fill(t, mono)),
        ):
            mono = _mono(rng, min(_count(t, match), 4), 0)
            assert fill(mono) == _reference_replace(t, match, mono, False)


def test_summaries_of_parsed_and_shifted_terms():
    for rng, t in _random_terms(10, 400):
        _assert_summaries(t)
        d, cutoff = rng.randint(0, 3), rng.randint(0, 3)
        shifted = _rshift(t, d, cutoff)
        assert shifted is _reference_shift(t, d, cutoff)
        _assert_summaries(shifted)
        if t.loose == 0:  # the printer writes loose indices as #i, which do not parse
            assert parse_resource_term(pretty_resource(t)) is t
    for text in ("\\a. \\b. <a>[b, <\\c. c>1]", "<\\a. <a>1>[<\\b. b>[x]]", "*", "<*>[x, x, y]"):
        _assert_summaries(parse_resource_term(text))

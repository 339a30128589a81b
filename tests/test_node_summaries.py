"""Node summaries, the opening cache and the lean reduction path,
cross-checked against slow references: ``_reference_replace`` is the linear
substitution as it was before nodes carried summaries (every subterm
rebuilt once per distinct ordering, no pruning, no cache), ``_summary``
recomputes a node's ``loose`` and ``redex`` from scratch, and
``_recursive_step`` and ``_leftmost_outermost_nf`` are the step (one sum
per context level) and the normalizer (every step from the root) that
``r_step`` and ``r_normalize`` replaced. The frozen ``old_skey`` and
``old_height`` check the flat order keys and the height walk, one test
pins the size of the interned nodes, and one checks the application tables
and the tuple caches after a seeded workload."""

import sys
from itertools import combinations_with_replacement, permutations
from math import factorial
from random import Random

import pytest

from taylorlab import resource
from taylorlab.beta import NotARedexError
from taylorlab.gen import random_resource_term
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
    _distinct_assignments,
    _rshift,
    deg_hole,
    monomial,
    open_binder,
    open_redex,
    parse_resource_sum,
    parse_resource_term,
    pretty_resource,
    r_context_fill,
    r_height,
    r_subst,
    rapp,
    rfvar,
    rlam,
    rvar,
    union_all,
    unshift,
)
from taylorlab.resource_reduction import (
    head_split,
    hr_step,
    normalize_with,
    r_normalize,
    r_step,
    redex_sites,
    site_to_str,
)

from support import site_from_str
from walk_oracles import old_height, old_skey, old_unshift

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


def _recursive_step(t, site):
    """One ``FiniteSum`` per context level; the redex is opened uncached."""
    if not site:
        if not (isinstance(t, RApp) and isinstance(t.fn, RLam)):
            raise NotARedexError(f"no redex at site: {t}")
        return FiniteSum(open_binder(t.fn.body, t.mono))
    head, rest = site[0], site[1:]
    if head == "body" and isinstance(t, RLam):
        return _recursive_step(t.body, rest).map(rlam)
    if head == "fun" and isinstance(t, RApp):
        mono = t.mono
        return _recursive_step(t.fn, rest).map(lambda u: rapp(u, mono))
    if isinstance(head, tuple) and isinstance(t, RApp) and head[1] < len(t.mono):
        i = head[1]
        elems = t.mono.elems
        fn = t.fn
        inner = _recursive_step(elems[i], rest)
        return inner.map(lambda u: rapp(fn, monomial(elems[:i] + (u,) + elems[i + 1 :])))
    raise NotARedexError(f"site {site_to_str(site)} does not resolve in {t}")


def _leftmost_outermost_nf(t, memo):
    """Every step fired at the leftmost-outermost redex, from the root."""
    got = memo.get(t)
    if got is None:
        sites = redex_sites(t)
        if not sites:
            got = FiniteSum((t,))
        else:
            got = union_all(_leftmost_outermost_nf(u, memo) for u in _recursive_step(t, sites[0]))
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
    """Forget every opening and normal form cached inside ``t``, so the next
    step and normalization are cold."""
    for node in _nodes(t):
        if isinstance(node, RApp):
            node.fired = None
        if isinstance(node, (RLam, RApp)):
            node.nf = None


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
        assert got == _reference_open(body, mono).terms, pretty_resource(body)
        _assert_summaries(*got)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_steps_agree_with_the_unpruned_rebuild_cold_and_warm(seed):
    for _, t in _random_terms(seed, 250):
        sites = _reference_sites(t)
        assert redex_sites(t) == sites
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


def _multinomial(elems):
    out = factorial(len(elems))
    for e in set(elems):
        out //= factorial(elems.count(e))
    return out


@pytest.mark.parametrize("n", range(8))
def test_distinct_assignments_are_the_distinct_orderings(n):
    letters = [rfvar(x) for x in "abcd"][: 4 if n < 7 else 3]
    for combo in combinations_with_replacement(letters, n):
        elems = monomial(combo).elems  # sorted, equal elements adjacent
        got = list(_distinct_assignments(elems))
        assert len(got) == len(set(got)) == _multinomial(elems)
        assert set(got) == set(permutations(elems))
        assert got == sorted(got, key=lambda order: [e.skey for e in order])


def test_distinct_assignments_do_not_enumerate_equal_orderings():
    a, b = rfvar("a"), rfvar("b")
    assert list(_distinct_assignments((a,) * 10)) == [(a,) * 10]  # one ordering, not 10!
    assert len(list(_distinct_assignments((a,) * 9 + (b,) * 3))) == 220


def test_open_redex_fills_its_cache_once():
    t = parse_resource_term("<\\a. <a>[a]>[x, <\\b. b>[y]]")
    _cool(t)
    first = open_redex(t)
    cached = t.fired
    assert cached == first.terms and open_redex(t) == first
    assert t.fired is cached  # a second call leaves the cached tuple in place
    assert first.terms == open_binder(t.fn.body, t.mono) == _reference_open(t.fn.body, t.mono).terms
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



def test_unshift_agrees_with_the_frozen_walk():
    """Every index escaping by up to two below up to three shifts: the None
    cases (an escaping index below ``c``) and the shifted terms both occur."""
    outcomes = set()
    for _, t in _random_terms(12, 300):
        for c in range(4):
            got = unshift(t, c)
            assert got is old_unshift(t, c), pretty_resource(t)
            outcomes.add(got is None)
            if got is not None:
                _assert_summaries(got)
                assert _rshift(got, c) is t
    assert outcomes == {True, False}


def test_flat_order_keys_sort_as_the_nested_keys():
    """An application's key splices in its elements' keys, where the frozen
    key nests them as one tuple: the order is the same."""
    rng = Random(21)
    terms = {random_resource_term(rng, rng.randint(6, 30)) for _ in range(5000)}
    assert len(terms) >= 2000
    terms.update(t for _, t in _random_terms(22, 500))
    assert sorted(terms, key=lambda t: t.skey) == sorted(terms, key=old_skey)
    assert len({t.skey for t in terms}) == len(terms)
    # equal functions, then monomials of equal prefix and different length
    ladder = [
        "<f>1",
        "<f>[a]",
        "<f>[a, a]",
        "<f>[a, a, a]",
        "<f>[a, b]",
        "<f>[a, b, <f>1]",
        "<f>[a, <f>1]",
        "<f>[a, <f>[a]]",
        "<f>[a, <f>[a, b]]",
        "<f>[b]",
        "<g>1",
    ]
    ladder = [parse_resource_term(text) for text in ladder]
    for key in (lambda t: t.skey, old_skey):
        keys = [key(t) for t in ladder]
        assert all(lo < hi for lo, hi in zip(keys, keys[1:]))


def test_height_walk_agrees_with_the_recursive_height():
    rng = Random(23)
    cases = [t for _, t in _random_terms(23, 400)]
    cases += [random_resource_term(rng, rng.randint(1, 20)) for _ in range(400)]
    for t in cases:
        mono = _mono(rng, rng.randint(0, 3), 1)
        for x in (t, mono, rapp(t, mono), FiniteSum((t, rapp(t, mono)))):
            assert r_height(x) == old_height(x), pretty_resource(t)
    assert r_height(ZERO) == old_height(ZERO) == 0


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11), reason="sizes measured on CPython 3.11"
)
def test_interned_nodes_stay_small():
    """Interned nodes hold most of a check's memory, so a new per-node field
    is measured before it lands."""
    t = parse_resource_term("<\\a. a>[x]")
    assert sys.getsizeof(t) <= 96  # RApp
    assert sys.getsizeof(t.fn) <= 80  # RLam
    assert sys.getsizeof(t.mono) <= 64  # Monomial


def test_occurrence_counters_agree_with_the_reference_count():
    def marks(x, match):
        return sum(_count(e, match) for e in x) if isinstance(x, Monomial) else _count(x, match)

    for rng, t in _random_terms(11, 300):
        mono = _mono(rng, rng.randint(0, 3), 1)
        for x in (t, mono, rapp(t, mono)):
            assert deg_hole(x) == marks(x, lambda u, c: u is HOLE_R)


# Function positions normalizing to an abstraction (also next to other
# addends), elements normalizing to 0 or to several addends, and repeated
# elements.
_SHAPES = [
    "<<\\x. \\y. x>[a]>[b]",
    "<<\\x. \\y. <x>[y]>[a]>[b]",
    "<<\\x. x>[\\y. y]>[b]",
    "<<\\x. x>[\\y. <y>[y]]>[a, b]",
    "<<\\x. <x>[x]>[\\z. \\w. <z>[w], k]>[<\\v. v>[c]]",
    "<f>[<\\x. x>1, y]",
    "<f>[<\\x. x>[a, b]]",
    "<f>[<\\x. x>[a], <\\x. x>[a]]",
    "<\\x. <x>[x]>[<\\y. y>[a], <\\y. y>[a]]",
    "<f>[<\\x. <x>[x]>[a, b], <\\x. <x>[x]>[c, d], <\\x. <x>[x]>[c, d]]",
    "\\q. <<\\x. \\y. <y>[x, x]>[q, <\\v. v>[q]]>[<\\x. \\y. y>[<g>1]]",
    "<<<\\x. \\y. \\z. <z>[x, y]>[a]>[<\\v. v>[b]]>[\\u. u]",
]


def _check_against_the_replaced_path(t):
    sites = redex_sites(t)
    for site in sites:
        expected = _recursive_step(t, site)
        _cool(t)
        assert r_step(t, site) == expected and r_step(t, site) == expected, site_to_str(site)
    expected = _leftmost_outermost_nf(t, {})
    _cool(t)
    assert r_normalize(t) == expected, pretty_resource(t)
    assert r_normalize(t) == expected
    # a term holding a redex keeps its normal form; a redex-free one is its own and keeps none
    if t.redex:
        cached = t.nf
        assert cached == r_normalize(t).terms
        assert t.nf is cached  # a second call leaves the cached tuple in place
    assert all(u.redex for u in _nodes(t) if getattr(u, "nf", None) is not None)
    return expected


def test_shapes_step_and_normalize_like_the_replaced_path():
    normal = {text: _check_against_the_replaced_path(parse_resource_term(text)) for text in _SHAPES}
    assert normal["<<\\x. \\y. x>[a]>[b]"] == ZERO
    assert normal["<<\\x. \\y. <x>[y]>[a]>[b]"] == parse_resource_sum("<a>[b]")
    assert normal["<<\\x. x>[\\y. y]>[b]"] == parse_resource_sum("b")
    assert normal["<<\\x. x>[\\y. <y>[y]]>[a, b]"] == parse_resource_sum("<a>[b] + <b>[a]")
    assert normal["<<\\x. <x>[x]>[\\z. \\w. <z>[w], k]>[<\\v. v>[c]]"] == parse_resource_sum(
        "<k>[c] + <<k>[\\z. \\w. <z>[w]]>[c]"
    )
    assert normal["<f>[<\\x. x>1, y]"] == ZERO and normal["<f>[<\\x. x>[a, b]]"] == ZERO
    assert normal["<f>[<\\x. x>[a], <\\x. x>[a]]"] == parse_resource_sum("<f>[a, a]")
    assert len(normal["<f>[<\\x. <x>[x]>[a, b], <\\x. <x>[x]>[c, d], <\\x. <x>[x]>[c, d]]"]) == 6


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_steps_and_normal_forms_agree_with_the_replaced_path(seed):
    for _, t in _random_terms(seed, 250):
        _check_against_the_replaced_path(t)
        _check_against_the_replaced_path(rapp(rlam(rvar(0)), monomial([t])))


def test_intern_tables_and_caches_hold_after_the_random_workload():
    """Every interned application is found again by ``rapp``, in one table
    only; a function owns a row only from its second application on; and
    each cached opening and normal form is the canonical tuple of its sum,
    equal to what a cold opening and another strategy give."""
    for _, t in _random_terms(15, 1000):
        for site in redex_sites(t):
            r_step(t, site)
        r_normalize(t)
    first, rows = resource._FIRST, resource._APPS
    for fn, row in rows.items():
        assert row and first[fn].mono not in row
    apps = [*first.values(), *(a for row in rows.values() for a in row.values())]
    assert len({(a.fn, a.mono) for a in apps}) == len(apps)
    assert all(rapp(a.fn, a.mono) is a for a in apps)
    cached = 0
    for u in [*apps, *resource._LAMS.values()]:
        if isinstance(u, RApp) and u.fired is not None:
            assert type(u.fired) is tuple and FiniteSum(u.fired).terms == u.fired
            assert u.fired == open_redex(u).terms == open_binder(u.fn.body, u.mono)
            cached += 1
        if u.nf is not None:
            assert type(u.nf) is tuple and FiniteSum(u.nf).terms == u.nf
            assert u.nf == r_normalize(u).terms == normalize_with(u, lambda sites: sites[0]).terms
            cached += 1
    assert cached > 1500


def test_unresolvable_and_redex_free_sites_keep_their_messages():
    cases = [
        ("x", "fun", "site fun does not resolve in x"),
        ("<x>[y]", "fun.fun", "site fun does not resolve in x"),
        ("<x>[y, z]", "arg[3]", "site arg[3] does not resolve in <x>[y, z]"),
        ("<x>[y]", "arg[0]", "no redex at site: y"),
        ("\\a. <a>[<\\b. b>[y]]", "body.arg[0].body", "site body does not resolve in <\\a. a>[y]"),
        ("\\a. a", "fun", "site fun does not resolve in \\a. a"),
        ("<x>[y]", "root", "no redex at site: <x>[y]"),
        ("<\\a. a>[<f>[y]]", "arg[0].arg[0]", "no redex at site: y"),
        ("<<\\a. a>[y]>[z]", "fun.body", "site body does not resolve in <\\a. a>[y]"),
        ("\\a. <a>1", "body", "no redex at site: <#0>1"),
        ("<f>[<g>[x, <\\a. a>[y]]]", "arg[0].arg[5]", "site arg[5] does not resolve in <g>[x, <\\a. a>[y]]"),
        ("<f>[<g>[x]]", "arg[0].fun.fun", "site fun does not resolve in g"),
    ]
    for text, site, message in cases:
        t, site = parse_resource_term(text), site_from_str(site)
        for step in (r_step, _recursive_step):
            with pytest.raises(NotARedexError) as err:
                step(t, site)
            assert str(err.value) == message


def test_deep_chains_still_normalize():
    identity, a, f = rlam(rvar(0)), rfvar("a"), rfvar("f")
    t = a
    for _ in range(300):
        t = rapp(identity, monomial([t]))
    assert r_normalize(t) == FiniteSum((a,))
    t, want = rapp(identity, monomial([a])), a
    for _ in range(400):
        t, want = rapp(f, monomial([t])), rapp(f, monomial([want]))
    assert r_normalize(t) == FiniteSum((want,))

"""Ancestor verification by replaying head steps, cross-checked against the
enumerating engines it replaces: ``open_binder`` and ``hr_step`` list every
addend, ``r_normalize`` computes the whole normal form."""

from random import Random

import pytest

import taylorlab.lab as lab
from taylorlab.beta import bohm_tree
from taylorlab.gen import random_resource_term
from taylorlab.lab import _verified_ancestor, check_commutation, lift_to_source
from taylorlab.resource import (
    RApp,
    RLam,
    RVar,
    monomial,
    open_binder,
    opens_to,
    parse_resource_monomial,
    parse_resource_term,
    rapp,
    rfvar,
    rlam,
    rvar,
)
from taylorlab.resource_reduction import hr_fires_to, hr_step, is_head_normal, r_normalize
from taylorlab.selftest import _CORPUS
from taylorlab.syntax import parse_term
from taylorlab.taylor import enumerate_taylor

rp = parse_resource_term
FUEL = 1000


def _bound_occurrences(t, c=0):
    if isinstance(t, RVar):
        return int(t.index == c)
    if isinstance(t, RLam):
        return _bound_occurrences(t.body, c + 1)
    if isinstance(t, RApp):
        return _bound_occurrences(t.fn, c) + sum(_bound_occurrences(e, c) for e in t.mono)
    return 0


def _random_monomial(rng, count):
    """``count`` elements with escaping indices, often with repeats."""
    elems = []
    while len(elems) < count:
        e = random_resource_term(rng, rng.randint(1, 5), depth=2)
        elems.extend([e] * min(rng.choice((1, 1, 2)), count - len(elems)))
    return monomial(elems)


def _padding(size):
    """A term of the given size that no engine output here can contain."""
    t = rfvar("zz")
    for _ in range(size - 1):
        t = rlam(t)
    return t


def test_opens_to_examples():
    # \a. <a>[a] opened on [y, z]: both ways round
    body = rp("\\a. <a>[a]").body
    mono = parse_resource_monomial("[y, z]")
    assert set(open_binder(body, mono)) == {rp("<y>[z]"), rp("<z>[y]")}
    assert opens_to(body, mono, rp("<y>[z]")) and opens_to(body, mono, rp("<z>[y]"))
    assert not opens_to(body, mono, rp("<y>[y]"))
    assert not opens_to(body, parse_resource_monomial("[y]"), rp("<y>[y]"))
    # under one more binder the grafted #0 becomes #1, and the escaping #2
    # loses the opened binder
    body = rlam(rapp(rvar(0), monomial([rvar(1), rvar(2)])))
    opened = rlam(rapp(rvar(0), monomial([rvar(1), rvar(1)])))
    assert set(open_binder(body, monomial([rvar(0)]))) == {opened}
    assert opens_to(body, monomial([rvar(0)]), opened)
    assert not opens_to(body, monomial([rvar(0)]), rlam(rapp(rvar(0), monomial([rvar(0), rvar(1)]))))


def test_opens_to_agrees_with_enumeration():
    rng = Random(2024)
    positive = negative = 0
    while positive < 1500:
        body = random_resource_term(rng, rng.randint(2, 14), depth=1)
        k = _bound_occurrences(body)
        if k > 4:
            continue
        mono = _random_monomial(rng, k)
        addends = open_binder(body, mono)
        for v in addends:
            assert opens_to(body, mono, v)
            positive += 1
        # unrelated terms: openings on other monomials, of other arities,
        # random terms and equal-size padding
        others = list(open_binder(body, _random_monomial(rng, k)))
        others += open_binder(body, _random_monomial(rng, k + 1)) if k < 4 else []
        others += [random_resource_term(rng, rng.randint(1, 14)) for _ in range(2)]
        others += [_padding(v.size) for v in addends]
        for v in others:
            assert opens_to(body, mono, v) == (v in addends)
            negative += v not in addends
        assert not opens_to(body, _random_monomial(rng, k + 1), next(iter(addends), body))
    assert negative > 1000


def test_hr_fires_to_agrees_with_hr_step():
    rng = Random(7)
    checked = 0
    while checked < 500:
        t = random_resource_term(rng, rng.randint(4, 16))
        if is_head_normal(t):
            assert not hr_fires_to(t, t)
            continue
        fired = hr_step(t)
        candidates = list(fired) + [random_resource_term(rng, 10) for _ in range(2)]
        candidates += [_padding(u.size) for u in fired] + [t]
        for u in candidates:
            assert hr_fires_to(t, u) == (u in fired)
        checked += 1


def _corpus_targets(size=10):
    for src in _CORPUS.values():
        term = parse_term(src)
        prefix = bohm_tree(term, size + 1, FUEL)
        for t in enumerate_taylor(prefix, size, hole_mode="cut"):
            yield term, t


def test_replay_implies_membership_in_the_normal_form():
    """Every ancestor that replay accepts also passes the slow check."""
    replayed = 0
    for term, t in _corpus_targets():
        links = []
        s = lift_to_source(t, term, FUEL, links)
        if s is None:
            continue
        if all(hr_fires_to(before, after) for before, after in links):
            replayed += 1
            assert t in r_normalize(s)
    assert replayed >= 40


def test_corrupted_link_falls_back_to_normalization(monkeypatch):
    y = parse_term(_CORPUS["Y"])
    t = rp("\\a. <a>[<a>[<a>1]]")
    links = []
    s = lift_to_source(t, y, FUEL, links)
    assert s is not None and links
    before, after = links[0]
    assert hr_fires_to(before, after)
    bogus = _padding(after.size)
    assert not hr_fires_to(before, bogus)

    original = lab.lift_to_source

    def corrupting(t, target, fuel, links=None):
        out = original(t, target, fuel, links)
        links[0] = (links[0][0], bogus)
        return out

    clean, broken = {}, {}
    assert _verified_ancestor(t, y, FUEL, clean) is s
    monkeypatch.setattr(lab, "lift_to_source", corrupting)
    assert _verified_ancestor(t, y, FUEL, broken) is s
    assert clean == {"replayed_ancestors": 1}
    assert broken == {"verify_fallbacks": 1}


def test_fallback_rejects_what_normalization_rejects(monkeypatch):
    """With a broken link, the verdict is normalization's: a lifted
    candidate whose normal form misses ``t`` is refused."""
    y = parse_term(_CORPUS["Y"])
    t = rp("\\a. <a>[<a>1]")
    wrong = rp("\\a. <a>[<a>[<a>1]]")

    def lift_for_another_target(_t, target, fuel, links=None):
        out = lift_to_source(wrong, target, fuel, links)
        links.append((links[0][0], _padding(links[0][1].size)))
        return out

    monkeypatch.setattr(lab, "lift_to_source", lift_for_another_target)
    counts = {}
    s = lift_to_source(wrong, y, FUEL)
    assert t not in r_normalize(s)
    assert _verified_ancestor(t, y, FUEL, counts) is None
    assert counts == {"verify_fallbacks": 1}


C2 = "(\\f. \\x. f (f x))"


@pytest.mark.parametrize(
    "src,size",
    [(_CORPUS["Y"], 14), (_CORPUS["Yg"], 14), (f"{C2} {C2}", 14), (f"(\\m. \\n. \\f. m (n f)) {C2} {C2}", 14)],
)
def test_commutation_reports_where_verification_went(src, size):
    report = check_commutation(parse_term(src), size, FUEL)
    stats = report.stats
    assert report.verdict == "pass"
    assert stats["verify_fallbacks"] == 0
    assert stats["replayed_ancestors"] == stats["constructed_ancestors"] > 0

import itertools
import random

import pytest

from taylorlab.gen import random_resource_term
from taylorlab.resource import (
    ZERO,
    FiniteSum,
    monomial,
    parse_resource_sum,
    parse_resource_term,
    r_height,
    r_size,
    union_all,
)
from taylorlab.resource_reduction import (
    NotARedexError,
    _sum_successors,
    check_diamond,
    dm_less,
    dm_measure,
    hr_step,
    normalize_with,
    peel,
    peel_wrapped,
    r_normalize,
    r_step,
    redex_sites,
    rewrap,
    site_depth,
    site_to_str,
    valid_min_depth_sites,
)

from support import is_head_normal, site_from_str

p = parse_resource_term
ps = parse_resource_sum


def normal_forms_all_orders(t, limit=200000):
    """Brute-force oracle: normal forms reached under every single-site
    strategy choice, as a set (should always be a singleton)."""
    budget = [limit]

    def explore(u):
        sites = redex_sites(u)
        if not sites:
            return {FiniteSum((u,))}
        outs = set()
        for site in sites:
            budget[0] -= 1
            if budget[0] < 0:
                raise RuntimeError("oracle budget exhausted")
            step = r_step(u, site)
            combos = [explore(v) for v in step]
            if not combos:
                outs.add(ZERO)
                continue
            for pickings in itertools.product(*combos):
                outs.add(union_all(pickings))
        return outs

    return explore(t)


def test_r_step_basic():
    assert r_step(p("<\\x. x>[y]"), ()) == ps("y")
    assert r_step(p("<\\x. x>1"), ()) == ZERO


def test_r_step_annihilation_inside_monomial():
    t = p("<z>[<\\x. x>1]")
    (site,) = redex_sites(t)
    assert site == (("arg", 0),)
    assert r_step(t, site) == ZERO


def test_r_step_not_a_redex():
    with pytest.raises(NotARedexError):
        r_step(p("<x>[y]"), ())


def test_r_step_sum():
    # one sum step fires a site in some addends and keeps the others
    s = ps("<\\x. x>[y] + z")
    assert list(_sum_successors(s, 10)) == [ps("y + z")]
    assert list(_sum_successors(ZERO, 10)) == []
    assert list(_sum_successors(ps("y + z"), 10)) == []
    with pytest.raises(RuntimeError):
        list(_sum_successors(ps("<\\x. x>[y] + <\\x. x>[z]"), 3))


def test_min_depth_step():
    t = p("<x>[<\\y. y>[z]]")
    site = (("arg", 0),)
    assert site in valid_min_depth_sites(t, 1)
    assert r_step(t, site) == ps("<x>[z]")
    assert site not in valid_min_depth_sites(t, 2)


def test_min_depth_sites_empty_above_height():
    rng = random.Random(13)
    for _ in range(500):
        t = random_resource_term(rng, 14)
        assert valid_min_depth_sites(t, r_height(t) + 1) == []


def test_size_strictly_decreases():
    rng = random.Random(17)
    for _ in range(800):
        t = random_resource_term(rng, 16)
        for site in redex_sites(t):
            out = r_step(t, site)
            for u in out:
                assert r_size(u) < r_size(t)


def test_r_normalize_two_steps():
    assert r_normalize(p("<\\x. x>[<\\y. y>[z]]")) == ps("z")
    assert r_normalize(p("y")) == ps("y")
    assert r_normalize(ps("<\\x. x>[y] + w")) == ps("y + w")


def test_r_normalize_strategy_independent():
    rng = random.Random(23)
    for _ in range(300):
        t = random_resource_term(rng, 12)
        lm = normalize_with(t, lambda sites: sites[0])
        rm = normalize_with(t, lambda sites: sites[-1])
        assert lm == rm == r_normalize(t)


def test_r_normalize_matches_all_orders_oracle():
    rng = random.Random(29)
    for _ in range(60):
        t = random_resource_term(rng, 9)
        outs = normal_forms_all_orders(t)
        assert outs == {r_normalize(t)}


def test_nf_distributes_over_sums():
    rng = random.Random(31)
    for _ in range(100):
        a = random_resource_term(rng, 10)
        b = random_resource_term(rng, 10)
        s = FiniteSum([a, b])
        assert r_normalize(s) == union_all((r_normalize(a), r_normalize(b)))


def test_self_application_approximants_all_annihilate():
    # every bounded approximant of the self-application loop reduces to 0,
    # cross-checked against the every-order oracle on the small ones
    from taylorlab.syntax import parse_term
    from taylorlab.taylor import enumerate_taylor

    omega = parse_term("(\\x. x x) (\\x. x x)")
    sl = enumerate_taylor(omega, 12)
    assert len(sl) > 0
    for s in sl:
        assert r_normalize(s) == ZERO
        if r_size(s) <= 9:
            assert normal_forms_all_orders(s) == {ZERO}


def test_hr_step():
    assert hr_step(p("<\\x. x>[y]")) == ps("y")
    t = p("\\x. <x>[z]")
    assert hr_step(t) == FiniteSum([t])
    assert hr_step(p("<\\x. <x>[x]>[\\y. y]")) == ZERO


def test_hr_under_binders_and_spine():
    # \a. <<\b. b>[y]>[z] -> \a. <y>[z]
    t = p("\\a. <<\\b. b>[y]>[z]")
    assert hr_step(t) == ps("\\a. <y>[z]")


def _hr_to_hnf(s):
    # iterate head steps until every addend is head normal
    k = 0
    while not all(is_head_normal(t) for t in s):
        s = hr_step(s)
        k += 1
    return s, k


def test_hr_to_hnf():
    s, k = _hr_to_hnf(ps("<\\x. x>[y]"))
    assert (s, k) == (ps("y"), 1)
    t = ps("\\x. <x>1")
    assert _hr_to_hnf(t) == (t, 0)


def test_hr_to_hnf_terminates_on_looping_shape():
    # <\x. <x>[x]>[\x. <x>[x]] is the self-application; head iteration ends in 0
    s, k = _hr_to_hnf(ps("<\\x. <x>[x]>[\\x. <x>[x]]"))
    assert s == ZERO and k >= 1


def test_peel_wrapped_is_peel_of_the_rewrap():
    """The lifter's fused peel against the slow path that builds the whole
    wrapped term: the same core node and frames, and None on each mismatch,
    whether it falls on a binder of the wrapping (frames wanted), on one of
    its frames (a binder wanted) or inside ``x``."""
    rng = random.Random(2525)
    seen = set()
    for _ in range(1500):
        x = random_resource_term(rng, rng.randint(1, 8))
        b = rng.randint(0, 3)
        rest = tuple(
            monomial(random_resource_term(rng, rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            for _ in range(rng.randint(0, 3))
        )
        for binders in range(b + 3):
            for frames in range(len(rest) + 4):
                want = peel(rewrap(x, b, rest), binders, frames)
                got = peel_wrapped(x, b, rest, binders, frames)
                if want is None:
                    assert got is None
                else:
                    assert got[0] is want[0] and got[1] == want[1]
                if b > binders:
                    where = "binders"
                elif b < binders and rest:
                    where = "frames"
                elif b == binders and frames <= len(rest):
                    where = "both"
                else:
                    where = "x"
                seen.add((where, want is None))
    assert seen == {
        ("binders", True), ("binders", False), ("frames", True),
        ("both", False), ("x", True), ("x", False),
    }


def test_dm_measure():
    assert dm_measure(ps("<\\x. x>[y] + z")) == (4, 1)
    assert dm_measure(ZERO) == ()
    assert dm_less((3, 1), (4,))
    assert dm_less((3,), (3, 1))
    assert not dm_less((3, 1), (3,))
    assert not dm_less((2,), (2,))


def test_dm_decrease_on_replacing_step():
    rng = random.Random(37)
    for _ in range(200):
        t = random_resource_term(rng, 12)
        sites = redex_sites(t)
        if not sites:
            continue
        s = FiniteSum([t])
        out = r_step(t, sites[0])
        if t not in out:
            assert dm_less(dm_measure(out), dm_measure(s))


def test_check_diamond_examples():
    assert check_diamond(p("<\\x. x>[y]"))
    assert check_diamond(p("<\\x. x>[<\\y. y>[z]]"))


def test_check_diamond_random():
    rng = random.Random(41)
    for _ in range(200):
        t = random_resource_term(rng, 10)
        assert check_diamond(t)


def test_site_strings():
    t = p("\\a. <x>[<\\y. y>[z]]")
    (site,) = redex_sites(t)
    text = site_to_str(site)
    assert text == "body.arg[0]"
    assert site_from_str(text) == site
    assert site_from_str("root") == ()
    assert site_depth(site) == 1

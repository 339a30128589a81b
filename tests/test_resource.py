import itertools
import random

from taylorlab.resource import (
    HOLE_R,
    ONE,
    ZERO,
    FiniteSum,
    RApp,
    RLam,
    deg_hole,
    is_d_positive,
    monomial,
    open_binder,
    parse_resource_monomial,
    parse_resource_sum,
    parse_resource_term,
    pretty_resource,
    pretty_sum,
    r_context_fill,
    r_height,
    r_size,
    r_subst,
    rapp,
    rfvar,
    rlam,
    rvar,
)
from taylorlab.gen import random_resource_term

p = parse_resource_term


def test_interning_gives_pointer_equality():
    assert p("<x>[y]") is p("<x>[y]")
    assert p("\\a. a") is rlam(rvar(0))
    assert monomial([rfvar("y"), rfvar("x")]) is monomial([rfvar("x"), rfvar("y")])


def test_size():
    assert r_size(p("<\\x. x>[y]")) == 4
    assert r_size(ONE) == 1
    assert r_size(ZERO) == 0
    assert r_size(p("<x>1")) == 2
    assert r_size(FiniteSum([p("x"), p("<x>[y]")])) == 3


def test_height():
    assert r_height(p("<x>[<y>[z]]")) == 2
    assert r_height(p("\\x. \\y. x")) == 0
    assert r_height(p("<x>1")) == 1
    assert r_height(ZERO) == 0
    assert r_height(ONE) == 1


def test_height_bounded_by_size_random():
    rng = random.Random(7)
    for _ in range(1000):
        t = random_resource_term(rng, 14)
        assert r_height(t) <= r_size(t)


def test_r_subst_base():
    assert r_subst(p("x"), "x", parse_resource_monomial("[y]")) == parse_resource_sum("y")


def test_r_subst_arity_mismatch_gives_zero():
    assert r_subst(p("<x>[x]"), "x", parse_resource_monomial("[\\y. y]")) == ZERO
    assert r_subst(p("y"), "x", parse_resource_monomial("[z]")) == ZERO


def test_r_subst_enumerates_bijections():
    got = r_subst(p("<x>[x]"), "x", parse_resource_monomial("[\\y. y, z]"))
    assert got == parse_resource_sum("<\\y. y>[z] + <z>[\\y. y]")


def test_r_subst_empty_monomial_identity():
    assert r_subst(p("y"), "x", ONE) == parse_resource_sum("y")


def test_r_subst_equal_elements_grouped():
    # two equal elements over two occurrences: a single addend, not two
    got = r_subst(p("<x>[x]"), "x", parse_resource_monomial("[z, z]"))
    assert got == parse_resource_sum("<z>[z]")


def _free_count(t, name):
    if isinstance(t, RLam):
        return _free_count(t.body, name)
    if isinstance(t, RApp):
        return _free_count(t.fn, name) + sum(_free_count(e, name) for e in t.mono)
    return int(t is rfvar(name))


def test_r_subst_addend_sizes():
    rng = random.Random(11)
    for _ in range(300):
        s = random_resource_term(rng, 10)
        elems = [random_resource_term(rng, 4) for _ in range(rng.randrange(0, 3))]
        m = monomial(elems)
        n = _free_count(s, "x")
        out = r_subst(s, "x", m)
        if n != len(m):
            assert out == ZERO
        else:
            assert out  # arity match always yields at least one addend
            expected = r_size(s) - n + sum(r_size(e) for e in elems)
            for t in out:
                assert r_size(t) == expected


def test_open_binder_shifts_correctly():
    # (\a. \b. <a>[b]) opened with [y]: the inner binder survives
    body = p("\\b. <a>[b]")  # 'a' free here; rebuild with bound index
    t = rlam(rlam(rapp(rvar(1), monomial([rvar(0)]))))
    out = open_binder(t.body, parse_resource_monomial("[y]"))
    assert out == parse_resource_sum("\\b. <y>[b]").terms


def test_is_d_positive():
    assert is_d_positive(p("\\x. x"), 7)
    assert not is_d_positive(p("<y>1"), 1)
    assert is_d_positive(p("<y>[<z>1]"), 1)
    assert not is_d_positive(p("<y>[<z>1]"), 2)


def test_d_positive_antitone():
    rng = random.Random(3)
    for _ in range(300):
        t = random_resource_term(rng, 12)
        for d in range(0, 4):
            if is_d_positive(t, d + 1):
                assert is_d_positive(t, d)


def test_r_context_fill():
    assert r_context_fill(p("<x>[*]"), parse_resource_monomial("[y]")) == parse_resource_sum("<x>[y]")
    assert r_context_fill(p("<*>[*]"), parse_resource_monomial("[a]")) == ZERO
    assert deg_hole(p("<*>[*, x]")) == 2
    assert HOLE_R is p("*")


def test_canonical_idempotence_and_order():
    rng = random.Random(9)
    terms = [random_resource_term(rng, 10) for _ in range(200)]
    keys = [t.skey for t in terms]
    # strict total order: trichotomy on distinct terms
    for a, b in itertools.islice(itertools.combinations(terms, 2), 2000):
        assert (a is b) == (a.skey == b.skey)
        assert (a.skey < b.skey) or (b.skey < a.skey) or a is b
    assert keys == [parse_resource_term(pretty_resource(t)).skey for t in terms]


def test_roundtrip_printing():
    rng = random.Random(5)
    for _ in range(500):
        t = random_resource_term(rng, 12)
        assert parse_resource_term(pretty_resource(t)) is t


def test_sum_printing():
    assert pretty_sum(ZERO) == "0"
    s = FiniteSum([p("x"), p("<x>1")])
    assert parse_resource_sum(pretty_sum(s)) == s

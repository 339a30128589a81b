import gc
import itertools
import random

from taylorlab.beta import BohmPrefix, beta_step, bohm_tree
from taylorlab.cli import _bohm_dot
from taylorlab.gen import random_lambda_term
from taylorlab.lab import check_commutation, check_simulation
from taylorlab.resource import (
    FiniteSum,
    monomial,
    parse_resource_term,
    pretty_resource,
    r_context_fill,
    r_height,
    r_size,
    r_subst,
)
from taylorlab.syntax import BOTTOM, FreeVar, RationalSystem, contains_hole, parse_term, pretty, rebuild
from taylorlab.taylor import (
    _Enumerator,
    approximates,
    enumerate_taylor,
    enumerate_taylor_context,
    member_of_bohm,
)

from corpus import CORPUS, I, II, OMEGA, OMEGA3, SLICE_SYSTEMS, Y, Y_SYS, YG

rp = parse_resource_term


def test_approximates_basics():
    assert approximates(rp("\\a. a"), I)
    assert approximates(rp("<\\a. a>1"), II)
    assert approximates(rp("<\\a. a>[\\b. b]"), II)
    assert not approximates(rp("\\a. \\b. a"), I)
    assert not approximates(rp("x"), BOTTOM)


def test_approximates_rational():
    assert approximates(rp("\\f. <f>[<f>1]"), Y_SYS)
    assert approximates(rp("\\f. <f>1"), Y_SYS)
    assert not approximates(rp("\\f. <f>[f]"), Y_SYS)


def test_enumerate_identity():
    assert list(enumerate_taylor(I, 5)) == [rp("\\a. a")]


def test_enumerate_ii_size6():
    got = enumerate_taylor(II, 6)
    assert set(got) == {rp("<\\a. a>1"), rp("<\\a. a>[\\b. b]")}
    assert sorted(r_size(t) for t in got) == [3, 5]


def test_enumerate_bottom_empty():
    assert len(enumerate_taylor(BOTTOM, 50)) == 0
    assert len(enumerate_taylor(parse_term("\\x. _|_"), 50)) == 0


def test_enumerate_context():
    c = parse_term("(\\y. y) *")
    # sizes 3, 4, 5, 6: the bound is inclusive, so three holes still fit
    got = enumerate_taylor_context(c, 6)
    assert set(got) == {
        rp("<\\a. a>1"),
        rp("<\\a. a>[*]"),
        rp("<\\a. a>[*, *]"),
        rp("<\\a. a>[*, *, *]"),
    }
    assert sorted(r_size(t) for t in got) == [3, 4, 5, 6]
    assert set(enumerate_taylor_context(c, 5)) == {
        rp("<\\a. a>1"),
        rp("<\\a. a>[*]"),
        rp("<\\a. a>[*, *]"),
    }
    assert set(enumerate_taylor_context(parse_term("*"), 3)) == {rp("*")}
    # a context with no holes enumerates like the plain term
    assert set(enumerate_taylor_context(II, 6)) == set(enumerate_taylor(II, 6))


def test_slice_monotone_and_depth_filter():
    rng = random.Random(47)
    for _ in range(60):
        m = random_lambda_term(rng, 8)
        small = set(enumerate_taylor(m, 6))
        big_slice = enumerate_taylor(m, 8)
        assert small <= set(big_slice)
        for d in (1, 2, 3):
            filtered = {t for t in big_slice if r_height(t) < d}
            assert set(enumerate_taylor(m, 8, depth_bound=d)) == filtered


def test_enumeration_agrees_with_decision():
    rng = random.Random(53)
    for _ in range(40):
        m = random_lambda_term(rng, 7)
        sl = enumerate_taylor(m, 7)
        for t in sl:
            assert approximates(t, m)
            assert r_size(t) <= 7


def test_enumerate_rational_y_star():
    got = enumerate_taylor(Y_SYS, 7)
    assert rp("\\f. <f>1") in got
    assert rp("\\f. <f>[<f>1]") in got
    for t in got:
        assert approximates(t, Y_SYS)


def test_substitution_compatibility_exhaustive_small():
    # slice of m[n/x] == all addends of substitutions of slice elements
    cases = [
        (parse_term("x x"), "x", I),
        (parse_term("\\y. x (y x)"), "x", I),
        (parse_term("x"), "x", parse_term("y z")),
    ]
    bound = 8
    for m, x, n in cases:
        direct = set(enumerate_taylor(rebuild(m, lambda u, *_: n if u is FreeVar(x) else None), bound))
        built: set = set()
        for s in enumerate_taylor(m, bound):
            k = sum(1 for _ in _free_occurrences(s, x))
            for elems in itertools.product(list(enumerate_taylor(n, bound)), repeat=k):
                for t in r_subst(s, x, monomial(elems)):
                    if r_size(t) <= bound:
                        built.add(t)
        assert built == direct


def _free_occurrences(t, name):
    from taylorlab.resource import RApp, RFreeVar, RLam

    if isinstance(t, RFreeVar) and t.name == name:
        yield t
    elif isinstance(t, RLam):
        yield from _free_occurrences(t.body, name)
    elif isinstance(t, RApp):
        yield from _free_occurrences(t.fn, name)
        for e in t.mono:
            yield from _free_occurrences(e, name)


def test_taylor_zero():
    # T(m) = 0 exactly when m's head is ⊥, under any binders and arguments
    for text in ["_|_", "\\x. _|_", "_|_ x"]:
        assert enumerate_taylor(parse_term(text), 10) == FiniteSum(())
    for m in [parse_term("x _|_"), I, Y_SYS]:
        assert len(enumerate_taylor(m, 10)) > 0


def test_member_of_bohm():
    assert member_of_bohm(rp("\\f. <f>1"), BohmPrefix(Y, 50)) is True
    assert member_of_bohm(rp("\\f. <f>[<f>1]"), BohmPrefix(Y, 50)) is True
    assert member_of_bohm(rp("\\f. <f>[f]"), BohmPrefix(Y, 50)) is False
    assert member_of_bohm(rp("x"), BohmPrefix(OMEGA, 100)) is False
    assert member_of_bohm(rp("\\a. a"), BohmPrefix(I, 10)) is True


def test_member_of_bohm_fuel_unknown():
    assert member_of_bohm(rp("x"), BohmPrefix(OMEGA3, 3)) is None


def test_taylor_walks_leave_no_cyclic_garbage():
    """Enumeration, approximation and Boehm membership free everything they
    build by reference counting: no recursive closure is left in a cycle."""
    gc.collect()
    gc.disable()
    try:
        assert all(approximates(s, YG) for s in enumerate_taylor(YG, 12))
        targets = enumerate_taylor(bohm_tree(YG, 13, 100), 12)
        assert targets and all(member_of_bohm(t, BohmPrefix(YG, 100)) for t in targets)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_checks_and_printers_leave_no_cyclic_garbage():
    """The commutation and simulation checks, lifting included, the term
    printers, the Boehm-tree dot printer and the marked-leaf substitutions
    free everything they build by reference counting."""
    gc.collect()
    gc.disable()
    try:
        report = check_commutation(YG, 17, 1000)
        assert report.verdict == "pass" and report.stats["constructed_ancestors"] > 0
        assert check_simulation(YG, [()], 12).verdict == "pass"
        assert gc.collect() == 0
        printed = [pretty(bohm_tree(YG, 4, 1000)), pretty(beta_step(YG, ()))]
        printed += [pretty_resource(t) for t in enumerate_taylor(YG, 12)]
        assert all(printed) and gc.collect() == 0
        assert _bohm_dot(bohm_tree(YG, 4, 1000)).startswith("digraph") and gc.collect() == 0
        assert len(r_subst(rp("<x>[x, \\a. <a>[x]]"), "x", monomial([rp("y"), rp("z"), rp("\\b. b")]))) == 6
        assert gc.collect() == 0
        assert len(r_context_fill(rp("<*>[*, y]"), monomial([rp("x"), rp("\\b. b")]))) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_context_fill_compatibility_exhaustive_small():
    # slice of c<m> == all addends of hole fillings of context approximants
    from taylorlab.syntax import context_fill

    # hygienic cases: no binder above a hole shadows a free name of the plug
    bound = 7
    cases = [
        (parse_term("(\\y. y) *"), I),
        (parse_term("\\x. * x"), parse_term("y")),
        (parse_term("x * *"), I),
    ]
    for c, m in cases:
        direct = set(enumerate_taylor(context_fill(c, m), bound))
        built: set = set()
        m_pool = list(enumerate_taylor(m, bound))
        for ca in enumerate_taylor_context(c, bound):
            k = sum(1 for _ in _hole_occurrences(ca))
            for elems in itertools.product(m_pool, repeat=k):
                for t in r_context_fill(ca, monomial(elems)):
                    if r_size(t) <= bound:
                        built.add(t)
        assert built == direct


def _hole_occurrences(t):
    from taylorlab.resource import RApp, RHole, RLam

    if isinstance(t, RHole):
        yield t
    elif isinstance(t, RLam):
        yield from _hole_occurrences(t.body)
    elif isinstance(t, RApp):
        yield from _hole_occurrences(t.fn)
        for e in t.mono:
            yield from _hole_occurrences(e)


class _ScanningEnumerator(_Enumerator):
    """The enumerator before its pools were sorted by size: each choice
    scans the whole pool and skips the elements that are too large."""

    def monomials(self, t, n, d, stack):
        if n < 1:
            return []
        out = []
        if d is None or d >= 2:
            out.append(monomial(()))
        pool = self.terms(t, n - 1, None if d is None else d - 1, stack)

        def extend(start, left, chosen):
            for i in range(start, len(pool)):
                e = pool[i]
                if e.size > left:
                    continue
                chosen.append(e)
                out.append(monomial(chosen))
                extend(i, left - e.size, chosen)
                chosen.pop()

        extend(0, n - 1, [])
        return out


def test_size_sorted_pools_give_the_slices_of_the_scanning_enumerator():
    targets = [parse_term(src) for src in [*CORPUS.values(), *SLICE_SYSTEMS]]
    targets += [parse_term(src) for src in ("\\x. * (x x)", "(\\y. y) *", "x * *")]
    for target in targets:
        root, system = (target.root, target) if isinstance(target, RationalSystem) else (target, None)
        mode = "cut" if system is not None or not contains_hole(target) else "context"
        for size in (5, 11, 17):
            for depth in (None, 2, 3):
                want = FiniteSum(_ScanningEnumerator(system, mode).terms(root, size, depth, ()))
                if mode == "context":
                    got = enumerate_taylor_context(target, size, depth)
                else:
                    got = enumerate_taylor(target, size, depth)
                assert got == want, (str(target), size, depth)

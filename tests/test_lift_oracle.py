"""Lifting is the only backward path of the commutation check. These tests
hold it to the slice search it replaced, kept here as the oracle: the
normal addends of every approximant up to a wider size bound.

Every tree target of a fuzzed input must lift, and the oracles must agree
on the inputs where they run: every target is in the normal form of its
lifted ancestor, and one whose ancestor fits the wider bound is among the
search's normal addends."""

from random import Random

from taylorlab.beta import BohmPrefix, bohm_tree
from taylorlab.gen import random_lambda_term
from taylorlab.lab import LiftSession, check_commutation, lift_to_source
from taylorlab.resource_reduction import r_normalize
from taylorlab.syntax import LambdaError, parse_term
from taylorlab.taylor import enumerate_taylor

from corpus import CORPUS, SYSTEMS

SIZE = 8
WIDER = SIZE + 4
ORACLE_EVERY = 10


def search_normal_forms(target, bound):
    """The widening search: every normal addend of an approximant of size
    at most ``bound``."""
    out = set()
    for s in enumerate_taylor(target, bound):
        out.update(r_normalize(s))
    return out


def _lift_every_target(target, fuel, oracle):
    """Lift every approximant of the Boehm prefix within ``SIZE``, not only
    those the forward normal forms miss, and hold the lifts to the oracle."""
    targets = enumerate_taylor(bohm_tree(target, SIZE + 1, fuel), SIZE)
    session = LiftSession(BohmPrefix(target, fuel))
    wide = search_normal_forms(target, WIDER) if oracle else None
    for t in targets:
        s = lift_to_source(t, session)
        assert s is not None, (str(target), fuel, str(t), session.failed)
        if wide is not None:
            assert t in r_normalize(s), (str(target), fuel, str(t), str(s))
            if s.size <= WIDER:
                assert t in wide, (str(target), fuel, str(t), str(s))
    return len(targets)


def _random_system(rng):
    """A one-equation system over the names x, y, f; its binders reuse
    those names, so references get resolved under hints of their own free
    names, and the capture guard gets exercised too."""

    def text(n, refs):
        if n <= 1:
            return rng.choice(("x", "y", "f", "F") if refs else ("x", "y", "f"))
        if rng.random() < 0.3:
            return f"\\{rng.choice('xyz')}. {text(n - 1, refs)}"
        k = rng.randint(1, n - 1)
        fn = f"\\{rng.choice('xyz')}. {text(k, refs)}" if rng.random() < 0.4 else text(k, refs)
        return f"({fn}) ({text(max(1, n - 1 - k), refs)})"

    while True:
        try:
            return parse_term(f"let rec F = {text(rng.randint(2, 7), True)} in {text(rng.randint(1, 6), True)}")
        except LambdaError:  # unguarded
            continue


RNG_SEED = 2024


def _random_systems():
    rng = Random(RNG_SEED + 1)
    return [parse_term(src) for src in SYSTEMS] + [_random_system(rng) for _ in range(1_000)]


def test_every_target_lifts_and_the_search_oracle_agrees():
    rng = Random(RNG_SEED)
    inputs = [random_lambda_term(rng, rng.randint(1, 9)) for _ in range(10_000)]
    inputs += [parse_term(src) for src in CORPUS.values()] + _random_systems()
    targets = 0
    for i, m in enumerate(inputs):
        for fuel in (3, 10):
            targets += _lift_every_target(m, fuel, oracle=i % ORACLE_EVERY == 0)
    assert len(inputs) >= 11_000 and targets > 20_000


def test_commutation_on_systems_never_fails_nor_misses_a_lift():
    """A reference that a head step would carry across a hint it resolves
    against cuts the tree (``beta._captures``): such systems end
    inconclusive, never with a false failure."""
    for m in _random_systems():
        for fuel in (3, 10):
            report = check_commutation(m, SIZE, fuel)
            assert report.verdict != "fail", (str(m), fuel, report.witness)
            assert not (report.reason or "").startswith("no ancestor"), (str(m), fuel, report.reason)


UNIQUE_SIZE = 14


def test_a_target_that_is_a_normal_addend_lifts_to_its_forward_owner():
    """Uniformity (ROADMAP item 8): distinct approximants have disjoint
    normal forms, so a tree target that is also a forward normal addend has
    one ancestor, the approximant it came from, and the lifter must find
    exactly that one."""
    checked = 0
    for src in [*CORPUS.values(), *SYSTEMS]:
        target = parse_term(src)
        owner = {}
        for s in enumerate_taylor(target, UNIQUE_SIZE):
            for t in r_normalize(s):
                assert owner.setdefault(t, s) is s, (src, str(t), str(owner[t]), str(s))
        session = LiftSession(BohmPrefix(target, 1000))
        for t in enumerate_taylor(bohm_tree(target, UNIQUE_SIZE + 1, 1000), UNIQUE_SIZE):
            if t in owner:
                assert lift_to_source(t, session) is owner[t], (src, str(t))
                checked += 1
    assert checked >= 170

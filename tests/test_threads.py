"""Interning and the lazily filled caches from several threads: threads that
parse the same text, resource term or λ-term, get the same node,
normalizing a resource term gives all of them the same sum, and threads
that apply the same functions to the same monomials in different orders
get one node per application. A 1 µs switch interval makes the threads
interleave inside the constructors."""

import sys
import threading
from random import Random

from taylorlab import resource
from taylorlab.resource import monomial, parse_resource_term, rapp, rfvar
from taylorlab.resource_reduction import r_normalize
from taylorlab.syntax import parse_term

THREADS = 4
FREE = ("ta", "tb", "tc")  # free names no other test uses, so every node here is new
LAMBDA_FREE = ("la", "lb", "lc")


def _text(rng, size, depth):
    """A resource term of about ``size`` nodes as text, built without
    interning anything; binders are named after their depth."""
    if size <= 1:
        if depth and rng.random() < 0.5:
            return f"v{rng.randrange(depth)}"
        return rng.choice(FREE)
    if rng.random() < 0.3:
        return f"\\v{depth}. {_text(rng, size - 1, depth + 1)}"
    n = rng.randint(0, 3)
    if n == 0:
        return f"<{_text(rng, size - 1, depth)}>1"
    share = max(1, (size - 1) // (n + 1))
    elems = ", ".join(_text(rng, share, depth) for _ in range(n))
    return f"<{_text(rng, share, depth)}>[{elems}]"


def _lambda_text(rng, size, depth):
    """A λ-term of about ``size`` nodes as text; binders are named after
    their depth."""
    if size <= 1:
        if depth and rng.random() < 0.5:
            return f"w{rng.randrange(depth)}"
        return rng.choice(LAMBDA_FREE)
    if rng.random() < 0.3:
        return f"(\\w{depth}. {_lambda_text(rng, size - 1, depth + 1)})"
    share = max(1, (size - 1) // 2)
    return f"({_lambda_text(rng, share, depth)} {_lambda_text(rng, size - 1 - share, depth)})"


def _race(work):
    """Run ``work(k)`` on ``THREADS`` threads that start together."""
    start = threading.Barrier(THREADS)

    def run(k):
        start.wait()
        work(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_get_the_same_nodes_and_normal_forms():
    rng = Random(31)
    texts = [_text(rng, 6 + i % 11, 0) for i in range(3000)]
    lambda_texts = [_lambda_text(rng, 6 + i % 11, 0) for i in range(3000)]
    parsed: list = [None] * THREADS
    normal: list = [None] * THREADS
    lambdas: list = [None] * THREADS

    def work(k):
        parsed[k] = [parse_resource_term(text) for text in texts]
        lambdas[k] = [parse_term(text) for text in lambda_texts]
        normal[k] = [r_normalize(t) for t in parsed[k]]

    _race(work)
    assert all(p is not None for p in normal)  # no thread died
    mismatches = sum(
        parsed[k][i] is not parsed[0][i] or normal[k][i] != normal[0][i] or lambdas[k][i] is not lambdas[0][i]
        for k in range(1, THREADS)
        for i in range(len(texts))
    )
    assert mismatches == 0


def test_threads_racing_on_first_and_later_applications_get_one_node():
    """Each thread applies the same fresh functions to the same monomials,
    the list rotated by the thread index, so the threads race both for a
    function's first application and for the row its second one opens."""
    fns = [rfvar(f"race{i}") for i in range(400)]
    monos = [monomial([rfvar(x) for x in elems]) for elems in ("", "a", "ab", "aa", "b", "abb")]
    built: list = [None] * THREADS

    def work(k):
        order = monos[k:] + monos[:k]
        built[k] = {(fn, m): rapp(fn, m) for fn in fns for m in order}

    _race(work)
    assert all(b is not None for b in built)  # no thread died
    for key, node in built[0].items():
        assert all(b[key] is node for b in built[1:])
        assert (node.fn, node.mono) == key
    for fn in fns:
        first, row = resource._FIRST[fn], resource._APPS[fn]
        assert first.mono not in row and len(row) == len(monos) - 1


def test_a_lost_race_for_the_first_application_keeps_the_callers_node():
    """Another thread puts a function's first application in between this
    call's lookup of ``_FIRST`` and its insertion: the call must file its
    own node in the row, not the other thread's under its monomial. The
    switch is forced with a ``_FIRST`` whose ``get`` lets the other
    application in once, then misses."""
    fn = rfvar("lost_fn")
    m0, m1 = monomial([rfvar("lost0")]), monomial([rfvar("lost1")])

    class Raced(dict):
        armed = True

        def get(self, key, default=None):
            if self.armed and key is fn:
                self.armed = False
                rapp(fn, m0)  # the other thread, in the window
                return default
            return super().get(key, default)

    saved = resource._FIRST
    resource._FIRST = raced = Raced(saved)
    try:
        node = rapp(fn, m1)
    finally:  # the raced table is the true one now
        saved.clear()
        saved.update(raced)
        resource._FIRST = saved
    assert resource._FIRST[fn].mono is m0
    assert node.fn is fn and node.mono is m1
    assert rapp(fn, m1) is node and rapp(fn, m0) is resource._FIRST[fn]
    assert resource._APPS[fn] == {m1: node}

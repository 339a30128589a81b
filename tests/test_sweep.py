"""The sweep of the resource intern tables: it drops the nodes that only
the tables hold, keeps every node that anything else holds (caches and
identity included), keeps the table invariants, waits while another thread
exists, and keeps the tables bounded over many checks in one process."""

import threading

from taylorlab import resource
from taylorlab.lab import check_commutation
from taylorlab.resource import monomial, parse_resource_term, rapp, rfvar, rlam
from taylorlab.resource_reduction import normalize_with, r_normalize, r_step, redex_sites
from taylorlab.syntax import parse_term

# fresh free names, so that the terms below intern new nodes
TEXT = r"<\a. <a>[<\b. <b>[b]>[a, a]]>[<\c. c>[sw1], <\d. <d>1>[sw2]]"
LEAVES = ("sw1", "sw2", "swf", "swa")


def _entries():
    """The entry count of each table that the sweep may empty: monomials,
    abstractions, first applications, applications in rows, and rows."""
    rows = resource._APPS.values()
    return len(resource._MONOS), len(resource._LAMS), len(resource._FIRST), sum(map(len, rows)), len(rows)


def _clean():
    """Sweep, with the leaves the tests use interned (leaves stay), and
    return the entry counts."""
    for name in LEAVES:
        rfvar(name)
    resource._sweep()
    return _entries()


def _work(text):
    """Parse, step at every site and normalize two ways; keep nothing."""
    t = parse_resource_term(text)
    for site in redex_sites(t):
        r_step(t, site)
    r_normalize(t)
    normalize_with(t, lambda sites: sites[-1])


def _sweep_by_births():
    """Build throwaway nodes until a constructor has run a sweep."""
    due, u = resource._due, rfvar("swa")
    while resource._due == due:
        u = rlam(u)


def test_a_held_term_keeps_its_identity_and_caches():
    t = parse_resource_term(TEXT)
    nf, steps = r_normalize(t), [r_step(t, site) for site in redex_sites(t)]
    inner = t.fn.body.mono.elems[0]  # <\b. <b>[b]>[a, a], a redex under the binder
    fired, normal = t.fired, t.nf
    assert fired is not None and normal is not None and inner.fired is not None
    _sweep_by_births()
    assert parse_resource_term(TEXT) is t and t.fn.body.mono.elems[0] is inner
    assert t.fired is fired and t.nf is normal and inner.fired is not None
    assert r_normalize(t) == nf and [r_step(t, site) for site in redex_sites(t)] == steps


def test_a_dropped_term_leaves_every_table_as_it_was():
    before = _clean()
    _work(TEXT)
    assert _entries() != before
    resource._sweep()
    assert _entries() == before


def test_a_deep_dead_chain_goes_in_one_sweep():
    before = _clean()
    f, t = rfvar("swf"), rfvar("swa")
    for _ in range(10_000):
        t = rlam(rapp(f, monomial([t])))
    assert resource._LAMS[t.body] is t
    del t
    resource._sweep()
    assert _entries() == before


def test_a_dropped_first_application_hands_its_entry_to_its_row():
    before = _clean()
    f = rfvar("swf")
    m1, m2, m3 = (monomial([rfvar(name)] * k) for name, k in (("sw1", 1), ("sw2", 1), ("sw1", 2)))
    first, second, third = rapp(f, m1), rapp(f, m2), rapp(f, m3)
    assert resource._FIRST[f] is first and list(resource._APPS[f].values()) == [second, third]
    del first
    resource._sweep()
    assert resource._FIRST[f] in (second, third) and resource._FIRST[f].mono not in resource._APPS[f]
    assert len(resource._APPS[f]) == 1 and rapp(f, m2) is second and rapp(f, m3) is third
    del third
    resource._sweep()
    assert resource._FIRST[f] is second and f not in resource._APPS
    again = rapp(f, m1)
    assert again.mono is m1 and resource._APPS[f] == {m1: again} and rapp(f, m1) is again
    del second, again, m1, m2, m3
    resource._sweep()
    assert _entries() == before


def test_no_sweep_while_another_thread_lives():
    before = _clean()
    _work(TEXT)
    garbage = _entries()
    release = threading.Event()
    parked = threading.Thread(target=release.wait)
    parked.start()
    try:
        resource._sweep()
        assert _entries() == garbage
    finally:
        release.set()
        parked.join(timeout=60)
    assert not parked.is_alive()
    resource._sweep()
    assert _entries() == before


def test_fifty_checks_keep_the_tables_bounded():
    """Each check applies its own free name, so no check finds the nodes
    of another. A sweep keeps what lives before the run and the nodes of the
    check in progress, at most ``held``, and the next waits for as many
    births, at least ``_FLOOR``: the bound. More nodes are born than it
    admits."""
    y = r"(\f. (\x. f (x x)) (\x. f (x x)))"
    held = sum(_clean()[:4]) + 2000
    bound = held + max(resource._FLOOR, held)
    born, most = next(resource._BIRTHS), 0
    for k in range(50):
        assert check_commutation(parse_term(f"{y} g{k}"), 15, 1000).verdict == "pass"
        most = max(most, sum(_entries()[:4]))
    assert most <= bound < next(resource._BIRTHS) - born

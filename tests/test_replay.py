"""Ancestor verification by certificate, cross-checked against the
enumerating engines it replaces: ``open_binder`` and ``hr_step`` list every
addend, ``r_normalize`` computes the whole normal form, and unshared lifts
are the reference for the lifts a commutation check shares."""

import gc
import re
from itertools import permutations
from random import Random

import pytest

import taylorlab.beta as beta
import taylorlab.lab as lab
from taylorlab.beta import BohmPrefix, bohm_tree
from taylorlab.gen import random_resource_term
from taylorlab.lab import (
    LiftSession,
    check_commutation,
    check_genericity,
    check_head_charac,
    check_norm_charac,
    lift_to_source,
)
from taylorlab.resource import (
    FiniteSum,
    RApp,
    RFreeVar,
    RHole,
    RLam,
    RVar,
    _rshift,
    monomial,
    open_along,
    open_binder,
    parse_resource_monomial,
    parse_resource_term,
    rapp,
    rfvar,
    rlam,
    rvar,
    unshift,
)
from taylorlab.resource_reduction import head_split, hr_step, peel, r_normalize, rewrap
from taylorlab.syntax import (
    HOLE,
    App,
    FreeVar,
    Hole,
    Lam,
    RationalSystem,
    RecRef,
    Var,
    parse_term,
    resolve_ref,
    split_target,
)
from taylorlab.taylor import _approx, approximates, enumerate_taylor, member_of_bohm

from corpus import C2C2, COMMUTE_COLD, CORPUS, LETREC, MUL_C2C2, OMEGA, OMEGA3, SESSION_CASES, SYSTEMS, TREES, Y, YG
from support import flat_memo, fresh_session, hr_step_along, is_head_normal, memo_entries
from walk_oracles import OldLiftSession, old_member_of_bohm

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


def _open_along_reference(body, elems, c=0):
    """The sequential walk that ``open_along`` replaced: one counter over
    the occurrences of ``c`` in traversal order, nothing memoized."""
    k = 0

    def go(u, d):
        nonlocal k
        if isinstance(u, RVar):
            if u.index == d:
                k += 1
                return _rshift(elems[k - 1], d)
            return rvar(u.index - 1) if u.index > d else u
        if isinstance(u, RLam):
            return rlam(go(u.body, d + 1))
        if isinstance(u, RApp):
            fn = go(u.fn, d)
            return rapp(fn, monomial(go(e, d) for e in u.mono))
        return u

    try:
        out = go(body, c)
    except IndexError:
        return None
    return out if k == len(elems) else None


def test_open_along_examples():
    # \a. <a>[a] opened on [y, z]: each order gives one way round
    body = rp("\\a. <a>[a]").body
    y, z = rp("y"), rp("z")
    assert set(open_binder(body, parse_resource_monomial("[y, z]"))) == {rp("<y>[z]"), rp("<z>[y]")}
    assert open_along(body, [y, z]) is rp("<y>[z]")
    assert open_along(body, [z, y]) is rp("<z>[y]")
    assert open_along(body, [y]) is None
    assert open_along(body, [y, z, z]) is None
    # under one more binder the grafted #0 becomes #1, and the escaping #2
    # loses the opened binder
    body = rlam(rapp(rvar(0), monomial([rvar(1), rvar(2)])))
    opened = rlam(rapp(rvar(0), monomial([rvar(1), rvar(1)])))
    assert set(open_binder(body, monomial([rvar(0)]))) == {opened}
    assert open_along(body, [rvar(0)]) is opened


def test_open_along_rebuilds_exactly_the_addends():
    """Every ordering of the multiset rebuilds an addend of ``open_binder``,
    and the orderings together rebuild the whole sum."""
    rng = Random(2024)
    memo = {}  # shared by every rebuild below, as a session shares it
    distinct_orders = 0
    while distinct_orders < 400:
        body = random_resource_term(rng, rng.randint(2, 14), depth=1)
        k = _bound_occurrences(body)
        if k > 4:
            continue
        mono = _random_monomial(rng, k)
        orders = list(permutations(mono.elems))
        rebuilt = {open_along(body, order) for order in orders}
        assert rebuilt == set(open_binder(body, mono))
        for order in orders:
            expected = _open_along_reference(body, order)
            assert open_along(body, order, memo) is expected
        wrong_arity = _random_monomial(rng, k + 1).elems
        assert open_along(body, wrong_arity) is None
        assert open_along(body, wrong_arity, memo) is None
        if k:
            assert open_along(body, mono.elems[1:]) is None
            assert open_along(body, mono.elems[1:], memo) is None
        distinct_orders += len(set(mono.elems)) > 1


def test_certificate_check_agrees_with_hr_step():
    """A link holds exactly for the addends of ``hr_step``, each rebuilt
    from an ordering of the head redex's monomial; anything that is not
    such an ordering is refused. The lifter checks a link on the opened
    core, ``u`` inside the frames that ``before`` and ``after`` share,
    and that check agrees with ``hr_step_along`` on the whole terms."""
    rng = Random(7)
    checked = 0
    while checked < 500:
        t = random_resource_term(rng, rng.randint(4, 16))
        if is_head_normal(t):
            assert hr_step_along(t, ()) is None
            continue
        fired = hr_step(t)
        binders, head, monos = head_split(t)
        elems = monos[0].elems
        orders = set(permutations(elems))
        rebuilt = {order: hr_step_along(t, order) for order in orders}
        assert {u for u in rebuilt.values() if u is not None} == set(fired)
        candidates = list(fired) + [random_resource_term(rng, 10) for _ in range(2)]
        candidates += [_padding(u.size) for u in fired] + [t]
        for order, u in rebuilt.items():
            for v in candidates:
                peeled = peel(v, binders, len(monos) - 1)
                if peeled is None or peeled[1] != monos[1:]:
                    assert v is not u
                else:
                    assert lab._link_holds(head.body, list(order), peeled[0]) == (v is u)
        stranger = random_resource_term(rng, 3, depth=1)
        for bad in (elems[1:], elems + (stranger,), (stranger,) + elems[1:]):
            if sorted(bad, key=lambda e: e.skey) != list(elems):
                assert hr_step_along(t, bad) is None
        checked += 1


def _corpus_targets(size=10):
    for src in CORPUS.values():
        term = parse_term(src)
        prefix = bohm_tree(term, size + 1, FUEL)
        yield term, list(enumerate_taylor(prefix, size))


def test_replay_implies_membership_in_the_normal_form():
    """Slow oracle for the link chain: every stored sub-lift, each one
    built with all its links held, has its own target in the normal form
    of what it built, the top-level ancestors included."""
    lifted = 0
    for term, targets in _corpus_targets():
        session = LiftSession(BohmPrefix(term, FUEL))
        for t in targets:
            if lift_to_source(t, session) is not None:
                lifted += 1
        for (u, _, _), node, _ in memo_entries(session, "lifts"):
            if node is not None:
                assert u in r_normalize(node)
    assert lifted >= 40


@pytest.mark.parametrize("src,size", SESSION_CASES)
def test_shared_session_accepts_what_unshared_lifts_accept(src, size, monkeypatch):
    """Slow reference: a fresh, unshared lift per target. The shared
    session must accept the same ancestors while head-normalizing each
    (subterm, stack) once."""
    term = parse_term(src)
    targets = enumerate_taylor(bohm_tree(term, size + 1, FUEL), size)
    reference = [lift_to_source(t, fresh_session(term, FUEL)) for t in targets]

    runs = []
    original = beta.head_normalize

    def counting(m, fuel, system=None, stack=()):
        runs.append((m, stack))
        return original(m, fuel, system, stack)

    monkeypatch.setattr(beta, "head_normalize", counting)
    session = LiftSession(BohmPrefix(term, FUEL))
    shared = [lift_to_source(t, session) for t in targets]
    assert all(a is b for a, b in zip(shared, reference))
    assert len(runs) == len(set(runs)) == len(session.prefix.runs)


def _shared_run(src, size):
    """Every tree target of one commutation check, lifted through one
    session; returns the session's memos with what went through them."""
    term = parse_term(src)
    targets = list(enumerate_taylor(bohm_tree(term, size + 1, FUEL), size))
    session = LiftSession(BohmPrefix(term, FUEL))
    ancestors = [lift_to_source(t, session) for t in targets]
    return term, targets, session, [s for s in ancestors if s is not None]


def _inverts_steps(session):
    """Whether some head step was there to invert (a term already in head
    normal form lifts without one)."""
    return any(run is not None and run[0] for run in session.tables.values())


def _inverted_steps(session):
    """What un-substitution gave for the head binder bodies of the session's
    step tables: ``(w, es)`` per inverted step. A body's leading
    abstractions have no entry of their own, so its entry sits below them,
    at a bound index one higher per binder, and ``w`` gets them back."""
    bodies = {}
    for run in session.tables.values():
        for step in run[0] if run else ():
            p, binders = step[3], 0
            while isinstance(p, Lam):
                p, binders = p.body, binders + 1
            bodies[p] = binders
    return [
        (rewrap(got[0], c, ()), got[1])
        for (_, p, c, _), got, _ in memo_entries(session, "unsubst")
        if bodies.get(p) == c and got is not None
    ]


def _opens_a_loose_body(session):
    """Whether some inverted step rebuilds a binder body with a loose
    index; closed bodies, and all subterms without one, are shared
    unchanged and never reach the rebuild memo."""
    return any(w.loose > 0 for w, _ in _inverted_steps(session))


def _grafts(session):
    """Whether some inverted step grafted an element."""
    return any(es for _, es in _inverted_steps(session))


@pytest.mark.parametrize("src,size", SESSION_CASES)
def test_memoized_anti_subst_agrees_with_a_fresh_call(src, size):
    term, _, session, _ = _shared_run(src, size)
    system = term if isinstance(term, RationalSystem) else None
    assert bool(flat_memo(session, "unsubst")) == _inverts_steps(session)
    for (u, p, c, stack), got, table in memo_entries(session, "unsubst"):
        assert lab._anti_subst(u, p, c, stack, system, table) is got
        assert lab._anti_subst(u, p, c, stack, system) == got


@pytest.mark.parametrize("src,size", SESSION_CASES)
def test_memoized_rebuild_agrees_with_open_along(src, size):
    """Every subterm rebuilt through the session is what a fresh
    ``open_along`` and the sequential walk it replaced rebuild."""
    _, _, session, ancestors = _shared_run(src, size)
    rebuilds = 0
    for key, got, _ in memo_entries(session, "rebuilt"):
        if len(key) == 2:  # an occurrence count
            u, c = key
            assert got == _bound_occurrences(u, c)
            continue
        u, c, elems = key
        assert got is _open_along_reference(u, elems, c)
        if c == 0:
            assert open_along(u, elems) is got
        rebuilds += 1
    assert bool(rebuilds) == _opens_a_loose_body(session)


@pytest.mark.parametrize("src,size", SESSION_CASES)
def test_memoized_approximation_agrees_with_a_fresh_test(src, size):
    """The session's memo decides what a fresh ``approximates`` decides, on
    the ancestors, on the slice and on the tree targets (which mostly do
    not approximate the term itself). The lift fills it with its graft
    checks only, so it is empty when no step grafted anything, as for
    ``\\x. x``."""
    term, targets, session, ancestors = _shared_run(src, size)
    assert bool(session.approx) == _grafts(session)
    verdicts = set()
    m, system = split_target(term)
    for s in ancestors + list(enumerate_taylor(term, size)) + targets:
        verdict = _approx(s, m, (), system, session.approx)
        assert verdict == approximates(s, term)
        verdicts.add(verdict)
    assert True in verdicts


def _anti_subst_reference(u, p, c, stack, system):
    """Un-substitution as one plain recursion, each binder its own frame,
    nothing memoized and every monomial sorted by ``monomial``."""
    while isinstance(p, RecRef):
        if system is None:
            return None
        p = resolve_ref(p, system, stack)
    if isinstance(p, Var):
        if p.index == c:
            e = unshift(u, c)
            return None if e is None else (rvar(c), (e,))
        expect = p.index - 1 if p.index > c else p.index
        return (rvar(p.index), ()) if isinstance(u, RVar) and u.index == expect else None
    if isinstance(p, FreeVar):
        return (u, ()) if isinstance(u, RFreeVar) and u.name == p.name else None
    if isinstance(p, Lam):
        if not isinstance(u, RLam):
            return None
        got = _anti_subst_reference(u.body, p.body, c + 1, (p.hint,) + stack, system)
        return None if got is None else (rlam(got[0]), got[1])
    if not (isinstance(p, App) and isinstance(u, RApp)):
        return None
    fn = _anti_subst_reference(u.fn, p.fn, c, stack, system)
    parts = [_anti_subst_reference(e, p.arg, c, stack, system) for e in u.mono]
    if fn is None or None in parts:
        return None
    parts.sort(key=lambda part: part[0].skey)
    grafts = fn[1] + tuple(e for _, more in parts for e in more)
    return rapp(fn[0], monomial(w for w, _ in parts)), grafts


def _approx_reference(u, t, stack, system):
    """The approximation relation as one plain recursion, nothing memoized."""
    while isinstance(t, RecRef):
        t = resolve_ref(t, system, stack)
    if isinstance(u, RLam):
        return isinstance(t, Lam) and _approx_reference(u.body, t.body, (t.hint,) + stack, system)
    if isinstance(u, RApp):
        return (
            isinstance(t, App)
            and _approx_reference(u.fn, t.fn, stack, system)
            and all(_approx_reference(e, t.arg, stack, system) for e in u.mono)
        )
    if isinstance(u, RVar):
        return isinstance(t, Var) and t.index == u.index
    if isinstance(u, RFreeVar):
        return isinstance(t, FreeVar) and t.name == u.name
    return isinstance(u, RHole) and isinstance(t, Hole)


MEMO_CASES = SESSION_CASES + [(src, 12) for src in SYSTEMS if src not in LETREC]


@pytest.mark.parametrize("src,size", MEMO_CASES)
def test_branch_only_memos_agree_with_unmemoized_walks(src, size, monkeypatch):
    """Every entry of the three walk memos is what a plain recursion over
    its key gives. The walks pass abstractions through, so no key holds one
    at the walked position: only the graft keys that ``_invert`` looks up
    may have an abstraction as their element."""
    grafts = set()
    original = lab._lift_one_step

    def recording(chain, step, system, memo):
        got = original(chain, step, system, memo)
        if got is not None:
            grafts.update((e, step[5], step[6]) for e in got[3])
        return got

    monkeypatch.setattr(lab, "_lift_one_step", recording)
    term, _, session, _ = _shared_run(src, size)
    system = term if isinstance(term, RationalSystem) else None
    assert bool(flat_memo(session, "unsubst")) == _inverts_steps(session)
    for (u, p, c, stack), got, _ in memo_entries(session, "unsubst"):
        assert not isinstance(p, Lam)
        assert got == _anti_subst_reference(u, p, c, stack, system)
    for key, got, _ in memo_entries(session, "rebuilt"):
        assert not isinstance(key[0], RLam)
        if len(key) == 2:
            assert got == _bound_occurrences(*key)
        else:
            u, c, elems = key
            assert got is _open_along_reference(u, elems, c)
    for key, got in session.approx.items():
        assert got == _approx_reference(*key, system)
        assert not isinstance(key[0], RLam) or key in grafts


# entries of the check's session at the two checks of commute-cold whose
# redex bodies and arguments are abstractions: at most this many
SESSION_ENTRIES = [
    (C2C2, 18, {"unsubst": 1173, "rebuilt": 1326, "approx": 366}),
    (MUL_C2C2, 18, {"unsubst": 1378, "rebuilt": 1615, "approx": 364}),
]


def _checked_session(src, size, monkeypatch):
    """The session of a passing ``check_commutation`` of ``src`` at ``size``."""
    sessions = []

    class Recording(LiftSession):
        __slots__ = ()

        def __init__(self, prefix):
            super().__init__(prefix)
            sessions.append(self)

    monkeypatch.setattr(lab, "LiftSession", Recording)
    assert check_commutation(parse_term(src), size, FUEL).verdict == "pass"
    (session,) = sessions
    return session


def _entries(session, name):
    """How many entries the session's memo ``name`` holds, each counted
    once under its flat key."""
    return len(session.approx) if name == "approx" else len(flat_memo(session, name))


@pytest.mark.parametrize("src,size,bounds", SESSION_ENTRIES)
def test_session_memos_stay_within_their_entry_counts(src, size, bounds, monkeypatch):
    session = _checked_session(src, size, monkeypatch)
    counts = {name: _entries(session, name) for name in bounds}
    assert all(counts[name] <= bound for name, bound in bounds.items()), counts


def test_scoped_memos_hold_what_the_flat_memos_held(monkeypatch):
    """The memos kept by scope hold as many entries as the flat memos keyed
    by tuples held at the same check, each under its own flat key
    (``flat_memo`` fails on a key met twice): the scopes lose and duplicate
    nothing."""
    session = _checked_session(MUL_C2C2, 18, monkeypatch)
    counts = {name: _entries(session, name) for name in ("unsubst", "rebuilt", "lifts")}
    assert counts == {"unsubst": 1378, "rebuilt": 1615, "lifts": 408}


def _inside_elements(t, out=None, below=False):
    """Every subterm of ``t`` that lies inside some monomial element."""
    out = set() if out is None else out
    if below:
        out.add(t)
    if isinstance(t, RLam):
        _inside_elements(t.body, out, below)
    elif isinstance(t, RApp):
        _inside_elements(t.fn, out, below)
        for e in t.mono:
            _inside_elements(e, out, True)
    return out


def _lift_of(t, term):
    session = LiftSession(BohmPrefix(term, FUEL))
    s = lift_to_source(t, session)
    return s, session


def test_corrupted_link_ends_the_lift(monkeypatch):
    t = rp("\\a. <a>[<a>[<a>1]]")
    s, session = _lift_of(t, Y)
    assert s is not None and session.lifts[Y, ()][t] is s and session.failed is None

    # links are checked children first: corrupting only the first one
    # breaks a monomial element's lift, which the ancestor must inherit
    original = lab._link_holds
    checked = []

    def corrupting(w, elems, u, memo=None):
        checked.append(u)
        return original(w, elems, _padding(u.size) if len(checked) == 1 else u, memo)

    monkeypatch.setattr(lab, "_link_holds", corrupting)
    broken, session = _lift_of(t, Y)
    assert broken is None and session.lifts[Y, ()][t] is None
    assert len(checked) == 1 and checked[0] in _inside_elements(s)
    assert session.failed[1] == "failed its link check"


def test_corrupted_shared_sub_lift_leaves_every_reuser_unlifted(monkeypatch):
    """Targets that reuse a sub-lift whose link failed inherit the failure
    from the session, although their own links hold."""
    targets = [rp(src) for src in ("\\a. <a>[<a>[<a>1]]", "\\a. <a>[<a>[<a>[<a>1]]]", "\\a. <a>[<a>[<a>1], <a>[<a>1]]")]
    clean_session = LiftSession(BohmPrefix(Y, FUEL))
    reference = [lift_to_source(t, clean_session) for t in targets]
    assert None not in reference and clean_session.shared > 0

    original = lab._link_holds
    checked = []

    def corrupting(w, elems, u, memo=None):
        checked.append(u)
        return len(checked) > 1 and original(w, elems, u, memo)

    monkeypatch.setattr(lab, "_link_holds", corrupting)
    session = LiftSession(BohmPrefix(Y, FUEL))
    assert [lift_to_source(t, session) for t in targets] == [None] * len(targets)
    # the failed sub-lift is built and checked once, then served to each
    # reuser; a lift stops at its first unlifted element, so the last
    # target reads it once where the clean run reads both its elements
    assert len(checked) == 1
    assert session.shared == len(targets) - 1 == clean_session.shared - 1
    assert all(checked[0] in _inside_elements(s) for s in reference)


def test_corrupted_certificate_ends_the_lift(monkeypatch):
    t = rp("\\a. <a>[<a>[<a>1]]")
    original = lab._lift_one_step
    wrong = []

    def reversing(chain, step, system, memo):
        u, rest, w, grafted = original(chain, step, system, memo)
        bad = grafted[::-1]
        if not lab._link_holds(w, bad, u):
            wrong.append(bad)
        return u, rest, w, bad

    monkeypatch.setattr(lab, "_lift_one_step", reversing)
    s, session = _lift_of(t, Y)
    assert s is None and wrong
    assert session.failed[1] == "failed its link check"


def test_corrupted_graft_ends_the_lift(monkeypatch):
    """A grafted element that does not approximate the redex's argument
    ends the lift before its link is checked, and the check names the head
    step with that reason."""
    original = lab._lift_one_step
    stranger = rfvar("zz")

    def grafting_a_stranger(chain, step, system, memo):
        got = original(chain, step, system, memo)
        if got is None or not got[3]:
            return got
        u, rest, w, grafted = got
        return u, rest, w, (stranger,) + grafted[1:]

    monkeypatch.setattr(lab, "_lift_one_step", grafting_a_stranger)
    s, session = _lift_of(rp("\\a. <a>[<a>[<a>1]]"), Y)
    assert s is None and session.checked_grafts == 1
    assert session.failed[1] == "grafted an element outside its argument's expansion"
    report = check_commutation(Y, 14, FUEL)
    assert report.verdict == "inconclusive"
    assert ": the head step from " in report.reason
    assert report.reason.endswith(" grafted an element outside its argument's expansion")


@pytest.mark.parametrize("src,size", SESSION_CASES)
def test_every_link_and_lift_passes_the_whole_term_oracles(src, size, monkeypatch):
    """The slow oracles of the lifter's checks: each link checked on its
    core is a link on the whole terms (``hr_step_along(before, elems) is
    after``, each rebuilt from its chain), and each ancestor and stored
    sub-lift, whose grafts were checked one by one, approximates its λ-term
    as a whole."""
    links = []
    original = LiftSession._invert

    def recording(self, after, step):
        before = original(self, after, step)
        if before is not None:
            elems = lab._lift_one_step(after, step, self.prefix.system, self.unsubst)[3]
            links.append((rewrap(*before), rewrap(*after), elems))
        return before

    monkeypatch.setattr(LiftSession, "_invert", recording)
    term, _, session, ancestors = _shared_run(src, size)
    assert bool(links) == _inverts_steps(session)
    assert len(links) == session.checked_links
    for before, after, elems in links:
        assert hr_step_along(before, elems) is after
    system = term if isinstance(term, RationalSystem) else None
    for s in ancestors:
        assert approximates(s, term)
    lifted = 0
    for (_, m, stack), node, _ in memo_entries(session, "lifts"):
        if node is not None:
            assert _approx(node, m, stack, system, {})
            lifted += 1
    assert lifted >= len(ancestors)


@pytest.mark.parametrize(
    "check",
    [
        lambda m: check_commutation(m, 14, FUEL),
        lambda m: check_head_charac(m, 4, FUEL),
        lambda m: check_norm_charac(m, 3, 6, FUEL),
    ],
    ids=["commutation", "head", "norm"],
)
def test_a_failed_link_is_inconclusive_naming_the_step(check, monkeypatch):
    """A link that does not hold is a defect of the construction, never a
    refutation and never a pass."""
    monkeypatch.setattr(lab, "_link_holds", lambda *args: False)
    report = check(Y)
    assert report.verdict == "inconclusive"
    assert "no ancestor lifted for" in report.reason
    assert ": the head step from " in report.reason and report.reason.endswith(" failed its link check")


def test_the_ancestor_is_the_targets_own_lift():
    """The ancestor returned for ``t`` is the lift the session stores for
    ``t`` itself, never one built for another target of the same session,
    whose normal form may miss ``t``."""
    t = rp("\\a. <a>[<a>1]")
    other = rp("\\a. <a>[<a>[<a>1]]")
    for order in ((t, other), (other, t)):
        session = LiftSession(BohmPrefix(Y, FUEL))
        got = {u: lift_to_source(u, session) for u in order}
        for u, s in got.items():
            assert s is not None and s is session.lifts[Y, ()][u]
        assert t not in r_normalize(got[other])
    for term, targets in _corpus_targets():
        session = LiftSession(BohmPrefix(term, FUEL))
        for t in targets:
            s = lift_to_source(t, session)
            assert s is None or s is session.lifts[term, ()][t]


@pytest.mark.parametrize(
    "src,size,constructed",
    [
        (CORPUS["Y"], 14, 35),
        (CORPUS["Yg"], 14, 83),
        (C2C2, 14, 42),
        (MUL_C2C2, 14, 42),
    ],
)
def test_commutation_reports_where_verification_went(src, size, constructed):
    report = check_commutation(parse_term(src), size, FUEL)
    stats = report.stats
    assert report.verdict == "pass"
    assert stats["constructed_ancestors"] == constructed
    assert "replayed_ancestors" not in stats and "verify_fallbacks" not in stats
    assert stats["shared_lifts"] > 0
    # each of these terms has a head redex, so every ancestor checks a link of its own
    assert stats["checked_links"] >= constructed and stats["checked_grafts"] > 0
    assert check_commutation(parse_term(src), size, FUEL).stats == stats


@pytest.mark.parametrize(
    "src,size,approximants,normal_addends,tree_targets,constructed", [case[1:] for case in COMMUTE_COLD]
)
def test_commute_cold_instances(src, size, approximants, normal_addends, tree_targets, constructed):
    report = check_commutation(parse_term(src), size, FUEL)
    stats = report.stats
    assert report.verdict == "pass"
    assert (stats["approximants"], stats["normal_addends"], stats["tree_targets"], stats["constructed_ancestors"]) == (
        approximants,
        normal_addends,
        tree_targets,
        constructed,
    )
    assert "replayed_ancestors" not in stats and "verify_fallbacks" not in stats


def _live_sessions():
    gc.collect()
    return sum(isinstance(o, LiftSession) for o in gc.get_objects())


def test_check_drops_its_session_and_memos():
    before = _live_sessions()
    report = check_commutation(YG, 14, FUEL)
    assert report.stats["shared_lifts"] > 0
    assert _live_sessions() <= before


ALL_CASES = SESSION_CASES + [(src, size) for _, src, size, *_ in COMMUTE_COLD]


@pytest.mark.parametrize("src,size", ALL_CASES)
def test_each_check_runs_each_node_once(src, size, monkeypatch):
    """One ``BohmPrefix`` per check feeds forward membership, the tree
    targets and the lifter, and the tree reader and the truncation of the
    genericity check: no (subterm, stack) is head-normalized twice."""
    runs = []
    original = beta.head_normalize

    def counting(m, fuel, system=None, stack=()):
        runs.append((m, stack))
        return original(m, fuel, system, stack)

    monkeypatch.setattr(beta, "head_normalize", counting)
    # the certificate of the filling is no run of the filled context's tree
    monkeypatch.setattr(lab, "solvable", lambda m, fuel: original(m, fuel).verdict)
    term = parse_term(src)
    checks = [
        lambda: check_commutation(term, size, FUEL),
        # a size bound of 2 leaves the head and norm checks no slice witness, so they lift
        lambda: check_head_charac(term, 2, FUEL),
        lambda: check_norm_charac(term, 3, 2, FUEL),
    ]
    if not isinstance(term, RationalSystem):
        # the filled context head-reduces to the term; no replacement builds a tree
        context = App(Lam("h", term), HOLE)
        checks.append(lambda: check_genericity(context, OMEGA, [], 2, FUEL, depth=4))
    total = 0
    for check in checks:
        runs.clear()
        check()
        assert len(runs) == len(set(runs))
        total += len(runs)
    assert total > 0


@pytest.mark.parametrize("src", [*CORPUS.values(), *SYSTEMS, *(src for _, src, *_ in COMMUTE_COLD), *TREES])
def test_head_and_norm_read_no_truncated_tree(src, monkeypatch):
    """The head and norm checks read the prefix's runs node by node; neither
    builds a truncated tree, at any tested depth."""

    def refuse(prefix, depth):
        raise AssertionError(f"tree({depth}) built")

    monkeypatch.setattr(BohmPrefix, "tree", refuse)
    term = parse_term(src)
    for fuel in (3, FUEL):
        check_head_charac(term, 2, fuel)
        check_head_charac(term, 8, fuel)
        check_norm_charac(term, 4, 2, fuel)
        check_norm_charac(term, 4, 8, fuel)


@pytest.mark.parametrize("src,size", ALL_CASES)
def test_lean_chains_lift_what_wrapping_every_step_lifted(src, size, monkeypatch):
    """The frozen lifter that wrapped each inverted step in its binders and
    frames, for the next step to peel them off, is the reference: the lean
    chains store the very same node for every sub-lift, and count the same
    shared sub-lifts, links and grafts, over all the tree targets and in
    the check's report."""
    term = parse_term(src)
    prefix = BohmPrefix(term, FUEL)
    lean, frozen = LiftSession(prefix), OldLiftSession(prefix)
    for t in enumerate_taylor(prefix.tree(size + 1), size):
        assert lift_to_source(t, lean) is lift_to_source(t, frozen)
    lean_lifts, frozen_lifts = flat_memo(lean, "lifts"), flat_memo(frozen, "lifts")
    assert lean_lifts.keys() == frozen_lifts.keys()
    assert all(node is frozen_lifts[key] for key, node in lean_lifts.items())
    assert bool(lean.checked_links) == _inverts_steps(lean)

    def counters(session):
        return session.shared, session.checked_links, session.checked_grafts, session.failed

    assert counters(lean) == counters(frozen)
    report = check_commutation(term, size, FUEL).to_dict()
    monkeypatch.setattr(lab, "LiftSession", OldLiftSession)
    assert check_commutation(term, size, FUEL).to_dict() == report


def test_membership_agrees_with_the_truncated_tree():
    """``member_of_bohm`` reads a prefix's runs node by node; the frozen path
    built the tree to depth ``r_height(t) + 1`` and walked it. They give the
    same verdict on the slice, its normal addends and the tree targets, at a
    fuel that cuts some trees too."""
    verdicts = {True: 0, False: 0, None: 0}
    for src, size in ALL_CASES:
        term = parse_term(src)
        approximants = set(enumerate_taylor(term, size))
        addends = {t for s in approximants for t in r_normalize(s)}
        for fuel in (3, FUEL):
            prefix = BohmPrefix(term, fuel)
            targets = set(enumerate_taylor(prefix.tree(size + 1), size))
            for t in approximants | addends | targets:
                verdict = member_of_bohm(t, prefix)
                assert verdict is old_member_of_bohm(t, term, fuel), (src, fuel, str(t))
                verdicts[verdict] += 1
    assert member_of_bohm(rp("x"), BohmPrefix(OMEGA3, 3)) is old_member_of_bohm(rp("x"), OMEGA3, 3) is None
    assert min(verdicts.values()) > 0, verdicts


def test_commutation_fails_on_an_addend_with_two_approximants(monkeypatch):
    """Uniformity: distinct approximants have disjoint normal forms. A
    normal form that breaks it fails the check, and the witness names the
    addend and both approximants, each of which ``rnf`` can replay."""
    original = lab.r_normalize
    sl = list(enumerate_taylor(Y, 12))
    first = next(s for s in sl if original(s))
    second = sl[-1]
    shared = original(first).terms[0]
    assert second is not first and shared not in original(second)

    def merging(s):
        nf = original(s)
        return FiniteSum(nf.terms + (shared,)) if s is second else nf

    monkeypatch.setattr(lab, "r_normalize", merging)
    report = check_commutation(Y, 12, FUEL)
    assert report.verdict == "fail"
    got = re.fullmatch(r"nf addend (.+) of both (.+) and (.+)", report.witness)
    t, owner, other = (parse_resource_term(text) for text in got.groups())
    assert (t, owner, other) == (shared, first, second)
    assert t in original(owner) and t not in original(other)

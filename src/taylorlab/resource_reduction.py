"""Resource reduction: single steps, normalization, head operator, diamond check.

A step fires ``<\\x. u>[t1..tn]`` into the linear substitution of the
elements for the occurrences of ``x`` and distributes the resulting sum
through the surrounding (linear) context; an arity mismatch annihilates
the whole addend. Every addend of a step result is strictly smaller than
the source, so normalization terminates, and the relation satisfies a
one-step diamond, so normal forms are strategy-independent; both facts are
exercised by the test suite rather than assumed. ``r_normalize`` relies on
the second: it normalizes each addend by structural recursion, not by
repeated steps from the root.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Sequence

from .beta import NotARedexError
from .resource import (
    FiniteSum,
    Monomial,
    ResourceTerm,
    RApp,
    RLam,
    _canonical,
    _fired,
    _wrap,
    monomial,
    rapp,
    rlam,
    union_all,
)


# A site is a path of 'body' / 'fun' / ('arg', i) components; its depth is
# the number of ('arg', i) components (monomial crossings).
RedexSite = tuple


def site_depth(site: RedexSite) -> int:
    return sum(1 for c in site if isinstance(c, tuple))


def site_to_str(site: RedexSite) -> str:
    if not site:
        return "root"
    return ".".join(c if isinstance(c, str) else f"arg[{c[1]}]" for c in site)


def redex_sites(t: ResourceTerm) -> list[RedexSite]:
    """All redex positions, outermost first, function before arguments.
    Redex-free subterms are not entered."""
    out: list[RedexSite] = []
    path: list = []  # grown and cut back to the depth a pending subterm sits at
    todo = [(t, 0, None)] if t.redex else []
    while todo:
        u, depth, step = todo.pop()
        del path[depth:]
        if step is not None:
            path.append(step)
        depth = len(path)
        if isinstance(u, RLam):
            todo.append((u.body, depth, "body"))
            continue
        if isinstance(u.fn, RLam):
            out.append(tuple(path))
        elems = u.mono.elems
        for i in range(len(elems) - 1, -1, -1):
            if elems[i].redex:
                todo.append((elems[i], depth, ("arg", i)))
        if u.fn.redex:
            todo.append((u.fn, depth, "fun"))
    return out


def r_step(t: ResourceTerm, site: RedexSite) -> FiniteSum:
    """Fire the redex at ``site``; the surrounding context maps linearly, so
    an empty substitution result wipes out everything. The site is walked
    once, and each addend is plugged back through the frames it crossed,
    which keeps the addends distinct and in ``skey`` order."""
    frames: list = []  # (node, None) for 'body' and 'fun', (node, i) for ('arg', i)
    u = t
    for k, head in enumerate(site):
        if head == "body" and isinstance(u, RLam):
            frames.append((u, None))
            u = u.body
        elif head == "fun" and isinstance(u, RApp):
            frames.append((u, None))
            u = u.fn
        elif isinstance(head, tuple) and isinstance(u, RApp) and head[1] < len(u.mono):
            frames.append((u, head[1]))
            u = u.mono.elems[head[1]]
        else:
            raise NotARedexError(f"site {site_to_str(site[k:])} does not resolve in {u}")
    if not (isinstance(u, RApp) and isinstance(u.fn, RLam)):
        raise NotARedexError(f"no redex at site: {u}")
    fired = _fired(u)
    return _wrap(tuple([_plug(v, frames) for v in fired]) if frames else fired)


def _plug(u: ResourceTerm, frames: list) -> ResourceTerm:
    """Put ``u`` back into the context that ``frames`` describe."""
    for node, i in reversed(frames):
        if i is not None:
            elems = node.mono.elems
            u = rapp(node.fn, monomial(elems[:i] + (u,) + elems[i + 1 :]))
        elif isinstance(node, RLam):
            u = rlam(u)
        else:
            u = rapp(u, node.mono)
    return u


def valid_min_depth_sites(t: ResourceTerm, d: int) -> list[RedexSite]:
    return [s for s in redex_sites(t) if site_depth(s) >= d]


# ---------------------------------------------------------------------------
# Normalization

def _nf(t: ResourceTerm) -> tuple[ResourceTerm, ...]:
    """The addends of ``t``'s normal form as a canonical tuple."""
    if not t.redex:
        return (t,)
    cached = t.nf
    if cached is not None:
        return cached
    acc: set[ResourceTerm] = set()
    if isinstance(t, RLam):
        acc.update(map(rlam, _nf(t.body)))
    elif isinstance(t.fn, RLam):
        for u in _fired(t):
            acc.update(_nf(u))
    else:
        args = None  # the elements' normal forms multiplied out, once needed
        for f in _nf(t.fn):
            if isinstance(f, RLam):
                acc.update(_nf(rapp(f, t.mono)))
                continue
            if args is None:
                args = list(itertools.product(*map(_nf, t.mono.elems)))
            acc.update(rapp(f, monomial(a)) for a in args)
    out = t.nf = _canonical(acc)
    return out


def r_normalize(x: ResourceTerm | FiniteSum) -> FiniteSum:
    """Unique normal form, kept in the ``nf`` slot of every term holding a
    redex it meets. Each addend is normalized structurally: under its
    binder, by firing a root redex, or by normalizing the function, then
    firing the redex each abstraction forms with the monomial and
    multiplying out the elements' normal forms otherwise. Confluence makes
    the result the one any strategy reaches (``normalize_with`` cross-checks
    this)."""
    if isinstance(x, FiniteSum):
        return FiniteSum(u for t in x for u in _nf(t))
    return _wrap(_nf(x))


def normalize_with(
    t: ResourceTerm, pick: Callable[[list[RedexSite]], RedexSite]
) -> FiniteSum:
    """Strategy-parameterized normalizer, for cross-checking uniqueness."""
    done: set[ResourceTerm] = set()
    work = [t]
    while work:
        u = work.pop()
        sites = redex_sites(u)
        if not sites:
            done.add(u)
        else:
            work.extend(r_step(u, pick(sites)).terms)
    return FiniteSum(done)


# ---------------------------------------------------------------------------
# Head reduction


def head_split(t: ResourceTerm) -> tuple[int, ResourceTerm, tuple[Monomial, ...]]:
    """Decompose ``\\..\\ <<u>m1>..mn`` into (binders, u, (m1..mn))."""
    binders = 0
    while isinstance(t, RLam):
        binders += 1
        t = t.body
    monos: list[Monomial] = []
    while isinstance(t, RApp):
        monos.append(t.mono)
        t = t.fn
    monos.reverse()
    return binders, t, tuple(monos)


def peel(t: ResourceTerm, binders: int, frames: int) -> Optional[tuple[ResourceTerm, tuple[Monomial, ...]]]:
    """Strip ``binders`` abstractions, then ``frames`` application frames:
    the term inside and the stripped monomials, first argument first, as
    ``rewrap`` puts them back. None when ``t`` does not have that shape."""
    for _ in range(binders):
        if not isinstance(t, RLam):
            return None
        t = t.body
    monos: list[Monomial] = []
    for _ in range(frames):
        if not isinstance(t, RApp):
            return None
        monos.append(t.mono)
        t = t.fn
    monos.reverse()
    return t, tuple(monos)


def rewrap(u: ResourceTerm, binders: int, rest: Sequence[Monomial]) -> ResourceTerm:
    """Put back what ``head_split`` or ``peel`` stripped: apply ``u`` to
    ``rest`` in order, then close ``binders`` abstractions over it."""
    for m in rest:
        u = rapp(u, m)
    for _ in range(binders):
        u = rlam(u)
    return u


def peel_wrapped(x: ResourceTerm, b: int, rest: Sequence[Monomial], binders: int, frames: int) -> Optional[tuple]:
    """``peel(rewrap(x, b, rest), binders, frames)``, interning only the
    term inside: what lies outside it is never built."""
    if b > binders:
        return None if frames else (rewrap(x, b - binders, rest), ())
    keep = len(rest) - frames
    if b == binders and keep >= 0:
        return rewrap(x, 0, rest[:keep]), tuple(rest[keep:])
    if rest and b < binders:
        return None
    peeled = peel(x, binders - b, -keep)
    return None if peeled is None else (peeled[0], peeled[1] + tuple(rest))


def hr_step(x: ResourceTerm | FiniteSum) -> FiniteSum:
    """Fire the head redex, at the site ``head_split`` finds; identity on
    head-normal terms; addend-wise on sums."""
    parts = []
    for t in x if isinstance(x, FiniteSum) else (x,):
        binders, head, monos = head_split(t)
        if isinstance(head, RLam) and monos:
            parts.append(r_step(t, ("body",) * binders + ("fun",) * (len(monos) - 1)))
        else:
            parts.append(FiniteSum((t,)))
    return union_all(parts)


# ---------------------------------------------------------------------------
# Termination measure and confluence checking


def dm_measure(s: FiniteSum) -> tuple[int, ...]:
    """Multiset of addend sizes, sorted descending."""
    return tuple(sorted((t.size for t in s), reverse=True))


def dm_less(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Strict multiset (Dershowitz-Manna) order on natural-number multisets."""
    ca: dict[int, int] = {}
    cb: dict[int, int] = {}
    for x in a:
        ca[x] = ca.get(x, 0) + 1
    for x in b:
        cb[x] = cb.get(x, 0) + 1
    only_a = {x: ca[x] - cb.get(x, 0) for x in ca if ca[x] > cb.get(x, 0)}
    only_b = {x: cb[x] - ca.get(x, 0) for x in cb if cb[x] > ca.get(x, 0)}
    if not only_b:
        return False
    return all(any(x < y for y in only_b) for x in only_a)


def _sum_successors(s: FiniteSum, cap: int) -> Iterator[FiniteSum]:
    """All one-step sum reducts of ``s`` (each addend fires one site or stays)."""
    options: list[list[Optional[RedexSite]]] = []
    total = 1
    for t in s:
        opts: list[Optional[RedexSite]] = [None]
        opts.extend(redex_sites(t))
        options.append(opts)
        total *= len(opts)
        if total > cap:
            raise RuntimeError(f"sum reduct enumeration exceeds cap ({total} > {cap})")
    for combo in itertools.product(*options):
        if all(site is None for site in combo):
            continue
        parts = []
        for t, site in zip(s, combo):
            parts.append(FiniteSum((t,)) if site is None else r_step(t, site))
        yield union_all(parts)


def check_diamond(t: ResourceTerm, cap: int = 500000) -> bool:
    """One-step diamond: any two single steps from ``{t}`` rejoin in at most
    one optional further sum step on each side."""
    sites = redex_sites(t)
    reducts = [r_step(t, site) for site in sites]
    for i in range(len(reducts)):
        for j in range(i + 1, len(reducts)):
            t1, t2 = reducts[i], reducts[j]
            if t1 == t2:
                continue
            left: set[FiniteSum] = {t1}
            left.update(_sum_successors(t1, cap))
            if t2 in left:
                continue
            if not any(u in left for u in _sum_successors(t2, cap)):
                return False
    return True

"""Taylor approximation: deciding it, and enumerating bounded slices of it.

A resource term approximates a lambda term when they match structurally,
with every element of an argument multiset approximating the argument.
The full set of approximants of a term is infinite; what we materialize
are *slices*: all approximants within a size bound, optionally also below
a height bound. Recursive references are unfolded on demand, which always
terminates because the recursion is on the finite resource term (or on a
shrinking size budget).

Holes need a policy. In a context, a hole is approximated by exactly the
resource hole; in a truncated tree, a hole means "structure unknown", so
it contributes no approximants at all (and the three-valued
``member_of_bohm`` reports Unknown when a decision would need to look
below one). ``member_of_bohm`` reads a term against the runs of a check's
``beta.BohmPrefix``, its only way in, so it answers about that tree.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .resource import (
    HOLE_R,
    FiniteSum,
    Monomial,
    ResourceTerm,
    RApp,
    RFreeVar,
    RHole,
    RLam,
    RVar,
    monomial,
    rapp,
    rfvar,
    rlam,
    rvar,
)
from .syntax import (
    App,
    Bottom,
    FreeVar,
    Hole,
    Lam,
    RationalSystem,
    RecRef,
    Term,
    TermLike,
    Var,
    resolve_ref,
    split_target,
)
from .beta import BohmPrefix, head_form
from .resource_reduction import peel


def approximates(s: ResourceTerm, target: TermLike) -> bool:
    """Decide the approximation relation between ``s`` and a (possibly
    recursive) term."""
    m, system = split_target(target)
    return _approx(s, m, (), system, {})


def _approx(u: ResourceTerm, t: Term, stack: tuple[str, ...], system: Optional[RationalSystem], memo: dict) -> bool:
    key = (u, t, stack)
    got = memo.get(key)
    if got is None:
        got = memo[key] = _holds(u, t, stack, system, memo)
    return got


def _holds(u: ResourceTerm, t: Term, stack: tuple[str, ...], system: Optional[RationalSystem], memo: dict) -> bool:
    while isinstance(t, RecRef):
        t = resolve_ref(t, system, stack)
    if isinstance(u, RVar):
        return isinstance(t, Var) and t.index == u.index
    if isinstance(u, RFreeVar):
        return isinstance(t, FreeVar) and t.name == u.name
    if isinstance(u, RHole):
        return isinstance(t, Hole)
    if isinstance(u, RLam):
        return isinstance(t, Lam) and _approx(u.body, t.body, (t.hint,) + stack, system, memo)
    if isinstance(u, RApp):
        return (
            isinstance(t, App)
            and _approx(u.fn, t.fn, stack, system, memo)
            and all(_approx(e, t.arg, stack, system, memo) for e in u.mono)
        )
    raise TypeError(f"not a resource term: {u!r}")


class _Enumerator:
    def __init__(self, system: Optional[RationalSystem], holes: bool = False):
        self.system = system
        self.holes = holes
        self.memo: dict[tuple, tuple[ResourceTerm, ...]] = {}
        self.resolved: dict[tuple, Term] = {}

    def terms(self, t: Term, n: int, d: Optional[int], stack: tuple[str, ...]) -> tuple[ResourceTerm, ...]:
        if n < 1 or (d is not None and d < 1):
            return ()
        key = (t, n, d, stack)
        got = self.memo.get(key)
        if got is not None:
            return got
        out: tuple[ResourceTerm, ...]
        if isinstance(t, RecRef):
            rkey = (t.symbol, stack)
            body = self.resolved.get(rkey)
            if body is None:
                body = resolve_ref(t, self.system, stack)
                self.resolved[rkey] = body
            out = self.terms(body, n, d, stack)
        elif isinstance(t, Var):
            out = (rvar(t.index),)
        elif isinstance(t, FreeVar):
            out = (rfvar(t.name),)
        elif isinstance(t, Bottom):
            out = ()
        elif isinstance(t, Hole):
            out = (HOLE_R,) if self.holes else ()
        elif isinstance(t, Lam):
            out = tuple(rlam(b) for b in self.terms(t.body, n - 1, d, (t.hint,) + stack))
        elif isinstance(t, App):
            acc = []
            for fn in self.terms(t.fn, n - 1, d, stack):
                for m in self.monomials(t.arg, n - fn.size, d, stack):
                    acc.append(rapp(fn, m))
            out = tuple(acc)
        else:
            raise TypeError(f"not a term: {t!r}")
        self.memo[key] = out
        return out

    def monomials(self, t: Term, n: int, d: Optional[int], stack: tuple[str, ...]) -> list[Monomial]:
        """Multisets of approximants of ``t`` with total size <= ``n``.

        The empty multiset costs 1 but still nests one level, so it needs
        a remaining height budget of at least 2.
        """
        if n < 1:
            return []
        out: list[Monomial] = []
        if d is None or d >= 2:
            out.append(monomial(()))
        pool = sorted(self.terms(t, n - 1, None if d is None else d - 1, stack), key=attrgetter("size"))
        _extend(pool, 0, n - 1, [], out)
        return out


def _extend(pool: list[ResourceTerm], start: int, left: int, chosen: list[ResourceTerm], out: list[Monomial]) -> None:
    """Append to ``out`` every multiset that adds elements of ``pool`` from
    ``start`` on, of total size at most ``left``, to ``chosen``."""
    for i in range(start, len(pool)):
        e = pool[i]
        if e.size > left:
            break  # the pool is sorted by size
        chosen.append(e)
        out.append(monomial(chosen))
        _extend(pool, i, left - e.size, chosen, out)
        chosen.pop()


def enumerate_taylor(
    target: TermLike,
    size_bound: int,
    depth_bound: Optional[int] = None,
) -> FiniteSum:
    """Materialize the slice of approximants within the bounds: those of size
    <= ``size_bound`` and, when ``depth_bound`` is set, of height below it."""
    m, system = split_target(target)
    enum = _Enumerator(system)
    return FiniteSum(enum.terms(m, size_bound, depth_bound, ()))


def enumerate_taylor_context(c: Term, size_bound: int, depth_bound: Optional[int] = None) -> FiniteSum:
    """Approximants of a context within the bounds, as ``enumerate_taylor``
    takes them; each hole is approximated by the resource hole."""
    enum = _Enumerator(None, holes=True)
    return FiniteSum(enum.terms(c, size_bound, depth_bound, ()))


def member_of_bohm(t: ResourceTerm, prefix: BohmPrefix) -> Optional[bool]:
    """Three-valued: does ``t`` approximate the prefix's Boehm tree?

    ``t`` is read against the runs of ``prefix`` node by node: it must peel
    to the node's head normal form, and each element of a peeled monomial
    is read against its spine argument's node. Bottom refutes, since
    nothing approximates it; a node without a verdict makes the answer
    ``None`` (unknown) unless something else refutes.
    """
    unknown = False
    todo = [(t, prefix.term, ())]
    while todo:
        u, m, stack = todo.pop()
        run = prefix.run(m, stack)
        if run.verdict.certified_unsolvable:
            return False
        if not run.verdict.is_solvable:
            unknown = True
            continue
        hf = head_form(run.term)
        peeled = peel(u, len(hf.binders), len(hf.spine))
        head = rvar(hf.head.index) if isinstance(hf.head, Var) else rfvar(hf.head.name)
        if peeled is None or peeled[0] is not head:
            return False
        inner = tuple(reversed(hf.binders)) + stack
        todo += [(e, q, inner) for q, mono in zip(hf.spine, peeled[1]) for e in mono]
    return None if unknown else True

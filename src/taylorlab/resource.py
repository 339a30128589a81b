"""Resource terms: linear lambda-terms whose arguments are finite multisets.

All nodes are interned, so structurally equal terms are the same object and
equality is pointer equality. Binders are pure de Bruijn (no name hints);
the printer invents names. Monomials keep their elements sorted under a
total structural order, which makes multiset equality plain equality and
printing deterministic. Sums are qualitative: a finite *set* of terms,
``0`` being the empty one.

The node class names are an interface: ``from_taylorlab`` in
``bench/workloads.py`` reads ``type(node).__name__`` and rejects any other.
"""

from __future__ import annotations

import sys
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .syntax import Tokens, token_pattern


_skey, _size, _loose, _redex = map(attrgetter, ("skey", "size", "loose", "redex"))


# ---------------------------------------------------------------------------
# Interned nodes


class ResourceTerm:
    """Interned node. Every node carries, computed once when it is interned,
    its order key ``skey`` (an application's splices in its elements' keys),
    its ``size``, ``loose``, which bounds its loose de Bruijn indices (each
    is below it), and ``redex``, whether it contains a redex; ``r_height``
    walks for the height. Identity ``__eq__``/``__hash__`` are correct thanks
    to interning. Abstractions and applications also keep their normal form
    in ``nf``: None until ``resource_reduction.r_normalize`` first needs it,
    then the addends as a bare tuple sorted by ``skey`` (``()`` for 0), which
    ``r_normalize`` wraps in a ``FiniteSum`` without sorting again.
    """

    __slots__ = ("skey", "size", "loose", "redex")

    def __str__(self) -> str:
        return pretty_resource(self)

    def __repr__(self) -> str:
        return f"RTerm({pretty_resource(self)!r})"

    def __lt__(self, other: "ResourceTerm") -> bool:
        return self.skey < other.skey


class RVar(ResourceTerm):
    __slots__ = ("index",)


class RFreeVar(ResourceTerm):
    __slots__ = ("name",)


class RLam(ResourceTerm):
    __slots__ = ("body", "nf")


class RApp(ResourceTerm):
    """``fired`` caches ``open_redex``: None until a redex is first opened,
    then the addends as a bare sorted tuple, like ``nf``. An application is
    in ``_FIRST`` if it was its function's first (or a sweep moved it
    there), else in the function's row in ``_APPS``."""

    __slots__ = ("fn", "mono", "fired", "nf")


class RHole(ResourceTerm):
    __slots__ = ()


class Monomial:
    """Finite multiset of resource terms, kept sorted; ``1`` is the empty one.
    It has no order key: an application splices its elements' keys in."""

    __slots__ = ("elems", "size", "loose", "redex")

    def __iter__(self) -> Iterator[ResourceTerm]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __getitem__(self, i: int) -> ResourceTerm:
        return self.elems[i]

    def __str__(self) -> str:
        return pretty_monomial(self)

    def __repr__(self) -> str:
        return f"Monomial({pretty_monomial(self)!r})"


# One intern table per kind, keyed by the children themselves. A node is
# built outside the table and inserted with ``setdefault``, which is atomic,
# so threads racing on the same key all return the node that got in first.
# Applications are interned per function, with no key tuple: a function's
# first application goes in the flat ``_FIRST`` ``{fn: node}``, and only a
# second one opens the function's row ``{mono: node}`` in ``_APPS``, both
# levels inserted with ``setdefault`` too. Most functions have one
# application (ROADMAP item 3 gives the row sizes), so most own no row. An
# entry of ``_FIRST`` changes only in ``_sweep``, which runs while no other
# thread exists, so each (fn, mono) pair lives in exactly one of the two
# tables, and racing threads still get one node.
_VARS: dict[int, "RVar"] = {}
_FREE: dict[str, "RFreeVar"] = {}
_LAMS: dict[ResourceTerm, "RLam"] = {}
_FIRST: dict[ResourceTerm, "RApp"] = {}
_APPS: dict[ResourceTerm, dict[Monomial, "RApp"]] = {}
_MONOS: dict[tuple, Monomial] = {}
_BIRTHS = count()
_FLOOR = 1 << 14  # the fewest births between two sweeps
_due = _FLOOR  # the birth after which the next sweep runs


def _leaf(node, skey: tuple, loose: int):
    node.skey = skey
    node.size = 1
    node.loose = loose
    node.redex = False
    return node


def rvar(index: int) -> RVar:
    node = _VARS.get(index)
    if node is None:
        node = _leaf(RVar(), (0, index), index + 1)
        node.index = index
        node = _VARS.setdefault(index, node)
    return node


def rfvar(name: str) -> RFreeVar:
    node = _FREE.get(name)
    if node is None:
        node = _leaf(RFreeVar(), (1, name), 0)
        node.name = name
        node = _FREE.setdefault(name, node)
    return node


def rlam(body: ResourceTerm) -> RLam:
    node = _LAMS.get(body)
    if node is None:
        node = RLam()
        node.body = body
        node.skey = (2, body.skey)
        node.size = 1 + body.size
        node.loose = body.loose - 1 if body.loose else 0
        node.redex = body.redex
        node.nf = None
        node = _LAMS.setdefault(body, node)
        if next(_BIRTHS) > _due:
            _sweep()
    return node


def rapp(fn: ResourceTerm, mono: Monomial) -> RApp:
    # most applications sit in rows, so a hit there costs two lookups
    row = _APPS.get(fn)
    if row is not None:
        node = row.get(mono)
        if node is not None:
            return node
    first = _FIRST.get(fn)
    if first is not None and first.mono is mono:
        return first
    node = RApp()
    node.fn = fn
    node.mono = mono
    node.skey = (3, fn.skey, *map(_skey, mono.elems))
    node.size = fn.size + mono.size
    node.loose = fn.loose if fn.loose > mono.loose else mono.loose
    node.redex = fn.redex or mono.redex or isinstance(fn, RLam)
    node.fired = node.nf = None
    if first is None:  # an entry changes only in a sweep, so with one, go to the row
        first = _FIRST.setdefault(fn, node)
    if first.mono is mono:  # this call's node, or a racing thread's for the same pair
        node = first
    else:  # file this call's node: a racing thread's first may hold another monomial
        node = (row if row is not None else _APPS.setdefault(fn, {})).setdefault(mono, node)
    if next(_BIRTHS) > _due:
        _sweep()
    return node


HOLE_R = _leaf(RHole(), (4,), 0)


def monomial(elems: Iterable[ResourceTerm]) -> Monomial:
    elems = tuple(elems)
    return _ordered_monomial(tuple(sorted(elems, key=_skey)) if len(elems) > 1 else elems)


def _ordered_monomial(elems: tuple[ResourceTerm, ...]) -> Monomial:
    """The monomial of ``elems``, a tuple already in ``skey`` order."""
    node = _MONOS.get(elems)
    if node is None:
        node = Monomial()
        node.elems = elems
        node.size = 1 + sum(map(_size, elems))
        node.loose = max(map(_loose, elems), default=0)
        node.redex = any(map(_redex, elems))
        node = _MONOS.setdefault(elems, node)
        if next(_BIRTHS) > _due:
            _sweep()
    return node


ONE = monomial(())


def _alone(table: dict) -> int:
    """``getrefcount`` of a node that only ``table`` holds, read as ``_sweep`` does."""
    todo = [*table.values()]
    node = todo.pop()
    return sys.getrefcount(node)


_ALONE = _alone({(): Monomial()})


def _sweep() -> None:
    """Return the nodes that only the intern tables hold, largest first: a
    child or cached addend is smaller than its holder, so a dead chain of any
    depth goes in one sweep. A dropped first application hands its entry to
    one of its row's. Skipped while another thread exists, which may hold a
    row between two lookups. The next sweep waits for as many births as
    entries survive, at least ``_FLOOR``."""
    global _due
    if len(sys._current_frames()) == 1:
        todo: list = [*_MONOS.values(), *_LAMS.values(), *_FIRST.values()]
        for row in _APPS.values():
            todo += row.values()
        todo.sort(key=_size)
        getrefcount, alone = sys.getrefcount, _ALONE
        while todo:
            node = todo.pop()  # the one local that holds a node: another would count
            if getrefcount(node) != alone:
                continue
            if type(node) is RApp:
                row = _APPS.get(node.fn)
                if row is None:
                    del _FIRST[node.fn]
                elif _FIRST[node.fn] is node:
                    _FIRST[node.fn] = row.popitem()[1]
                else:
                    del row[node.mono]
                if row == {}:  # emptied
                    del _APPS[node.fn]
            elif type(node) is Monomial:
                del _MONOS[node.elems]
            else:
                del _LAMS[node.body]
    _due = next(_BIRTHS) + max(_FLOOR, len(_MONOS) + len(_LAMS) + len(_FIRST) + sum(map(len, _APPS.values())))


# ---------------------------------------------------------------------------
# Qualitative sums


class FiniteSum:
    """Deduplicated finite set of resource terms (sum over the booleans),
    kept as a tuple sorted by ``skey``; the membership set is built on the
    first ``in`` test."""

    __slots__ = ("terms", "_set")

    def __init__(self, terms: Iterable[ResourceTerm] = ()):
        self.terms = _canonical(set(terms))
        self._set: Optional[frozenset] = None

    def __iter__(self) -> Iterator[ResourceTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __contains__(self, t: ResourceTerm) -> bool:
        if self._set is None:
            self._set = frozenset(self.terms)
        return t in self._set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def map(self, f) -> "FiniteSum":
        return FiniteSum(f(t) for t in self.terms)

    def __str__(self) -> str:
        return pretty_sum(self)

    def __repr__(self) -> str:
        return f"FiniteSum({pretty_sum(self)!r})"


def _canonical(terms: set[ResourceTerm]) -> tuple[ResourceTerm, ...]:
    """The addends of a sum as ``FiniteSum.terms`` keeps them."""
    return tuple(sorted(terms, key=_skey)) if len(terms) > 1 else tuple(terms)


def _wrap(terms: tuple[ResourceTerm, ...]) -> FiniteSum:
    """The sum of ``terms``, already canonical (a cached ``fired`` or
    ``nf``): no set and no sort."""
    out = object.__new__(FiniteSum)
    out.terms = terms
    out._set = None
    return out


ZERO = FiniteSum()


def union_all(sums: Iterable[FiniteSum]) -> FiniteSum:
    acc: set[ResourceTerm] = set()
    for s in sums:
        acc.update(s.terms)
    return FiniteSum(acc)


Summable = Union[ResourceTerm, Monomial, FiniteSum]


# ---------------------------------------------------------------------------
# Measures


def r_size(x: Summable) -> int:
    """Node count: variables weigh 1, a monomial weighs 1 plus its elements.

    For a sum, the maximum over the addends; the empty sum has size 0.
    """
    if isinstance(x, FiniteSum):
        return max((t.size for t in x), default=0)
    return x.size


def r_height(x: Summable) -> int:
    """Monomial-nesting depth; abstractions and application spines are free.

    The empty monomial still counts one nesting level, so ``h(1) = 1``.
    The empty sum has height 0. One walk on a stack of subterms with the
    number of monomials above them.
    """
    todo = [(t, 0) for t in x] if isinstance(x, FiniteSum) else [(x, 0)]
    height = 0
    while todo:
        u, h = todo.pop()
        if isinstance(u, Monomial):
            height = max(height, h + 1)
            todo += [(e, h + 1) for e in u.elems]
        elif isinstance(u, RLam):
            todo.append((u.body, h))
        elif isinstance(u, RApp):
            todo += ((u.fn, h), (u.mono, h))
    return height


def deg_hole(t: ResourceTerm | Monomial) -> int:
    return _count_marks(t, lambda u: isinstance(u, RHole))


# ---------------------------------------------------------------------------
# Linear substitution

# Occurrence traversal order (used consistently by count and rebuild):
# abstraction body, then application function, then monomial elements in
# their stored order.


def _distinct_assignments(elems: tuple[ResourceTerm, ...]) -> Iterator[tuple[ResourceTerm, ...]]:
    """All distinct sequences drawing each multiset element exactly once, in
    lexicographic order: the multinomial coefficient of them, not n!.

    ``elems`` is sorted, so equal elements are adjacent; each ordering after
    the first is the next permutation of their group numbers.
    """
    groups: list[ResourceTerm] = []
    order: list[int] = []
    for e in elems:
        if not groups or groups[-1] is not e:
            groups.append(e)
        order.append(len(groups) - 1)
    pick = groups.__getitem__
    while True:
        yield tuple(map(pick, order))
        i = len(order) - 2
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(order) - 1
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1 :] = order[:i:-1]


def _count_marks(x: ResourceTerm | Monomial, match) -> int:
    """Number of leaves of ``x`` that satisfy ``match``. One loop on a stack
    of subterms."""
    n = 0
    todo = [x]
    while todo:
        u = todo.pop()
        if isinstance(u, Monomial):
            todo += u.elems
        elif isinstance(u, RLam):
            todo.append(u.body)
        elif isinstance(u, RApp):
            todo += (u.fn, *u.mono.elems)
        elif match(u):
            n += 1
    return n


def _linear_replace(t: ResourceTerm, match, mono: Monomial) -> FiniteSum:
    """Replace the matched leaves bijectively by the monomial elements,
    unshifted: a leaf under a binder captures. Returns 0 when the number of
    matched leaves differs from the cardinality."""
    if _count_marks(t, match) != len(mono):
        return ZERO
    return FiniteSum({_replace_marks(t, match, iter(a)) for a in _distinct_assignments(mono.elems)})


def _replace_marks(t: ResourceTerm, match, it: Iterator[ResourceTerm]) -> ResourceTerm:
    """``t`` with its leaves that satisfy ``match`` taking the next elements
    of ``it``, left to right. One loop on a stack of subterms to visit and of
    nodes, each in a 1-tuple, to rebuild from the last results in ``done``."""
    done: list[ResourceTerm] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            u = u[0]
            if isinstance(u, RLam):
                done.append(rlam(done.pop()))
            else:
                k = len(done) - len(u.mono.elems)
                mono = monomial(done[k:])
                del done[k:]
                done.append(rapp(done.pop(), mono))
        elif isinstance(u, RLam):
            todo += ((u,), u.body)
        elif isinstance(u, RApp):
            todo += ((u,), *reversed(u.mono.elems), u.fn)
        else:
            done.append(next(it) if match(u) else u)
    return done[0]


def _rshift(t: ResourceTerm, d: int, cutoff: int = 0) -> ResourceTerm:
    """Shift indices escaping ``t`` up by ``d`` (grafting under binders)."""
    if d == 0 or t.loose <= cutoff:
        return t
    if isinstance(t, RVar):
        return rvar(t.index + d)
    if isinstance(t, RLam):
        return rlam(_rshift(t.body, d, cutoff + 1))
    # a loose index at or above the cutoff makes t a variable, an abstraction or an application
    return rapp(_rshift(t.fn, d, cutoff), monomial([_rshift(e, d, cutoff) for e in t.mono.elems]))


def unshift(u: ResourceTerm, c: int) -> Optional[ResourceTerm]:
    """Undo the grafting shift ``_rshift(t, c)``: ``t``, or None when an
    index below ``c`` escapes ``u``, so that no ``t`` shifts to it."""
    if any(_bound_count(u, i) for i in range(c)):
        return None
    return _rshift(u, -c)


def r_subst(s: ResourceTerm, name: str, mono: Monomial) -> FiniteSum:
    """Linear substitution: the elements of ``mono`` are distributed
    bijectively over the free occurrences of ``name``; 0 on arity mismatch.
    """
    return _linear_replace(s, lambda u: isinstance(u, RFreeVar) and u.name == name, mono)


def r_context_fill(c: ResourceTerm, mono: Monomial) -> FiniteSum:
    """Linear substitution of the holes of ``c`` by ``mono`` (0 on mismatch)."""
    return _linear_replace(c, lambda u: isinstance(u, RHole), mono)


def open_binder(body: ResourceTerm, mono: Monomial) -> tuple[ResourceTerm, ...]:
    """Open the binder a redex just peeled: distribute ``mono`` over the
    occurrences of the bound variable, giving the addends as a canonical
    tuple, ``()`` (0) on arity mismatch. Grafted elements are shifted to the
    local binder depth, the other loose indices drop by one, and subterms
    with no loose index at or above it are shared."""
    elems = mono.elems
    if _bound_count(body, 0) != len(elems):
        return ()
    if len(elems) <= 1:
        return (_fill_bound(body, 0, iter(elems)),)
    return _canonical({_fill_bound(body, 0, iter(a)) for a in _distinct_assignments(elems)})


def _bound_count(u: ResourceTerm, c: int) -> int:
    """Occurrences of the index ``c`` in ``u``."""
    if u.loose <= c:
        return 0
    # a loose index at or above c makes u a variable, an abstraction or an application
    if isinstance(u, RVar):
        return int(u.index == c)
    if isinstance(u, RLam):
        return _bound_count(u.body, c + 1)
    n = _bound_count(u.fn, c)
    for e in u.mono.elems:
        n += _bound_count(e, c)
    return n


def _fill_bound(u: ResourceTerm, c: int, it: Iterator[ResourceTerm]) -> ResourceTerm:
    """``u`` with the occurrences of ``c`` taking the next elements of ``it``
    in the occurrence traversal order."""
    if u.loose <= c:
        return u
    if isinstance(u, RVar):
        i = u.index
        return _rshift(next(it), c) if i == c else rvar(i - 1)
    if isinstance(u, RLam):
        return rlam(_fill_bound(u.body, c + 1, it))
    fn = _fill_bound(u.fn, c, it)
    return rapp(fn, monomial([_fill_bound(e, c, it) for e in u.mono.elems]))


def open_redex(r: RApp) -> FiniteSum:
    """Fire the redex ``r``: ``open_binder`` of its binder's body and its
    monomial, computed once per node and kept in ``r.fired``."""
    return _wrap(_fired(r))


def _fired(r: RApp) -> tuple[ResourceTerm, ...]:
    """The addends of ``open_redex(r)``, cached in ``r.fired``."""
    out = r.fired
    if out is None:
        out = r.fired = open_binder(r.fn.body, r.mono)
    return out


def open_along(
    body: ResourceTerm, elems: Sequence[ResourceTerm], memo: Optional[dict] = None
) -> Optional[ResourceTerm]:
    """The addend of ``open_binder(body, monomial(elems))`` that puts
    ``elems[k]`` at the k-th occurrence of the bound variable, in the
    occurrence traversal order; None when the counts differ.

    One compositional walk, shifting like ``open_binder`` does, nothing
    enumerated: each subterm takes the next run of elements, as many as it
    has occurrences. ``memo`` may be shared between calls; it keeps one
    table per bound index ``c``, holding occurrence counts by ``u`` and
    rebuilt subterms by ``(u, elems)``, all interned nodes, so identity keys
    are stable, at applications and leaves: an abstraction goes straight to
    its body.
    """
    if memo is None:
        memo = {}
    elems = tuple(elems)
    if _occurrences(body, 0, memo) != len(elems):
        return None
    return _open_run(body, 0, elems, memo)


def _occurrences(u: ResourceTerm, c: int, memo: dict) -> int:
    if u.loose <= c:
        return 0
    while isinstance(u, RLam):  # its body's loose bound stays above c + 1
        u, c = u.body, c + 1
    table = memo.get(c)
    if table is None:
        table = memo[c] = {}
    n = table.get(u)
    if n is None:
        # a loose index at or above c makes u a variable or an application
        if isinstance(u, RVar):
            n = int(u.index == c)
        else:
            n = _occurrences(u.fn, c, memo)
            for e in u.mono:
                n += _occurrences(e, c, memo)
        table[u] = n
    return n


def _open_run(u: ResourceTerm, c: int, elems: tuple[ResourceTerm, ...], memo: dict) -> ResourceTerm:
    """``u`` with its occurrences of ``c`` filled by ``elems``, whose length
    is their number."""
    if u.loose <= c:
        return u
    if isinstance(u, RLam):
        return rlam(_open_run(u.body, c + 1, elems, memo))
    table = memo.get(c)
    if table is None:
        table = memo[c] = {}
    key = (u, elems)
    out = table.get(key)
    if out is None:
        if isinstance(u, RVar):
            out = _rshift(elems[0], c) if u.index == c else rvar(u.index - 1)
        else:
            k = _occurrences(u.fn, c, memo)
            fn = _open_run(u.fn, c, elems[:k], memo)
            opened = []
            for e in u.mono:
                n = _occurrences(e, c, memo)
                opened.append(_open_run(e, c, elems[k : k + n], memo))
                k += n
            out = rapp(fn, monomial(opened))
        table[key] = out
    return out


def is_d_positive(t: ResourceTerm, d: int) -> bool:
    """No empty monomial occurs at monomial depth below ``d``."""
    todo = [(t, d)]
    while todo:
        u, k = todo.pop()
        if k <= 0:
            continue
        if isinstance(u, RLam):
            todo.append((u.body, k))
        elif isinstance(u, RApp):
            if not u.mono.elems:
                return False
            todo += [(u.fn, k), *((e, k - 1) for e in u.mono.elems)]
    return True


# ---------------------------------------------------------------------------
# Printing

def pretty_resource(t: ResourceTerm) -> str:
    """A binder is named after its depth (``a`` to ``z``, then ``a1``...),
    primed past the free names of ``t``. One loop collects those, and one
    prints from a stack of texts and of subterms with their binder depth."""
    taken: set[str] = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, RApp):
            todo += (u.fn, *u.mono.elems)
        elif isinstance(u, RLam):
            todo.append(u.body)
        elif isinstance(u, RFreeVar):
            taken.add(u.name)
    names: list[str] = []  # the binder name at each depth
    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        u, depth = item
        if isinstance(u, RVar):
            out.append(names[depth - 1 - u.index] if u.index < depth else f"#{u.index}")
        elif isinstance(u, RFreeVar):
            out.append(u.name)
        elif isinstance(u, RHole):
            out.append("*")
        elif isinstance(u, RLam):
            if depth == len(names):
                name = "abcdefghijklmnopqrstuvwxyz"[depth % 26] + (str(depth // 26) if depth >= 26 else "")
                while name in taken:
                    name += "'"
                names.append(name)
            out.append(f"\\{names[depth]}. ")
            stack.append((u.body, depth + 1))
        elif isinstance(u, RApp):
            elems = u.mono.elems
            stack.append("]" if elems else ">1")
            for k in range(len(elems) - 1, -1, -1):
                stack += [(elems[k], depth), ", " if k else ">["]
            stack.append((u.fn, depth))  # the angle brackets already delimit it
            out.append("<")
        else:
            raise TypeError(f"not a resource term: {u!r}")
    return "".join(out)


def pretty_monomial(m: Monomial) -> str:
    return "[" + ", ".join(map(pretty_resource, m)) + "]" if len(m) else "1"


def pretty_sum(s: FiniteSum) -> str:
    return " + ".join(map(pretty_resource, s)) if s else "0"


# ---------------------------------------------------------------------------
# Parsing

_R_PUNCT = {
    "\\": "LAM",
    "λ": "LAM",
    ".": "DOT",
    "<": "LT",
    ">": "GT",
    "⟨": "LT",
    "⟩": "GT",
    "[": "LB",
    "]": "RB",
    ",": "COMMA",
    "(": "LP",
    ")": "RP",
    "+": "PLUS",
    "*": "HOLE",
    "1": "ONE",
    "0": "NIL",
}


_R_PATTERN = token_pattern(_R_PUNCT)


def _read(toks: Tokens, tok: str, mono: bool = False) -> Union[ResourceTerm, Monomial]:
    """The resource term whose first token ``tok`` is already taken, or with
    ``mono`` the monomial. One loop on a stack of the open constructs: ``<``
    or ``(``, a binder list's names, and a monomial's function (None for a
    monomial alone) followed by its elements so far."""
    take, scope, punct = toks.take, toks.scope, _R_PUNCT
    stack: list = []
    fn = None
    while True:
        if mono:  # the monomial of ``fn``
            mono = False
            if tok == "[":
                tok = take()
                if tok != "]":
                    stack.append([fn])
                    continue
            elif tok != "1":
                raise toks.error(f"expected a monomial, found {tok or 'end of input'!r}", toks.i - 1)
            t = ONE if fn is None else rapp(fn, ONE)
        elif tok not in punct and tok:
            depths = scope.get(tok)
            t = rvar(toks.depth - 1 - depths[-1]) if depths else rfvar(tok)
        elif tok == "<" or tok == "⟨" or tok == "(":
            stack.append(tok)
            tok = take()
            continue
        elif tok == "\\" or tok == "λ":
            stack.append(toks.binders())
            tok = take()
            continue
        elif tok == "*":
            t = HOLE_R
        else:
            raise toks.error(f"expected a resource term, found {tok or 'end of input'!r}", toks.i - 1)
        # ``t`` is read: close what it ends
        while stack:
            top = stack.pop()
            if type(top) is list:  # an element of a monomial
                top.append(t)
                tok = take()
                if tok == ",":
                    stack.append(top)
                    tok = take()
                    break
                if tok != "]":
                    toks.check(tok, "RB")
                t = monomial(top[1:]) if top[0] is None else rapp(top[0], monomial(top[1:]))
            elif type(top) is tuple:  # a binder list's body
                toks.unbind(top)
                for _ in top:
                    t = rlam(t)
            elif top == "(":
                toks.expect("RP")
            else:  # the function of an application
                tok = take()
                if tok != ">":
                    toks.check(tok, "GT")
                fn, mono, tok = t, True, take()
                break
        else:
            return t


def parse_resource_term(text: str) -> ResourceTerm:
    toks = Tokens(text, _R_PATTERN, _R_PUNCT)
    return toks.end(_read(toks, toks.take()))


def parse_resource_monomial(text: str) -> Monomial:
    toks = Tokens(text, _R_PATTERN, _R_PUNCT)
    return toks.end(_read(toks, toks.take(), mono=True))


def parse_resource_sum(text: str) -> FiniteSum:
    toks = Tokens(text, _R_PATTERN, _R_PUNCT)
    tok = toks.take()
    if tok == "0":
        return toks.end(ZERO)
    terms = [_read(toks, tok)]
    while toks.peek() == "+":
        toks.take()
        terms.append(_read(toks, toks.take()))
    return toks.end(FiniteSum(terms))

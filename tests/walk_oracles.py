"""Frozen copies of the recursive λ-term walkers that ``syntax.subterms`` and
``syntax.rebuild`` replaced, kept as reference oracles.

Each recursed on the term with its own binder counter, so Python's recursion
limit capped the depth of the terms they took. ``old_captures`` is the
capture guard of ``beta.head_normalize`` with its own explicit-stack walk.
``test_walk_oracles`` checks the callbacks against them on seeded random
terms, contexts and ``let rec`` systems.

``old_unshift`` is the lifter's own walk that undid a grafting shift on
resource terms, raising at an index too small to go down; ``resource.unshift``
replaced it with the occurrence counter and ``_rshift``, and
``test_node_summaries`` checks the two against each other on random open
terms.

``old_skey`` is the nested order key that resource nodes stored before an
application spliced its elements' keys into its own, ``(3, fn key, monomial
key)`` with a monomial keyed by the tuple of its elements' keys, and
``old_height`` the height that nodes stored before ``resource.r_height``
walked for it. ``test_node_summaries`` checks the flat keys and the walk
against them.

``old_bohm_tree`` is the recursive truncation that ``beta.BohmPrefix.tree``
replaced, with its own run memo per call, and ``old_member_of_bohm`` the
membership test that built it to depth ``r_height(t) + 1`` and walked it
against ``t``, where ``taylor.member_of_bohm`` reads the runs node by node.
``test_walk_oracles`` and ``test_replay`` check the two against them.

``old_prefix_status`` and ``old_positive_skeleton`` scanned a truncated tree
for ``check norm`` and ``check genericity``: its status down to an
applicative depth, and its d-positive approximant. ``lab._positive_skeleton``
reads both from the runs instead; ``test_walk_oracles`` checks it against
them on ``old_bohm_tree``.

``old_pretty``, ``old_pretty_resource`` and ``old_bohm_dot`` are the
recursive printers that the explicit-stack loops of ``syntax.pretty``,
``resource.pretty_resource`` and ``cli._bohm_dot`` replaced; the λ printer
kept two memoized walks for the free names and the dangling indices of each
node, and the dot printer labelled binders with their raw hints.
``test_walk_oracles`` checks the loops against them.

``old_is_d_positive`` is the recursive positivity test that
``resource.is_d_positive`` replaced with a loop on an explicit stack;
``test_walk_oracles`` checks the two against each other on seeded random
resource terms.

``OldLiftSession`` is the lifter before its chains carried each inverted
step's binders and frames apart from the node built: ``_invert`` wrapped
its result in all of them, and the next step peeled them off again.
``test_replay`` checks the lean chains against it. Do not import these
oracles elsewhere.
"""

from __future__ import annotations

import itertools
from typing import Optional

from taylorlab.beta import HeadForm, head_form, head_normalize
from taylorlab.lab import ApproximantMismatchError, LiftSession, _anti_subst, _link_holds
from taylorlab.taylor import _approx, _head_leaf
from taylorlab.resource import (
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
    r_height,
    rfvar,
    rlam,
    rvar,
)
from taylorlab.resource_reduction import peel, rewrap
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    Bottom,
    FreeVar,
    Hole,
    Lam,
    RationalSystem,
    RecRef,
    Term,
    UndefinedSymbolError,
    Var,
    split_target,
)

Position = tuple[str, ...]


# ---------------------------------------------------------------------------
# Maps


def old_bind_free(t: Term, hints: tuple[str, ...]) -> Term:
    if not hints:
        return t

    def go(u: Term, depth: int) -> Term:
        if isinstance(u, FreeVar):
            for i, h in enumerate(hints):
                if h == u.name:
                    return Var(depth + i)
            return u
        if isinstance(u, Lam):
            return Lam(u.hint, go(u.body, depth + 1))
        if isinstance(u, App):
            return App(go(u.fn, depth), go(u.arg, depth))
        return u

    return go(t, 0)


def old_context_fill(c: Term, m: Term) -> Term:
    def go(t: Term, hints: tuple[str, ...]) -> Term:
        if isinstance(t, Hole):
            return old_bind_free(m, hints)
        if isinstance(t, Lam):
            return Lam(t.hint, go(t.body, (t.hint,) + hints))
        if isinstance(t, App):
            return App(go(t.fn, hints), go(t.arg, hints))
        return t

    return go(c, ())


def old_unfold(target, depth: int) -> Term:
    if isinstance(target, RationalSystem):
        t, system = target.root, target
    else:
        t, system = target, None

    def go(u: Term, budget: int, hints: tuple[str, ...]) -> Term:
        if budget <= 0:
            return HOLE
        if isinstance(u, RecRef):
            if system is None:
                raise UndefinedSymbolError(f"unresolved symbol {u.symbol!r}")
            return go(old_bind_free(system.body(u.symbol), hints), budget, hints)
        if isinstance(u, Lam):
            return Lam(u.hint, go(u.body, budget, (u.hint,) + hints))
        if isinstance(u, App):
            return App(go(u.fn, budget, hints), go(u.arg, budget - 1, hints))
        return u

    return go(t, depth, ())


def old_shift(t: Term, d: int, cutoff: int = 0) -> Term:
    if d == 0:
        return t
    if isinstance(t, Var):
        return Var(t.index + d) if t.index >= cutoff else t
    if isinstance(t, Lam):
        return Lam(t.hint, old_shift(t.body, d, cutoff + 1))
    if isinstance(t, App):
        return App(old_shift(t.fn, d, cutoff), old_shift(t.arg, d, cutoff))
    return t


def old_open_bound(body: Term, arg: Term) -> Term:
    def go(t: Term, c: int) -> Term:
        if isinstance(t, Var):
            if t.index == c:
                return old_shift(arg, c)
            if t.index > c:
                return Var(t.index - 1)
            return t
        if isinstance(t, Lam):
            return Lam(t.hint, go(t.body, c + 1))
        if isinstance(t, App):
            return App(go(t.fn, c), go(t.arg, c))
        return t

    return go(body, 0)


def old_replace_at(t: Term, pos: Position, new: Term) -> Optional[Term]:
    """None where the position does not resolve."""
    if not pos:
        return new
    c, rest = pos[0], pos[1:]
    if c == "body" and isinstance(t, Lam):
        inner = old_replace_at(t.body, rest, new)
        return None if inner is None else Lam(t.hint, inner)
    if c == "fun" and isinstance(t, App):
        inner = old_replace_at(t.fn, rest, new)
        return None if inner is None else App(inner, t.arg)
    if c == "arg" and isinstance(t, App):
        inner = old_replace_at(t.arg, rest, new)
        return None if inner is None else App(t.fn, inner)
    return None


# ---------------------------------------------------------------------------
# Folds and searches


def old_leftmost_redex(t: Term) -> Optional[Position]:
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return ()
        sub = old_leftmost_redex(t.fn)
        if sub is not None:
            return ("fun",) + sub
        sub = old_leftmost_redex(t.arg)
        if sub is not None:
            return ("arg",) + sub
        return None
    if isinstance(t, Lam):
        sub = old_leftmost_redex(t.body)
        if sub is not None:
            return ("body",) + sub
    return None


def old_is_bohm_normal(t: Term) -> bool:
    if isinstance(t, App):
        if isinstance(t.fn, (Lam, Bottom)):
            return False
        return old_is_bohm_normal(t.fn) and old_is_bohm_normal(t.arg)
    if isinstance(t, Lam):
        if isinstance(t.body, Bottom):
            return False
        return old_is_bohm_normal(t.body)
    return True


def old_depth_positions(t: Term, d: int) -> list[Position]:
    out: list[Position] = []

    def walk(u: Term, path: Position, count: int) -> None:
        if count == d:
            out.append(path)
            return
        if isinstance(u, Lam):
            walk(u.body, path + ("body",), count)
        elif isinstance(u, App):
            walk(u.fn, path + ("fun",), count)
            walk(u.arg, path + ("arg",), count + 1)

    walk(t, (), 0)
    return out


def old_unguarded_cycle(equations: dict[str, Term]) -> Optional[list[str]]:
    """The cycle ``RationalSystem`` reports as unguarded, or None."""
    unguarded: dict[str, set[str]] = {s: set() for s in equations}

    def scan(sym: str, t: Term, argdepth: int) -> None:
        if isinstance(t, RecRef):
            if argdepth == 0:
                unguarded[sym].add(t.symbol)
        elif isinstance(t, Lam):
            scan(sym, t.body, argdepth)
        elif isinstance(t, App):
            scan(sym, t.fn, argdepth)
            scan(sym, t.arg, argdepth + 1)

    for sym, body in equations.items():
        scan(sym, body, 0)

    color: dict[str, int] = {}
    trail: list[str] = []

    def visit(sym: str) -> Optional[list[str]]:
        color[sym] = 1
        trail.append(sym)
        for nxt in sorted(unguarded[sym]):
            if color.get(nxt) == 1:
                return trail[trail.index(nxt):]
            if color.get(nxt, 0) == 0:
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        trail.pop()
        color[sym] = 2
        return None

    for sym in sorted(equations):
        if color.get(sym, 0) == 0:
            cycle = visit(sym)
            if cycle is not None:
                return cycle
    return None


def old_prefix_status(prefix: Term, d: int) -> str:
    status = ["ok"]

    def walk(t: Term, depth: int) -> None:
        if depth > d or status[0] == "bottom":
            return
        if isinstance(t, Bottom):
            status[0] = "bottom"
        elif isinstance(t, Hole):
            if status[0] == "ok":
                status[0] = "cut"
        elif isinstance(t, Lam):
            walk(t.body, depth)
        elif isinstance(t, App):
            walk(t.fn, depth)
            walk(t.arg, depth + 1)

    walk(prefix, 0)
    return status[0]


def old_positive_skeleton(prefix: Term, d: int) -> Optional[ResourceTerm]:
    hf = head_form(prefix)
    if isinstance(hf.head, Var):
        node: ResourceTerm = rvar(hf.head.index)
    elif isinstance(hf.head, FreeVar):
        node = rfvar(hf.head.name)
    else:
        return None
    for q in hf.spine:
        if d == 0:
            node = rapp(node, monomial(()))
        else:
            e = old_positive_skeleton(q, d - 1)
            if e is None:
                return None
            node = rapp(node, monomial((e,)))
    for _ in hf.binders:
        node = rlam(node)
    return node


def old_captures(lam: Lam, arg: Term, names: frozenset[str]) -> bool:
    """``beta._captures`` on the head redex ``lam arg``."""
    if lam.hint in names and _has_ref(lam.body):
        return True
    work = [(lam.body, 0, False)] if _has_ref(arg) else []
    while work:
        t, c, under = work.pop()
        if isinstance(t, Var) and under and t.index == c:
            return True
        if isinstance(t, Lam):
            work.append((t.body, c + 1, under or t.hint in names))
        elif isinstance(t, App):
            work += [(t.fn, c, under), (t.arg, c, under)]
    return False


def _has_ref(t: Term) -> bool:
    if isinstance(t, Lam):
        return _has_ref(t.body)
    if isinstance(t, App):
        return _has_ref(t.fn) or _has_ref(t.arg)
    return isinstance(t, RecRef)


def old_bohm_tree(target, depth: int, fuel: int) -> Term:
    term, system = split_target(target)
    runs: dict = {}

    def rec(t: Term, budget: int, stack: tuple[str, ...]) -> Term:
        if budget <= 0:
            return HOLE
        key = (t, stack)
        run = runs.get(key)
        if run is None:
            run = runs[key] = head_normalize(t, fuel, system, stack)
        if run.certified_unsolvable:
            return BOTTOM
        if not run.is_solvable:
            return HOLE
        hf = head_form(run.term)
        inner = tuple(reversed(hf.binders)) + stack
        children = tuple(rec(q, budget - 1, inner) for q in hf.spine)
        return HeadForm(hf.binders, hf.head, children).rebuild()

    return rec(term, depth, ())


def old_member_of_bohm(t: ResourceTerm, target, fuel: int) -> Optional[bool]:
    return _member(t, old_bohm_tree(target, r_height(t) + 1, fuel))


def _member(u: ResourceTerm, b: Term) -> Optional[bool]:
    if isinstance(b, Hole):
        return None
    if isinstance(b, Bottom):
        return False
    if isinstance(u, RVar):
        return isinstance(b, Var) and b.index == u.index
    if isinstance(u, RFreeVar):
        return isinstance(b, FreeVar) and b.name == u.name
    if isinstance(u, RLam):
        if not isinstance(b, Lam):
            return False
        return _member(u.body, b.body)
    if isinstance(u, RApp):
        if not isinstance(b, App):
            return False
        verdicts = [_member(u.fn, b.fn)]
        verdicts.extend(_member(e, b.arg) for e in u.mono)
        if any(v is False for v in verdicts):
            return False
        if any(v is None for v in verdicts):
            return None
        return True
    return False


class OldLiftSession(LiftSession):
    """``LiftSession`` with the wrap-every-step ``_build`` and ``_invert``."""

    __slots__ = ()

    def _build(self, u: ResourceTerm, m: Term, stack: tuple[str, ...]) -> Optional[ResourceTerm]:
        run = self.prefix.run(m, stack)
        hf = run.hnf
        if hf is None:
            return None
        head = _head_leaf(hf)
        binders = len(hf.binders)
        peeled = peel(u, binders, len(hf.spine))
        if peeled is None or peeled[0] is not head:
            return None
        outer = hf.spine_stack(stack)
        lifted_monos = []
        for q, mono in zip(hf.spine, peeled[1]):
            elems = []
            for e in mono:
                lifted = self.lift(e, q, outer)
                if lifted is None:
                    return None
                elems.append(lifted)
            lifted_monos.append(monomial(elems))
        node = rewrap(head, binders, lifted_monos)
        for before in reversed(run.trace):
            node = self._invert(node, before, stack)
            if node is None:
                return None
        return node

    def _invert(self, after: ResourceTerm, before: HeadForm, stack: tuple[str, ...]) -> Optional[ResourceTerm]:
        outer = before.spine_stack(stack)
        got = _old_lift_one_step(after, before, outer, self.prefix.system, self.unsubst)
        if got is None:
            why = "could not be inverted"
        else:
            u, rest, w, es = got
            arg = before.spine[0]
            approx = self.approx
            for e in es:
                held = approx.get((e, arg, outer))
                if held is None:
                    self.checked_grafts += 1
                    held = _approx(e, arg, outer, self.prefix.system, approx)
                if not held:
                    why = "grafted an element outside its argument's expansion"
                    break
            else:
                self.checked_links += 1
                if _link_holds(w, es, u, self.rebuilt):
                    return rewrap(rapp(rlam(w), monomial(es)), len(before.binders), rest)
                why = "failed its link check"
        if self.failed is None:
            self.failed = (before.rebuild(), why)
        return None


def _old_lift_one_step(
    t: ResourceTerm, before: HeadForm, outer: tuple[str, ...], system: Optional[RationalSystem], memo: dict
) -> Optional[tuple]:
    peeled = peel(t, len(before.binders), len(before.spine) - 1)
    if peeled is None:
        return None
    u, rest = peeled
    lam = before.head
    inner = (lam.hint,) + outer
    table = memo.get(inner)
    if table is None:
        table = memo[inner] = {}
    got = _anti_subst(u, lam.body, 0, inner, system, table)
    return None if got is None else (u, rest, got[0], got[1])


# ---------------------------------------------------------------------------
# Resource terms


def old_unshift(u: ResourceTerm, c: int) -> Optional[ResourceTerm]:
    """Undo a grafting shift: decrement indices escaping ``u`` by ``c``."""
    if c == 0:
        return u
    try:
        return _shifted_down(u, c, 0)
    except ApproximantMismatchError:
        return None


def _shifted_down(t: ResourceTerm, c: int, depth: int) -> ResourceTerm:
    if t.loose <= depth:
        return t
    if isinstance(t, RVar):
        if t.index - c < depth:
            raise ApproximantMismatchError("dangling index too small to unshift")
        return rvar(t.index - c)
    if isinstance(t, RLam):
        return rlam(_shifted_down(t.body, c, depth + 1))
    return rapp(_shifted_down(t.fn, c, depth), monomial(_shifted_down(e, c, depth) for e in t.mono))


def old_skey(x: ResourceTerm | Monomial) -> tuple:
    """The nested order key: an application's monomial is one tuple in it."""
    if isinstance(x, Monomial):
        return tuple(old_skey(e) for e in x)
    if isinstance(x, RVar):
        return (0, x.index)
    if isinstance(x, RFreeVar):
        return (1, x.name)
    if isinstance(x, RLam):
        return (2, old_skey(x.body))
    if isinstance(x, RApp):
        return (3, old_skey(x.fn), old_skey(x.mono))
    assert isinstance(x, RHole)
    return (4,)


def old_height(x: ResourceTerm | Monomial | FiniteSum) -> int:
    """Monomial-nesting depth, as the constructors computed it."""
    if isinstance(x, FiniteSum):
        return max((old_height(t) for t in x), default=0)
    if isinstance(x, Monomial):
        return 1 + max((old_height(e) for e in x), default=0)
    if isinstance(x, RLam):
        return old_height(x.body)
    if isinstance(x, RApp):
        return max(old_height(x.fn), old_height(x.mono))
    return 0


# ---------------------------------------------------------------------------
# Printers


def _dangling(t: Term, memo: dict[Term, frozenset[int]]) -> frozenset[int]:
    got = memo.get(t)
    if got is not None:
        return got
    if isinstance(t, Var):
        out = frozenset((t.index,))
    elif isinstance(t, Lam):
        out = frozenset(k - 1 for k in _dangling(t.body, memo) if k >= 1)
    elif isinstance(t, App):
        out = _dangling(t.fn, memo) | _dangling(t.arg, memo)
    else:
        out = frozenset()
    memo[t] = out
    return out


def _free_names(t: Term, memo: dict[Term, frozenset[str]]) -> frozenset[str]:
    got = memo.get(t)
    if got is not None:
        return got
    if isinstance(t, FreeVar):
        out = frozenset((t.name,))
    elif isinstance(t, Lam):
        out = _free_names(t.body, memo)
    elif isinstance(t, App):
        out = _free_names(t.fn, memo) | _free_names(t.arg, memo)
    else:
        out = frozenset()
    memo[t] = out
    return out


def old_pretty(t: Term, cut: str = "*", avoid: frozenset[str] = frozenset()) -> str:
    return _render(t, (), 0, cut, avoid, {}, {})


def _render(u, env, prec, cut, avoid, dmemo, fmemo) -> str:
    if isinstance(u, Var):
        return env[u.index] if u.index < len(env) else f"#{u.index}"
    if isinstance(u, FreeVar):
        return u.name
    if isinstance(u, Bottom):
        return "_|_"
    if isinstance(u, Hole):
        return cut
    if isinstance(u, RecRef):
        return u.symbol
    if isinstance(u, Lam):
        taken = set(_free_names(u.body, fmemo)) | set(avoid)
        for k in _dangling(u.body, dmemo):
            if k >= 1 and (k - 1) < len(env):
                taken.add(env[k - 1])
        name = u.hint or "x"
        while name in taken:
            name += "'"
        body = _render(u.body, (name,) + env, 0, cut, avoid, dmemo, fmemo)
        out = f"\\{name}. {body}"
        return f"({out})" if prec > 0 else out
    if isinstance(u, App):
        fn = _render(u.fn, env, 1, cut, avoid, dmemo, fmemo)
        out = f"{fn} {_render(u.arg, env, 2, cut, avoid, dmemo, fmemo)}"
        return f"({out})" if prec > 1 else out
    raise TypeError(f"not a term: {u!r}")


def _collect_free(t: ResourceTerm | Monomial, acc: set[str]) -> None:
    if isinstance(t, Monomial):
        for e in t:
            _collect_free(e, acc)
    elif isinstance(t, RFreeVar):
        acc.add(t.name)
    elif isinstance(t, RLam):
        _collect_free(t.body, acc)
    elif isinstance(t, RApp):
        _collect_free(t.fn, acc)
        _collect_free(t.mono, acc)


def _binder_name(depth: int, taken: set[str]) -> str:
    base = "abcdefghijklmnopqrstuvwxyz"[depth % 26]
    suffix = depth // 26
    name = base if suffix == 0 else f"{base}{suffix}"
    while name in taken:
        name += "'"
    return name


def old_pretty_resource(t: ResourceTerm) -> str:
    taken: set[str] = set()
    _collect_free(t, taken)
    return _render_resource(t, (), taken)


def _render_resource(u: ResourceTerm, env: tuple[str, ...], taken: set[str]) -> str:
    if isinstance(u, RVar):
        return env[u.index] if u.index < len(env) else f"#{u.index}"
    if isinstance(u, RFreeVar):
        return u.name
    if isinstance(u, RHole):
        return "*"
    if isinstance(u, RLam):
        name = _binder_name(len(env), taken)
        return f"\\{name}. {_render_resource(u.body, (name,) + env, taken)}"
    if isinstance(u, RApp):
        fn = _render_resource(u.fn, env, taken)
        if len(u.mono) == 0:
            return f"<{fn}>1"
        return f"<{fn}>[" + ", ".join(_render_resource(e, env, taken) for e in u.mono) + "]"
    raise TypeError(f"not a resource term: {u!r}")


def old_is_d_positive(t: ResourceTerm, d: int) -> bool:
    if d <= 0:
        return True
    if isinstance(t, RLam):
        return old_is_d_positive(t.body, d)
    if isinstance(t, RApp):
        if len(t.mono) == 0:
            return False
        return old_is_d_positive(t.fn, d) and all(old_is_d_positive(e, d - 1) for e in t.mono)
    return True


def old_bohm_dot(t: Term) -> str:
    lines = ["digraph bohm {", "  node [shape=plaintext];"]
    _dot_node(t, (), lines, itertools.count())
    lines.append("}")
    return "\n".join(lines)


def _dot_node(u: Term, env: tuple[str, ...], lines: list[str], ids) -> int:
    me = next(ids)
    if isinstance(u, Lam):
        hints = []
        while isinstance(u, Lam):
            hints.append(u.hint)
            env = (u.hint,) + env
            u = u.body
        lines.append(f'  n{me} [label="\\\\{" ".join(hints)}"];')
        child = _dot_node(u, env, lines, ids)
        lines.append(f"  n{me} -> n{child};")
        return me
    if isinstance(u, App):
        lines.append(f'  n{me} [label="@"];')
        left = _dot_node(u.fn, env, lines, ids)
        right = _dot_node(u.arg, env, lines, ids)
        lines.append(f"  n{me} -> n{left};")
        lines.append(f"  n{me} -> n{right};")
        return me
    if isinstance(u, Var):
        label = env[u.index] if u.index < len(env) else f"#{u.index}"
    elif isinstance(u, FreeVar):
        label = u.name
    elif isinstance(u, Bottom):
        label = "_|_"
    elif isinstance(u, Hole):
        label = "◻"
    else:
        label = "?"
    lines.append(f'  n{me} [label="{label}"];')
    return me

"""Helpers that several test modules share: a seeded generator of λ-terms,
contexts and ``let rec`` equation bodies, an enumerator of the closed terms
by node count and a tally of a check's verdicts on them, builders of long
application chains, a reader for printed resource sites, a head-normality
test for resource terms, an oracle for ``bot_step``, a reader of the
lifter's memos by their flat keys, and ``subterm_at`` and ``replace_at``,
the lookup and the rewrite at a position that ``beta_step`` and
``bot_step`` do in one descent.

Two slow oracles live here too. ``hr_step_along`` is the link check on the
whole term that the lifter's check on the opened core replaced, and
``stratify_per_position`` is ``beta.stratify`` as it was before each level
became one rebuild: it looked up and replaced every maximal subterm of a
level on its own (``depth_positions``), in time quadratic in the number of
arguments."""

from typing import Optional, Sequence

from taylorlab.beta import (
    BohmPrefix,
    Position,
    StratifyResult,
    _along,
    _replace_along,
    head_normalize,
    head_redex_position,
)
from taylorlab.lab import LiftSession
from taylorlab.resource import RLam, ResourceTerm, open_along
from taylorlab.resource_reduction import head_split, rewrap
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    Lam,
    LambdaError,
    RecRef,
    Term,
    Var,
    pretty,
    subterms,
    unlink,
)

NAMES = ("x", "y", "f")
SYMBOLS = ("F", "G", "H")


def random_term(rng, size, depth=0, symbols=(), holes=False, names=NAMES, loose=2):
    """A random term whose binder hints and free names overlap, so that
    grafting captures. It holds references to ``symbols`` and, with
    ``holes``, holes; an index may point up to ``loose`` places past every
    binder, so with ``loose=0`` the term prints as text that parses."""
    roll = rng.random()
    if size <= 1 or roll < 0.2:
        leaf = rng.random()
        if symbols and leaf < 0.25:
            return RecRef(rng.choice(symbols))
        if holes and leaf < 0.4:
            return HOLE
        if leaf < 0.5 or depth + loose == 0:
            return BOTTOM if rng.random() < 0.3 else FreeVar(rng.choice(names + ("z",)))
        return Var(rng.randrange(depth + loose))
    args = (symbols, holes, names, loose)
    if roll < 0.45:
        return Lam(rng.choice(names), random_term(rng, size - 1, depth + 1, *args))
    if roll < 0.6:
        fn = Lam(rng.choice(names), random_term(rng, size // 2, depth + 1, *args))
    else:
        fn = random_term(rng, size // 2, depth, *args)
    return App(fn, random_term(rng, size - 1 - size // 2, depth, *args))


def closed_terms(max_nodes):
    """Every closed term of at most ``max_nodes`` nodes, one node for each
    variable, abstraction and application, by node count. Every binder is
    hinted ``x``, and a closed term prints as text that parses back to it up
    to hints (``alpha_eq``). There are 201 of at most 7 nodes, 2,622 of at
    most 9, 10,180 of at most 10 and 173,442 of at most 12."""
    table = {}  # (nodes, binders in scope) -> every such term

    def terms(n, depth):
        key = (n, depth)
        if key not in table:
            out = [Var(i) for i in range(depth)] if n == 1 else [Lam("x", b) for b in terms(n - 1, depth + 1)]
            for k in range(1, n - 1):
                out += [App(f, a) for f in terms(k, depth) for a in terms(n - 1 - k, depth)]
            table[key] = out
        return table[key]

    return [t for n in range(1, max_nodes + 1) for t in terms(n, 0)]


def census(terms, check):
    """The count of each verdict that ``check`` gives on ``terms``, and the
    sorted list of the terms that do not pass, printed, with their verdicts
    and reasons."""
    counts = dict.fromkeys(("pass", "inconclusive", "fail"), 0)
    others = []
    for t in terms:
        report = check(t)
        counts[report.verdict] += 1
        if report.verdict != "pass":
            others.append((pretty(t), report.verdict, report.reason))
    return counts, sorted(others)


def power_apply(m, n, k):
    """Left-nested application of ``k`` copies of ``n`` to ``m``."""
    out = m
    for _ in range(k):
        out = App(out, n)
    return out


def power_tail(n, k):
    """Right-nested tower ``(n)(n)...(n) n`` with ``k`` occurrences."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = n
    for _ in range(k - 1):
        out = App(n, out)
    return out


def is_head_normal(t):
    """Whether the resource term ``t`` has no head redex."""
    _, head, monos = head_split(t)
    return not (isinstance(head, RLam) and monos)


def site_from_str(text):
    """The resource site that ``site_to_str`` prints as ``text``."""
    if text in ("", "root"):
        return ()
    out = []
    for part in text.split("."):
        if part in ("body", "fun"):
            out.append(part)
        elif part.startswith("arg[") and part.endswith("]"):
            out.append(("arg", int(part[4:-1])))
        else:
            raise LambdaError(f"bad site component {part!r}")
    return tuple(out)


def fresh_session(target, fuel):
    """A ``LiftSession`` on a new ``BohmPrefix`` of ``target`` at ``fuel``,
    shared with no other call: the unshared reference for a lift."""
    return LiftSession(BohmPrefix(target, fuel))


def memo_entries(session: LiftSession, name: str):
    """Every entry of the session's memo ``name`` as ``(key, value,
    table)``, ``key`` being the flat key the entry had before the memos
    were kept by scope, and ``table`` the scope's table that holds it:

    * ``unsubst``: ``(u, p, c, stack)``, ``table`` the table of ``c`` and
      ``stack`` that ``lab._anti_subst`` takes, holding ``p``;
    * ``rebuilt``: ``(u, c)`` for an occurrence count and ``(u, c, elems)``
      for a rebuilt subterm, ``table`` the table of the bound index ``c``;
    * ``lifts``: ``(u, m, stack)``, ``table`` the table of the run of ``m``
      under ``stack``."""
    if name == "unsubst":
        scopes = [(table, 0, inner) for inner, table in session.unsubst.items()]
        while scopes:
            table, c, stack = scopes.pop()
            for p, entry in table.items():
                if isinstance(p, Lam):
                    scopes.append((entry, c + 1, (p.hint,) + stack))
                else:
                    for u, got in entry.items():
                        yield (u, p, c, stack), got, table
    elif name == "rebuilt":
        for c, table in session.rebuilt.items():
            for key, got in table.items():
                yield ((key[0], c, key[1]) if isinstance(key, tuple) else (key, c)), got, table
    elif name == "lifts":
        for (m, stack), table in session.lifts.items():
            for u, node in table.items():
                yield (u, m, stack), node, table
    else:
        raise ValueError(f"no memo {name!r}")


def flat_memo(session: LiftSession, name: str) -> dict:
    """The session's memo ``name`` as one dict by flat key (``memo_entries``);
    a key met twice is a duplicated entry and fails."""
    out = {}
    for key, value, _ in memo_entries(session, name):
        assert key not in out, key
        out[key] = value
    return out


def loop_certified_oracle(fuel):
    """Oracle for ``bot_step``: certifies exactly what head-cycle detection can."""
    return lambda t: head_normalize(t, fuel)


def hr_step_along(
    t: ResourceTerm, elems: Sequence[ResourceTerm], memo: Optional[dict] = None
) -> Optional[ResourceTerm]:
    """The addend of ``hr_step(t)`` whose head binder is opened along
    ``elems`` (see ``open_along``, which shares ``memo``); None when ``t``
    has no head redex or ``elems`` is not an ordering of the head redex's
    monomial."""
    binders, head, monos = head_split(t)
    if not (isinstance(head, RLam) and monos):
        return None
    if sorted(elems, key=lambda e: e.skey) != list(monos[0].elems):
        return None
    opened = open_along(head.body, elems, memo)
    return None if opened is None else rewrap(opened, binders, monos[1:])


def depth_positions(t: Term, d: int) -> list[Position]:
    """Positions of the maximal subterms at applicative depth exactly ``d``."""
    # a subterm at depth d is maximal when the root or entered by an argument step
    return [
        unlink(path)[::-1]
        for _, _, _, argdepth, path in subterms(t)
        if argdepth == d and (path is None or path[0] == "arg")
    ]


def subterm_at(t: Term, pos: Position) -> Term:
    return _along(t, pos)[-1]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    return _replace_along(_along(t, pos), pos, new)


def stratify_per_position(m: Term, depth: int, fuel: int) -> StratifyResult:
    """``stratify``, one ``subterm_at`` and one ``replace_at`` per position."""
    levels = [m]
    all_steps: list[tuple[Position, ...]] = []
    cur = m
    for d in range(depth):
        steps_d: list[Position] = []
        for pos in depth_positions(cur, d):
            sub = subterm_at(cur, pos)
            run = head_normalize(sub, fuel)
            if run.is_solvable:
                steps_d.extend(pos + head_redex_position(hf) for hf in run.trace)
                cur = replace_at(cur, pos, run.term)
            elif run.certified_unsolvable:
                continue
            else:
                return StratifyResult(
                    tuple(levels),
                    tuple(all_steps),
                    diagnostic=f"fuel exhausted at depth {d} ({run.describe()})",
                )
        levels.append(cur)
        all_steps.append(tuple(steps_d))
    return StratifyResult(tuple(levels), tuple(all_steps))

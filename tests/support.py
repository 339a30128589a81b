"""Helpers that several test modules share: builders of long application
chains, a reader for printed resource sites, a head-normality test for
resource terms, an oracle for ``bot_step``, and a reader of the lifter's
memos by their flat keys.

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
    head_normalize,
    head_redex_position,
    replace_at,
    subterm_at,
)
from taylorlab.lab import LiftSession
from taylorlab.resource import RLam, ResourceTerm, open_along
from taylorlab.resource_reduction import head_split, rewrap
from taylorlab.syntax import App, Lam, LambdaError, Term, subterms, unlink


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

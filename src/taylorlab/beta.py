"""Finitary beta and bottom reduction, head machinery, Boehm approximants.

Positions are paths over ``body`` / ``fun`` / ``arg``; the applicative
depth of a position is its number of ``arg`` components, which is the only
depth that matters here.

Unsolvability is never guessed: the head normalizer reports it only with a
certificate, either an exact repetition of a previous state (the
self-application loop) or a bottom constant in head position. Plain fuel
exhaustion stays inconclusive, and truncated trees mark it with the cut
marker rather than bottom.

The records (``HeadForm``, ``HeadRun``, ``StratifyResult``) are
``NamedTuple``s, read by attribute and never unpacked: ``dataclasses`` would
load ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every CLI process.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

from .syntax import (
    BOTTOM,
    HOLE,
    App,
    Bottom,
    FreeVar,
    Hole,
    Lam,
    LambdaError,
    Linked,
    RationalSystem,
    RecRef,
    Term,
    TermLike,
    Var,
    resolve_ref,
    rebuild,
    split_target,
    subterms,
    unlink,
)


class NotARedexError(LambdaError):
    pass


class DepthTooShallowError(LambdaError):
    pass


class OracleUndecidedError(LambdaError):
    pass


class InvalidPositionError(LambdaError):
    pass


Position = tuple[str, ...]


def position_to_str(pos: Position) -> str:
    return ".".join(pos) if pos else "root"


def position_from_str(text: str) -> Position:
    if text in ("", "root"):
        return ()
    parts = tuple(text.split("."))
    for p in parts:
        if p not in ("body", "fun", "arg"):
            raise InvalidPositionError(f"bad position component {p!r}")
    return parts


def applicative_depth(pos: Position) -> int:
    return sum(1 for c in pos if c == "arg")


def subterm_at(t: Term, pos: Position) -> Term:
    for c in pos:
        if c == "body" and isinstance(t, Lam):
            t = t.body
        elif c == "fun" and isinstance(t, App):
            t = t.fn
        elif c == "arg" and isinstance(t, App):
            t = t.arg
        else:
            raise InvalidPositionError(f"position {position_to_str(pos)} does not resolve")
    return t


def _position(path: Linked) -> Position:
    return unlink(path)[::-1]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    # The walk goes down ``pos`` only: a subterm is kept as it is unless its
    # parent is the deepest subterm met on ``pos`` and its step is the next one.
    met, k = None, 0

    def graft(u: Term, _d: int, _h: Linked, _a: int, path: Linked) -> Optional[Term]:
        nonlocal met, k
        if path is not None:
            if path[1] is not met or path[0] != pos[k]:
                return u
            met, k = path, k + 1
        return new if k == len(pos) else None

    out = rebuild(t, graft)
    if k < len(pos):
        raise InvalidPositionError(f"position {position_to_str(pos)} does not resolve")
    return out


# ---------------------------------------------------------------------------
# Beta


def _shift(t: Term, d: int) -> Term:
    if d == 0:
        return t

    def shift(u: Term, c: int, *_) -> Optional[Term]:
        return Var(u.index + d) if isinstance(u, Var) and u.index >= c else None

    return rebuild(t, shift)


def open_bound(body: Term, arg: Term) -> Term:
    """Remove the binder just peeled: substitute ``arg`` for its variable."""

    def fill(u: Term, c: int, *_) -> Optional[Term]:
        if isinstance(u, Var) and u.index >= c:
            return _shift(arg, c) if u.index == c else Var(u.index - 1)
        return None

    return rebuild(body, fill)


def beta_step(m: Term, at: Position) -> Term:
    target = subterm_at(m, at)
    if not (isinstance(target, App) and isinstance(target.fn, Lam)):
        raise NotARedexError(f"no beta redex at {position_to_str(at)}: {target}")
    return replace_at(m, at, open_bound(target.fn.body, target.arg))


def leftmost_redex(t: Term) -> Optional[Position]:
    """Normal-order redex position: outermost, function before argument."""
    for u, _, _, _, path in subterms(t):
        if isinstance(u, App) and isinstance(u.fn, Lam):
            return _position(path)
    return None


def min_depth_step(m: Term, d: int, at: Position) -> Term:
    if applicative_depth(at) < d:
        raise DepthTooShallowError(
            f"position {position_to_str(at)} has depth {applicative_depth(at)} < {d}"
        )
    return beta_step(m, at)


def bot_step(m: Term, at: Position, oracle: Callable[[Term], "HeadRun"]) -> Term:
    """Collapse the subterm at ``at`` to bottom.

    Fires on ``\\x. _|_`` and ``(_|_) n`` outright; any other subterm needs
    the caller's oracle to certify unsolvability, and an undecided oracle
    refuses the rewrite instead of guessing.
    """
    target = subterm_at(m, at)
    if isinstance(target, Lam) and isinstance(target.body, Bottom):
        return replace_at(m, at, BOTTOM)
    if isinstance(target, App) and isinstance(target.fn, Bottom):
        return replace_at(m, at, BOTTOM)
    run = oracle(target)
    if run.certified_unsolvable:
        return replace_at(m, at, BOTTOM)
    if run.is_solvable:
        raise NotARedexError(f"subterm is solvable, not a bottom redex: {target}")
    raise OracleUndecidedError(f"oracle could not certify unsolvability of: {target}")


# ---------------------------------------------------------------------------
# Head forms


class HeadForm(NamedTuple):
    """Decomposition ``\\x1..xm. (((head) q1) ... ) qn`` with a non-application head."""

    binders: tuple[str, ...]
    head: Term
    spine: tuple[Term, ...]

    @property
    def is_head_normal(self) -> bool:
        return isinstance(self.head, (Var, FreeVar))

    @property
    def has_head_redex(self) -> bool:
        return isinstance(self.head, Lam) and bool(self.spine)

    def spine_stack(self, stack: tuple[str, ...]) -> tuple[str, ...]:
        """The stack of the head and spine: the hints of the binders, innermost
        first, pushed on ``stack``, the one of the whole term."""
        return self.binders[::-1] + stack

    def rebuild(self) -> Term:
        t = self.head
        for q in self.spine:
            t = App(t, q)
        for hint in reversed(self.binders):
            t = Lam(hint, t)
        return t


def head_form(m: Term) -> HeadForm:
    binders: list[str] = []
    while isinstance(m, Lam):
        binders.append(m.hint)
        m = m.body
    spine: list[Term] = []
    while isinstance(m, App):
        spine.append(m.arg)
        m = m.fn
    spine.reverse()
    return HeadForm(tuple(binders), m, tuple(spine))


def _fire_head(hf: HeadForm) -> Term:
    assert isinstance(hf.head, Lam)
    return HeadForm(hf.binders, open_bound(hf.head.body, hf.spine[0]), hf.spine[1:]).rebuild()


def head_redex_position(hf: HeadForm) -> Position:
    return ("body",) * len(hf.binders) + ("fun",) * (len(hf.spine) - 1)


def _resolve_at_head(
    m: Term, system: Optional[RationalSystem], stack: tuple[str, ...]
) -> Term:
    """Replace head references by their equation bodies until a constructor
    shows up. Terminates on guarded systems: an endless chain would be an
    unguarded cycle."""
    guard = 0
    while True:
        hf = head_form(m)
        if not isinstance(hf.head, RecRef):
            return m
        body = resolve_ref(hf.head, system, hf.spine_stack(stack))
        guard += 1
        if guard > len(system.equations) + 1:
            raise LambdaError("resolution does not terminate (unguarded system?)")
        m = HeadForm(hf.binders, body, hf.spine).rebuild()


def head_step(m: Term) -> Term:
    """One head step: fire the head redex if there is one, else identity."""
    hf = head_form(m)
    return _fire_head(hf) if hf.has_head_redex else m


# ---------------------------------------------------------------------------
# The head normalizer


class HeadRun(NamedTuple):
    """Result of ``head_normalize``: the final term; ``reason``, empty when
    the run is solvable, else why it stopped; the head form of each state
    before a step (resolved, so each one exhibits its head redex;
    ``head_redex_position`` gives the redex's position), one per step; and
    ``hnf``, the head form of the final term when it is head normal.

    The reasons "loop" (exact state repetition) and "bottom" (bottom in
    head position) certify unsolvability; "fuel", "hole" and "capture"
    (see ``_captures``) do not.
    """

    term: Term
    reason: str
    trace: tuple[HeadForm, ...]
    hnf: Optional[HeadForm] = None

    @property
    def is_solvable(self) -> bool:
        return self.hnf is not None

    @property
    def certified_unsolvable(self) -> bool:
        return self.reason in ("loop", "bottom")

    def describe(self) -> str:
        if self.is_solvable:
            return f"solvable({len(self.trace)})"
        return f"unknown({self.reason}, {len(self.trace)} steps)"


def _captures(hf: HeadForm, names: frozenset[str]) -> bool:
    """Whether firing the head redex would change the binder that a system
    reference resolves a free name of its equation against: the argument
    holds a reference and lands under a binder hinted with one of
    ``names``, or the fired binder is so hinted and leaves a reference in
    its body. The source resolves each reference where it stands, so such
    a step would reduce another term than the one the source denotes."""
    lam = hf.head
    assert isinstance(lam, Lam)
    if lam.hint in names and any(isinstance(u, RecRef) for u, *_ in subterms(lam.body)):
        return True
    return any(isinstance(u, RecRef) for u, *_ in subterms(hf.spine[0])) and any(
        isinstance(u, Var) and u.index == c and not names.isdisjoint(unlink(hints))
        for u, c, hints, *_ in subterms(lam.body)
    )


def head_normalize(
    m: Term,
    fuel: int,
    system: Optional[RationalSystem] = None,
    stack: tuple[str, ...] = (),
) -> HeadRun:
    """Iterate the head operator, at most ``fuel`` times, with cycle detection.

    An exact repetition of an earlier state certifies that the head
    strategy diverges, hence unsolvability; fuel exhaustion does not. On a
    system, a step that would capture (``_captures``) stops the run.
    """
    names: frozenset[str] = frozenset()
    if system is not None:
        m = _resolve_at_head(m, system, stack)
        bodies = system.equations.values()
        names = frozenset(u.name for b in bodies for u, *_ in subterms(b) if isinstance(u, FreeVar))
    cur = m
    seen = {cur}
    trace: list[HeadForm] = []
    while True:
        hf = head_form(cur)
        if hf.is_head_normal:
            return HeadRun(cur, "", tuple(trace), hf)
        if isinstance(hf.head, Bottom):
            return HeadRun(cur, "bottom", tuple(trace))
        if isinstance(hf.head, Hole):
            return HeadRun(cur, "hole", tuple(trace))
        if isinstance(hf.head, RecRef):
            cur = _resolve_at_head(cur, system, stack)
            continue
        if len(trace) >= fuel:
            return HeadRun(cur, "fuel", tuple(trace))
        if names and _captures(hf, names):
            return HeadRun(cur, "capture", tuple(trace))
        trace.append(hf)
        nxt = _fire_head(hf)
        if system is not None:
            nxt = _resolve_at_head(nxt, system, stack)
        if nxt in seen:
            return HeadRun(nxt, "loop", tuple(trace))
        seen.add(nxt)
        cur = nxt


# ---------------------------------------------------------------------------
# Boehm approximants


class BohmPrefix:
    """The Boehm tree of one target at one fuel. Each node is one
    ``head_normalize`` run of a subterm under the hints of the binders above
    it, innermost first, kept in ``runs`` by ``(m, stack)``: every reader of
    the tree, truncated (``tree``) or node by node (``taylor.member_of_bohm``,
    ``lab.LiftSession``), meets the same runs, and none is run twice.
    """

    __slots__ = ("term", "system", "fuel", "runs")

    def __init__(self, target: TermLike, fuel: int):
        self.term, self.system = split_target(target)
        self.fuel = fuel
        self.runs: dict[tuple[Term, tuple[str, ...]], HeadRun] = {}

    def run(self, m: Term, stack: tuple[str, ...]) -> HeadRun:
        key = (m, stack)
        run = self.runs.get(key)
        if run is None:
            run = self.runs[key] = head_normalize(m, self.fuel, self.system, stack)
        return run

    def tree(self, depth: int) -> Term:
        """Depth-bounded Boehm approximant: a solvable node contributes its
        head normal form, whose spine arguments are nodes one applicative
        level deeper; certified divergence contributes bottom, and anything
        inconclusive, or at depth ``depth`` or below, contributes a cut."""

        def node(u: Term, _d: int, hints: Linked, argdepth: int, path: Linked) -> Union[Term, tuple, None]:
            if path is not None and path[0] != "arg":
                return None  # inside a node's head normal form
            if argdepth >= depth:
                return HOLE
            if head_form(u).is_head_normal:
                return None  # handed back below, or one already: no run needed
            run = self.run(u, unlink(hints))
            if run.certified_unsolvable:
                return BOTTOM
            return (run.term,) if run.is_solvable else HOLE

        return rebuild(self.term, node)


def bohm_tree(target: TermLike, depth: int, fuel: int) -> Term:
    """Depth-bounded Boehm approximant, ``BohmPrefix.tree``."""
    return BohmPrefix(target, fuel).tree(depth)


def is_bohm_normal(t: Term) -> bool:
    """No beta redex and no bottom redex anywhere above the cut markers."""
    return not any(
        isinstance(u, App) and isinstance(u.fn, (Lam, Bottom))
        or isinstance(u, Lam) and isinstance(u.body, Bottom)
        for u, *_ in subterms(t)
    )


# ---------------------------------------------------------------------------
# Stratification


class StratifyResult(NamedTuple):
    """Levels ``m0..mD`` where level ``d+1`` head-normalizes every subterm of
    level ``d`` sitting at applicative depth exactly ``d``; the recorded
    positions replay each stage via ``min_depth_step``."""

    levels: tuple[Term, ...]
    step_positions: tuple[tuple[Position, ...], ...]
    diagnostic: Optional[str] = None


def stratify(m: Term, depth: int, fuel: int) -> StratifyResult:
    """Reduce in depth-ordered stages: stage ``d`` fires only at depth >= d.

    Each stage is one ``rebuild`` of the level, which puts the head normal
    form of each maximal subterm at depth ``d`` in its place. Subterms whose
    head reduction is certified to diverge are left alone (they never reach
    a head normal form anyway); running out of fuel stops the whole
    construction with a diagnostic.
    """
    levels = [m]
    all_steps: list[tuple[Position, ...]] = []
    cur = m
    for d in range(depth):
        steps_d: list[Position] = []
        stuck: list[HeadRun] = []

        def normalize(u: Term, _d: int, _h: Linked, argdepth: int, path: Linked) -> Optional[Term]:
            if argdepth < d:
                return None
            # the walk enters depth d at the root or by an argument step, so u is maximal
            if stuck:
                return u
            run = head_normalize(u, fuel)
            if run.is_solvable:
                steps_d.extend(_position(path) + head_redex_position(hf) for hf in run.trace)
                return run.term
            if not run.certified_unsolvable:
                stuck.append(run)
            return u

        cur = rebuild(cur, normalize)
        if stuck:
            diagnostic = f"fuel exhausted at depth {d} ({stuck[0].describe()})"
            return StratifyResult(tuple(levels), tuple(all_steps), diagnostic)
        levels.append(cur)
        all_steps.append(tuple(steps_d))
    return StratifyResult(tuple(levels), tuple(all_steps))

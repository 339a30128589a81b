"""Desk-scale theorem checks tying the engines together.

Every check returns a three-valued :class:`CheckReport`: pass, fail (with a
replayable witness), or inconclusive. Fuel or bound exhaustion is always
surfaced as inconclusive, never as a refutation and never silently as a
pass.

The backward direction of the commutation check needs, for an approximant
``t`` of a Boehm tree, some approximant of the original term normalizing
onto ``t``. Searching size-bounded slices for it is hopeless beyond toy
cases (the least such ancestor grows quadratically in the depth of ``t``),
so it is constructed: walk the recorded head-reduction trace backwards,
inverting one step at a time by un-substituting through the approximant
(``_anti_subst``).

The construction is complete, so nothing else is tried:

* The lift reads the runs of the very ``BohmPrefix`` that the targets
  come from, so a target matches each run's head normal form node by node.
* ``_anti_subst`` inverts any head step ``(\\z. p) q -> p[q/z]``: the
  approximants of ``p[q/z]`` are exactly the linear substitutions of
  approximants of ``q`` into approximants of ``p`` (the uniformity of the
  Taylor expansion; Ehrhard & Regnier, "Uniformity and the Taylor expansion
  of ordinary lambda-terms", TCS 403, 2008). Reading an approximant of the
  reduct back against ``p`` therefore recovers one of ``p`` and the grafted
  elements of ``q``.

By induction over the steps and the monomial elements, every target lifts.
On a rational system, references resolve by binder hint; a step that would
move one across a hint it resolves against is not taken
(``beta._captures``), and the tree is cut there instead.

A lifted ancestor ``s`` counts once ``t`` is in its normal form and ``s``
approximates the term. Each inverted step is checked once, when it is
built, on its core: ``before`` is ``<\\w>[es]`` and ``after`` is ``u``,
both in the same binders and frames, so the link ``hr_step_along(before,
es) is after`` is exactly ``open_along(w, es) is u``. So the chain of
steps carries each core with its binders and frames, and wraps only the
ancestor in them. ``es`` lists the grafted elements in the order of the
bound occurrences they fill, and the rebuilt term is one addend of the
linear substitution by definition, so nothing is searched. Resource
reduction is confluent and terminating, so each link gives ``nf(before) ⊇
nf(after)``, and by induction over the steps and the monomial elements the
links chain ``t``'s part of the head-normal node at the bottom of each
level up to ``nf(s)``.

Approximation follows the same induction. The head-normal node matches its
head form, with sub-lifts as elements. ``_un_substitute`` builds ``w``
along the constructors of the redex body, so ``w`` approximates it, and
``before`` keeps the frames of ``after``. Only the grafted elements can fail
to approximate, and each is checked against the redex argument. So ``s``
approximates the term, and the whole of it is never tested.

A step that cannot be inverted, grafts an element outside its argument's
expansion or fails its link is a defect: the lift stops there, and the
check ends inconclusive with a reason that names the target and the term
before that step (``LiftSession.failed``). A check lifts all its targets
through one ``LiftSession`` on its ``BohmPrefix`` (the only way into
``lift_to_source``); the session memoizes each piece of this work per
subterm: every link is still checked, but no subterm twice.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Optional, Sequence, Union

from .beta import (
    BohmPrefix,
    NotARedexError,
    Position,
    beta_step,
    bohm_tree,
    head_form,
    head_step,
    position_to_str,
    solvable,
)
from .resource import (
    FiniteSum,
    ResourceTerm,
    RApp,
    RLam,
    RVar,
    RFreeVar,
    _ordered_monomial,
    deg_hole,
    is_d_positive,
    monomial,
    open_along,
    open_redex,
    pretty_resource,
    r_context_fill,
    rapp,
    rfvar,
    rlam,
    rvar,
    unshift,
)
from .resource_reduction import hr_step, peel, peel_wrapped, r_normalize, rewrap
from .syntax import (
    App,
    FreeVar,
    Lam,
    LambdaError,
    RationalSystem,
    RecRef,
    Term,
    TermLike,
    Var,
    alpha_eq,
    context_fill,
    pretty,
    pretty_target,
    resolve_ref,
)
from .taylor import _approx, approximates, enumerate_taylor, enumerate_taylor_context, member_of_bohm


class ApproximantMismatchError(LambdaError):
    pass


class CheckReport:
    """Outcome of one theorem check; serializes to a stable JSON shape. A
    plain class, not a dataclass, for the reason ``beta`` gives."""

    __slots__ = ("theorem", "inputs", "verdict", "witness", "reason", "stats")

    def __init__(
        self, theorem: str, inputs: dict, verdict: str,
        witness: Optional[str] = None, reason: Optional[str] = None, stats: Optional[dict] = None,
    ):
        self.theorem = theorem
        self.inputs = inputs
        self.verdict = verdict  # "pass" | "fail" | "inconclusive"
        self.witness = witness
        self.reason = reason
        self.stats = {} if stats is None else stats

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.verdict]

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "stats": self.stats,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Forward simulation: pushing approximants through a beta step


def push_forward(s: ResourceTerm, m: Term, at: Position) -> FiniteSum:
    """Image of the approximant ``s`` of ``m`` under the beta step at ``at``.

    At the redex image the resource redex fires; inside the argument of an
    application every multiset element is pushed forward independently and
    the results recombine pointwise. Every addend of the result
    approximates the reduct of ``m``.
    """
    return _push(s, m, at, at)


def _push(u: ResourceTerm, t: Term, pos: Position, at: Position) -> FiniteSum:
    """``push_forward`` of ``u`` in ``t``, with ``pos`` the rest of ``at``."""
    if not pos:
        if not (isinstance(t, App) and isinstance(t.fn, Lam)):
            raise NotARedexError(f"no beta redex at {position_to_str(at)}")
        if not (isinstance(u, RApp) and isinstance(u.fn, RLam)):
            raise ApproximantMismatchError(f"{u} does not cover the redex shape")
        return open_redex(u)
    c, rest = pos[0], pos[1:]
    if c == "body" and isinstance(t, Lam) and isinstance(u, RLam):
        return _push(u.body, t.body, rest, at).map(rlam)
    if c == "fun" and isinstance(t, App) and isinstance(u, RApp):
        mono = u.mono
        return _push(u.fn, t.fn, rest, at).map(lambda v: rapp(v, mono))
    if c == "arg" and isinstance(t, App) and isinstance(u, RApp):
        fn = u.fn
        images = [_push(e, t.arg, rest, at) for e in u.mono]
        if any(not img for img in images):
            return FiniteSum()
        out = set()
        for combo in itertools.product(*[img.terms for img in images]):
            out.add(rapp(fn, monomial(combo)))
        return FiniteSum(out)
    raise ApproximantMismatchError(
        f"approximant {u} does not follow {position_to_str(at)} in {t}"
    )


def check_simulation(m: Term, steps: Sequence[Position], size_bound: int) -> CheckReport:
    """Push the whole slice of ``m`` through the given beta steps and verify
    every resulting addend approximates the final reduct."""
    inputs = {"term": pretty_target(m), "steps": [position_to_str(p) for p in steps], "size_bound": size_bound}
    stages = [m]
    for p in steps:
        stages.append(beta_step(stages[-1], p))
    final = stages[-1]
    sl = enumerate_taylor(m, size_bound)
    pushed_total = 0
    for s in sl:
        current = FiniteSum((s,))
        for i, p in enumerate(steps):
            parts = [push_forward(u, stages[i], p) for u in current]
            current = FiniteSum(t for part in parts for t in part)
        pushed_total += len(current)
        for u in current:
            if not approximates(u, final):
                return CheckReport(
                    "simulation",
                    inputs,
                    "fail",
                    witness=f"{pretty_resource(s)} ~> {pretty_resource(u)} does not approximate {pretty(final)}",
                )
    return CheckReport(
        "simulation",
        inputs,
        "pass",
        stats={"approximants": len(sl), "pushed_addends": pushed_total, "target": pretty(final)},
    )


# ---------------------------------------------------------------------------
# Constructive ancestors (inverse simulation along a head trace)


_UNSEEN = object()  # a memo miss: None is a result


def _anti_subst(
    u: ResourceTerm,
    p: Term,
    c: int,
    stack: tuple[str, ...],
    system: Optional[RationalSystem],
    memo: Optional[dict] = None,
) -> Optional[tuple[ResourceTerm, tuple[ResourceTerm, ...]]]:
    """Un-substitute: ``u`` approximates the opening of ``\\z. p`` on some
    argument; recover an approximant ``w`` of ``p`` (with the bound variable
    at index ``c``) plus the multiset elements that were grafted in, listed
    in the order ``open_along`` meets the occurrences of ``c`` in ``w``.
    Returns None when ``u`` cannot be read back against ``p``.

    ``memo`` is the table of the scope ``c`` and ``stack``, and may be
    shared between calls with the same ``system``. It keeps ``{u: (w,
    es)}`` under each application or leaf ``p``; under an abstraction it
    keeps the table of the scope of its body, whose ``w`` it closes again.
    """
    if memo is None:
        memo = {}
    entry = memo.get(p)
    if entry is None:
        entry = memo[p] = {}
    if isinstance(p, Lam):
        if not isinstance(u, RLam):
            return None
        got = _anti_subst(u.body, p.body, c + 1, (p.hint,) + stack, system, entry)
        return None if got is None else (rlam(got[0]), got[1])
    got = entry.get(u, _UNSEEN)
    if got is _UNSEEN:
        got = entry[u] = _un_substitute(u, p, c, stack, system, memo)
    return got


def _un_substitute(
    u: ResourceTerm,
    p: Term,
    c: int,
    stack: tuple[str, ...],
    system: Optional[RationalSystem],
    memo: dict,
) -> Optional[tuple[ResourceTerm, tuple[ResourceTerm, ...]]]:
    while isinstance(p, RecRef):
        if system is None:
            return None
        p = resolve_ref(p, system, stack)
    if isinstance(p, Var):
        if p.index == c:
            e = unshift(u, c)
            return None if e is None else (rvar(c), (e,))
        expect = p.index - 1 if p.index > c else p.index
        if isinstance(u, RVar) and u.index == expect:
            return (rvar(p.index), ())
        return None
    if isinstance(p, FreeVar):
        if isinstance(u, RFreeVar) and u.name == p.name:
            return (u, ())
        return None
    if isinstance(p, Lam):  # a reference resolved to an abstraction
        return _anti_subst(u, p, c, stack, system, memo)
    if isinstance(p, App):
        if not isinstance(u, RApp):
            return None
        got = _anti_subst(u.fn, p.fn, c, stack, system, memo)
        if got is None:
            return None
        wf, es = got
        parts = []
        for e in u.mono:
            sub = _anti_subst(e, p.arg, c, stack, system, memo)
            if sub is None:
                return None
            parts.append(sub)
        # the monomial stores its elements in skey order, and so will the
        # traversal of the recovered term: graft lists follow that order
        parts.sort(key=lambda part: part[0].skey)
        for _, more in parts:
            es += more  # shares ``more`` itself while ``es`` is empty
        return (rapp(wf, _ordered_monomial(tuple([we for we, _ in parts]))), es)
    return None


def _lift_one_step(chain: tuple, step: tuple, system: Optional[RationalSystem], memo: dict) -> Optional[tuple]:
    """Read an approximant of the head reduct of a step (a row of
    ``LiftSession.head_run``'s table) back through it: the core ``u`` that
    the head redex reduced to, the monomials of the frames around it, and
    ``_anti_subst``'s ``(w, es)`` for ``u``, in the table that ``memo``
    keeps for the step's inner stack. None when the approximant, a chain
    standing for ``rewrap(*chain)``, lacks the step's shape or ``u`` cannot
    be read back."""
    _, binders, frames, body, inner, _, _ = step
    peeled = peel_wrapped(*chain, binders, frames)
    if peeled is None:
        return None
    u, rest = peeled
    table = memo.get(inner)
    if table is None:
        table = memo[inner] = {}
    got = _anti_subst(u, body, 0, inner, system, table)
    return None if got is None else (u, rest, got[0], got[1])


def _link_holds(w: ResourceTerm, elems: Sequence[ResourceTerm], u: ResourceTerm, memo: Optional[dict] = None) -> bool:
    """A link of the construction, checked on the core: opening ``\\w``
    along its certificate ``elems`` rebuilds exactly ``u``. ``memo`` is
    ``open_along``'s."""
    return open_along(w, elems, memo) is u


class LiftSession:
    """Lifting work shared by the tree targets of one check, on the runs of
    its ``prefix``.

    ``tables`` keeps the step tables of the runs by ``(m, stack)``
    (``head_run``), and ``lifts`` one table of sub-lifts per run, by ``u``:
    the node built, whose checks all held, or None. Three more memos serve
    the walks over subterms: ``unsubst`` for ``_anti_subst``, one table per
    inner stack of a step; ``rebuilt`` for the link check (``open_along``),
    one table per bound index; and ``approx`` for the graft check
    (``taylor._approx``, by element, argument and stack). The walks pass
    abstractions through: only the graft checks keep an entry at one.
    ``shared`` counts the sub-lifts served instead of built,
    ``checked_links`` the links checked (one per inverted step of a
    sub-lift built) and ``checked_grafts`` the graft checks that ``approx``
    did not answer. ``failed`` is the first head step that ended a lift, if
    any: the term before it and why.
    """

    __slots__ = ("prefix", "tables", "lifts", "shared", "unsubst", "rebuilt", "approx", "checked_links", "checked_grafts", "failed")

    def __init__(self, prefix: BohmPrefix) -> None:
        self.prefix = prefix
        self.tables: dict = {}
        self.lifts: dict = {}
        self.shared = 0
        self.unsubst: dict = {}
        self.rebuilt: dict = {}
        self.approx: dict = {}
        self.checked_links = 0
        self.checked_grafts = 0
        self.failed: Optional[tuple[Term, str]] = None

    def head_run(self, m: Term, stack: tuple[str, ...]):
        """The step table of the prefix's run of ``m`` under ``stack``,
        built once; None without a head normal form. It is ``(steps, hnf)``:
        each step, last first, is ``(before, binders, frames, body, inner,
        arg, outer)`` for the head redex ``(\\z. body) arg`` of ``before``,
        with the stacks of ``body`` (``inner``) and ``arg`` (``outer``), and
        ``hnf`` is ``(binders, spine, head, outer)``, ``head`` a resource leaf.
        """
        key = (m, stack)
        if key in self.tables:
            return self.tables[key]
        run = self.prefix.run(m, stack)
        table = None
        if run.verdict.is_solvable:
            steps = []
            for before in reversed(run.trace):
                hf = head_form(before)
                outer = tuple(reversed(hf.binders)) + stack
                lam = hf.head
                steps.append((before, len(hf.binders), len(hf.spine) - 1, lam.body, (lam.hint,) + outer, hf.spine[0], outer))
            hf = head_form(run.term)
            head = rvar(hf.head.index) if isinstance(hf.head, Var) else rfvar(hf.head.name)
            table = tuple(steps), (len(hf.binders), hf.spine, head, tuple(reversed(hf.binders)) + stack)
        self.tables[key] = table
        return table

    def lift(self, u: ResourceTerm, m: Term, stack: tuple[str, ...]) -> Optional[ResourceTerm]:
        """The sub-lift of ``u`` against ``m`` under ``stack``, built once."""
        table = self.lifts.get((m, stack))
        if table is None:
            table = self.lifts[m, stack] = {}
        got = table.get(u, _UNSEEN)
        if got is _UNSEEN:
            got = table[u] = self._build(u, m, stack)
        else:
            self.shared += 1
        return got

    def _build(self, u: ResourceTerm, m: Term, stack: tuple[str, ...]) -> Optional[ResourceTerm]:
        run = self.head_run(m, stack)
        if run is None:
            return None
        steps, (binders, spine, head, outer) = run
        peeled = peel(u, binders, len(spine))
        if peeled is None or peeled[0] is not head:
            return None
        lifted_monos = []
        for q, mono in zip(spine, peeled[1]):
            elems = []
            for e in mono:
                lifted = self.lift(e, q, outer)
                if lifted is None:
                    return None
                elems.append(lifted)
            lifted_monos.append(monomial(elems))
        chain = (head, binders, tuple(lifted_monos))
        for step in steps:
            chain = self._invert(chain, step)
            if chain is None:
                return None
        return rewrap(*chain)

    def _invert(self, after: tuple, step: tuple) -> Optional[tuple]:
        """The approximant of the term before ``step`` that head-reduces
        onto ``after``, once its grafts and its link hold; else None, with
        the failure recorded. Both are chains ``(x, b, rest)``: the node
        an inversion built (``<\\w>[es]``, or the head leaf) in ``b``
        binders and the frames ``rest``, which only ``_build`` wraps."""
        got = _lift_one_step(after, step, self.prefix.system, self.unsubst)
        if got is None:
            why = "could not be inverted"
        else:
            u, rest, w, es = got
            _, binders, _, _, _, arg, outer = step
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
                    return rapp(rlam(w), monomial(es)), binders, rest
                why = "failed its link check"
        if self.failed is None:
            self.failed = (step[0], why)
        return None


def _unlifted(t: ResourceTerm, session: LiftSession) -> str:
    """Why no ancestor of ``t`` was found, for an inconclusive verdict."""
    reason = f"no ancestor lifted for {pretty_resource(t)}"
    if session.failed is not None:
        before, why = session.failed
        reason += f": the head step from {pretty(before)} {why}"
    return reason


def lift_to_source(t: ResourceTerm, session: LiftSession) -> Optional[ResourceTerm]:
    """An approximant of the session's target whose normal form contains
    ``t``, or None; ``t`` should approximate the target's Boehm tree.

    The ancestor is ``t``'s own lift. Every inverted head step in it, at
    every level of the construction, monomial elements included, held its
    graft and link checks when it was built, which makes the whole ancestor
    an approximant of the target (see the module docstring). The session
    shares the lifting work and the runs between calls.
    """
    return session.lift(t, session.prefix.term, ())


# ---------------------------------------------------------------------------
# Commutation


def check_commutation(target: TermLike, size_bound: int, fuel: int) -> CheckReport:
    """Both directions of "normalizing the expansion = expanding the tree".

    Forward: every normal addend of the slice approximates the Boehm tree,
    and comes from one approximant only (the uniformity of the expansion).
    Backward: every slice-sized approximant of the (sufficiently deep)
    Boehm prefix is recovered, from the forward normal forms or by
    constructive lifting. Exhaustion, and a target that neither recovers,
    are inconclusive, never a failure.
    """
    inputs = {"term": pretty_target(target), "size_bound": size_bound, "fuel": fuel}
    prefix = BohmPrefix(target, fuel)
    sl = enumerate_taylor(target, size_bound)
    nf_union: dict[ResourceTerm, ResourceTerm] = {}  # normal addend -> the approximant it came from
    forward_unknown: list[ResourceTerm] = []
    for s in sl:
        for t in r_normalize(s):
            owner = nf_union.setdefault(t, s)
            if owner is not s:  # uniformity: distinct approximants have disjoint normal forms
                return CheckReport(
                    "commutation",
                    inputs,
                    "fail",
                    witness=f"nf addend {pretty_resource(t)} of both {pretty_resource(owner)} and {pretty_resource(s)}",
                )
            verdict = member_of_bohm(t, prefix)
            if verdict is False:
                return CheckReport(
                    "commutation",
                    inputs,
                    "fail",
                    witness=f"nf addend {pretty_resource(t)} of {pretty_resource(s)} is not in the tree expansion",
                )
            if verdict is None:
                forward_unknown.append(t)

    targets = enumerate_taylor(prefix.tree(size_bound + 1), size_bound)
    constructed = 0
    session = LiftSession(prefix)
    unlifted: Optional[str] = None
    for t in targets:
        if t in nf_union:
            continue
        if lift_to_source(t, session) is None:
            unlifted = _unlifted(t, session)
            break
        constructed += 1

    stats = {
        "approximants": len(sl),
        "normal_addends": len(nf_union),
        "tree_targets": len(targets),
        "constructed_ancestors": constructed,
        "shared_lifts": session.shared,
        "checked_links": session.checked_links,
        "checked_grafts": session.checked_grafts,
    }
    if forward_unknown:
        return CheckReport(
            "commutation",
            inputs,
            "inconclusive",
            reason=f"{len(forward_unknown)} forward membership check(s) hit a cut",
            stats=stats,
        )
    if unlifted is not None:
        return CheckReport("commutation", inputs, "inconclusive", reason=unlifted, stats=stats)
    return CheckReport("commutation", inputs, "pass", stats=stats)


# ---------------------------------------------------------------------------
# Head-normalizability characterization


def check_head_charac(target: TermLike, size_bound: int, fuel: int) -> CheckReport:
    """Head strategy vs Taylor witness: a conclusive head verdict must agree
    with the existence of an approximant with a nonzero normal form."""
    inputs = {"term": pretty_target(target), "size_bound": size_bound, "fuel": fuel}
    prefix = BohmPrefix(target, fuel)
    run = prefix.run(prefix.term, ())
    sl = enumerate_taylor(target, size_bound)
    witness = None
    for s in sl:
        if r_normalize(s):
            witness = s
            break
    stats = {"approximants": len(sl), "head": run.verdict.describe()}
    if run.verdict.is_solvable:
        if witness is not None:
            return CheckReport(
                "head-characterization",
                inputs,
                "pass",
                witness=pretty_resource(witness),
                stats=stats,
            )
        skeleton = _positive_skeleton(prefix, 0)
        session = LiftSession(prefix)
        s0 = lift_to_source(skeleton, session)
        if s0 is not None:
            stats["constructed"] = True
            return CheckReport("head-characterization", inputs, "pass", witness=pretty_resource(s0), stats=stats)
        reason = f"solvable, but no witness in the slice and {_unlifted(skeleton, session)}"
        return CheckReport("head-characterization", inputs, "inconclusive", reason=reason, stats=stats)
    if run.verdict.certified_unsolvable:
        if witness is not None:
            return CheckReport(
                "head-characterization",
                inputs,
                "fail",
                witness=pretty_resource(witness),
                reason="certified unsolvable yet a slice approximant has a nonzero normal form",
                stats=stats,
            )
        return CheckReport("head-characterization", inputs, "pass", stats=stats)
    return CheckReport(
        "head-characterization",
        inputs,
        "inconclusive",
        reason=f"head reduction gave no verdict: {run.verdict.describe()}",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Normalizability characterization (positive approximants)


def _positive_skeleton(prefix: BohmPrefix, d: int) -> Union[ResourceTerm, str]:
    """The d-positive approximant of the prefix's tree, one element per spine
    argument above applicative depth ``d`` and empty monomials at it, or why
    there is none: "bottom" if a node down to ``d`` is certified unsolvable,
    else "cut". The nodes are read from the runs as ``member_of_bohm`` reads
    them, in pre-order, and the approximant is built from the last one up."""
    nodes = []  # (head form, depth) of each solvable node, None for a cut
    todo = [(prefix.term, (), 0)]
    while todo:
        m, stack, k = todo.pop()
        run = prefix.run(m, stack)
        if run.verdict.certified_unsolvable:
            return "bottom"
        if not run.verdict.is_solvable:
            nodes.append(None)  # a bottom may still come
            continue
        hf = head_form(run.term)
        nodes.append((hf, k))
        if k < d:
            inner = tuple(reversed(hf.binders)) + stack
            todo += [(q, inner, k + 1) for q in reversed(hf.spine)]
    if None in nodes:
        return "cut"
    built: list[ResourceTerm] = []  # the last node's approximant on top
    for hf, k in reversed(nodes):
        node = rvar(hf.head.index) if isinstance(hf.head, Var) else rfvar(hf.head.name)
        for _ in hf.spine:
            node = rapp(node, monomial((built.pop(),) if k < d else ()))
        for _ in hf.binders:
            node = rlam(node)
        built.append(node)
    return built[0]


def check_norm_charac(
    target: TermLike, d_max: int, size_bound: int, fuel: int
) -> CheckReport:
    """Per depth d: a d-positive addend in some normal form must exist
    exactly when the Boehm prefix is bottom-free down to depth d."""
    inputs = {"term": pretty_target(target), "d_max": d_max, "size_bound": size_bound, "fuel": fuel}
    session = LiftSession(BohmPrefix(target, fuel))
    sl = enumerate_taylor(target, size_bound)
    normal = r_normalize(sl)
    levels = []
    failed = None
    inconclusive = None
    for d in range(d_max + 1):
        skeleton = _positive_skeleton(session.prefix, d)
        status = skeleton if isinstance(skeleton, str) else "ok"
        witness = next((t for t in normal if is_d_positive(t, d)), None)
        how = "slice" if witness is not None else None
        if witness is None and status == "ok":
            if lift_to_source(skeleton, session) is not None:
                witness = skeleton
                how = "constructed"
            elif inconclusive is None:
                inconclusive = f"no d-positive witness at d={d} despite a clean prefix: {_unlifted(skeleton, session)}"
        entry = {
            "d": d,
            "prefix": status,
            "witness": pretty_resource(witness) if witness is not None else None,
            "how": how,
        }
        levels.append(entry)
        if status == "bottom" and witness is not None:
            failed = entry
        elif status == "cut" and inconclusive is None:
            inconclusive = f"prefix cut at d={d}"
    stats = {"levels": levels, "approximants": len(sl)}
    if failed is not None:
        return CheckReport(
            "normalizability",
            inputs,
            "fail",
            witness=failed["witness"],
            reason=f"d-positive witness at d={failed['d']} but the prefix proves divergence",
            stats=stats,
        )
    if inconclusive is not None:
        return CheckReport("normalizability", inputs, "inconclusive", reason=inconclusive, stats=stats)
    return CheckReport("normalizability", inputs, "pass", stats=stats)


# ---------------------------------------------------------------------------
# Equality evidence through common positive approximants


def terms_equal_via_taylor(
    m: TermLike, n: TermLike, d_max: int, size_bound: int
) -> CheckReport:
    """Evidence of equality: a common d-positive approximant at every
    d <= d_max. Passing is evidence up to the tested depth, not a proof.
    Missing one is no witness of a difference, only a size bound that ran
    out, so it is inconclusive."""
    inputs = {"left": pretty_target(m), "right": pretty_target(n), "d_max": d_max, "size_bound": size_bound}
    common = sorted(set(enumerate_taylor(m, size_bound)) & set(enumerate_taylor(n, size_bound)))
    evidence = []
    for d in range(d_max + 1):
        witness = next((t for t in common if is_d_positive(t, d)), None)
        if witness is None:
            return CheckReport(
                "equality-via-expansion",
                inputs,
                "inconclusive",
                reason=f"no common {d}-positive approximant within size {size_bound}: the size bound ran out",
                stats={"common": len(common), "evidence": evidence},
            )
        evidence.append({"d": d, "witness": pretty_resource(witness)})
    return CheckReport(
        "equality-via-expansion",
        inputs,
        "pass",
        stats={"common": len(common), "evidence": evidence},
    )


# ---------------------------------------------------------------------------
# Genericity


def check_genericity(
    c: Term,
    m_unsolvable: Term,
    ns: Iterable[Term],
    size_bound: int,
    fuel: int,
    depth: int = 4,
) -> CheckReport:
    """Replacing a certified-unsolvable subterm by anything preserves the
    normal form, provided the filled context has one.

    Checks, in order: the certificate; that the filled context's Boehm
    prefix is bottom- and cut-free (the theorem's hypothesis); that hole-
    free approximants carry all the normal forms (holey ones die with the
    unsolvable filling); and finally that every alternative filling yields
    the identical prefix.
    """
    ns = list(ns)
    inputs = {
        "context": pretty(c),
        "unsolvable": pretty(m_unsolvable),
        "replacements": [pretty(n) for n in ns],
        "size_bound": size_bound,
        "fuel": fuel,
        "depth": depth,
    }
    cert = solvable(m_unsolvable, fuel)
    if not cert.certified_unsolvable:
        return CheckReport(
            "genericity",
            inputs,
            "inconclusive",
            reason=f"no unsolvability certificate for the filling ({cert.describe()})",
        )
    prefix = BohmPrefix(context_fill(c, m_unsolvable), fuel)
    status = _positive_skeleton(prefix, depth - 1) if depth > 0 else None
    if isinstance(status, str):
        reason = f"hypothesis unmet: filled context has no normal-form prefix ({status})"
        return CheckReport("genericity", inputs, "inconclusive", reason=reason)
    tree = prefix.tree(depth)

    slice_m = list(enumerate_taylor(m_unsolvable, size_bound))
    for s in slice_m:
        if r_normalize(s):
            return CheckReport(
                "genericity",
                inputs,
                "fail",
                witness=pretty_resource(s),
                reason="approximant of the certified-unsolvable term has a nonzero normal form",
            )
    holey_checked = 0
    for ctx_approx in enumerate_taylor_context(c, size_bound):
        k = deg_hole(ctx_approx)
        if k == 0 or not slice_m:
            continue
        fill_elems = tuple(itertools.islice(itertools.cycle(slice_m), k))
        filled_sum = r_context_fill(ctx_approx, monomial(fill_elems))
        if r_normalize(filled_sum):
            return CheckReport(
                "genericity",
                inputs,
                "fail",
                witness=pretty_resource(ctx_approx),
                reason="a holey context approximant survived an unsolvable filling",
            )
        holey_checked += 1

    for n in ns:
        other = bohm_tree(context_fill(c, n), depth, fuel)
        if not alpha_eq(other, tree):
            return CheckReport(
                "genericity",
                inputs,
                "fail",
                witness=pretty(n),
                reason=f"prefix changed: {pretty(other, cut=chr(0x25FB))} vs {pretty(tree, cut=chr(0x25FB))}",
            )
    return CheckReport(
        "genericity",
        inputs,
        "pass" if depth else "inconclusive",
        reason=None if depth else "depth 0 compares no node of the prefixes",
        stats={
            "prefix": pretty(tree, cut=chr(0x25FB)),
            "holey_approximants_annihilated": holey_checked,
            "replacements": len(ns),
        },
    )


# ---------------------------------------------------------------------------
# Head-operator commutation evidence (used by the property suites)


def hr_commutation_stats(m: Term, size_bound: int) -> dict:
    """One head step on the slice vs the slice of one head step.

    The inclusion direction is exact and asserted by callers; the coverage
    direction (how much of the reduct's slice is reached) is only measured,
    since ancestors may exceed the size bound.
    """
    sl = enumerate_taylor(m, size_bound)
    reduct = head_step(m)
    fired = hr_step(sl)
    ok = all(approximates(t, reduct) for t in fired)
    reduct_slice = set(enumerate_taylor(reduct, size_bound))
    covered = len(reduct_slice & set(fired))
    return {
        "inclusion": ok,
        "fired": len(fired),
        "reduct_slice": len(reduct_slice),
        "covered": covered,
    }

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
    HeadForm,
    NotARedexError,
    Position,
    beta_step,
    bohm_tree,
    head_normalize,
    head_step,
    position_to_str,
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
    rlam,
    rvar,
    unshift,
)
from .resource_reduction import hr_step, peel, peel_wrapped, r_normalize, rewrap
from .syntax import (
    App,
    FreeVar,
    Hole,
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
    subterms,
)
from .taylor import _approx, _head_leaf, approximates, enumerate_taylor, enumerate_taylor_context, member_of_bohm


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


class _Check:
    """The state of one check: its theorem, its inputs and the ``stats`` its
    report carries; for a check of one target at one fuel (``of``), also the
    target's ``BohmPrefix``, one ``LiftSession`` on it and the slice. A check
    ends through ``fail``, ``inconclusive`` or ``passed``, and its report
    keeps none of this state."""

    __slots__ = ("theorem", "inputs", "stats", "prefix", "session", "slice")

    def __init__(self, theorem: str, inputs: dict) -> None:
        self.theorem = theorem
        self.inputs = inputs
        self.stats: dict = {}

    @classmethod
    def of(cls, theorem: str, target: TermLike, size_bound: int, fuel: int, **inputs) -> "_Check":
        check = cls(theorem, {"term": pretty_target(target), **inputs, "size_bound": size_bound, "fuel": fuel})
        check.prefix = BohmPrefix(target, fuel)
        check.session = LiftSession(check.prefix)
        check.slice = enumerate_taylor(target, size_bound)
        return check

    def ancestor(self, t: ResourceTerm) -> tuple[Optional[ResourceTerm], Optional[str]]:
        """``t``'s lift through the session, or None and why there is none.
        Once per target: the session serves a second call from its memo and
        counts it in ``shared_lifts``."""
        lifted = lift_to_source(t, self.session)
        if lifted is not None:
            return lifted, None
        why = f"no ancestor lifted for {pretty_resource(t)}"
        if self.session.failed is not None:
            before, step = self.session.failed
            why += f": the head step from {pretty(before)} {step}"
        return None, why

    def fail(self, witness: str, reason: Optional[str] = None) -> CheckReport:
        return self._end("fail", witness, reason)

    def inconclusive(self, reason: str) -> CheckReport:
        return self._end("inconclusive", None, reason)

    def passed(self, witness: Optional[str] = None) -> CheckReport:
        return self._end("pass", witness, None)

    def _end(self, verdict: str, witness: Optional[str], reason: Optional[str]) -> CheckReport:
        return CheckReport(self.theorem, self.inputs, verdict, witness, reason, self.stats)


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
    check = _Check("simulation", inputs)
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
                return check.fail(f"{pretty_resource(s)} ~> {pretty_resource(u)} does not approximate {pretty(final)}")
    check.stats.update(approximants=len(sl), pushed_addends=pushed_total, target=pretty(final))
    return check.passed()


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


def _lift_one_step(
    chain: tuple, before: HeadForm, outer: tuple[str, ...], system: Optional[RationalSystem], memo: dict
) -> Optional[tuple]:
    """Read an approximant of the head reduct of ``before``, a run's head
    form before a step whose head and spine sit under ``outer``, back
    through the step: the core ``u`` that the head redex reduced to, the
    monomials of the frames around it, and ``_anti_subst``'s ``(w, es)``
    for ``u``, in the table that ``memo`` keeps for the stack of the redex
    body. None when the approximant, a chain standing for
    ``rewrap(*chain)``, lacks the step's shape or ``u`` cannot be read
    back."""
    peeled = peel_wrapped(*chain, len(before.binders), len(before.spine) - 1)
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


def _link_holds(w: ResourceTerm, elems: Sequence[ResourceTerm], u: ResourceTerm, memo: Optional[dict] = None) -> bool:
    """A link of the construction, checked on the core: opening ``\\w``
    along its certificate ``elems`` rebuilds exactly ``u``. ``memo`` is
    ``open_along``'s."""
    return open_along(w, elems, memo) is u


class LiftSession:
    """Lifting work shared by the tree targets of one check, on the runs of
    its ``prefix``: a sub-lift against a run inverts the steps of its trace,
    last first, from its head normal form.

    ``lifts`` keeps one table of sub-lifts per run, by ``u``: the node
    built, whose checks all held, or None. Three more memos serve the walks
    over subterms: ``unsubst`` for ``_anti_subst``, one table per stack of
    a redex body; ``rebuilt`` for the link check (``open_along``),
    one table per bound index; and ``approx`` for the graft check
    (``taylor._approx``, by element, argument and stack). The walks pass
    abstractions through: only the graft checks keep an entry at one.
    ``shared`` counts the sub-lifts served instead of built,
    ``checked_links`` the links checked (one per inverted step of a
    sub-lift built) and ``checked_grafts`` the graft checks that ``approx``
    did not answer. ``failed`` is the first head step that ended a lift, if
    any: the term before it and why.
    """

    __slots__ = ("prefix", "lifts", "shared", "unsubst", "rebuilt", "approx", "checked_links", "checked_grafts", "failed")

    def __init__(self, prefix: BohmPrefix) -> None:
        self.prefix = prefix
        self.lifts: dict = {}
        self.shared = 0
        self.unsubst: dict = {}
        self.rebuilt: dict = {}
        self.approx: dict = {}
        self.checked_links = 0
        self.checked_grafts = 0
        self.failed: Optional[tuple[Term, str]] = None

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
        run = self.prefix.run(m, stack)
        hf = run.hnf
        if hf is None:
            return None
        head = _head_leaf(hf)
        peeled = peel(u, len(hf.binders), len(hf.spine))
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
        chain = (head, len(hf.binders), tuple(lifted_monos))
        for before in reversed(run.trace):
            chain = self._invert(chain, before, stack)
            if chain is None:
                return None
        return rewrap(*chain)

    def _invert(self, after: tuple, before: HeadForm, stack: tuple[str, ...]) -> Optional[tuple]:
        """The approximant of ``before``, a trace form of a run under
        ``stack``, that head-reduces onto ``after``, once its grafts and its
        link hold; else None, with the failure recorded. Both are chains
        ``(x, b, rest)``: the node an inversion built (``<\\w>[es]``, or the
        head leaf) in ``b`` binders and the frames ``rest``, which only
        ``_build`` wraps."""
        outer = before.spine_stack(stack)
        got = _lift_one_step(after, before, outer, self.prefix.system, self.unsubst)
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
                    return rapp(rlam(w), monomial(es)), len(before.binders), rest
                why = "failed its link check"
        if self.failed is None:
            self.failed = (before.rebuild(), why)
        return None


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
    check = _Check.of("commutation", target, size_bound, fuel)
    nf_union: dict[ResourceTerm, ResourceTerm] = {}  # normal addend -> the approximant it came from
    forward_unknown: list[ResourceTerm] = []
    for s in check.slice:
        for t in r_normalize(s):
            owner = nf_union.setdefault(t, s)
            if owner is not s:  # uniformity: distinct approximants have disjoint normal forms
                return check.fail(
                    f"nf addend {pretty_resource(t)} of both {pretty_resource(owner)} and {pretty_resource(s)}"
                )
            verdict = member_of_bohm(t, check.prefix)
            if verdict is False:
                return check.fail(
                    f"nf addend {pretty_resource(t)} of {pretty_resource(s)} is not in the tree expansion"
                )
            if verdict is None:
                forward_unknown.append(t)

    tree = check.prefix.tree(size_bound + 1)
    targets = enumerate_taylor(tree, size_bound)
    constructed = 0
    unlifted: Optional[str] = None
    for t in targets:
        if t in nf_union:
            continue
        lifted, unlifted = check.ancestor(t)
        if lifted is None:
            break
        constructed += 1

    check.stats.update(
        approximants=len(check.slice),
        normal_addends=len(nf_union),
        tree_targets=len(targets),
        constructed_ancestors=constructed,
        shared_lifts=check.session.shared,
        checked_links=check.session.checked_links,
        checked_grafts=check.session.checked_grafts,
    )
    if forward_unknown:
        return check.inconclusive(f"{len(forward_unknown)} forward membership check(s) hit a cut")
    if unlifted is not None:
        return check.inconclusive(unlifted)
    # a cut hides the targets through it, and the least approximant reaching it is named; the
    # truncation's own cuts lie at applicative depth size_bound + 1, beyond every target
    if any(isinstance(u, Hole) and k <= size_bound for u, _, _, k, _ in subterms(tree)):
        hidden = next((t for t in enumerate_taylor_context(tree, size_bound) if deg_hole(t)), None)
        if hidden is not None:
            return check.inconclusive(
                f"a cut may hide targets within the size bound: {pretty_resource(hidden)}, where * marks the cut"
            )
    return check.passed()


# ---------------------------------------------------------------------------
# Head-normalizability characterization


def check_head_charac(target: TermLike, size_bound: int, fuel: int) -> CheckReport:
    """Head strategy vs Taylor witness: a conclusive head verdict must agree
    with the existence of an approximant with a nonzero normal form."""
    check = _Check.of("head-characterization", target, size_bound, fuel)
    run = check.prefix.run(check.prefix.term, ())
    witness = next((s for s in check.slice if r_normalize(s)), None)
    check.stats.update(approximants=len(check.slice), head=run.describe())
    if run.is_solvable:
        if witness is not None:
            return check.passed(pretty_resource(witness))
        s0, why = check.ancestor(_positive_skeleton(check.prefix, 0))
        if s0 is None:
            return check.inconclusive(f"solvable, but no witness in the slice and {why}")
        check.stats["constructed"] = True
        return check.passed(pretty_resource(s0))
    if run.certified_unsolvable:
        if witness is not None:
            return check.fail(
                pretty_resource(witness), "certified unsolvable yet a slice approximant has a nonzero normal form"
            )
        return check.passed()
    return check.inconclusive(f"head reduction gave no verdict: {run.describe()}")


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
        if run.certified_unsolvable:
            return "bottom"
        hf = run.hnf
        if hf is None:
            nodes.append(None)  # a bottom may still come
            continue
        nodes.append((hf, k))
        if k < d:
            inner = hf.spine_stack(stack)
            todo += [(q, inner, k + 1) for q in reversed(hf.spine)]
    if None in nodes:
        return "cut"
    built: list[ResourceTerm] = []  # the last node's approximant on top
    for hf, k in reversed(nodes):
        node = _head_leaf(hf)
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
    check = _Check.of("normalizability", target, size_bound, fuel, d_max=d_max)
    normal = r_normalize(check.slice)
    levels = []
    failed = None
    inconclusive = None
    for d in range(d_max + 1):
        skeleton = _positive_skeleton(check.prefix, d)
        status = skeleton if isinstance(skeleton, str) else "ok"
        witness = next((t for t in normal if is_d_positive(t, d)), None)
        how = "slice" if witness is not None else None
        if witness is None and status == "ok":
            lifted, why = check.ancestor(skeleton)
            if lifted is not None:
                witness = skeleton
                how = "constructed"
            elif inconclusive is None:
                inconclusive = f"no d-positive witness at d={d} despite a clean prefix: {why}"
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
    check.stats.update(levels=levels, approximants=len(check.slice))
    if failed is not None:
        return check.fail(failed["witness"], f"d-positive witness at d={failed['d']} but the prefix proves divergence")
    if inconclusive is not None:
        return check.inconclusive(inconclusive)
    return check.passed()


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
    check = _Check("equality-via-expansion", inputs)
    common = sorted(set(enumerate_taylor(m, size_bound)) & set(enumerate_taylor(n, size_bound)))
    evidence = []
    check.stats.update(common=len(common), evidence=evidence)
    for d in range(d_max + 1):
        witness = next((t for t in common if is_d_positive(t, d)), None)
        if witness is None:
            return check.inconclusive(
                f"no common {d}-positive approximant within size {size_bound}: the size bound ran out"
            )
        evidence.append({"d": d, "witness": pretty_resource(witness)})
    return check.passed()


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
    check = _Check("genericity", inputs)
    cert = head_normalize(m_unsolvable, fuel)
    if not cert.certified_unsolvable:
        return check.inconclusive(f"no unsolvability certificate for the filling ({cert.describe()})")
    prefix = BohmPrefix(context_fill(c, m_unsolvable), fuel)
    status = _positive_skeleton(prefix, depth - 1) if depth > 0 else None
    if isinstance(status, str):
        return check.inconclusive(f"hypothesis unmet: filled context has no normal-form prefix ({status})")
    tree = prefix.tree(depth)

    slice_m = list(enumerate_taylor(m_unsolvable, size_bound))
    for s in slice_m:
        if r_normalize(s):
            reason = "approximant of the certified-unsolvable term has a nonzero normal form"
            return check.fail(pretty_resource(s), reason)
    holey_checked = 0
    for ctx_approx in enumerate_taylor_context(c, size_bound):
        k = deg_hole(ctx_approx)
        if k == 0 or not slice_m:
            continue
        fill_elems = tuple(itertools.islice(itertools.cycle(slice_m), k))
        filled_sum = r_context_fill(ctx_approx, monomial(fill_elems))
        if r_normalize(filled_sum):
            reason = "a holey context approximant survived an unsolvable filling"
            return check.fail(pretty_resource(ctx_approx), reason)
        holey_checked += 1

    for n in ns:
        other = bohm_tree(context_fill(c, n), depth, fuel)
        if not alpha_eq(other, tree):
            return check.fail(
                pretty(n), f"prefix changed: {pretty(other, cut=chr(0x25FB))} vs {pretty(tree, cut=chr(0x25FB))}"
            )
    check.stats.update(
        prefix=pretty(tree, cut=chr(0x25FB)), holey_approximants_annihilated=holey_checked, replacements=len(ns)
    )
    return check.passed() if depth else check.inconclusive("depth 0 compares no node of the prefixes")


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

"""Lambda-term syntax: terms, contexts, rational systems, parsing, printing.

Terms are immutable and hash-consed, like resource nodes: one node per
literal term, so ``==`` is identity and memo tables key by the node. Bound
variables are de Bruijn indices, free variables are names, and every binder
keeps its surface name as a *hint*. Hints are part of a node (``==`` is
literal) but never of its alpha-class (``alpha_eq``), and they drive the two
grafting operations, which are deliberately literal:

* ``context_fill`` plugs a term into the holes of a context; free names of
  the plug that match an enclosing binder hint get captured, as they must.
* unfolding a ``RationalSystem`` grafts equation bodies the same way, so
  ``let rec F = f F in \\f. F`` denotes the infinite tree in which every
  ``f`` is bound by the top binder.

Consequently contexts and systems are treated as literal syntax (renaming
their binders changes how they fill), while a plain term stands for its
alpha-class: checks that mean alpha-equality compare with ``alpha_eq``.
"""

from __future__ import annotations

import re
from operator import length_hint
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union


class LambdaError(Exception):
    """Base class for this package's domain errors."""


class ParseError(LambdaError):
    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (at offset {pos}, line {line}, col {col})")


class GuardednessError(LambdaError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(
            "unguarded recursion: cycle %s never crosses an application argument"
            % " -> ".join(cycle + cycle[:1])
        )


class UndefinedSymbolError(LambdaError):
    pass


# ---------------------------------------------------------------------------
# Terms


class Term:
    """A lambda(-bottom) term, context, or equation body.

    Nodes are hash-consed: building a node that already exists returns the
    existing one, so ``==`` is identity, which is literal equality with
    binder hints included. ``alpha_eq`` is equality of alpha-classes.
    Like a resource node, each node carries ``loose``, set once when it is
    built: 1 + its largest loose de Bruijn index, 0 when it has none.
    """

    __slots__ = ()
    loose = 0  # a leaf other than a variable

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        return f"Term({pretty(self)!r})"


# One intern table per kind, keyed by the children themselves. A node is
# built outside the table and inserted with ``setdefault``, which is atomic,
# so threads racing on the same key all return the node that got in first.
# These tables stay tiny (tens of nodes in a check), so unlike resource
# applications theirs keep one key tuple per node.
_VARS: dict[int, "Var"] = {}
_FREE: dict[str, "FreeVar"] = {}
_REFS: dict[str, "RecRef"] = {}
_LAMS: dict[tuple, "Lam"] = {}
_APPS: dict[tuple, "App"] = {}
_new = object.__new__


def _node(cls: type, **fields: object) -> Term:
    """A new node of ``cls`` with these fields, not yet interned."""
    node = _new(cls)
    for name, value in fields.items():
        setattr(node, name, value)
    return node


class Var(Term):
    """Bound variable (de Bruijn index, 0 = innermost binder)."""

    __slots__ = ("index", "loose")

    def __new__(cls, index: int) -> "Var":
        return _VARS.get(index) or _VARS.setdefault(index, _node(cls, index=index, loose=index + 1))


class FreeVar(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> "FreeVar":
        return _FREE.get(name) or _FREE.setdefault(name, _node(cls, name=name))


class Lam(Term):
    __slots__ = ("hint", "body", "loose")

    def __new__(cls, hint: str, body: Term) -> "Lam":
        key = (hint, body)
        return _LAMS.get(key) or _LAMS.setdefault(key, _node(cls, hint=hint, body=body, loose=max(body.loose - 1, 0)))


class App(Term):
    __slots__ = ("fn", "arg", "loose")

    def __new__(cls, fn: Term, arg: Term) -> "App":
        key = (fn, arg)
        return _APPS.get(key) or _APPS.setdefault(key, _node(cls, fn=fn, arg=arg, loose=max(fn.loose, arg.loose)))


class Bottom(Term):
    """The constant asserting an unsolvable subterm."""

    __slots__ = ()


class Hole(Term):
    """Context hole; also reused as the cut marker in truncated trees.

    A hole means "anything may be plugged here" in a context and "not
    computed" in a truncated tree; it is distinct from ``Bottom``, which
    asserts unsolvability.
    """

    __slots__ = ()


class RecRef(Term):
    """Reference to an equation of a :class:`RationalSystem`."""

    __slots__ = ("symbol",)

    def __new__(cls, symbol: str) -> "RecRef":
        return _REFS.get(symbol) or _REFS.setdefault(symbol, _node(cls, symbol=symbol))


BOTTOM = Bottom()
HOLE = Hole()

TermLike = Union[Term, "RationalSystem"]


# A walk gives each subterm with its binder depth, the hints of its enclosing
# binders, its argument depth and its position. Hints and position are linked
# lists of pairs, innermost first (``unlink`` makes them tuples), so that a
# step costs O(1) however deep the term is.
Linked = Optional[tuple]
Visit = Callable[[Term, int, Linked, int, Linked], Union[Term, tuple, None]]


def subterms(t: Term) -> Iterator[tuple[Term, int, Linked, int, Linked]]:
    """The one walk over a term: every subterm in pre-order, function before
    argument, as ``(u, depth, hints, argdepth, path)``. ``path`` holds the
    steps ``"body"``, ``"fun"`` and ``"arg"`` that lead to ``u``, last first."""
    stack = [(t, 0, None, 0, None)]
    while stack:
        node = stack.pop()
        yield node
        stack += _children(*node)


def rebuild(t: Term, visit: Visit) -> Term:
    """The one map over a term. ``visit`` sees each subterm in the order and
    with the fields ``subterms`` gives it, and returns None to keep it and
    walk into it, a term to put in its place as it is, or ``(v,)`` to put
    ``v`` in its place and visit that in turn. A node whose children come
    back unchanged is kept as it is."""
    done: list[Term] = []
    stack: list[tuple] = [(t, 0, None, 0, None)]
    while stack:
        node = stack.pop()
        u = node[0]
        if u is None:  # every child of ``node[1]`` is done
            parent = node[1]
            if isinstance(parent, Lam):
                body = done.pop()
                done.append(parent if body is parent.body else Lam(parent.hint, body))
            else:
                arg = done.pop()
                fn = done.pop()
                done.append(parent if fn is parent.fn and arg is parent.arg else App(fn, arg))
            continue
        new = visit(*node)
        while type(new) is tuple:
            node = (new[0], *node[1:])
            new = visit(*node)
        kids = () if new is not None else _children(*node)
        if kids:
            stack.append((None, node[0]))
            stack += kids
        else:
            done.append(node[0] if new is None else new)
    return done[0]


def _children(u: Term, depth: int, hints: Linked, argdepth: int, path: Linked) -> tuple:
    """What the walk gives the children of ``u``, last child first."""
    if isinstance(u, Lam):
        return ((u.body, depth + 1, (u.hint, hints), argdepth, ("body", path)),)
    if isinstance(u, App):
        return (
            (u.arg, depth, hints, argdepth + 1, ("arg", path)),
            (u.fn, depth, hints, argdepth, ("fun", path)),
        )
    return ()


def unlink(pairs: Linked) -> tuple:
    """The items of a linked list of pairs, head first."""
    out = []
    while pairs is not None:
        item, pairs = pairs
        out.append(item)
    return tuple(out)


def contains_hole(t: Term) -> bool:
    return any(isinstance(u, Hole) for u, *_ in subterms(t))


def rec_symbols(t: Term) -> set[str]:
    """The symbols that ``t`` refers to; each distinct node is visited once."""
    seen, todo = {t}, [t]
    while todo:
        u = todo.pop()
        kids = {u.body} if isinstance(u, Lam) else {u.fn, u.arg} if isinstance(u, App) else set()
        todo += kids - seen
        seen |= kids
    return {u.symbol for u in seen if isinstance(u, RecRef)}


# ---------------------------------------------------------------------------
# Rational systems


class RationalSystem:
    """A finite set of guarded recursive equations and a root term, which
    denote an infinite term: ``let rec X = B in M`` has the equation ``X =
    B`` and the root ``M``, whose references resolve against the equations.

    Guardedness: every cycle among the equations crosses at least one
    application-argument edge, so each lap around a cycle strictly deepens
    the denoted tree.
    """

    __slots__ = ("equations", "root")

    def __init__(self, equations: dict[str, Term], root: Term):
        self.equations = dict(equations)
        self.root = root
        self._validate()

    def _validate(self) -> None:
        for sym, body in self.equations.items():
            if isinstance(body, RecRef):
                raise LambdaError(f"equation {sym} is a bare reference (trivial cycle)")
        places = [(f"equation {sym}", body) for sym, body in self.equations.items()]
        for place, body in places + [("the root", self.root)]:
            if not isinstance(body, Term):
                raise TypeError(f"{place} is not a term: {body!r}")
            for ref in rec_symbols(body):
                if ref not in self.equations:
                    raise UndefinedSymbolError(f"undefined symbol {ref!r} in {place}")
        self._check_guardedness()

    def _check_guardedness(self) -> None:
        # Edges that never cross an argument position are the dangerous ones:
        # a cycle made only of those would unfold without gaining depth.
        unguarded: dict[str, list[str]] = {}
        for sym, body in self.equations.items():
            refs = {u.symbol for u, _, _, argdepth, _ in subterms(body) if isinstance(u, RecRef) and argdepth == 0}
            unguarded[sym] = sorted(refs)
        # depth-first search, symbols in sorted order: 1 on the trail, 2 done
        color: dict[str, int] = {}
        for root in sorted(self.equations):
            if root in color:
                continue
            color[root] = 1
            trail = [root]
            todo = [iter(unguarded[root])]
            while todo:
                nxt = next(todo[-1], None)
                if nxt is None:
                    color[trail.pop()] = 2
                    todo.pop()
                elif color.get(nxt) == 1:
                    raise GuardednessError(trail[trail.index(nxt):])
                elif nxt not in color:
                    color[nxt] = 1
                    trail.append(nxt)
                    todo.append(iter(unguarded[nxt]))

    def body(self, symbol: str) -> Term:
        try:
            return self.equations[symbol]
        except KeyError:
            raise UndefinedSymbolError(f"undefined symbol {symbol!r}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalSystem) and self.root == other.root and self.equations == other.equations

    def __hash__(self) -> int:
        return hash((self.root, frozenset(self.equations.items())))

    def __str__(self) -> str:
        return pretty_system(self)

    def __repr__(self) -> str:
        return f"RationalSystem({pretty_system(self)!r})"


# ---------------------------------------------------------------------------
# Basic operations


def bind_free(t: Term, hints: tuple[str, ...]) -> Term:
    """Rebind free variables of ``t`` against a stack of binder hints.

    ``hints`` lists the binders enclosing the grafting point, innermost
    first. This is what makes hole filling and system unfolding literal.
    """
    if not hints:
        return t

    def bind(u: Term, depth: int, *_) -> Optional[Term]:
        if isinstance(u, FreeVar) and u.name in hints:
            return Var(depth + hints.index(u.name))
        return None

    return rebuild(t, bind)


def resolve_ref(t: RecRef, system: RationalSystem | None, hints: tuple[str, ...]) -> Term:
    """Graft the equation body for ``t`` at a point enclosed by ``hints``;
    without a system the reference is unresolved."""
    if system is None:
        raise UndefinedSymbolError(f"unresolved symbol {t.symbol!r}")
    return bind_free(system.body(t.symbol), hints)


def split_target(target: TermLike) -> tuple[Term, RationalSystem | None]:
    """The term to start from and the system resolving its references
    (None for a plain term)."""
    if isinstance(target, RationalSystem):
        return target.root, target
    return target, None


def alpha_eq(m: TermLike, n: TermLike) -> bool:
    """Equality up to renaming of bound variables: the two walks meet nodes
    of the same kinds and leaves, whatever the binder hints. Systems are
    literal syntax, so they compare with ``==``."""
    if m is n or isinstance(m, RationalSystem) or isinstance(n, RationalSystem):
        return m == n
    # leaves hold no hint, so two leaves are equal when they are one node
    for (u, *_), (v, *_) in zip(subterms(m), subterms(n)):
        if type(u) is not type(v) or u is not v and not isinstance(u, (Lam, App)):
            return False
    return True


def context_fill(c: Term, m: Term) -> Term:
    """Plug ``m`` into every hole of ``c`` (literal grafting: holes capture)."""

    def fill(u: Term, _: int, hints: Linked, *__) -> Optional[Term]:
        return bind_free(m, unlink(hints)) if isinstance(u, Hole) else None

    return rebuild(c, fill)


def unfold(target: TermLike, depth: int) -> Term:
    """Finite prefix of the denoted tree, cut at applicative depth ``depth``.

    Every subterm whose occurrence crosses ``depth`` or more argument edges
    is replaced by the cut marker. Terminates on guarded systems because
    each unfolding lap crosses at least one argument edge.
    """
    t, system = split_target(target)

    def cut(u: Term, _: int, hints: Linked, argdepth: int, __: Linked) -> Union[Term, tuple, None]:
        if argdepth >= depth:
            return HOLE
        if isinstance(u, RecRef):
            return (resolve_ref(u, system, unlink(hints)),)
        return None

    return rebuild(t, cut)


# ---------------------------------------------------------------------------
# Printing


class Naming:
    """``pretty``'s names for the binders and leaves of one term, met in
    pre-order with their binder depth. A binder keeps its hint (``x`` if it
    has none), primed until it differs from ``avoid``, from the free names of
    its body and from the enclosing binders' names that its body uses."""

    def __init__(self, t: Term, avoid: frozenset[str] = frozenset()):
        self.avoid = avoid
        self.names: list[tuple[str, int, str]] = []  # (base, primes, name) per enclosing binder, outermost first
        # what each node uses from outside, in one set: free names and dangling indices
        self.uses = uses = {}
        for u in dict.fromkeys(reversed([u for u, *_ in subterms(t)])):  # children first
            if isinstance(u, Lam):
                uses[u] = frozenset(x if type(x) is str else x - 1 for x in uses[u.body] if x != 0)
            elif isinstance(u, App):
                uses[u] = uses[u.fn] | uses[u.arg]
            else:
                uses[u] = frozenset((u.index,) if isinstance(u, Var) else (u.name,) if isinstance(u, FreeVar) else ())

    def bind(self, lam: Lam, depth: int) -> str:
        """The name of ``lam``, which ``depth`` binders enclose."""
        names = self.names
        hint = lam.hint or "x"
        base = hint.rstrip("'")
        taken = set()  # the prime counts on ``base`` of the names ``lam`` must differ from
        for x in (*self.avoid, *self.uses[lam]):
            if type(x) is str:
                if x.rstrip("'") == base:
                    taken.add(len(x) - len(base))
            elif x < depth and names[depth - 1 - x][0] == base:
                taken.add(names[depth - 1 - x][1])
        primes = len(hint) - len(base)
        while primes in taken:
            primes += 1
        name = base + "'" * primes
        names[depth:] = [(base, primes, name)]
        return name

    def leaf(self, u: Term, depth: int, cut: str) -> str:
        """The text of the leaf ``u``, which ``depth`` binders enclose."""
        if isinstance(u, Var):
            return self.names[depth - 1 - u.index][2] if u.index < depth else f"#{u.index}"
        if isinstance(u, FreeVar):
            return u.name
        if isinstance(u, Bottom):
            return "_|_"
        if isinstance(u, Hole):
            return cut
        if isinstance(u, RecRef):
            return u.symbol
        raise TypeError(f"not a term: {u!r}")


def pretty(t: Term, cut: str = "*", avoid: frozenset[str] = frozenset()) -> str:
    """ASCII rendering; ``parse_term(pretty(t))`` is alpha-equal to ``t``.

    ``cut`` selects how holes print ("*" for contexts, "◻" for
    truncated trees). ``avoid`` adds names a binder must not shadow (used
    when printing system equations, whose references must stay references).
    One loop on a stack of texts and of subterms still to print, each with
    its binder depth and its place: 0 anywhere, 1 a function, 2 an argument.
    """
    naming = Naming(t, avoid)
    out: list[str] = []
    stack: list = [(t, 0, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        u, depth, place = item
        if isinstance(u, Lam):
            if place:
                out.append("(")
                stack.append(")")
            out.append(f"\\{naming.bind(u, depth)}. ")
            stack.append((u.body, depth + 1, 0))
        elif isinstance(u, App):
            if place == 2:
                out.append("(")
                stack.append(")")
            stack += [(u.arg, depth, 2), " ", (u.fn, depth, 1)]
        else:
            out.append(naming.leaf(u, depth, cut))
    return "".join(out)


def pretty_system(system: RationalSystem) -> str:
    syms = frozenset(system.equations)
    defs = " and ".join(f"{sym} = {pretty(body, avoid=syms)}" for sym, body in system.equations.items())
    return f"let rec {defs} in {pretty(system.root, avoid=syms)}"


def pretty_target(target: TermLike) -> str:
    return pretty_system(target) if isinstance(target, RationalSystem) else pretty(target)


# ---------------------------------------------------------------------------
# Lexing and parsing (the resource calculus reuses ``token_pattern`` and ``Tokens``)


def token_pattern(punct: Iterable[str]) -> re.Pattern:
    """The one pattern that finds a grammar's tokens. At each offset it tries
    a punctuation character, then a longer punctuation word, then an
    identifier: a letter or ``_``, going on with letters, digits, ``_`` and
    ``'``. Its identifiers may also start with a number that is not a decimal
    digit, such as ``²``; ``Tokens`` rejects those."""
    single = "".join(re.escape(p) for p in punct if len(p) == 1)
    words = [re.escape(p) for p in punct if len(p) > 1]
    return re.compile("|".join([f"[{single}]", *words, r"[^\W\d][\w']*"]))


_T = TypeVar("_T")


class Tokens:
    """A cursor over the token strings ``pattern`` finds in ``text``, ended by
    ``""``. ``kinds`` maps each punctuation spelling and keyword to its kind;
    every other token is an identifier. ``take()`` reads the next token and
    ``i`` counts the tokens read. A token's offset is recomputed only for an
    error message. It also keeps the ``depth`` binders in scope and, in
    ``scope``, the depths of those that bind each name."""

    def __init__(self, text: str, pattern: re.Pattern, kinds: dict[str, str]):
        self.text = text
        self.pattern = pattern
        self.kinds = kinds
        self.scope: dict[str, list[int]] = {}
        self.depth = 0
        self.toks = toks = pattern.findall(text)
        # the pattern skips what it cannot read: whitespace, or a bad character
        if len("".join(toks)) != len("".join(text.split())) or not (
            text.isascii() or all(map(self._starts_well, toks))
        ):
            self._reject()
        toks.append("")
        self._rest = iter(toks)
        self.take = self._rest.__next__

    def _starts_well(self, word: str) -> bool:
        return word in self.kinds or word[0].isalpha() or word[0] == "_"

    def _reject(self) -> None:
        """Raise at the first character that no token reads."""
        text = self.text
        read = [False] * len(text)
        for m in self.pattern.finditer(text):
            if self._starts_well(m.group()):
                read[m.start() : m.end()] = [True] * (m.end() - m.start())
        k = next(k for k, ch in enumerate(text) if not (read[k] or ch.isspace()))
        raise ParseError(f"unexpected character {text[k]!r}", k, text)

    @property
    def i(self) -> int:
        return len(self.toks) - length_hint(self._rest)

    def kind(self, tok: str) -> str:
        return self.kinds.get(tok) or ("IDENT" if tok else "EOF")

    def offset(self, k: int) -> int:
        """Where the ``k``-th token starts; the text's length for the end."""
        starts = [m.start() for m in self.pattern.finditer(self.text)]
        return starts[k] if k < len(starts) else len(self.text)

    def error(self, message: str, k: int) -> ParseError:
        """A ``ParseError`` located at the ``k``-th token."""
        return ParseError(message, self.offset(k), self.text)

    def peek(self) -> str:
        return self.toks[self.i]

    def check(self, tok: str, kind: str) -> str:
        """Return ``tok``, the token just read, if it is of ``kind``."""
        if self.kind(tok) != kind:
            raise self.error(f"expected {kind}, found {tok or 'end of input'!r}", self.i - 1)
        return tok

    def expect(self, kind: str) -> str:
        return self.check(self.take(), kind)

    def binders(self) -> tuple[str, ...]:
        """Read the rest of a binder list ``\\x y.`` once its ``\\`` is read,
        and bring its names into scope; return them innermost first."""
        names = [self.expect("IDENT")]
        tok = self.take()
        while tok and tok not in self.kinds:
            names.append(tok)
            tok = self.take()
        self.check(tok, "DOT")
        for name in names:
            self.scope.setdefault(name, []).append(self.depth)
            self.depth += 1
        return tuple(reversed(names))

    def unbind(self, names: tuple[str, ...]) -> None:
        """Take the names of a binder list out of scope again."""
        for name in names:
            self.scope[name].pop()
        self.depth -= len(names)

    def end(self, result: _T) -> _T:
        """Return ``result`` once every token is read; reject trailing input."""
        tok = self.peek()
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}", self.i)
        return result


_PUNCT = {
    "\\": "LAM",
    "λ": "LAM",
    ".": "DOT",
    "(": "LP",
    ")": "RP",
    "=": "EQ",
    "*": "HOLE",
    "◻": "HOLE",
    "?": "HOLE",
    "⊥": "BOT",
    "_|_": "BOT",
}
_KINDS = {**_PUNCT, **{word: word.upper() for word in ("let", "rec", "and", "in")}}
_PATTERN = token_pattern(_PUNCT)


def parse_term(text: str) -> Term | RationalSystem:
    """Parse the surface grammar; ``let rec`` blocks yield a system.

    Grammar: ``\\x. M`` or ``λx. M`` (multiple binders allowed);
    application is juxtaposition, left-associative, with parentheses;
    ``_|_``/``⊥``; ``*``/``◻``/``?`` for a hole;
    ``let rec X = B and Y = B in M``.
    """
    toks = Tokens(text, _PATTERN, _KINDS)
    if toks.peek() == "let":
        return _parse_letrec(toks)
    return toks.end(_read_term(toks, frozenset()))


def _parse_letrec(toks: Tokens) -> RationalSystem:
    # ``=`` only ever follows an equation's symbol, so the symbols are read
    # off the tokens up front and every body is parsed in place. Trailing
    # input is rejected before the system is validated.
    rec = frozenset(prev for prev, tok in zip(toks.toks, toks.toks[1:]) if tok == "=")
    toks.expect("LET")
    toks.expect("REC")
    equations: dict[str, Term] = {}
    while True:
        sym = toks.expect("IDENT")
        toks.expect("EQ")
        if sym in equations:
            raise toks.error(f"duplicate equation for {sym}", toks.i)
        equations[sym] = _read_term(toks, rec)
        if toks.peek() != "and":
            break
        toks.take()
    toks.expect("IN")
    return RationalSystem(equations, toks.end(_read_term(toks, rec)))


def _read_term(toks: Tokens, rec: frozenset[str]) -> Term:
    """Read a term: a binder list reaches as far right as it can, and
    application is juxtaposition, left-associative. One loop on a stack of
    the open binder lists and parentheses with the applications they cut."""
    stack: list[tuple] = []
    out: Optional[Term] = None  # the application read so far at this level
    while True:
        tok = toks.peek()
        kind = toks.kind(tok)
        if kind == "IDENT" or kind == "BOT" or kind == "HOLE":
            toks.take()
            if kind == "IDENT":
                depths = toks.scope.get(tok)
                atom = Var(toks.depth - 1 - depths[-1]) if depths else RecRef(tok) if tok in rec else FreeVar(tok)
            else:
                atom = BOTTOM if kind == "BOT" else HOLE
            out = atom if out is None else App(out, atom)
            continue
        if kind == "LAM" or kind == "LP":
            toks.take()
            stack.append((toks.binders() if kind == "LAM" else None, out))
            out = None
            continue
        # ``tok`` ends the innermost open level
        if out is None:
            toks.take()
            raise toks.error(f"expected a term, found {tok or 'end of input'!r}", toks.i - 1)
        while stack:
            names, outer = stack.pop()
            if names is None:
                toks.expect("RP")
                out = out if outer is None else App(outer, out)
                break  # the level around the parentheses reads on
            toks.unbind(names)
            for name in names:
                out = Lam(name, out)
            # the token that ends a binder's body ends the level around it too
            out = out if outer is None else App(outer, out)
        else:
            return out

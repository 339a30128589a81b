"""Frozen copies of parsers that were replaced, kept as reference oracles.

* ``OldTokens``/``old_rlex`` and the ``let rec`` parser: the two lexers and
  the two-pass ``let rec`` parser that preceded a shared lexer.
* ``old_lex``, ``OldCursor`` and ``OldRParser``: that shared lexer, which
  scanned one character at a time and built a ``(kind, text, offset)``
  tuple per token, and the resource parser that read from it, before
  ``syntax.Tokens`` took token strings from one compiled pattern.

``test_parse_oracles`` checks the current parsers against them on seeded
random input. Do not import them elsewhere.
"""

from __future__ import annotations

from typing import TypeVar

from taylorlab.resource import HOLE_R, ONE, ZERO, FiniteSum, Monomial, ResourceTerm, monomial, rapp, rfvar, rlam, rvar
from taylorlab.syntax import (
    BOTTOM,
    HOLE,
    App,
    FreeVar,
    Lam,
    ParseError,
    RationalSystem,
    RecRef,
    Term,
    Var,
)

_KEYWORDS = {"let", "rec", "and", "in"}


class OldTokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        self._lex()
        self.i = 0

    def _lex(self) -> None:
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "\\λ":
                self.toks.append(("LAM", ch, i))
                i += 1
            elif ch == ".":
                self.toks.append(("DOT", ch, i))
                i += 1
            elif ch == "(":
                self.toks.append(("LP", ch, i))
                i += 1
            elif ch == ")":
                self.toks.append(("RP", ch, i))
                i += 1
            elif ch == "=":
                self.toks.append(("EQ", ch, i))
                i += 1
            elif ch in "*◻?":
                self.toks.append(("HOLE", ch, i))
                i += 1
            elif ch == "⊥":
                self.toks.append(("BOT", ch, i))
                i += 1
            elif text.startswith("_|_", i):
                self.toks.append(("BOT", "_|_", i))
                i += 3
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                word = text[i:j]
                if word in _KEYWORDS:
                    self.toks.append((word.upper(), word, i))
                else:
                    self.toks.append(("IDENT", word, i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i, text)
        self.toks.append(("EOF", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2], self.text)
        return tok


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


def old_rlex(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        kind = _R_PUNCT.get(ch)
        if kind is not None:
            toks.append((kind, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(("EOF", "", n))
    return toks


def old_parse_term(text: str) -> Term | RationalSystem:
    toks = OldTokens(text)
    if toks.peek()[0] == "LET":
        result: Term | RationalSystem = _parse_letrec(toks)
    else:
        result = _parse_lam(toks, (), frozenset())
    tok = toks.peek()
    if tok[0] != "EOF":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], text)
    return result


def _parse_letrec(toks: OldTokens) -> RationalSystem:
    toks.expect("LET")
    toks.expect("REC")
    equations: dict[str, Term] = {}
    recnames: set[str] = set()
    raw: list[tuple[str, int, int]] = []  # (symbol, start token index, end token index)
    while True:
        sym_tok = toks.expect("IDENT")
        toks.expect("EQ")
        start = toks.i
        depth = 0
        while True:
            kind = toks.peek()[0]
            if kind == "LP":
                depth += 1
            elif kind == "RP":
                depth -= 1
            elif depth == 0 and kind in ("AND", "IN"):
                break
            elif kind == "EOF":
                raise ParseError("unterminated let rec", toks.peek()[2], toks.text)
            toks.next()
        raw.append((sym_tok[1], start, toks.i))
        recnames.add(sym_tok[1])
        if toks.peek()[0] == "AND":
            toks.next()
            continue
        toks.expect("IN")
        break
    rec = frozenset(recnames)
    for sym, start, end in raw:
        if sym in equations:
            raise ParseError(f"duplicate equation for {sym}", toks.toks[start][2], toks.text)
        sub = OldTokens("")
        sub.text = toks.text
        sub.toks = toks.toks[start:end] + [("EOF", "", toks.toks[end][2])]
        equations[sym] = _parse_lam(sub, (), rec)
        if sub.peek()[0] != "EOF":
            raise ParseError("unexpected input in equation", sub.peek()[2], toks.text)
    return RationalSystem(equations, _parse_lam(toks, (), rec))


def _parse_lam(toks: OldTokens, env: tuple[str, ...], rec: frozenset[str]) -> Term:
    if toks.peek()[0] == "LAM":
        toks.next()
        names = [toks.expect("IDENT")[1]]
        while toks.peek()[0] == "IDENT":
            names.append(toks.next()[1])
        toks.expect("DOT")
        body = _parse_lam(toks, tuple(reversed(names)) + env, rec)
        for name in reversed(names):
            body = Lam(name, body)
        return body
    return _parse_app(toks, env, rec)


_ATOM_STARTS = ("IDENT", "LP", "BOT", "HOLE", "LAM")


def _parse_app(toks: OldTokens, env: tuple[str, ...], rec: frozenset[str]) -> Term:
    out = _parse_atom(toks, env, rec)
    while toks.peek()[0] in _ATOM_STARTS:
        out = App(out, _parse_atom(toks, env, rec))
    return out


def _parse_atom(toks: OldTokens, env: tuple[str, ...], rec: frozenset[str]) -> Term:
    kind, value, pos = toks.peek()
    if kind == "LAM":
        return _parse_lam(toks, env, rec)
    if kind == "IDENT":
        toks.next()
        for i, name in enumerate(env):
            if name == value:
                return Var(i)
        if value in rec:
            return RecRef(value)
        return FreeVar(value)
    if kind == "BOT":
        toks.next()
        return BOTTOM
    if kind == "HOLE":
        toks.next()
        return HOLE
    if kind == "LP":
        toks.next()
        inner = _parse_lam(toks, env, rec)
        toks.expect("RP")
        return inner
    raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos, toks.text)


# ---------------------------------------------------------------------------
# The character-loop lexer, its cursor and the resource parser on top


def old_lex(text: str, punct: dict[str, str], keywords: frozenset[str] = frozenset()) -> list[tuple[str, str, int]]:
    long = {word[0]: word for word in punct if len(word) > 1}
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        kind = punct.get(ch)
        if kind is not None:
            toks.append((kind, ch, i))
            i += 1
            continue
        word = long.get(ch)
        if word is not None and text.startswith(word, i):
            toks.append((punct[word], word, i))
            i += len(word)
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append((word.upper() if word in keywords else "IDENT", word, i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(("EOF", "", n))
    return toks


_T = TypeVar("_T")


class OldCursor:
    def __init__(self, text: str, punct: dict[str, str], keywords: frozenset[str] = frozenset()):
        self.text = text
        self.toks = old_lex(text, punct, keywords)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2], self.text)
        return tok

    def binders(self) -> tuple[str, ...]:
        self.next()
        names = [self.expect("IDENT")[1]]
        while self.peek()[0] == "IDENT":
            names.append(self.next()[1])
        self.expect("DOT")
        return tuple(reversed(names))

    def end(self, result: _T) -> _T:
        kind, value, pos = self.toks[self.i]
        if kind != "EOF":
            raise ParseError(f"unexpected trailing input {value!r}", pos, self.text)
        return result


class OldRParser(OldCursor):
    def term(self, env: tuple[str, ...]) -> ResourceTerm:
        kind, value, pos = self.peek()
        if kind == "LAM":
            names = self.binders()
            body = self.term(names + env)
            for _ in names:
                body = rlam(body)
            return body
        if kind == "LT":
            self.next()
            fn = self.term(env)
            self.expect("GT")
            return rapp(fn, self.mono(env))
        if kind == "IDENT":
            self.next()
            for i, name in enumerate(env):
                if name == value:
                    return rvar(i)
            return rfvar(value)
        if kind == "HOLE":
            self.next()
            return HOLE_R
        if kind == "LP":
            self.next()
            inner = self.term(env)
            self.expect("RP")
            return inner
        raise ParseError(f"expected a resource term, found {value or 'end of input'!r}", pos, self.text)

    def mono(self, env: tuple[str, ...]) -> Monomial:
        kind, value, pos = self.peek()
        if kind == "ONE":
            self.next()
            return ONE
        if kind == "LB":
            self.next()
            elems = []
            if self.peek()[0] != "RB":
                elems.append(self.term(env))
                while self.peek()[0] == "COMMA":
                    self.next()
                    elems.append(self.term(env))
            self.expect("RB")
            return monomial(elems)
        raise ParseError(f"expected a monomial, found {value or 'end of input'!r}", pos, self.text)


def old_parse_resource_term(text: str) -> ResourceTerm:
    p = OldRParser(text, _R_PUNCT)
    return p.end(p.term(()))


def old_parse_resource_monomial(text: str) -> Monomial:
    p = OldRParser(text, _R_PUNCT)
    return p.end(p.mono(()))


def old_parse_resource_sum(text: str) -> FiniteSum:
    p = OldRParser(text, _R_PUNCT)
    if p.peek()[0] == "NIL":
        p.next()
        return p.end(ZERO)
    terms = [p.term(())]
    while p.peek()[0] == "PLUS":
        p.next()
        terms.append(p.term(()))
    return p.end(FiniteSum(terms))

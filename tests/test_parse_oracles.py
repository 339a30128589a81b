"""The token reader, the resource parser and the one-pass ``let rec`` parser
against frozen copies of the code they replaced (``parse_oracles``), on
seeded random input."""

import random
from collections import Counter

from taylorlab.resource import _R_PATTERN, _R_PUNCT, parse_resource_monomial, parse_resource_sum, parse_resource_term
from taylorlab.syntax import _KINDS, _PATTERN, LambdaError, ParseError, RationalSystem, Tokens, parse_term

from parse_oracles import (
    OldTokens,
    old_parse_resource_monomial,
    old_parse_resource_sum,
    old_parse_resource_term,
    old_parse_term,
    old_rlex,
)

LEX_PIECES = (
    "\\ λ . ( ) = * ◻ ? ⊥ _|_ < > ⟨ ⟩ [ ] , + 1 0 let rec and in "
    "x y F f' _ | _| |_ é Ω ² x² Ωé a1 - # ;"
).split() + [" ", "  ", "\t", "\n"]


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as err:
        return ("error", str(err), err.pos)


def _cursor(pattern, kinds):
    """The ``(kind, text, offset)`` tokens the cursor reads, end included."""

    def read(text):
        toks = Tokens(text, pattern, kinds)
        return [(toks.kind(tok), tok, toks.offset(k)) for k, tok in enumerate(toks.toks)]

    return read


def test_lexers_match_the_old_lexers():
    rng = random.Random(2024)
    for _ in range(100_000):
        text = "".join(rng.choice(LEX_PIECES) for _ in range(rng.randint(0, 10)))
        assert _outcome(_cursor(_PATTERN, _KINDS), text) == _outcome(lambda s: OldTokens(s).toks, text), text
        assert _outcome(_cursor(_R_PATTERN, _R_PUNCT), text) == _outcome(old_rlex, text), text


SYMBOLS = ("F", "G", "H")
NAMES = ("x", "y", "f")


def _body(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return [rng.choice(SYMBOLS + NAMES + ("_|_", "*"))]
    if roll < 0.5:
        return ["\\"] + rng.sample(NAMES, rng.randint(1, 2)) + ["."] + _body(rng, depth - 1)
    if roll < 0.65:
        return ["("] + _body(rng, depth - 1) + [")"]
    return _body(rng, depth - 1) + ["("] + _body(rng, depth - 1) + [")"]


def _letrec(rng):
    toks = ["let", "rec"]
    for k in range(rng.randint(1, 3)):
        toks += (["and"] if k else []) + [rng.choice(SYMBOLS), "="] + _body(rng, 2)
    return toks + ["in"] + _body(rng, 1)


MUTATIONS = ("let", "rec", "and", "in", "=", "(", ")", "\\", ".", "F", "x", "_|_")


def _letrec_input(rng):
    toks = _letrec(rng) if rng.random() < 0.9 else _body(rng, 2)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        k = rng.randrange(len(toks) + 1)
        roll = rng.random()
        if roll < 0.4 and k < len(toks):
            del toks[k]
        elif roll < 0.7 and k < len(toks):
            toks[k] = rng.choice(MUTATIONS)
        else:
            toks.insert(k, rng.choice(MUTATIONS))
    return " ".join(toks)


def _shape(result):
    """Terms are hash-consed, so the parsed nodes compare by identity."""
    if isinstance(result, RationalSystem):
        return result.root, result._synthetic_root, result.equations
    return result


def test_one_pass_letrec_matches_the_old_parser():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(100_000):
        text = _letrec_input(rng)
        try:
            expected = _shape(old_parse_term(text))
        except LambdaError:
            expected = None
        if expected is None:
            try:
                parse_term(text)
            except LambdaError:
                seen["rejected"] += 1
                continue
            raise AssertionError(f"accepted what the old parser rejects: {text!r}")
        assert _shape(parse_term(text)) == expected, text
        seen["accepted"] += 1
    # both outcomes are exercised in bulk
    assert min(seen.values()) > 10_000, seen


R_NAMES = ("x", "y", "f", "x'", "_")


def _rterm(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return [rng.choice(R_NAMES + ("*",))]
    if roll < 0.45:
        return [rng.choice("\\λ")] + rng.sample(R_NAMES, rng.randint(1, 2)) + ["."] + _rterm(rng, depth - 1)
    if roll < 0.5:
        return ["("] + _rterm(rng, depth - 1) + [")"]
    return [rng.choice("<⟨")] + _rterm(rng, depth - 1) + [rng.choice(">⟩")] + _rmono(rng, depth - 1)


def _rmono(rng, depth):
    if depth <= 0 or rng.random() < 0.2:
        return [rng.choice(("1", "[", "[]"))] if rng.random() < 0.1 else ["1"]
    toks = ["["]
    for k in range(rng.randint(1, 3)):
        toks += ([","] if k else []) + _rterm(rng, depth - 1)
    return toks + ["]"]


R_MUTATIONS = ("<", ">", "[", "]", ",", "(", ")", "\\", ".", "1", "0", "+", "*", "x", "⟩", "λ", "²", "x²", "#", "é")


def _resource_input(rng):
    """Text for a term, a monomial or a sum, perhaps mutated, and the
    current and the old reader for it."""
    roll = rng.random()
    if roll < 0.7:
        toks, readers = _rterm(rng, 4), (parse_resource_term, old_parse_resource_term)
    elif roll < 0.85:
        toks, readers = _rmono(rng, 3), (parse_resource_monomial, old_parse_resource_monomial)
    else:
        toks = ["0"] if rng.random() < 0.1 else _rterm(rng, 3) + ["+"] + _rterm(rng, 2)
        readers = (parse_resource_sum, old_parse_resource_sum)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        k = rng.randrange(len(toks) + 1)
        roll = rng.random()
        if roll < 0.4 and k < len(toks):
            del toks[k]
        elif roll < 0.7 and k < len(toks):
            toks[k] = rng.choice(R_MUTATIONS)
        else:
            toks.insert(k, rng.choice(R_MUTATIONS))
    return "".join(tok + rng.choice(("", " ", " ", "\n")) for tok in toks), readers


def test_resource_reader_matches_the_old_parser():
    rng = random.Random(10)
    seen = Counter()
    for _ in range(100_000):
        text, (new, old) = _resource_input(rng)
        expected = _outcome(old, text)
        # interned nodes are equal when they are the same object
        assert _outcome(new, text) == expected, text
        seen["rejected" if isinstance(expected, tuple) else "accepted"] += 1
    assert min(seen.values()) > 10_000, seen

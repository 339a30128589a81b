"""Inputs and known answers for the benchmark workloads.

Everything here is written without taylorlab: the inputs are generated from
the workload seed by this module, and the known answers come from counters
and reference code in this module. The benchmark only reads taylorlab's
results (attributes of its term objects, JSON reports, printed text).
"""

from __future__ import annotations

import itertools
import re
from random import Random

FUEL = 1000

# ---------------------------------------------------------------------------
# Fixed theorem instances for the commutation workload. The seed does not
# change them.

Y = r"\f. (\x. f (x x)) (\x. f (x x))"
C2 = r"(\f. \x. f (f x))"
COMMUTE_TERMS = {
    "Y": Y,
    "Yg": f"({Y}) g",
    "Theta": r"(\x. \y. y (x x y)) (\x. \y. y (x x y))",
    "c2c2": f"{C2} {C2}",
    "mulc2c2": rf"(\m. \n. \f. m (n f)) {C2} {C2}",
}

# (term, size) in the order they run: one fresh interpreter each.
COLD_CHECKS = [("Y", 18), ("Yg", 17), ("Theta", 16), ("c2c2", 18), ("mulc2c2", 18)]

# Distinct normal addends of the size-bounded slice, pinned.
NORMAL_ADDENDS = {("Y", 18): 4, ("Yg", 17): 2, ("Theta", 16): 2, ("c2c2", 18): 1, ("mulc2c2", 18): 1}


def cli_argv(name: str, size: int) -> list[str]:
    return [
        "check", "commutation", COMMUTE_TERMS[name],
        "--size", str(size), "--fuel", str(FUEL), "--json",
    ]


# ---------------------------------------------------------------------------
# Independent counter of approximants: size-generating functions truncated
# at the size bound. A variable weighs 1, an abstraction 1 plus its body, an
# application its function plus its monomial, and a monomial 1 plus its
# elements, so a multiset of approximants of N has the multiset Euler
# transform of N's series as its series.


def _mul(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                out[i + j] += x * b[j]
    return out


def _shift1(a: list[int]) -> list[int]:
    return [0] + a[:-1]


def _euler(a: list[int]) -> list[int]:
    """Series of finite multisets drawn from a class with series ``a``:
    the product over k of (1 - x^k)^(-a_k)."""
    n = len(a)
    out = [1] + [0] * (n - 1)
    for k in range(1, n):
        if not a[k]:
            continue
        factor = [0] * n
        coeff = 1
        for j in range(0, (n - 1) // k + 1):
            factor[j * k] = coeff
            coeff = coeff * (a[k] + j) // (j + 1)
        out = _mul(out, factor)
    return out


def _series(t, n: int, env: dict) -> list[int]:
    kind = t[0]
    if kind == "var":
        return [0, 1] + [0] * (n - 1)
    if kind == "bot":
        return [0] * (n + 1)
    if kind == "lam":
        return _shift1(_series(t[1], n, env))
    if kind == "app":
        return _mul(_series(t[1], n, env), _shift1(_euler(_series(t[2], n, env))))
    if kind == "ref":
        return env[t[1]]
    raise ValueError(f"unknown node {kind!r}")


def count_approximants(t, n: int, equations: dict | None = None) -> int:
    """Number of distinct approximants of size at most ``n``. ``equations``
    maps the names of ``ref`` nodes to guarded bodies (rational trees)."""
    env = {name: [0] * (n + 1) for name in equations or {}}
    for _ in range(n + 1):  # every lap through an equation adds size
        env = {name: _series(body, n, env) for name, body in (equations or {}).items()}
    return sum(_series(t, n, env))


def parse_lambda(text: str):
    """Shape of a lambda term (names dropped): var / lam / app nodes."""
    toks = re.findall(r"\\|\.|\(|\)|[A-Za-z_][A-Za-z0-9_']*", text)
    pos = 0

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            t = expr()
            pos += 1  # ")"
            return t
        if tok == "\\":
            pos += 2  # name "."
            return ("lam", expr())
        return ("var",)

    def expr():
        t = atom()
        while pos < len(toks) and toks[pos] != ")":
            t = ("app", t, atom())
        return t

    return expr()


_F = ("ref", "F")
_SPINE = {"F": ("app", ("var",), _F)}  # F = v F, the tree v (v (v ...))
# Boehm trees, written by hand from the terms' head reductions.
_BOHM = {
    "Y": (("lam", _F), _SPINE),
    "Yg": (_F, _SPINE),
    "Theta": (("lam", _F), _SPINE),
    "c2c2": (parse_lambda(r"\f. \x. f (f (f (f x)))"), None),
    "mulc2c2": (parse_lambda(r"\f. \x. f (f (f (f x)))"), None),
}


def commutation_answer(name: str, size: int) -> dict:
    tree, eqs = _BOHM[name]
    approximants = count_approximants(parse_lambda(COMMUTE_TERMS[name]), size)
    return {
        "verdict": "pass",
        "approximants": approximants,
        "normal_addends": NORMAL_ADDENDS[(name, size)],
        "tree_targets": count_approximants(tree, size, eqs),
    }


def check_commutation_report(report: dict, answer: dict) -> tuple[bool, bool]:
    """(matches the known answer, conclusive). Only the verdict and the
    three counts fixed by the mathematics are compared."""
    decided = report.get("verdict") in ("pass", "fail")
    stats = report.get("stats", {})
    ok = report.get("verdict") == answer["verdict"] and all(
        stats.get(k) == answer[k] for k in ("approximants", "normal_addends", "tree_targets")
    )
    return ok, decided


# ---------------------------------------------------------------------------
# Random resource terms. Named trees: ("var", name), ("lam", name, body),
# ("app", fn, [elements]). Planted redexes mostly bind exactly as many
# occurrences as their multiset has elements, so substitution does real work.

RNF_TERMS_PER_PASS = 3000
RNF_REFERENCE_EVERY = 6
_FREE = ("a", "b", "c")


class _ResourceGen:
    def __init__(self, rng: Random):
        self.rng = rng
        self.fresh = 0

    def _name(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def _split(self, needs: dict, parts: int) -> list[dict]:
        out = [dict.fromkeys(needs, 0) for _ in range(parts)]
        for name, k in needs.items():
            for _ in range(k):
                out[self.rng.randrange(parts)][name] += 1
        return out

    def _apply(self, fn, sizes: list[int], needs: list[dict], scope: list[str]):
        return ("app", fn, [self.term(s, scope, nd) for s, nd in zip(sizes, needs)])

    def term(self, size: int, scope: list[str], needs: dict, head: bool = False):
        """A term of about ``size`` nodes where each name of ``needs``
        occurs exactly that many times; ``scope`` names occur freely. A
        ``head`` term is no abstraction, so only planted redexes exist."""
        rng = self.rng
        total = sum(needs.values())
        if size <= 1:
            if total == 0:
                if scope and rng.random() < 0.6:
                    return ("var", rng.choice(scope))
                return ("var", rng.choice(_FREE))
            if total == 1:
                return ("var", next(n for n, k in needs.items() if k))
            parts = [{**dict.fromkeys(needs, 0), n: 1} for n, k in needs.items() for _ in range(k)]
            rng.shuffle(parts)  # one occurrence per leaf
            fn = self.term(1, scope, parts[0])
            return self._apply(fn, [1] * (total - 1), parts[1:], scope)
        r = rng.random()
        if r < 0.2 and not head:
            x = self._name()
            return ("lam", x, self.term(size - 1, scope + [x], needs))
        if r < 0.6:
            k = rng.randint(1, 3)
            arity = k if rng.random() < 0.85 else rng.choice([j for j in range(4) if j != k])
            x = self._name()
            parts = self._split(needs, 1 + arity)
            body_size = max(1, (size - 2) // 2)
            elem_size = max(1, (size - 2 - body_size) // max(1, arity))
            body = self.term(body_size, scope, {**parts[0], x: k})
            return self._apply(("lam", x, body), [elem_size] * arity, parts[1:], scope)
        nargs = rng.randint(0, 3)
        parts = self._split(needs, 1 + nargs)
        fn_size = max(1, size // 3)
        elem_size = max(1, (size - 1 - fn_size) // max(1, nargs))
        fn = self.term(fn_size, scope, parts[0], head=True)
        return self._apply(fn, [elem_size] * nargs, parts[1:], scope)


def render_resource(t) -> str:
    if t[0] == "var":
        return t[1]
    if t[0] == "lam":
        return f"\\{t[1]}. {render_resource(t[2])}"
    mono = "[" + ", ".join(render_resource(e) for e in t[2]) + "]" if t[2] else "1"
    return f"<{render_resource(t[1])}>{mono}"


def _nameless(t, env: tuple[str, ...] = ()):
    """Named tree to the canonical tuples compared below."""
    if t[0] == "var":
        return ("v", env.index(t[1])) if t[1] in env else ("f", t[1])
    if t[0] == "lam":
        return ("l", _nameless(t[2], (t[1],) + env))
    return ("a", _nameless(t[1], env), tuple(sorted(_nameless(e, env) for e in t[2])))


def rnf_inputs(seed: int) -> list[tuple[str, tuple]]:
    """(resource term text, canonical tuple of the same term) for one pass."""
    gen = _ResourceGen(Random(seed))
    out = []
    for i in range(RNF_TERMS_PER_PASS):
        tree = gen.term(6 + i % 11, [], {})  # sizes cycle, for equal work per seed
        out.append((render_resource(tree), _nameless(tree)))
    return out


# Canonical tuples: ("v", index), ("f", name), ("l", body), ("a", fn, elems)
# with elems sorted.


def from_taylorlab(t) -> tuple:
    """Read a taylorlab resource term into canonical tuples."""
    kind = type(t).__name__
    if kind == "RVar":
        return ("v", t.index)
    if kind == "RFreeVar":
        return ("f", t.name)
    if kind == "RLam":
        return ("l", from_taylorlab(t.body))
    if kind == "RApp":
        return ("a", from_taylorlab(t.fn), tuple(sorted(from_taylorlab(e) for e in t.mono)))
    raise TypeError(f"unexpected resource node {kind}")


def tuple_size(t: tuple) -> int:
    if t[0] in ("v", "f"):
        return 1
    if t[0] == "l":
        return 1 + tuple_size(t[1])
    return tuple_size(t[1]) + 1 + sum(tuple_size(e) for e in t[2])


def _shift(t: tuple, d: int, cutoff: int = 0) -> tuple:
    if t[0] == "v":
        return ("v", t[1] + d) if t[1] >= cutoff else t
    if t[0] == "f":
        return t
    if t[0] == "l":
        return ("l", _shift(t[1], d, cutoff + 1))
    return ("a", _shift(t[1], d, cutoff), tuple(sorted(_shift(e, d, cutoff) for e in t[2])))


def _occurrences(t: tuple, c: int) -> int:
    if t[0] == "v":
        return int(t[1] == c)
    if t[0] == "f":
        return 0
    if t[0] == "l":
        return _occurrences(t[1], c + 1)
    return _occurrences(t[1], c) + sum(_occurrences(e, c) for e in t[2])


def _open(body: tuple, elems: tuple) -> set:
    """All ways to hand each element to exactly one occurrence of the
    bound variable (index 0 under no binders); empty on a count mismatch."""
    if _occurrences(body, 0) != len(elems):
        return set()

    def fill(t: tuple, c: int, queue: list) -> tuple:
        if t[0] == "v":
            if t[1] == c:
                return _shift(queue.pop(), c)
            return ("v", t[1] - 1) if t[1] > c else t
        if t[0] == "f":
            return t
        if t[0] == "l":
            return ("l", fill(t[1], c + 1, queue))
        fn = fill(t[1], c, queue)
        return ("a", fn, tuple(sorted(fill(e, c, queue) for e in t[2])))

    return {fill(body, 0, list(order)) for order in set(itertools.permutations(elems))}


def _step(t: tuple):
    """Reducts of the leftmost-outermost redex, or None for a normal term."""
    if t[0] == "l":
        inner = _step(t[1])
        return None if inner is None else {("l", u) for u in inner}
    if t[0] != "a":
        return None
    fn, elems = t[1], t[2]
    if fn[0] == "l":
        return _open(fn[1], elems)
    inner = _step(fn)
    if inner is not None:
        return {("a", u, elems) for u in inner}
    for i, e in enumerate(elems):
        inner = _step(e)
        if inner is not None:
            return {("a", fn, tuple(sorted(elems[:i] + (u,) + elems[i + 1 :]))) for u in inner}
    return None


def reference_normal_form(t: tuple, memo: dict) -> frozenset:
    """Set of normal addends, by permutation-based linear substitution."""
    got = memo.get(t)
    if got is None:
        reducts = _step(t)
        if reducts is None:
            got = frozenset((t,))
        else:
            got = frozenset().union(*(reference_normal_form(u, memo) for u in reducts))
        memo[t] = got
    return got

"""The one test corpus: the terms on which the tests check the paper's results.

Finite simulation, commutation NF(T(M)) = T(BT(M)), head-normalizability,
normalizability and genericity all run on one family: Y, Θ, Ω, KΩ, the
Church numerals and guarded ``let rec`` systems, a finite presentation of
infinitary terms. Every list keeps its order: the golden reports in
``tests/golden`` and the test ids follow it."""

from taylorlab.selftest import _CORPUS as CORPUS
from taylorlab.syntax import parse_term

# selftest's corpus, by name
I, K, II, KOMEGA, XOMEGA, OMEGA, Y, YG = (
    parse_term(CORPUS[name]) for name in ("I", "K", "II", "KOmega", "xOmega", "Omega", "Y", "Yg")
)
OMEGA3 = parse_term(r"(\x. x x x) (\x. x x x)")
Y_SYS_SRC = r"let rec F = f F in \f. F"
Y_SYS = parse_term(Y_SYS_SRC)
C2 = r"(\f. \x. f (f x))"
C2C2 = f"{C2} {C2}"
MUL_C2C2 = rf"(\m. \n. \f. m (n f)) {C2} {C2}"

# let rec systems: a fixed point, a redex around a reference, references
# under binders, mutual recursion, and a redex whose body resolves a free
# name of an equation against the head binder's own hint
SYSTEMS = [
    Y_SYS_SRC,
    r"let rec F = (\x. f x) F in F",
    r"let rec F = (\x. \y. y (x y)) F in F",
    r"let rec F = x F in \x. (\y. F) a",
    r"let rec F = x F in (\z. \y. z y) F",
    r"let rec F = \x. x (G x) and G = \y. y F in F",
    r"let rec F = \f. f (F f) in F g",
    r"let rec F = (\x. x x) (\y. f (y G)) and G = g F in \g. F",
]
# systems whose slices the scanning enumerator cross-checks
SLICE_SYSTEMS = [
    Y_SYS_SRC,
    r"let rec F = \G. G f F in \f. F G",
    r"let rec A = x (B A) and B = \u. u A in A",
    r"let rec T = \x. \y. y (T x y) in T",
]
# recursive targets that lift: their references resolve to fresh terms
LETREC = SYSTEMS[1:3]
# (term, size bound) of the shared lifting session's cases
SESSION_CASES = (
    [(src, 10) for src in CORPUS.values()]
    + [(CORPUS["Y"], 14), (CORPUS["Yg"], 14), (C2C2, 14)]
    + [(src, 14) for src in LETREC]
)

# bottom at depth 1; a fuel cut at depth 2; bottom and a cut at depth 1
TREES = [r"\x. x (\y. _|_)", r"\f. f (f ((\x. x x x) (\x. x x x)))", r"x * ((\x. x x) (\x. x x))"]
# selftest's genericity spot check: context, unsolvable term, replacements
GENERICITY = [r"(\x. \y. y) *", CORPUS["Omega"], CORPUS["I"], CORPUS["K"], CORPUS["Y"], "--size", "8"]

# the checks of the commute-cold benchmark workload in its order, with their
# pinned counts: (name, term, size, approximants, normal addends, tree
# targets, constructed ancestors); tests/test_golden.py holds the names,
# terms and sizes to bench/workloads.py
COMMUTE_COLD = [
    ("Y", CORPUS["Y"], 18, 351, 4, 200, 196),
    ("Yg", CORPUS["Yg"], 17, 424, 2, 200, 198),
    ("Theta", r"(\x. \y. y (x x y)) (\x. \y. y (x x y))", 16, 166, 2, 85, 83),
    ("c2c2", C2C2, 18, 235, 1, 248, 247),
    ("mulc2c2", MUL_C2C2, 18, 163, 1, 248, 247),
]

# every term and system above, once each
TERMS = list(
    dict.fromkeys(
        [*CORPUS.values(), str(OMEGA3), *(src for _, src, *_ in COMMUTE_COLD), *SYSTEMS, *SLICE_SYSTEMS, *TREES]
    )
)

# resource terms and one sum for rnf and rsubst: redexes that fire, nest,
# duplicate and fail on a degree mismatch, a free x under binders and in a
# monomial, and a sum with a shared addend
RESOURCE_TERMS = [
    r"<\a. a>[<\b. b>[z]]",
    r"<\a. <a>[a, a]>[<\b. b>[x], y, <\c. <c>[c]>[z, w]]",
    r"<\a. \b. <b>[a]>[<x>1]",
    r"<\a. <a>[a]>[y]",
    r"<x>[x]",
    r"\a. <x>[<x>[a], \b. <b>[x]]",
    r"<\x. x>[<\y. y>[z]] + <\y. y>[z]",
]
# (variable, monomial) pairs that rsubst substitutes in each of them
RSUBST = [("x", "[y]"), ("x", r"[\y. y, z]"), ("x", "[y, z, z]"), ("x", "1")]

DEEP = 10_000
DEEP_TERMS = {
    "parentheses": "(" * DEEP + "x" + ")" * DEEP,
    "binders": "\\x. " * DEEP + "x",
    "arguments": "f" + " x" * DEEP,
}

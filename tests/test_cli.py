import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import taylorlab
from taylorlab import cli
from taylorlab.cli import main
from taylorlab.gen import random_resource_term
from taylorlab.resource import FiniteSum, parse_resource_term, pretty_sum
from taylorlab.resource_reduction import r_normalize

from corpus import DEEP, DEEP_TERMS, Y_SYS_SRC

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "\\x. x")
    assert code == 0 and out.strip() == "term: \\x. x"
    code, out, _ = run(capsys, "parse", Y_SYS_SRC, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "system"
    code, out, _ = run(capsys, "parse", "(\\y. y) *")
    assert code == 0 and out.startswith("context:")


def test_parse_error_exit_3(capsys):
    code, _, err = run(capsys, "parse", "\\x. (x")
    assert code == 3 and "parse error" in err


def test_usage_error_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 3


def test_bohm_spec_example(capsys):
    code, out, _ = run(capsys, "bohm", Y_SYS_SRC, "--depth", "3")
    assert code == 0 and out.strip() == "\\f. f (f (f ◻))"


def test_bohm_dot(capsys):
    code, out, _ = run(capsys, "bohm", "\\x. x y", "--dot")
    assert code == 0 and out.startswith("digraph bohm {") and "@" in out
    # the binder's hint clashes with the free name: the graph names it as
    # the text does, so it is not drawn as the identity
    code, out, _ = run(capsys, "bohm", "(\\y. \\x. y) x")
    assert code == 0 and out.strip() == "\\x'. x"
    code, out, _ = run(capsys, "bohm", "(\\y. \\x. y) x", "--dot")
    assert code == 0
    assert '  n0 [label="\\\\x\'"];' in out.splitlines() and '  n1 [label="x"];' in out.splitlines()


def test_bohm_dot_and_json_exit_3(capsys):
    code, out, err = run(capsys, "bohm", "\\x. x y", "--dot", "--json")
    assert code == 3 and out == ""
    assert err == "error: bohm prints either --dot or --json, not both\n"


def test_taylor_listing(capsys):
    code, out, _ = run(capsys, "taylor", "(\\x.x) (\\x.x)", "--size", "6")
    assert code == 0
    assert out.splitlines() == ["<\\a. a>1", "<\\a. a>[\\a. a]"]


def test_taylor_context(capsys):
    code, out, _ = run(capsys, "taylor", "(\\y. y) *", "--size", "5", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["approximants"] == ["<\\a. a>1", "<\\a. a>[*]", "<\\a. a>[*, *]"]


def test_taylor_context_honours_the_depth_bound(capsys):
    code, out, _ = run(capsys, "taylor", "\\x. * (x x)", "--size", "7", "--depth", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["depth_bound"] == 2
    assert payload["approximants"] == ["\\a. <*>1"]


def test_nf_taylor(capsys):
    code, out, _ = run(capsys, "nf-taylor", "(\\x.x) (\\x.x)", "--size", "6")
    assert code == 0 and out.strip() == "\\a. a"


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "(\\x. \\y. x) a b", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"] == "a" and payload["normal"] is True
    assert len(payload["trace"]) == 2


def test_reduce_at(capsys):
    code, out, _ = run(capsys, "reduce", "\\z. (\\x. x) z", "--at", "body", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"] == "\\z. z"


def test_reduce_at_the_root_prints_root(capsys):
    """``--at ''`` and ``--at root`` name the same step, print it as
    ``root``, and print what the normal-order run prints for that step."""
    printed = []
    for json_flag in ([], ["--json"]):
        outs = [
            run(capsys, "reduce", "(\\x. x y) z", *flags, *json_flag)
            for flags in (["--at", ""], ["--at", "root"], ["--max-steps", "1"])
        ]
        assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0 and outs[0][2] == ""
        printed.append(outs[0][1])
    text, payload = printed
    assert text.splitlines()[0] == "  0 [root] z y"
    assert json.loads(payload)["trace"] == [{"position": "root", "term": "z y"}]


def test_head(capsys):
    code, out, _ = run(capsys, "head", "(\\x. x x) (\\x. x x)", "--fuel", "50")
    assert code == 0 and "unknown(loop" in out


def test_rsubst(capsys):
    code, out, _ = run(capsys, "rsubst", "<x>[x]", "x", "[\\y. y, z]")
    assert code == 0
    assert out.strip() == "<z>[\\a. a] + <\\a. a>[z]"


def test_rnf(capsys):
    code, out, _ = run(capsys, "rnf", "<\\a. a>[<\\b. b>[z]]", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["normal_form"] == "z"
    assert len(payload["trace"]) == 2


# rnf --json as printed before its normal form was read off its own trace
RNF_PAYLOADS = [
    (
        "<\\a. a>[<\\b. b>[z]]",
        "<\\a. a>[<\\a. a>[z]]",
        "z",
        [
            ("<\\a. a>[<\\a. a>[z]]", "root", ["<\\a. a>[z]"]),
            ("<\\a. a>[z]", "root", ["z"]),
        ],
    ),
    (
        "<\\a. <a>[a]>[y, z]",
        "<\\a. <a>[a]>[y, z]",
        "<y>[z] + <z>[y]",
        [
            ("<\\a. <a>[a]>[y, z]", "root", ["<y>[z]", "<z>[y]"]),
        ],
    ),
    (
        "<\\a. a>1",
        "<\\a. a>1",
        "0",
        [
            ("<\\a. a>1", "root", []),
        ],
    ),
    (
        "<\\a. <a>[a]>[y, z] + <\\a. a>[<\\b. b>[z]]",
        "<\\a. a>[<\\a. a>[z]] + <\\a. <a>[a]>[y, z]",
        "z + <y>[z] + <z>[y]",
        [
            ("<\\a. a>[<\\a. a>[z]]", "root", ["<\\a. a>[z]"]),
            ("<\\a. <a>[a]>[y, z]", "root", ["<y>[z]", "<z>[y]"]),
            ("<\\a. a>[z]", "root", ["z"]),
        ],
    ),
    (
        "<\\a. \\b. <a>[<b>[a]]>[x, <\\c. c>[y]]",
        "<\\a. \\b. <a>[<b>[a]]>[x, <\\a. a>[y]]",
        "\\a. <x>[<a>[y]] + \\a. <y>[<a>[x]]",
        [
            ("<\\a. \\b. <a>[<b>[a]]>[x, <\\a. a>[y]]", "root", ["\\a. <x>[<a>[<\\b. b>[y]]]", "\\a. <<\\b. b>[y]>[<a>[x]]"]),
            ("\\a. <x>[<a>[<\\b. b>[y]]]", "body.arg[0].arg[0]", ["\\a. <x>[<a>[y]]"]),
            ("\\a. <<\\b. b>[y]>[<a>[x]]", "body.fun", ["\\a. <y>[<a>[x]]"]),
        ],
    ),
    (
        "<<\\a. \\b. <b>[a]>[<\\c. <c>[c]>[u, v]]>[\\d. d]",
        "<<\\a. \\b. <b>[a]>[<\\a. <a>[a]>[u, v]]>[\\a. a]",
        "<u>[v] + <v>[u]",
        [
            ("<<\\a. \\b. <b>[a]>[<\\a. <a>[a]>[u, v]]>[\\a. a]", "fun", ["<\\a. <a>[<\\b. <b>[b]>[u, v]]>[\\a. a]"]),
            ("<\\a. <a>[<\\b. <b>[b]>[u, v]]>[\\a. a]", "root", ["<\\a. a>[<\\a. <a>[a]>[u, v]]"]),
            ("<\\a. a>[<\\a. <a>[a]>[u, v]]", "root", ["<\\a. <a>[a]>[u, v]"]),
            ("<\\a. <a>[a]>[u, v]", "root", ["<u>[v]", "<v>[u]"]),
        ],
    ),
    (
        "0",
        "0",
        "0",
        [
        ],
    ),
]


@pytest.mark.parametrize("src,shown,normal_form,trace", RNF_PAYLOADS)
def test_rnf_json_is_unchanged(capsys, src, shown, normal_form, trace):
    code, out, _ = run(capsys, "rnf", src, "--json")
    assert code == 0
    assert json.loads(out) == {
        "input": shown,
        "normal_form": normal_form,
        "trace": [{"addend": a, "site": site, "reducts": r} for a, site, r in trace],
    }


def test_rnf_steps_each_addend_once(capsys):
    """Two paths reach ``<\\a. a>[z]``; the sum holds it once, and so does the trace."""
    code, out, _ = run(capsys, "rnf", "<\\x. x>[<\\y. y>[z]] + <\\y. y>[z]")
    assert code == 0
    assert out.splitlines() == [
        "[root] <\\a. a>[z] -> z",
        "[root] <\\a. a>[<\\a. a>[z]] -> <\\a. a>[z]",
        "normal form: z",
    ]


def test_rnf_normal_form_is_r_normalize(capsys):
    """The normal addends collected along the trace are the normal form."""
    rng = Random(5)
    stepped = 0
    for _ in range(150):
        s = FiniteSum(random_resource_term(rng, rng.randint(3, 14)) for _ in range(rng.randint(1, 3)))
        code, out, _ = run(capsys, "rnf", pretty_sum(s), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["normal_form"] == pretty_sum(r_normalize(s))
        stepped += bool(payload["trace"])
    assert stepped >= 30


def test_stratify(capsys):
    code, out, _ = run(
        capsys, "stratify", "\\f. (\\x. f (x x)) (\\x. f (x x))", "--depth", "2", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert len(payload["levels"]) == 3 and payload["diagnostic"] is None


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "commutation", "(\\x.x) (\\x.x)", "--size", "6")
    assert code == 0 and "pass" in out
    # theorem hypothesis unmet: inconclusive, exit 2
    code, out, _ = run(
        capsys, "check", "genericity", "*", "(\\x. x x) (\\x. x x)", "\\x. x"
    )
    assert code == 2 and "inconclusive" in out
    # no common approximant within the size bound: inconclusive, exit 2,
    # on distinct and on beta-equal terms alike
    code, out, _ = run(capsys, "check", "equal", "\\x. x", "\\x. \\y. y", "--size", "6")
    assert code == 2 and "inconclusive" in out
    code, out, _ = run(capsys, "check", "equal", "\\x. x", "\\x. (\\y. y) x")
    assert code == 2 and "inconclusive" in out and "size bound ran out" in out


def test_check_simulation_cli(capsys):
    code, out, _ = run(
        capsys, "check", "simulation", "(\\x.x) (\\x.x)", "--steps", "root", "--size", "6", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "pass"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\\x. x"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0 and "\\x. x" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["rsubst", "<x>[x]", "x", "[\\y. y, z]"],
        ["check", "genericity", "*", "(\\x. x x) (\\x. x x)", "\\x. x"],
        ["check", "equal", "\\x. x", "\\x. \\y. y", "--size", "6"],
    ],
    ids=["rsubst", "genericity", "equal"],
)
def test_first_term_from_stdin(capsys, monkeypatch, argv):
    import io

    expected = run(capsys, *argv, "--json")
    term = argv.pop(2 if argv[0] == "check" else 1)
    argv.insert(2 if argv[0] == "check" else 1, "-")
    monkeypatch.setattr("sys.stdin", io.StringIO(term))
    assert run(capsys, *argv, "--json") == expected


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("taylor_term.json", ["(\\x. x) (\\y. y)", "--size", "6"]),
        ("taylor_system.json", [Y_SYS_SRC, "--size", "9", "--depth", "3"]),
        ("taylor_context.json", ["\\x. * x", "--size", "6"]),
    ],
)
def test_taylor_json_golden(capsys, golden, argv):
    code, out, _ = run(capsys, "taylor", *argv, "--json")
    assert code == 0 and out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_selftest_quick_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "7", "--json")
    code2, out2, _ = run(capsys, "selftest", "--seed", "7", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"


@pytest.mark.parametrize("seed", ["107", "124"])
def test_selftest_passes_on_seeds_with_head_fixed_points(capsys, seed):
    code, out, _ = run(capsys, "selftest", "--seed", seed, "--json")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["head", "x", "--fuel", "-5"],
        ["check", "commutation", "x", "--size", "-3"],
        ["taylor", "x", "--depth", "-1"],
        ["bohm", "x", "--depth", "-1"],
        ["check", "norm", "x", "--dmax", "-2"],
        ["reduce", "x", "--max-steps", "-1"],
    ],
)
def test_negative_budget_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["head", "x", "--fuel", "abc"],
        ["check", "commutation", "x", "--size", "1.5"],
        ["bohm", "x", "--depth", ""],
        ["reduce", "x", "--max-steps", "ten"],
    ],
)
def test_non_integer_budget_exit_3(capsys, argv):
    """The rejection names the flag and the value, not the converter."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: not an integer: {argv[-1]!r}" in err and "_non_negative" not in err


def test_backstop_is_an_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "commutation", "x", "--backstop", "4"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --backstop" in capsys.readouterr().err


def test_capture_on_a_system_exits_inconclusive(capsys):
    code, out, _ = run(capsys, "check", "commutation", "let rec F = x F in (\\z. \\x. z x) F", "--size", "8")
    assert code == 2 and out.startswith("commutation: inconclusive")
    code, _, _ = run(capsys, "check", "commutation", "let rec F = x F in (\\z. \\y. z y) F", "--size", "8")
    assert code == 0


def test_zero_budget_accepted(capsys):
    code, out, _ = run(capsys, "head", "x", "--fuel", "0")
    assert code == 0


def test_commutation_json_counts_verification(capsys):
    code, out, _ = run(capsys, "check", "commutation", "\\f. (\\x. f (x x)) (\\x. f (x x))", "--size", "12", "--json")
    stats = json.loads(out)["stats"]
    assert code == 0
    assert stats["constructed_ancestors"] == 15
    assert "replayed_ancestors" not in stats and "verify_fallbacks" not in stats


def test_internal_error_exit_4(capsys, monkeypatch):
    """An engine that raises is an internal error: one line on stderr and
    exit 4, never a traceback with exit 1."""

    def overflowing(*args):
        raise RecursionError("maximum recursion depth exceeded\nwhile substituting")

    monkeypatch.setattr(cli, "r_subst", overflowing)
    code, out, err = run(capsys, "rsubst", "\\a. x", "x", "[y]")
    assert code == 4 and out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded while substituting\n"


@pytest.mark.parametrize("shape", sorted(DEEP_TERMS))
@pytest.mark.parametrize(
    "argv",
    [["parse"], ["head"], ["bohm"], ["bohm", "--dot"], ["taylor"], ["check", "commutation", "--size", "6"]],
    ids=" ".join,
)
def test_deep_input_is_no_internal_error(capsys, argv, shape):
    """The parsers and printers loop on explicit stacks, so a term 10,000
    deep reads, prints and checks like a shallow one."""
    at = 2 if argv[0] == "check" else 1
    code, out, err = run(capsys, *argv[:at], DEEP_TERMS[shape], *argv[at:])
    assert code in (0, 2) and out and err == ""


@pytest.mark.parametrize(
    "text",
    ["\\a. " * DEEP + "a", "<" * DEEP + "x" + ">1" * DEEP, "<x>[" * DEEP + "x" + "]" * DEEP],
    ids=["binders", "applications", "monomials"],
)
def test_deep_resource_input_normalizes(capsys, text):
    code, out, _ = run(capsys, "rnf", text)
    assert code == 0 and out.startswith("normal form: ")
    assert parse_resource_term(out.removeprefix("normal form: ")) is parse_resource_term(text)


@pytest.mark.parametrize(
    "argv",
    [["reduce", "(\\x. x) y", "--at", "body.up"], ["check", "simulation", "(\\x. x) y", "--steps", "root,up"]],
    ids=["reduce", "simulation"],
)
def test_bad_position_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: bad position component 'up'\n")


def test_deep_rsubst_exits_0(capsys):
    """Linear substitution loops on explicit stacks: under 10,000 binders the
    two occurrences of ``x`` take the monomial's two equal elements."""
    code, out, err = run(capsys, "rsubst", "\\a. " * DEEP + "<x>[x, a]", "x", "[y, y]")
    assert code == 0 and err == ""
    assert parse_resource_term(out) is parse_resource_term("\\a. " * DEEP + "<y>[y, a]")


# Runs the CLI after allocating, and partly freeing, ``argv[1]`` junk lists,
# so that interned nodes land at other addresses than in a clean run.
_RUN_AFTER_JUNK = """
import sys
junk = [[i] * (i % 5) for i in range(int(sys.argv[1]))]
del junk[::3]
from taylorlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "commutation", "\\f. (\\x. f (x x)) (\\x. f (x x))", "--size", "14", "--json"],
        ["check", "commutation", "(\\f. \\x. f (f x)) (\\f. \\x. f (f x))", "--size", "14", "--json"],
        ["rnf", "<\\a. <a>[a, a]>[<\\b. b>[x], y, <\\c. <c>[c]>[z, w]] + <\\a. \\b. <b>[a]>[<x>1]", "--json"],
    ],
)
def test_json_output_does_not_depend_on_addresses(argv):
    """Nodes hash by identity, so set order follows memory addresses; every
    output must still come out in the same bytes, whatever the hash seed
    and the addresses."""
    src = str(Path(taylorlab.__file__).resolve().parents[1])
    outputs = []
    for junk, seed in ((0, "0"), (200_000, "12345")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _RUN_AFTER_JUNK, str(junk), *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and b'"' in outputs[0]


def test_import_loads_no_dataclasses_and_no_source_tools():
    """Every CLI call is a fresh process, so ``import taylorlab.cli`` is part
    of what each check costs. It loads no ``dataclasses``, and so none of
    the source and bytecode tools that module pulls in, and not ``random``
    or the self-test modules, which only the ``selftest`` command needs.
    ``-S`` keeps the site packages' start-up hooks out of the count."""
    src = str(Path(taylorlab.__file__).resolve().parents[1])
    code = "import sys, taylorlab.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    banned = ["dataclasses", "inspect", "ast", "dis", "tokenize", "random", "taylorlab.gen", "taylorlab.selftest"]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *banned],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []

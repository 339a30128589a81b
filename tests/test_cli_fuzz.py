"""Seeded CLI fuzz: small random λ-terms and resource terms from
``taylorlab.gen`` go through every command but ``selftest``, in-process
through ``cli.main``, at small budgets. No input may crash the tool: every
run exits 0, 1, 2 or 3 with no traceback, ``--json`` parses, and the text and
the JSON of one command line tell the same verdict."""

import contextlib
import io
import json
from random import Random

from taylorlab import cli
from taylorlab.beta import leftmost_redex, position_to_str
from taylorlab.gen import random_lambda_term, random_resource_term
from taylorlab.resource import pretty_resource
from taylorlab.syntax import pretty

from corpus import CORPUS

SEED = 14
DRAWS = 60
SIZE, FUEL, DEPTH = "6", "20", "3"


def _check_text(p):
    line = f"{p['theorem']}: {p['verdict']}"
    if "reason" in p:
        line += f" ({p['reason']})"
    if "witness" in p:
        line += f" witness: {p['witness']}"
    return [line]


# the text each command prints, read off its JSON
TEXT = {
    "parse": lambda p: [f"{p['kind']}: {p['pretty']}"],
    "reduce": lambda p: [f"result: {p['result']}"]
    + ([] if p["normal"] else [f"stopped after {len(p['trace'])} steps (not normal)"]),
    "head": lambda p: [f"{p['verdict']}: {p['result']}"],
    "bohm": lambda p: [p["tree"]],
    "taylor": lambda p: p["approximants"] or ["0"],
    "nf-taylor": lambda p: p["normal_forms"] or ["0"],
    "stratify": lambda p: [f"M{d} = {t}" for d, t in enumerate(p["levels"])]
    + ([f"diagnostic: {p['diagnostic']}"] if p["diagnostic"] else []),
    "check": _check_text,
    "rsubst": lambda p: [p["result"]],
    "rnf": lambda p: [f"normal form: {p['normal_form']}"],
}


def _lambda_argvs(src, other, steps):
    small = ["--size", SIZE, "--fuel", FUEL, "--dmax", DEPTH]
    return [
        ["parse", src],
        ["reduce", src, "--max-steps", "10"],
        ["head", src, "--fuel", FUEL],
        ["bohm", src, "--depth", DEPTH, "--fuel", FUEL],
        ["taylor", src, "--size", SIZE, "--depth", DEPTH],
        ["nf-taylor", src, "--size", SIZE],
        ["stratify", src, "--depth", DEPTH, "--fuel", FUEL],
        ["check", "commutation", src, *small],
        ["check", "head", src, *small],
        ["check", "norm", src, *small],
        ["check", "simulation", src, "--steps", steps, "--size", SIZE],
        ["check", "genericity", f"({src}) *", CORPUS["Omega"], other, *small],
        ["check", "equal", src, other, *small],
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _agree(argv):
    """Run ``argv`` as text and as ``--json``; both exit alike, cleanly, and
    the text is what the JSON says."""
    code, text, err = _run(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
    json_code, out, json_err = _run([*argv, "--json"])
    assert (json_code, json_err) == (code, err), argv
    if code == 3:  # an input error prints nothing to stdout
        assert text == out == "", argv
        return code
    payload = json.loads(out)
    lines = text.splitlines()
    if argv[0] in ("reduce", "rnf"):  # a line per traced step comes first
        lines = lines[len(payload["trace"]) :]
    assert lines == TEXT[argv[0]](payload), argv
    return code


def test_seeded_cli_fuzz_exits_cleanly_and_text_agrees_with_json(monkeypatch):
    # main builds its parser on every call, which costs more than a small
    # command; building it once keeps the fuzz to a few seconds
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    rng = Random(SEED)
    terms = [random_lambda_term(rng, rng.randint(2, 9)) for _ in range(DRAWS)]
    rterms = [random_resource_term(rng, rng.randint(2, 9)) for _ in range(DRAWS)]
    # gen.random_resource_term often stops short of its size bound
    assert len(set(terms)) >= 45 and len(set(rterms)) >= 40
    codes = []
    for m, other in zip(terms, terms[1:] + terms[:1]):
        pos = leftmost_redex(m)
        steps = "" if pos is None else position_to_str(pos)
        codes += [_agree(argv) for argv in _lambda_argvs(pretty(m), pretty(other), steps)]
        code, out, err = _run(["bohm", pretty(m), "--dot", "--depth", DEPTH, "--fuel", FUEL])
        assert code == 0 and out.startswith("digraph bohm {") and err == "", pretty(m)
    for s, other in zip(rterms, rterms[1:] + rterms[:1]):
        codes.append(_agree(["rsubst", pretty_resource(s), "x", f"[{pretty_resource(other)}]"]))
        codes.append(_agree(["rnf", pretty_resource(s)]))
    assert len(codes) == 15 * DRAWS and codes.count(0) > len(codes) // 2

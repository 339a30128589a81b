"""Regenerate the golden reports in ``tests/golden``, run in-process through
``cli.main``:

* ``commute_cold.json``: the exact output of ``check commutation --json
  --fuel 1000`` on the five checks of the ``commute-cold`` benchmark
  workload;
* ``checks.json``: ``check head`` and ``check norm``, text and ``--json``,
  at fuel 1000 and 3, on the selftest corpus, the ``let rec`` systems of
  ``tests/test_lift_oracle.py`` and three trees with bottom or cut nodes,
  and ``check genericity`` on selftest's spot-check instance.

    PYTHONPATH=src python3 tests/make_commute_golden.py

Regenerate them only for a change that alters a report on purpose, and name
the changed entries in CHANGES.md; ``tests/test_golden.py`` compares every
report with the files."""

import contextlib
import io
import json
from pathlib import Path

from taylorlab import cli
from taylorlab.selftest import _CORPUS

from test_lift_oracle import SYSTEMS

GOLDEN = Path(__file__).parent / "golden" / "commute_cold.json"
CHECKS_GOLDEN = Path(__file__).parent / "golden" / "checks.json"

Y = r"\f. (\x. f (x x)) (\x. f (x x))"
C2 = r"(\f. \x. f (f x))"
# (name, term, size) in the benchmark's order; tests/test_golden.py holds
# them to bench/workloads.py
INSTANCES = [
    ("Y", Y, 18),
    ("Yg", f"({Y}) g", 17),
    ("Theta", r"(\x. \y. y (x x y)) (\x. \y. y (x x y))", 16),
    ("c2c2", f"{C2} {C2}", 18),
    ("mulc2c2", rf"(\m. \n. \f. m (n f)) {C2} {C2}", 18),
]

# bottom at depth 1; a fuel cut at depth 2; bottom and a cut at depth 1
TREES = [r"\x. x (\y. _|_)", r"\f. f (f ((\x. x x x) (\x. x x x)))", r"x * ((\x. x x) (\x. x x))"]
# selftest's genericity spot check
GENERICITY = [r"(\x. \y. y) *", _CORPUS["Omega"], _CORPUS["I"], _CORPUS["K"], _CORPUS["Y"], "--size", "8"]


def argv(term: str, size: int) -> list[str]:
    return ["check", "commutation", term, "--size", str(size), "--fuel", "1000", "--json"]


def check_argvs() -> list[list[str]]:
    """The command lines of ``checks.json``, in its order."""
    out = []
    for term in [*_CORPUS.values(), *SYSTEMS, *TREES]:
        for fuel in ("1000", "3"):
            for opts in (["head"], ["norm", "--dmax", "4"], ["norm", "--dmax", "0"]):
                base = ["check", opts[0], term, *opts[1:], "--fuel", fuel]
                out += [base, base + ["--json"]]
    for dmax in ("0", "1", "4"):
        base = ["check", "genericity", *GENERICITY, "--dmax", dmax]
        out += [base, base + ["--json"]]
    return out


def run(args: list[str]) -> tuple[int, str]:
    """The exit code and standard output of ``taylorlab`` on ``args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def reports() -> list[dict]:
    entries = []
    for name, term, size in INSTANCES:
        code, stdout = run(argv(term, size))
        entries.append({"name": name, "argv": argv(term, size), "exit_code": code, "stdout": stdout})
    return entries


def check_reports() -> list[dict]:
    return [dict(zip(("argv", "exit_code", "stdout"), (args, *run(args)))) for args in check_argvs()]


if __name__ == "__main__":
    for path, entries in ((GOLDEN, reports()), (CHECKS_GOLDEN, check_reports())):
        path.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {path}")

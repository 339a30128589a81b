"""Regenerate ``tests/golden/commute_cold.json``: the exact output of
``check commutation --json --fuel 1000`` on the five checks of the
``commute-cold`` benchmark workload, run in-process through ``cli.main``.

    PYTHONPATH=src python3 tests/make_commute_golden.py

Regenerate it only for a change that alters a report on purpose, and name
the changed entries in CHANGES.md; ``tests/test_golden.py`` compares every
report with the file."""

import contextlib
import io
import json
from pathlib import Path

from taylorlab import cli

GOLDEN = Path(__file__).parent / "golden" / "commute_cold.json"

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


def argv(term: str, size: int) -> list[str]:
    return ["check", "commutation", term, "--size", str(size), "--fuel", "1000", "--json"]


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")

"""Regenerate the golden reports in ``tests/golden``, run in-process through
``cli.main``:

* ``commute_cold.json``: the exact output of ``check commutation --json
  --fuel 1000`` on the five checks of the ``commute-cold`` benchmark
  workload;
* ``checks.json``: ``check head`` and ``check norm``, text and ``--json``,
  at fuel 1000 and 3, on the selftest corpus, the ``let rec`` systems of
  the lifting oracle and three trees with bottom or cut nodes, and ``check
  genericity`` on selftest's spot-check instance;
* ``commands.json``: ``parse``, ``head``, ``bohm`` (text, ``--dot`` and
  ``--json``) and ``check commutation --size 10`` (text and ``--json``),
  at fuel 1000 and 3, on every term and system of ``tests/corpus.py``;
  then ``reduce --max-steps 5``, ``stratify --depth 3`` (fuel 1000 and 3),
  ``taylor --size 6`` and ``nf-taylor --size 6`` on the same terms, and
  ``rnf`` and ``rsubst`` on the corpus's resource terms, each as text and
  ``--json``.

    PYTHONPATH=src python3 tests/make_commute_golden.py

The script prints the command line of each entry whose output differs from
the file it replaces, and of each entry that the file held and the new list
lacks. Regenerate the files only for a change that alters a
report on purpose, and name the changed entries in CHANGES.md;
``tests/test_golden.py`` compares every report with the files."""

import contextlib
import io
import json
from pathlib import Path

from taylorlab import cli

from corpus import COMMUTE_COLD, CORPUS, GENERICITY, RESOURCE_TERMS, RSUBST, SYSTEMS, TERMS, TREES

GOLDEN = Path(__file__).parent / "golden" / "commute_cold.json"
CHECKS_GOLDEN = Path(__file__).parent / "golden" / "checks.json"
COMMANDS_GOLDEN = Path(__file__).parent / "golden" / "commands.json"


def argv(term: str, size: int) -> list[str]:
    return ["check", "commutation", term, "--size", str(size), "--fuel", "1000", "--json"]


def check_argvs() -> list[list[str]]:
    """The command lines of ``checks.json``, in its order."""
    out = []
    for term in [*CORPUS.values(), *SYSTEMS, *TREES]:
        for fuel in ("1000", "3"):
            for opts in (["head"], ["norm", "--dmax", "4"], ["norm", "--dmax", "0"]):
                base = ["check", opts[0], term, *opts[1:], "--fuel", fuel]
                out += [base, base + ["--json"]]
    for dmax in ("0", "1", "4"):
        base = ["check", "genericity", *GENERICITY, "--dmax", dmax]
        out += [base, base + ["--json"]]
    return out


def command_argvs() -> list[list[str]]:
    """The command lines of ``commands.json``, in its order."""
    out = []
    for term in TERMS:
        out += [["parse", term], ["parse", term, "--json"]]
        for fuel in ("1000", "3"):
            for cmd in (["head", term], ["bohm", term], ["check", "commutation", term, "--size", "10"]):
                base = [*cmd, "--fuel", fuel]
                out += [base, base + ["--json"]]
            out.append(["bohm", term, "--dot", "--fuel", fuel])
    return out


def reduction_argvs() -> list[list[str]]:
    """The command lines that follow ``command_argvs()`` in ``commands.json``."""
    out = []
    for term in TERMS:
        cmds = [["reduce", term, "--max-steps", "5"]]
        cmds += [["stratify", term, "--depth", "3", "--fuel", fuel] for fuel in ("1000", "3")]
        cmds += [["taylor", term, "--size", "6"], ["nf-taylor", term, "--size", "6"]]
        out += [line for cmd in cmds for line in (cmd, cmd + ["--json"])]
    for term in RESOURCE_TERMS:
        cmds = [["rnf", term]] + [["rsubst", term, var, mono] for var, mono in RSUBST]
        out += [line for cmd in cmds for line in (cmd, cmd + ["--json"])]
    return out


def run(args: list[str]) -> tuple[int, str]:
    """The exit code and standard output of ``taylorlab`` on ``args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def reports() -> list[dict]:
    entries = []
    for name, term, size, *_ in COMMUTE_COLD:
        code, stdout = run(argv(term, size))
        entries.append({"name": name, "argv": argv(term, size), "exit_code": code, "stdout": stdout})
    return entries


def replay(argvs: list[list[str]]) -> list[dict]:
    return [dict(zip(("argv", "exit_code", "stdout"), (args, *run(args)))) for args in argvs]


def differences(path: Path, entries: list[dict]) -> list[str]:
    """``changed: <command line>`` for each entry of ``entries`` that ``path``
    does not hold as it is, then ``removed: <command line>`` for each entry
    of ``path`` whose command line no entry of ``entries`` has."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    kept = {json.dumps(entry, sort_keys=True) for entry in old}
    argvs = {tuple(entry["argv"]) for entry in entries}
    out = [f"changed: {' '.join(e['argv'])}" for e in entries if json.dumps(e, sort_keys=True) not in kept]
    return out + [f"removed: {' '.join(e['argv'])}" for e in old if tuple(e["argv"]) not in argvs]


if __name__ == "__main__":
    for path, entries in (
        (GOLDEN, reports()),
        (CHECKS_GOLDEN, replay(check_argvs())),
        (COMMANDS_GOLDEN, replay(command_argvs() + reduction_argvs())),
    ):
        for line in differences(path, entries):
            print(line)
        path.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {path}")

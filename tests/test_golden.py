"""Golden reports: the five checks of the ``commute-cold`` benchmark
workload must print exactly what ``tests/golden/commute_cold.json`` holds,
every ``stats`` key included, the head, norm and genericity checks what
``tests/golden/checks.json`` holds, and ``parse``, ``head``, ``bohm``,
``check commutation``, ``reduce``, ``stratify``, ``taylor``, ``nf-taylor``,
``rnf`` and ``rsubst`` on the terms of ``tests/corpus.py`` what
``tests/golden/commands.json`` holds. ``tests/make_commute_golden.py``
regenerates the files after an intended change of output."""

import json
import runpy
from pathlib import Path

from corpus import COMMUTE_COLD
from make_commute_golden import (
    CHECKS_GOLDEN,
    COMMANDS_GOLDEN,
    GOLDEN,
    argv,
    check_argvs,
    command_argvs,
    differences,
    reduction_argvs,
    run,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _first_difference(expected: str, got: str) -> str:
    """The first ``stats`` key or other field on which two reports differ."""
    try:
        want, have = json.loads(expected), json.loads(got)
    except ValueError:
        return f"{expected!r} -> {got!r}"
    for field in sorted(set(want) | set(have)):
        if field == "stats":
            was, now = want.get("stats", {}), have.get("stats", {})
            for key in sorted(set(was) | set(now)):
                if was.get(key) != now.get(key):
                    return f"stats.{key}: {was.get(key)!r} -> {now.get(key)!r}"
        elif want.get(field) != have.get(field):
            return f"{field}: {want.get(field)!r} -> {have.get(field)!r}"
    return "the same fields, printed differently"


def _replays(path, argvs, start=0):
    """Run the entries of ``path`` from ``start`` on, which must be ``argvs``."""
    golden = json.loads(path.read_text(encoding="utf-8"))[start : start + len(argvs)]
    assert [entry["argv"] for entry in golden] == argvs
    for entry in golden:
        code, stdout = run(entry["argv"])
        assert (code, stdout) == (entry["exit_code"], entry["stdout"]), (
            f"{' '.join(entry['argv'])} differs from the golden report: {_first_difference(entry['stdout'], stdout)}"
        )


def test_commute_cold_reports_match_the_golden_file():
    _replays(GOLDEN, [argv(term, size) for _, term, size, *_ in COMMUTE_COLD])


def test_check_reports_match_the_golden_file():
    _replays(CHECKS_GOLDEN, check_argvs())


def test_command_outputs_match_the_golden_file():
    _replays(COMMANDS_GOLDEN, command_argvs())


def test_reduction_outputs_match_the_golden_file():
    """``reduce``, ``stratify``, ``taylor``, ``nf-taylor``, ``rnf`` and
    ``rsubst``, which follow the other commands in the file and end it."""
    argvs = command_argvs()
    assert len(json.loads(COMMANDS_GOLDEN.read_text(encoding="utf-8"))) == len(argvs) + len(reduction_argvs())
    _replays(COMMANDS_GOLDEN, reduction_argvs(), start=len(argvs))


def test_the_regenerator_reports_changed_and_removed_entries(tmp_path):
    def entry(args, stdout):
        return {"argv": args, "exit_code": 0, "stdout": stdout}

    old = [entry(["parse", "x"], "x\n"), entry(["parse", "y"], "y\n"), entry(["parse", "z"], "z\n")]
    new = [entry(["parse", "x"], "x\n"), entry(["parse", "y"], "y!\n"), entry(["parse", "w"], "w\n")]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(old), encoding="utf-8")
    after.write_text(json.dumps(new), encoding="utf-8")
    assert differences(before, new) == ["changed: parse y", "changed: parse w", "removed: parse z"]
    assert differences(after, new) == []
    assert differences(after, old) == ["changed: parse y", "changed: parse z", "removed: parse w"]


def test_golden_instances_are_the_benchmarks_cold_checks():
    """The golden file covers what ``commute-cold`` runs. The benchmark keeps
    its own copy of the terms; its module is only read here."""
    bench = runpy.run_path(str(WORKLOADS))
    assert [(name, size) for name, _, size, *_ in COMMUTE_COLD] == bench["COLD_CHECKS"]
    for name, term, size, *_ in COMMUTE_COLD:
        assert term == bench["COMMUTE_TERMS"][name]
        assert argv(term, size) == bench["cli_argv"](name, size)

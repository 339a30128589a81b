"""Golden commutation reports: the five checks of the ``commute-cold``
benchmark workload must print exactly what ``tests/golden/commute_cold.json``
holds, every ``stats`` key included. ``tests/make_commute_golden.py``
regenerates the file after an intended change of output."""

import json
import runpy
from pathlib import Path

from make_commute_golden import GOLDEN, INSTANCES, argv, run

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _first_difference(expected: str, got: str) -> str:
    """The first ``stats`` key or other field on which two reports differ."""
    try:
        want, have = json.loads(expected), json.loads(got)
    except ValueError:
        return "the output is not JSON"
    for field in sorted(set(want) | set(have)):
        if field == "stats":
            for key in sorted(set(want["stats"]) | set(have.get("stats", {}))):
                if want["stats"].get(key) != have.get("stats", {}).get(key):
                    return f"stats.{key}: {want['stats'].get(key)!r} -> {have.get('stats', {}).get(key)!r}"
        elif want.get(field) != have.get(field):
            return f"{field}: {want.get(field)!r} -> {have.get(field)!r}"
    return "the same fields, printed differently"


def test_commute_cold_reports_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == [argv(term, size) for _, term, size in INSTANCES]
    for entry in golden:
        code, stdout = run(entry["argv"])
        assert (code, stdout) == (entry["exit_code"], entry["stdout"]), (
            f"{entry['name']} differs from the golden report: {_first_difference(entry['stdout'], stdout)}"
        )


def test_golden_instances_are_the_benchmarks_cold_checks():
    """The golden file covers what ``commute-cold`` runs. The benchmark keeps
    its own copy of the terms; its module is only read here."""
    bench = runpy.run_path(str(WORKLOADS))
    assert [(name, size) for name, _, size in INSTANCES] == bench["COLD_CHECKS"]
    for name, term, size in INSTANCES:
        assert term == bench["COMMUTE_TERMS"][name]
        assert argv(term, size) == bench["cli_argv"](name, size)

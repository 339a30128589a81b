"""One fresh interpreter's share of a benchmark pass.

    python bench/worker.py cli NAME SIZE SPANS   one commutation check via taylorlab.cli.main
    python bench/worker.py rnf SEED SPANS        one pass of rnf-random

SPANS is a file to write the trace to, or "-" to run untraced. Only the
calls into taylorlab are timed; output checks run outside the timed region.
Prints one JSON line: per-operation [seconds, matches known answer,
conclusive], peak RSS in KiB taken before the reference checks, error
messages, and the per-layer values when traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import workloads as w
from spans import Tracer

import taylorlab.cli as cli
import taylorlab.resource as rterm
import taylorlab.resource_reduction as rr


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cli_check(name: str, size: int, tracer, out: dict) -> None:
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(w.cli_argv(name, size))
    except (Exception, SystemExit) as err:  # a crash or an argparse exit
        code, error = None, repr(err)
    seconds = perf_counter() - start
    out["rss_kib"] = _peak_rss_kib()
    ok = decided = False
    if error is None:
        try:
            report = json.loads(buf.getvalue())
        except ValueError:
            error = f"exit {code}, output is not a JSON report"
        else:
            ok, decided = w.check_commutation_report(report, w.commutation_answer(name, size))
            ok = ok and code == 0
            if tracer is not None:
                tracer.counts["lab.constructed_ancestors"] += report["stats"].get("constructed_ancestors", 0)
    out["ops"].append([seconds, ok, decided])
    if error is not None:
        out["errors"].append(f"{name}@{size}: {error}")


def _timed(tracer, ops: list):
    """Run each thunk, timing it; yield (index, result or None, error)."""
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result, error = op(), None
        except Exception as err:
            result, error = None, repr(err)
        yield i, result, error, perf_counter() - start


def _pick_last(sites):
    return sites[-1]


def _rnf(seed: int, tracer, out: dict) -> None:
    inputs = w.rnf_inputs(seed)

    def normalize(text):
        def op():
            t = rterm.parse_resource_term(text)
            steps = [rr.r_step(t, site) for site in rr.redex_sites(t)]
            return t, rr.r_normalize(t), steps, rr.normalize_with(t, _pick_last)

        return op

    sampled = {}
    for i, result, error, seconds in _timed(tracer, [normalize(text) for text, _ in inputs]):
        if error is not None:
            out["ops"].append([seconds, False, False])
            out["errors"].append(f"term {i}: {error}")
            continue
        t, nf, steps, nf_last = result
        source = inputs[i][1]
        size = w.tuple_size(source)
        nf = frozenset(w.from_taylorlab(u) for u in nf)
        ok = (
            w.from_taylorlab(t) == source
            and nf == frozenset(w.from_taylorlab(u) for u in nf_last)
            and all(w.tuple_size(w.from_taylorlab(u)) < size for step in steps for u in step)
        )
        if i % w.RNF_REFERENCE_EVERY == 0:
            sampled[i] = nf
        out["ops"].append([seconds, ok, True])
    out["rss_kib"] = _peak_rss_kib()
    memo: dict = {}
    for i, nf in sampled.items():
        if w.reference_normal_form(inputs[i][1], memo) != nf:
            out["ops"][i][1] = False
            out["errors"].append(f"term {i}: normal form differs from the reference")


def main(argv: list[str]) -> None:
    mode, spans_path = argv[0], argv[-1]
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install()
    out: dict = {"ops": [], "errors": [], "rss_kib": 0}
    if mode == "cli":
        _cli_check(argv[1], int(argv[2]), tracer, out)
    else:
        _rnf(int(argv[1]), tracer, out)
    if tracer is not None:
        out["layers"] = tracer.layer_values()
        tracer.write(spans_path)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

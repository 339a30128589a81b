"""Benchmark for taylorlab: two workloads, known-answer checks, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; taylorlab is imported from ``src`` and needs
no installation. A run repeats passes over the workload's operations, each
pass in fresh interpreters, until starting another would overrun
``--seconds``. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = ROOT / ".bench_out" / "spans"
SETUP_MIN_SAMPLES = 9
RUN_LIMIT_S = 160  # a run must end within 180 s
# Bytecode is cached under the checkout, so set-up is the warm start users see.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _setup_seconds() -> float:
    """Interpreter start, ``import taylorlab`` and the CLI parser ready."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "taylorlab.cli", "--help"],
        cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, check=True, timeout=30,
    )
    return perf_counter() - start


def _worker(args: list[str], n_ops: int, timeout: float) -> dict:
    """Run one worker; a crash, hang or garbled reply fails all its ops."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    except (ValueError, IndexError):
        error = "worker printed no result"
    seconds = (perf_counter() - start) / n_ops
    return {"ops": [[seconds, False, False]] * n_ops, "errors": [error], "rss_kib": 0}


def _pass(workload: str, seed: int, spans: Path | None, index: int, deadline: float,
          setup: list[float] | None) -> dict:
    """One pass over the workload's operations; ``spans`` is None untraced.
    A set-up sample goes into ``setup`` before each interpreter, if given."""
    def spans_arg(suffix: str) -> str:
        return "-" if spans is None else str(spans / f"pass{index}{suffix}.csv")

    def worker(args: list[str], n_ops: int) -> dict:
        if setup is not None:
            setup.append(_setup_seconds())
        return _worker(args, n_ops, max(1.0, deadline - perf_counter()))

    if workload == "rnf-random":
        return worker(["rnf", str(seed), spans_arg("")], workloads.RNF_TERMS_PER_PASS)
    parts = [worker(["cli", name, str(size), spans_arg(f"-{name}")], 1) for name, size in workloads.COLD_CHECKS]
    layers: dict = {}
    for p in parts:
        for key, value in p.get("layers", {}).items():
            layers[key] = layers.get(key, 0) + value
    return {
        "ops": [op for p in parts for op in p["ops"]],
        "errors": [e for p in parts for e in p["errors"]],
        "rss_kib": max(p["rss_kib"] for p in parts),
        "layers": layers,
    }


def _layer_metrics(p: dict) -> dict:
    """Per-layer values of one traced pass, with the derived ratios."""
    out = dict(p.get("layers", {}))
    assignments = out.get("resource.open_binder.assignments", 0)
    lifts = out.get("lab.lift_to_source.calls", 0)
    out["resource.open_binder.useful_ratio"] = (
        out.get("resource.open_binder.addends", 0) / assignments if assignments else 0.0
    )
    out["lab.ancestor_yield"] = out.get("lab.constructed_ancestors", 0) / lifts if lifts else 0.0
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "taylorlab" / "cli.py").is_file():
        print(f"bench: no taylorlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S

    spans_dir = None
    if args.trace:
        spans_dir = SPANS / args.workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)

    # Set-up samples are spread over the run, one before each interpreter of
    # an untraced pass, so that they see the same changes in machine speed as
    # the passes do.
    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    begin = perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        start = perf_counter()
        p = _pass(args.workload, args.seed, spans_dir if trace_this else None, len(traced), deadline,
                  None if args.trace else setup)
        (traced if trace_this else plain).append(p)
        cost = perf_counter() - start
        if args.trace and not traced:
            continue
        if perf_counter() - begin + cost > args.seconds or perf_counter() + cost > deadline:
            break
    while not args.trace and len(setup) < SETUP_MIN_SAMPLES and perf_counter() < deadline:
        setup.append(_setup_seconds())

    everything = plain + traced
    ops = [op for p in everything for op in p["ops"]]
    failed = sum(1 for op in ops if not op[1])
    for error in sorted({e for p in everything for e in p["errors"]})[:10]:
        print(f"bench: {error}", file=sys.stderr)

    def pass_seconds(p: dict) -> float:
        return sum(op[0] for op in p["ops"])

    if args.trace:
        per_pass = [_layer_metrics(p) for p in traced]
        listed = spec["per_layer"]
        values = {m["name"]: median(p.get(m["name"], 0) for p in per_pass) for m in listed}
        values["trace.wall_s"] = mean(map(pass_seconds, traced))
        values["trace.overhead_s"] = values["trace.wall_s"] - mean(map(pass_seconds, plain))
    else:
        listed = spec["end_to_end"]
        values = {
            "setup_s": median(setup),
            "wall_s": mean(map(pass_seconds, plain)),
            "peak_rss_mb": median(p["rss_kib"] for p in plain) / 1024,
            "decided_share": sum(1 for op in ops if op[2]) / len(ops),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans at taylorlab's layer boundaries, recorded from outside the program.

Each traced public function is replaced by a wrapper wherever a taylorlab
module binds it: in its defining module (for calls from inside that module)
and in every module that imported it. A wrapper records one span (name,
start, end, parent span, operation id) in memory and passes the result
through untouched; it keeps no reference to arguments or results, so
interning identity and cache lifetimes are the same as without tracing.
A function calling itself through its module binding gets no nested span.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from math import factorial
from time import perf_counter


def _multinomial(mono) -> int:
    """Distinct orderings of a monomial's elements (equal ones are adjacent
    and identical objects, since monomials are sorted and interned)."""
    out = factorial(len(mono))
    run = 0
    prev = None
    for e in mono:
        run = run + 1 if e is prev else 1
        out //= run
        prev = e
    return out


def _open_binder(counts, args, result) -> None:
    counts["resource.open_binder.addends"] += len(result)
    if result:  # an arity mismatch returns 0
        counts["resource.open_binder.assignments"] += _multinomial(args[1])


# (module, function, counter called with (counts, args, result))
TARGETS = [
    ("syntax", "parse_term", None),
    ("syntax", "pretty", None),
    ("beta", "head_normalize",
     lambda c, a, r: c.update({"beta.head_normalize.steps": len(r.trace)})),
    ("beta", "bohm_tree", None),
    ("resource", "parse_resource_term", None),
    ("resource", "open_binder", _open_binder),
    ("resource_reduction", "r_normalize",
     lambda c, a, r: c.update({"resource_reduction.r_normalize.addends": len(r)})),
    ("resource_reduction", "r_step", None),
    ("resource_reduction", "normalize_with", None),
    ("taylor", "enumerate_taylor",
     lambda c, a, r: c.update({"taylor.enumerate_taylor.approximants": len(r)})),
    ("taylor", "member_of_bohm",
     lambda c, a, r: c.update({"taylor.member_of_bohm.unknown": r is None})),
    ("taylor", "approximates", None),
    ("lab", "lift_to_source",
     lambda c, a, r: c.update({"lab.lift_to_source.built": r is not None})),
    ("lab", "check_commutation", None),
    ("cli", "main", None),
]
LAYERS = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.open: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn, count):
        spans, open_, counts = self.spans, self.open, self.counts

        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for mod, fn_name, count in TARGETS:
            orig = getattr(importlib.import_module(f"taylorlab.{mod}"), fn_name)
            traced = self._wrap(f"{mod}.{fn_name}", orig, count)
            for name, module in list(sys.modules.items()):
                if name == "taylorlab" or name.startswith("taylorlab."):
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, traced)

    def layer_values(self) -> dict:
        """Calls and self time (span time minus child spans) per layer,
        plus the counters recorded at the boundaries."""
        out = {f"{name}.{k}": 0 for name in LAYERS for k in ("calls", "self_s")}
        for name, start, end, parent, _ in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start
            if parent >= 0:
                out[f"{self.spans[parent][0]}.self_s"] -= end - start
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")

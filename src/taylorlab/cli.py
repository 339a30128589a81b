"""Command-line front end.

Exit codes: 0 success / pass, 1 check failed, 2 check inconclusive,
3 usage or input error, 4 internal error. All output is deterministic for
a fixed input and configuration; ``--json`` emits sorted-key JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from typing import Optional

from .beta import (
    beta_step,
    bohm_tree,
    head_normalize,
    leftmost_redex,
    position_from_str,
    position_to_str,
    stratify,
)
from .lab import (
    check_commutation,
    check_genericity,
    check_head_charac,
    check_norm_charac,
    check_simulation,
    terms_equal_via_taylor,
)
from .resource import (
    FiniteSum,
    parse_resource_monomial,
    parse_resource_sum,
    parse_resource_term,
    pretty_resource,
    pretty_sum,
    r_subst,
)
from .resource_reduction import (
    r_normalize,
    r_step,
    redex_sites,
    site_to_str,
)
from .syntax import (
    App,
    Lam,
    LambdaError,
    Naming,
    ParseError,
    RationalSystem,
    Term,
    contains_hole,
    parse_term,
    pretty,
    pretty_target,
    split_target,
)
from .taylor import enumerate_taylor, enumerate_taylor_context

CUT = "◻"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are exit code 3
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _non_negative(text: str) -> int:
    """Type of the budget and bound flags; argparse reports a rejection
    through ``parser.error``, so a negative value or a non-integer exits 3."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _read_term_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_parse(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    if isinstance(target, RationalSystem):
        kind = "system"
    elif contains_hole(target):
        kind = "context"
    else:
        kind = "term"
    text = pretty_target(target)
    _emit({"kind": kind, "pretty": text}, args.json, [f"{kind}: {text}"])
    return 0


def _cmd_reduce(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    if isinstance(target, RationalSystem):
        raise LambdaError("reduce expects a finite term")
    if args.at is not None:
        pos = position_from_str(args.at)
        result = beta_step(target, pos)
        trace = [{"position": position_to_str(pos), "term": pretty(result)}]
        cur = result
    else:
        trace = []
        cur = target
        for _ in range(args.max_steps):
            pos = leftmost_redex(cur)
            if pos is None:
                break
            cur = beta_step(cur, pos)
            trace.append({"position": position_to_str(pos), "term": pretty(cur)})
    payload = {
        "input": pretty(target),
        "normal": leftmost_redex(cur) is None,
        "result": pretty(cur),
        "trace": trace,
    }
    lines = [f"{i:3d} [{e['position']}] {e['term']}" for i, e in enumerate(trace)]
    lines.append(f"result: {payload['result']}")
    if not payload["normal"]:
        lines.append(f"stopped after {len(trace)} steps (not normal)")
    _emit(payload, args.json, lines)
    return 0


def _cmd_head(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    term, system = split_target(target)
    run = head_normalize(term, args.fuel, system)
    payload = {
        "input": pretty_target(target),
        "result": pretty(run.term),
        "verdict": run.describe(),
        "steps": len(run.trace),
    }
    _emit(payload, args.json, [f"{payload['verdict']}: {payload['result']}"])
    return 0


def _bohm_dot(t: Term) -> str:
    """Graphviz for a tree: a node per binder list, application and leaf, in
    pre-order, with ``pretty``'s names. One loop on a stack of subterms to
    draw, with their depth and their parent's list of children, and of
    nodes whose edges wait for their children."""
    naming = Naming(t)
    lines = ["digraph bohm {", "  node [shape=plaintext];"]
    count = 0
    stack: list[tuple] = [(t, 0, [])]
    while stack:
        item = stack.pop()
        if len(item) == 2:  # every child of node ``me`` is drawn
            me, kids = item
            lines += [f"  n{me} -> n{k};" for k in kids]
            continue
        u, depth, siblings = item
        me, count, kids = count, count + 1, []
        siblings.append(me)
        if isinstance(u, Lam):
            names = []
            while isinstance(u, Lam):
                names.append(naming.bind(u, depth))
                u, depth = u.body, depth + 1
            lines.append(f'  n{me} [label="\\\\{" ".join(names)}"];')
            stack += [(me, kids), (u, depth, kids)]
        elif isinstance(u, App):
            lines.append(f'  n{me} [label="@"];')
            stack += [(me, kids), (u.arg, depth, kids), (u.fn, depth, kids)]
        else:
            lines.append(f'  n{me} [label="{naming.leaf(u, depth, CUT)}"];')
    lines.append("}")
    return "\n".join(lines)


def _cmd_bohm(args) -> int:
    if args.dot and args.json:
        raise LambdaError("bohm prints either --dot or --json, not both")
    target = parse_term(_read_term_arg(args.term))
    tree = bohm_tree(target, args.depth, args.fuel)
    if args.dot:
        print(_bohm_dot(tree))
        return 0
    text = pretty(tree, cut=CUT)
    payload = {
        "input": pretty_target(target),
        "depth": args.depth,
        "fuel": args.fuel,
        "tree": text,
    }
    _emit(payload, args.json, [text])
    return 0


def _cmd_taylor(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    if not isinstance(target, RationalSystem) and contains_hole(target):
        terms = enumerate_taylor_context(target, args.size, args.depth)
    else:
        terms = enumerate_taylor(target, args.size, args.depth)
    payload = {
        "source": pretty_target(target),
        "size_bound": args.size,
        "depth_bound": args.depth,
        "approximants": [pretty_resource(t) for t in terms],
    }
    _emit(payload, args.json, payload["approximants"] or ["0"])
    return 0


def _cmd_nf_taylor(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    sl = enumerate_taylor(target, args.size, args.depth)
    normal = r_normalize(sl)
    payload = {
        "source": pretty_target(target),
        "size_bound": args.size,
        "approximants": len(sl),
        "normal_forms": [pretty_resource(t) for t in normal],
    }
    _emit(payload, args.json, payload["normal_forms"] or ["0"])
    return 0


def _cmd_rsubst(args) -> int:
    s = parse_resource_term(_read_term_arg(args.term))
    mono = parse_resource_monomial(args.monomial)
    out = r_subst(s, args.var, mono)
    payload = {
        "term": pretty_resource(s),
        "var": args.var,
        "monomial": args.monomial,
        "result": pretty_sum(out),
    }
    _emit(payload, args.json, [payload["result"]])
    return 0


def _cmd_rnf(args) -> int:
    s = parse_resource_sum(_read_term_arg(args.term))
    trace = []
    work = deque(s)
    seen = set(s)  # addends queued or stepped: a sum holds each once
    normal = []
    while work:
        t = work.popleft()
        sites = redex_sites(t)
        if not sites:
            normal.append(t)
            continue
        site = sites[0]
        out = r_step(t, site)
        trace.append(
            {
                "addend": pretty_resource(t),
                "site": site_to_str(site),
                "reducts": [pretty_resource(u) for u in out],
            }
        )
        fresh = [u for u in out if u not in seen]
        seen.update(fresh)
        work.extend(fresh)
    payload = {"input": pretty_sum(s), "normal_form": pretty_sum(FiniteSum(normal)), "trace": trace}
    lines = [f"[{e['site']}] {e['addend']} -> {' + '.join(e['reducts']) or '0'}" for e in trace]
    lines.append(f"normal form: {payload['normal_form']}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_stratify(args) -> int:
    target = parse_term(_read_term_arg(args.term))
    if isinstance(target, RationalSystem):
        raise LambdaError("stratify expects a finite term")
    res = stratify(target, args.depth, args.fuel)
    payload = {
        "input": pretty(target),
        "levels": [pretty(t) for t in res.levels],
        "steps": [[position_to_str(p) for p in steps] for steps in res.step_positions],
        "diagnostic": res.diagnostic,
    }
    lines = [f"M{d} = {text}" for d, text in enumerate(payload["levels"])]
    if res.diagnostic:
        lines.append(f"diagnostic: {res.diagnostic}")
    _emit(payload, args.json, lines)
    return 0 if res.diagnostic is None else 2


def _report_out(report, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        line = f"{report.theorem}: {report.verdict}"
        if report.reason:
            line += f" ({report.reason})"
        if report.witness:
            line += f" witness: {report.witness}"
        print(line)
    return report.exit_code


def _cmd_check(args) -> int:
    kind = args.kind
    target = parse_term(_read_term_arg(args.terms[0]))
    if kind == "commutation":
        report = check_commutation(target, args.size, args.fuel)
    elif kind == "head":
        report = check_head_charac(target, args.size, args.fuel)
    elif kind == "norm":
        report = check_norm_charac(target, args.dmax, args.size, args.fuel)
    elif kind == "simulation":
        if isinstance(target, RationalSystem):
            raise LambdaError("simulation expects a finite term")
        steps = [position_from_str(p) for p in (args.steps.split(",") if args.steps else [])]
        report = check_simulation(target, steps, args.size)
    elif kind == "genericity":
        if len(args.terms) < 2:
            raise LambdaError("genericity needs CONTEXT UNSOLVABLE [REPLACEMENT...]")
        hole_filler = parse_term(args.terms[1])
        repl = [parse_term(t) for t in args.terms[2:]]
        if any(isinstance(t, RationalSystem) for t in (target, hole_filler, *repl)):
            raise LambdaError("genericity expects finite terms")
        report = check_genericity(target, hole_filler, repl, args.size, args.fuel, depth=args.dmax)
    elif kind == "equal":
        if len(args.terms) != 2:
            raise LambdaError("equal needs exactly two terms")
        report = terms_equal_via_taylor(target, parse_term(args.terms[1]), args.dmax, args.size)
    else:  # pragma: no cover - argparse restricts choices
        raise LambdaError(f"unknown check {kind!r}")
    return _report_out(report, args.json)


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this command needs it, and `random`
    out = run_selftest(args.seed, fuel=args.fuel, size_bound=args.size)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for r in out["results"]:
            extra = {k: v for k, v in r.items() if k not in ("name", "checked", "failures")}
            print(f"{r['name']}: {r['checked']} checked, {r['failures']} failures {extra or ''}")
        print(f"verdict: {out['verdict']}")
    if out["verdict"] == "fail":
        return 1
    return 2 if out["inconclusive"] else 0


def _add_common(p: argparse.ArgumentParser, *, fuel=True, size=False, depth=False, dmax=False):
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    if fuel:
        p.add_argument("--fuel", type=_non_negative, default=1000, help="head-step budget per node")
    if size:
        p.add_argument("--size", type=_non_negative, default=10, help="approximant size bound")
    if depth:
        p.add_argument("--depth", type=_non_negative, default=None, help="height bound on approximants")
    if dmax:
        p.add_argument("--dmax", type=_non_negative, default=5, help="maximum tested depth")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taylorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a term, context, or system")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("reduce", help="beta-reduce (one position or normal order) with a trace")
    p.add_argument("term")
    p.add_argument("--at", default=None, help="dotted position of one step (e.g. body.arg)")
    p.add_argument("--max-steps", type=_non_negative, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("head", help="head-normalize with cycle detection")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(fn=_cmd_head)

    p = sub.add_parser("bohm", help="depth-bounded Boehm tree")
    p.add_argument("term")
    p.add_argument("--depth", type=_non_negative, default=5)
    p.add_argument("--dot", action="store_true", help="emit graphviz instead of text")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fuel", type=_non_negative, default=1000)
    p.set_defaults(fn=_cmd_bohm)

    p = sub.add_parser("taylor", help="enumerate the approximant slice")
    p.add_argument("term")
    _add_common(p, fuel=False, size=True, depth=True)
    p.set_defaults(fn=_cmd_taylor)

    p = sub.add_parser("nf-taylor", help="normalize the approximant slice")
    p.add_argument("term")
    _add_common(p, fuel=False, size=True, depth=True)
    p.set_defaults(fn=_cmd_nf_taylor)

    p = sub.add_parser("rsubst", help="linear substitution on a resource term")
    p.add_argument("term")
    p.add_argument("var")
    p.add_argument("monomial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rsubst)

    p = sub.add_parser("rnf", help="normalize a resource term or sum, with a trace")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rnf)

    p = sub.add_parser("stratify", help="depth-ordered reduction stages")
    p.add_argument("term")
    p.add_argument("--depth", type=_non_negative, default=3)
    p.add_argument("--fuel", type=_non_negative, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stratify)

    p = sub.add_parser("check", help="run a theorem check")
    p.add_argument("kind", choices=["commutation", "head", "norm", "simulation", "genericity", "equal"])
    p.add_argument("terms", nargs="+")
    p.add_argument("--steps", default="", help="comma-separated positions (simulation)")
    _add_common(p, size=True, dmax=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("selftest", help="run the whole property suite")
    p.add_argument("--seed", type=int, default=42)
    _add_common(p, size=True)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except LambdaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # e.g. RecursionError; a traceback would exit 1, "check failed"
        detail = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

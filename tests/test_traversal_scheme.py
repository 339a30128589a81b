"""No recursive walker in any module of the package outside a short
allowlist: λ-term maps go through ``syntax.rebuild`` and folds iterate
``syntax.subterms``, and the parsers and printers of both calculi loop on
explicit stacks, so they take terms of any depth.

The check reads the modules with ``ast`` and fails when a function can
reach itself through the names it refers to: calls, but also functions
passed on as callbacks. Only the allowlist below may recurse, and it may
only shrink (ROADMAP item 7)."""

import ast
from pathlib import Path

import taylorlab

# recursive function -> why it may recurse
ALLOWED = {
    "is_d_positive": "reads approximants and their normal forms, kept small by a check's size bound",
    # the substitution engines are hot paths: rewriting them waits for both
    # benchmark workloads to be measured (ROADMAP item 7)
    "_rshift": "open_binder's walk, the hot path of rnf-random",
    "_bound_count": "open_binder's walk",
    "_fill_bound": "open_binder's walk",
    "_occurrences": "open_along's memoized walk, the hot path of lifting",
    "_open_run": "open_along's memoized walk",
    "_count_marks": "the walk of r_subst and r_context_fill; a deep rsubst input exits 4",
    "_replace_marks": "the walk of r_subst and r_context_fill",
    "_nf": "r_normalize's structural walk, the hot path of rnf-random",
    # the lifter recurses once per level of a tree target, so a Y g target
    # of height 600 raises RecursionError (ROADMAP items 7 and 10)
    "LiftSession.lift": "the lifter: one sub-lift per monomial element of the target",
    "LiftSession._build": "the lifter, with LiftSession.lift",
    "_anti_subst": "un-substitution's memoized walk over a redex body, the hot path of lifting",
    "_un_substitute": "un-substitution, with _anti_subst",
    "_approx": "the graft check's memoized walk over an element and its redex argument",
    "_holds": "the graft check, with _approx",
    # the rest are bounded by a size or depth bound the caller sets
    "_Enumerator.terms": "the slice enumerator, as deep as the size bound",
    "_Enumerator.monomials": "the slice enumerator, with _Enumerator.terms",
    "_extend": "the multisets of one monomial, as deep as the size bound",
    "_positive_skeleton": "one level per tested depth, at most check norm's --dmax",
    "_push": "one level per component of a simulation step's position",
    "random_lambda_term": "the test generator, as deep as its size bound",
    "random_resource_term": "the test generator, as deep as its size bound",
}
MODULES = sorted(Path(taylorlab.__file__).parent.glob("*.py"))


class _Scope:
    def __init__(self, name, node, parent):
        self.name = name
        self.parent = parent
        self.defs = {}  # nested function name -> qualified name
        self.params = set()
        if node is not None:
            args = node.args
            self.params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            self.params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}


def _is_super(node):
    """``super()``, whose methods live in a base class outside the modules."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super"


def _call_graph(sources):
    """Qualified function name -> qualified names it refers to, over the
    modules in ``sources`` taken as one. A bare name resolves through the
    enclosing functions to a module-level function; ``x.name`` resolves to
    every method called ``name``, unless ``x`` is ``super()``."""
    trees = [ast.parse(source) for source in sources]
    module = _Scope("", None, None)
    methods = {}
    bodies = {}

    def collect(node, scope, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, scope, f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{scope.name + '.' if scope.name else ''}{prefix}{child.name}"
                if prefix:
                    methods.setdefault(child.name, set()).add(qual)
                else:
                    scope.defs[child.name] = qual
                inner = _Scope(qual, child, scope)
                bodies[qual] = (child, inner)
                collect(child, inner, "")
            else:
                collect(child, scope, prefix)

    for tree in trees:
        collect(tree, module, "")

    def resolve(name, scope):
        while scope is not None:
            if name in scope.defs:
                return {scope.defs[name]}
            if name in scope.params:
                return set()
            scope = scope.parent
        return set()

    graph = {}
    for qual, (node, scope) in bodies.items():
        refs = set()
        todo = list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested function is a node of its own
            if isinstance(child, ast.Name):
                refs |= resolve(child.id, scope)
            elif isinstance(child, ast.Attribute) and not _is_super(child.value):
                refs |= methods.get(child.attr, set())
            todo.extend(ast.iter_child_nodes(child))
        graph[qual] = refs
    return graph


def _recursive(graph):
    out = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen:
                seen.add(f)
                todo.extend(graph.get(f, ()))
    return out


def test_no_recursive_walkers():
    recursive = _recursive(_call_graph([m.read_text() for m in MODULES]))
    assert recursive <= set(ALLOWED)
    # the allowlist is not stale
    assert recursive == set(ALLOWED)


def test_the_check_sees_recursion_through_a_callback():
    source = '''
def rebuild(t, visit):
    return visit(t)

def unfold(t):
    def cut(u):
        return unfold(u)
    return rebuild(t, cut)

def shift(t, visit):
    def visit(u):
        return u.shift()
    return rebuild(t, visit)

class Node:
    def shift(self):
        return self
'''
    assert _recursive(_call_graph([source])) == {"unfold", "unfold.cut"}

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
    # the substitution engines are hot paths: rewriting them waits for both
    # benchmark workloads to be measured (ROADMAP item 7)
    "_rshift": "open_binder's walk, the hot path of rnf-random",
    "_bound_count": "open_binder's walk",
    "_fill_bound": "open_binder's walk",
    "_occurrences": "open_along's memoized walk, the hot path of lifting",
    "_open_run": "open_along's memoized walk",
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


def _data_attributes(cls):
    """The names that instances of the class ``cls`` hold as data: its
    ``__slots__`` entries, its class-level annotated fields and the targets
    of ``self.name = ...`` in its methods."""
    out = set()
    for member in cls.body:
        if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
            out.add(member.target.id)
        elif isinstance(member, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in member.targets
        ):
            out |= set(ast.literal_eval(member.value))
        elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and member.args.args:
            me = member.args.args[0].arg
            out |= {
                u.attr
                for u in ast.walk(member)
                if isinstance(u, ast.Attribute) and isinstance(u.ctx, ast.Store)
                and isinstance(u.value, ast.Name) and u.value.id == me
            }
    return out


def _call_graph(sources):
    """Qualified function name -> qualified names it refers to, over the
    modules in ``sources`` taken as one. A bare name resolves through the
    enclosing functions to a module-level function; ``x.name`` resolves to
    every method called ``name``, unless ``x`` is ``super()``, or ``x`` is
    the first parameter of a method of a class that holds ``name`` as data
    (``_data_attributes``)."""
    trees = [ast.parse(source) for source in sources]
    module = _Scope("", None, None)
    methods = {}
    bodies = {}

    def collect(node, scope, prefix, data=frozenset()):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, scope, f"{child.name}.", _data_attributes(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{scope.name + '.' if scope.name else ''}{prefix}{child.name}"
                me = None
                if prefix:
                    methods.setdefault(child.name, set()).add(qual)
                    me = child.args.args[0].arg if child.args.args else None
                else:
                    scope.defs[child.name] = qual
                inner = _Scope(qual, child, scope)
                bodies[qual] = (child, inner, me, data)
                collect(child, inner, "")
            else:
                collect(child, scope, prefix, data)

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
    for qual, (node, scope, me, data) in bodies.items():
        refs = set()
        todo = list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested function is a node of its own
            if isinstance(child, ast.Name):
                refs |= resolve(child.id, scope)
            elif isinstance(child, ast.Attribute) and not _is_super(child.value):
                own = isinstance(child.value, ast.Name) and child.value.id == me
                if not (own and child.attr in data):
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


def test_a_read_of_own_data_refers_to_no_method():
    source = '''
class Tokens:
    def __init__(self):
        self.scope = {}
    def binders(self):
        return self.scope

class HeadForm(NamedTuple):
    binders: tuple
    def scope(self):
        return self.binders

class Slotted:
    __slots__ = ("binders",)
    def scope(self):
        return self.binders

class Method:
    def binders(self):
        return self.scope()
'''
    # a read of its own data attribute names no method; a read of a name
    # that the class does not hold as data names every method so called
    graph = _call_graph([source])
    assert graph["Tokens.binders"] == graph["HeadForm.scope"] == graph["Slotted.scope"] == set()
    assert graph["Method.binders"] == {"HeadForm.scope", "Slotted.scope"}
    assert _recursive(graph) == set()

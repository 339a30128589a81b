"""Every public module-level function of ``taylorlab`` has a caller in the
package, every public method, property, ``NamedTuple`` field and
``__slots__`` entry a reader, and the package root binds no public name:
each name is imported from its own module.

A public function or member that only tests call belongs in ``tests/``. The
check reads the modules with ``ast``, so a name in a docstring or a comment
is not a caller, and neither is an import or a function's mention of itself.
A member is read by any ``x.name`` in the package; dunders and overrides of
a base class outside the package are exempt."""

import ast
import importlib
import runpy
from pathlib import Path
from types import FunctionType

import taylorlab

PACKAGE = Path(taylorlab.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# public function -> why it stays without a caller in the package
ALLOWED = {
    "bot_step": "the calculus's bottom rule, listed in README beside the beta and head steps",
}


def _public_functions():
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                out.add(node.name)
    return out


def _names_read(node, skip=None):
    """Bare names only: an attribute such as ``hf.is_head_normal`` is not a
    call of a module function that happens to share its name."""
    out = {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}
    out.discard(skip)
    return out


def _referenced():
    out = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            out |= _names_read(node, own)
    return out


def _attributes_read(node):
    """The ``x.name`` reads under ``node``; a function's reads of its own
    name, such as a method's recursive call, do not count."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            out.add(child.attr)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _attributes_read(child) - {child.name}
        else:
            out |= _attributes_read(child)
    return out


def _member_names(node):
    """The names a class body defines as methods and properties, as fields
    of a ``NamedTuple`` and as ``__slots__`` entries."""
    named_tuple = any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)
    for member in node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield member.name
        elif named_tuple and isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
            yield member.target.id
        elif isinstance(member, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in member.targets
        ):
            yield from ast.literal_eval(member.value)


def _public_members():
    """``Class.member`` for each public method, property, field and slot
    that does not override a member of a base class outside the package."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"taylorlab.{path.stem}"), node.name)
            outside = [base for base in cls.__mro__[1:] if not base.__module__.startswith("taylorlab.")]
            for name in _member_names(node):
                if not name.startswith("_") and not any(hasattr(base, name) for base in outside):
                    out.add(f"{node.name}.{name}")
    return out


def _root_names(source):
    """The public names that a module's source binds at its top level."""
    out = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        else:
            todo += ast.iter_child_nodes(node)
    return {name for name in out if not name.startswith("_")}


def test_every_public_function_has_a_caller_in_the_package():
    uncalled = _public_functions() - _referenced()
    assert sorted(uncalled) == sorted(ALLOWED)


def test_every_public_member_has_a_reader_in_the_package():
    read = set()
    for path in PACKAGE.glob("*.py"):
        read |= _attributes_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(m for m in _public_members() if m.split(".")[1] not in read) == []


def test_the_package_root_binds_no_public_name():
    assert _root_names((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == set()


def test_the_check_ignores_docstrings_and_self_calls():
    tree = ast.parse('def f(n):\n    """calls g"""\n    return f(n - 1)\n')
    assert _names_read(tree.body[0], "f") == {"n"}
    tree = ast.parse("class C:\n    def walk(self, n):\n        self.size = n\n        return self.walk(n.prev)\n")
    assert _attributes_read(tree) == {"prev"}


def test_the_member_check_sees_fields_and_slots():
    source = "class R(NamedTuple):\n    kind: str\n    _hidden: int = 0\n    def f(self):\n        pass\n"
    source += "class S:\n    __slots__ = ('a', '_b')\n    x: int = 0\n"
    assert [list(_member_names(node)) for node in ast.parse(source).body] == [["kind", "_hidden", "f"], ["a", "_b"]]


def test_the_root_check_sees_imports_and_assignments():
    source = "from .syntax import Term as T, parse_term\nimport os.path\n__version__ = '0'\nx, _y = 1, 2\n"
    source += "def f():\n    local = 1\n"
    assert _root_names(source) == {"T", "parse_term", "os", "x", "f"}


def test_every_traced_name_is_a_function_of_its_module():
    """The benchmark's tracer wraps each ``(module, function)`` of its
    ``TARGETS``, where that module defines it. A rename or a deletion fails
    here, not only in a traced benchmark run. The tracer's module is only
    read."""
    for mod, name, _ in runpy.run_path(str(SPANS))["TARGETS"]:
        fn = getattr(importlib.import_module(f"taylorlab.{mod}"), name, None)
        assert isinstance(fn, FunctionType) and fn.__module__ == f"taylorlab.{mod}", f"{mod}.{name}"

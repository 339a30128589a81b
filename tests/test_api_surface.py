"""Every public module-level function of ``taylorlab`` has a caller in the
package.

A public function that only tests call belongs in ``tests/``. The check
reads the modules with ``ast``, so a name in a docstring or a comment is not
a caller, and neither is an import or a function's mention of itself.
Classes and their methods are exempt."""

import ast
from pathlib import Path

import taylorlab

PACKAGE = Path(taylorlab.__file__).parent

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


def test_every_public_function_has_a_caller_in_the_package():
    uncalled = _public_functions() - _referenced()
    assert sorted(uncalled) == sorted(ALLOWED)


def test_the_check_ignores_docstrings_and_self_calls():
    tree = ast.parse('def f(n):\n    """calls g"""\n    return f(n - 1)\n')
    assert _names_read(tree.body[0], "f") == {"n"}

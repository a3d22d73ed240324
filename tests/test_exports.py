"""The package exports only what the library, its CLI or the benchmark use.

A name exported from formlab/__init__.py must be referenced by some other
module of src/formlab/ or by perfbench/: by a name, an attribute or an
import in code, or, in perfbench/, by a string such as the tracer's
"DirichletForm.solve" boundaries.  A definition is not a reference, and a
test is not a caller, so a helper that only tests call belongs in tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formlab"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(path, strings):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.update(node.value.split("."))
    return names


def test_every_export_has_a_caller_outside_tests():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _references(path, strings=True)
    assert sorted(_exported() - used) == []

"""The library has one path engine: only markov._lockstep draws holds.

Every path that src/formlab samples takes its exponential holding times in
markov._lockstep, so a second sampler would have to draw them too.  A
reference to standard_exponential anywhere else in the package, called or
bound to a name, fails this test.  The scalar per-path sampler is a test
oracle (tests/oracles.py), not library code.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "formlab"
DRAW = "standard_exponential"


def _draws(path):
    """(module, qualified scope) of each reference to DRAW in one module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == DRAW
                    or isinstance(child, ast.Name) and child.id == DRAW
                    or isinstance(child, ast.Constant) and child.value == DRAW):
                found.add((path.stem, scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_lockstep_draws_holding_times():
    draws = set()
    for path in sorted(PACKAGE.glob("*.py")):
        draws |= _draws(path)
    assert draws == {("markov", "_lockstep")}


"""Only one function under src/logahoric takes an lcm of denominators.

Clearing rationals to integers over a common denominator is one step,
`linalgq.integer_form`; every other module calls it rather than taking an
lcm of its own.  A stdlib `ast` scan of every module under src/logahoric
lists the functions that call `lcm`, as an attribute (`math.lcm`) or as a
bare name (`from math import lcm`).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logahoric"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def lcm_callers(source: str) -> list:
    """(innermost enclosing function, line) of each lcm call; "<module>"
    for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr == "lcm") or (
                    isinstance(f, ast.Name) and f.id == "lcm"
                ):
                    found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_names_the_calling_function():
    source = (
        "import math\n"
        "def f(xs):\n"
        "    return math.lcm(*xs)\n"
        "from math import lcm\n"
        "def g():\n"
        "    def h():\n"
        "        return [lcm(2, 3) for _ in range(2)]\n"
        "    return h\n"
        "K = math.lcm(1, 2)\n"
    )
    assert lcm_callers(source) == [("f", 3), ("h", 7), ("<module>", 9)]


def test_lcm_only_in_the_clearing_step():
    callers = [
        (module, owner)
        for module in MODULES
        for owner, _ in lcm_callers((PACKAGE / module).read_text())
    ]
    assert callers == [("linalgq.py", "integer_form")]

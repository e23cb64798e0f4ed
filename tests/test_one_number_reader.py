"""Only one function under src/logahoric reads a number.

Reading a rational from user data is one step, `linalgq.rational`; the
CLI's `_rat` and `_int`, `linalgq.rationals`, `linalgq.integer` and every
entry point call it rather than converting with a try/except of their own.
Reading a string "p/0" is the one conversion that raises ZeroDivisionError,
so a stdlib `ast` scan of every module under src/logahoric lists the
functions with an `except` clause that names it, alone or in a tuple, as a
bare name or as an attribute (`builtins.ZeroDivisionError`).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logahoric"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def names_zero_division(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    nodes = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        (isinstance(n, ast.Name) and n.id == "ZeroDivisionError")
        or (isinstance(n, ast.Attribute) and n.attr == "ZeroDivisionError")
        for n in nodes
    )


def zero_division_catchers(source: str) -> list:
    """(innermost enclosing function, line) of each except clause naming
    ZeroDivisionError; "<module>" for one outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type and names_zero_division(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_names_the_catching_function():
    source = (
        "import builtins\n"
        "def f(v):\n"
        "    try:\n"
        "        return 1 / v\n"
        "    except (ValueError, ZeroDivisionError):\n"
        "        return None\n"
        "def g(v):\n"
        "    def h():\n"
        "        try:\n"
        "            return 1 / v\n"
        "        except builtins.ZeroDivisionError:\n"
        "            return 0\n"
        "    try:\n"
        "        return h()\n"
        "    except ValueError:\n"
        "        return 1\n"
        "    except:\n"
        "        return 2\n"
        "try:\n"
        "    K = 1 / 0\n"
        "except ZeroDivisionError:\n"
        "    K = 0\n"
    )
    assert zero_division_catchers(source) == [("f", 5), ("h", 11), ("<module>", 21)]


def test_numbers_are_read_only_by_the_one_reader():
    catchers = [
        (module, owner)
        for module in MODULES
        for owner, _ in zero_division_catchers((PACKAGE / module).read_text(encoding="utf-8"))
    ]
    assert catchers == [("linalgq.py", "rational")]

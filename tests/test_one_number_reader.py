"""Only one function under src/logahoric reads a number.

Reading a rational from user data is one step, `linalgq.rational`; the
CLI's `_rat` and `_int`, `linalgq.rationals`, `linalgq.integer`,
`linalgq.integer_form` and every entry point call it rather than converting
with a try/except of their own or with a bare `Fraction(value)`, which
takes a float at its binary value and a bool as 0 or 1.  Two stdlib `ast`
scans of every module under src/logahoric check it.  Reading a string "p/0"
is the one conversion that raises ZeroDivisionError, so one lists the
functions with an `except` clause that names it, alone or in a tuple, as a
bare name or as an attribute (`builtins.ZeroDivisionError`).  The other
lists the functions that call `Fraction` (or `fractions.Fraction`) with one
argument that is not a literal.
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


def reads_a_fraction(node) -> bool:
    """Whether node is a call Fraction(arg), bare or as an attribute, with
    one argument (starred or keyword too) that ast.literal_eval does not read."""
    if not isinstance(node, ast.Call):
        return False
    f, args = node.func, node.args + [k.value for k in node.keywords]
    if len(args) != 1 or not ((isinstance(f, ast.Name) and f.id == "Fraction")
                              or (isinstance(f, ast.Attribute) and f.attr == "Fraction")):
        return False
    try:
        ast.literal_eval(args[0])
    except ValueError:
        return True
    return False


def find(source: str, hit) -> list:
    """(innermost enclosing function, line) of each node of source for which
    hit is true; "<module>" for one outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def zero_division_catchers(source: str) -> list:
    """(innermost enclosing function, line) of each except clause naming
    ZeroDivisionError; "<module>" for one outside any function."""
    return find(source, lambda node: isinstance(node, ast.ExceptHandler) and node.type
                and names_zero_division(node))


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


def test_fraction_scan_names_the_calling_function():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "def f(v, pair):\n"
        "    a = Fraction(0) + Fraction(-1) + Fraction('1/2') + Fraction(v, 2)\n"
        "    return Fraction(v) + Fraction(*pair)\n"
        "def g(v):\n"
        "    def h():\n"
        "        return fractions.Fraction(v)\n"
        "    return h() + Fraction(numerator=v)\n"
        "K = Fraction(len('ab'))\n"
    )
    assert find(source, reads_a_fraction) == [
        ("f", 5), ("f", 5), ("h", 8), ("g", 9), ("<module>", 10)]


def test_no_bare_fraction_reads_a_value():
    readers = {
        (module, owner)
        for module in MODULES
        for owner, _ in find((PACKAGE / module).read_text(encoding="utf-8"), reads_a_fraction)
    }
    assert readers == {("linalgq.py", "rational")}

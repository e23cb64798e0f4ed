"""Only one function in src/logahoric/poisson.py reads a point's weight.

The stalk, the Levi block and the leaf classes at a point are all read off
the diagonal of its weight, a cocharacter theta, which
`poisson._weight_diagonal` alone computes, with the one check for a weight
that is not a cocharacter of the site's realization.  A stdlib `ast` scan
of poisson.py lists the functions that call `cocharacter_to_diagonal` or
subscript a `.data` or `.theta_data` attribute (as in `xi.data[j]`).
"""

import ast
from pathlib import Path

POISSON = Path(__file__).resolve().parent.parent / "src" / "logahoric" / "poisson.py"
WEIGHT_ATTRS = ("data", "theta_data")


def weight_readers(source: str) -> list:
    """(innermost enclosing function, line) of each call to
    cocharacter_to_diagonal, as a bare name or an attribute, and of each
    subscript of a .data or .theta_data attribute; "<module>" outside any
    function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr == "cocharacter_to_diagonal") or (
                    isinstance(f, ast.Name) and f.id == "cocharacter_to_diagonal"
                ):
                    found.append((owner, child.lineno))
            if (
                isinstance(child, ast.Subscript)
                and isinstance(child.value, ast.Attribute)
                and child.value.attr in WEIGHT_ATTRS
            ):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_names_the_reading_function():
    source = (
        "from .rootsys import cocharacter_to_diagonal\n"
        "from . import rootsys\n"
        "def f(xi, j):\n"
        "    return xi.data[j]\n"
        "def g(f):\n"
        "    def h(j):\n"
        "        return [f.theta_data[j] for _ in range(2)]\n"
        "    return h\n"
        "def k(rs, theta, data, j):\n"
        "    data[j], rs.other[j]\n"
        "    return rootsys.cocharacter_to_diagonal(theta)\n"
        "T = cocharacter_to_diagonal(None)\n"
    )
    assert weight_readers(source) == [("f", 4), ("h", 7), ("k", 11), ("<module>", 12)]


def test_weight_data_read_in_one_place():
    owners = {owner for owner, _ in weight_readers(POISSON.read_text())}
    assert owners == {"_weight_diagonal"}

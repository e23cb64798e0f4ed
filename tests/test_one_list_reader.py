"""Only the config readers in cli.py test a value for being a list.

Every JSON list in a config goes through `cli._list`, which refuses a
non-list with the list's own location and reads each item at `where[i]`;
`_pair` and `_matrix` read the fixed-length lists.  A stdlib `ast` scan of
cli.py lists the functions that call `isinstance(..., list)`.  A tuple of
types is not matched: the report emitter `_chunks` walks output values with
`isinstance(value, (dict, list, tuple))` and reads no config.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "logahoric" / "cli.py"


def list_checkers(source: str) -> list:
    """(innermost enclosing function, line) of each isinstance(..., list)
    call; "<module>" for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and isinstance(child.args[1], ast.Name)
                and child.args[1].id == "list"
            ):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_names_the_checking_function():
    source = (
        "def f(v):\n"
        "    return isinstance(v, list)\n"
        "def g(v):\n"
        "    def h(w):\n"
        "        return [isinstance(w, list) for _ in v]\n"
        "    return isinstance(v, dict) or isinstance(v, (dict, list))\n"
        "OK = isinstance([], list)\n"
    )
    assert list_checkers(source) == [("f", 2), ("h", 5), ("<module>", 7)]


def test_list_checks_only_in_the_readers():
    owners = {owner for owner, _ in list_checkers(CLI.read_text())}
    assert owners == {"_list", "_pair", "_matrix"}

"""No package module uses a bare `assert` statement.

`python -O` strips asserts, so a guarantee checked by one would silently go
unchecked; the package raises its own errors instead.  A stdlib `ast` scan
of every module under src/logahoric.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logahoric"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_scan_flags_an_assert():
    source = "def f(x):\n    assert x > 0\n    return x\n"
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    assert assert_lines((PACKAGE / module).read_text()) == []

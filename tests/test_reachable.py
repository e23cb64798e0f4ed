"""Every module-level def, class and constant of the package is reached.

A stdlib `ast` scan.  A name defined at the top level of a module under
src/logahoric is reached when something other than its own definition
names it: another top-level statement of the package, a demo, the
benchmark, the acceptance gate (tests/test_acceptance.py), or the README of
the repo or of the benchmark.  A Python file names x by a loaded name or an
attribute x, an imported name x, or a string literal "x" (the benchmark
looks layers up by string); a Markdown file by the word x.  A name that
only the unit tests reach belongs in tests/support.py, not in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logahoric"
OTHERS = [
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
TEXTS = [ROOT / "README.md", ROOT / "bench" / "README.md"]


def definitions(stmt: ast.stmt) -> list:
    """The names a top-level statement defines: a def, a class, or the plain
    names an assignment binds (dunders such as __version__ left out)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def references(node: ast.AST) -> set:
    """The names node refers to: loaded names, attributes, imported names
    and string literals that are identifiers."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreached(package: dict, others: list, texts: list) -> list:
    """(module, name) for each top-level definition in package, a dict of
    module name -> source, that no other top-level statement of package, no
    source in others and no word of the texts refers to."""
    seen = set().union(*(references(ast.parse(source)) for source in others))
    for text in texts:
        seen.update(re.findall(r"\w+", text))
    statements = [
        (module, stmt) for module, source in package.items() for stmt in ast.parse(source).body
    ]
    refs = [references(stmt) for _, stmt in statements]
    out = []
    for i, (module, stmt) in enumerate(statements):
        for name in definitions(stmt):
            if name not in seen and not any(name in r for k, r in enumerate(refs) if k != i):
                out.append((module, name))
    return out


def test_scan_flags_an_unreached_name():
    package = {
        "a.py": (
            "LIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "class Documented:\n    pass\n\ndef looked_up():\n    pass\n"
        ),
        "b.py": "from .a import used\n\n__version__ = '1'\n",
    }
    others = ["import a\nfn = getattr(a, 'looked_up')\n"]
    texts = ["`Documented` is described here."]
    assert unreached(package, others, texts) == [("a.py", "recursive")]
    assert unreached(package, [], []) == [
        ("a.py", "recursive"),
        ("a.py", "Documented"),
        ("a.py", "looked_up"),
    ]


def test_every_package_name_is_reached():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for p in OTHERS]
    texts = [p.read_text() for p in TEXTS]
    assert unreached(package, others, texts) == []

"""Every module-level def, class and constant of the package is reached,
and so is every class member whose name is its own.

A stdlib `ast` scan.  A name defined at the top level of a module under
src/logahoric is reached when something other than its own definition
names it: another top-level statement of the package, a demo, the
benchmark, the acceptance gate (tests/test_acceptance.py), or the README of
the repo or of the benchmark.  A Python file names x by a loaded name or an
attribute x, an imported name x, or a string literal "x" (the benchmark
looks layers up by string); a Markdown file by the word x.  A name that
only the unit tests reach belongs in tests/support.py, not in the package.

A method or property of a package class is reached when the same sources
name it anywhere outside its own body, other members of its class
included.  Only members whose name no other package class defines are
scanned: a name alone cannot tell which class an attribute such as
`is_zero` or `site_count` is read from, so a member sharing its name with
another class's is counted as reached by every use of that name.  Dunder
methods are left out, since syntax (`*`, `+`) reaches them, not a name.
"""

import ast
import re
from collections import Counter
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


def references(node: ast.AST) -> Counter:
    """The names node refers to, each with the number of times: loaded
    names, attributes, imported names and string literals that are
    identifiers."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def members(stmt: ast.stmt) -> list:
    """The methods and properties a top-level class statement defines,
    dunders left out."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        node
        for node in stmt.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreached(package: dict, others: list, texts: list) -> list:
    """(module, name) for each top-level definition in package, a dict of
    module name -> source, that no other top-level statement of package, no
    source in others and no word of the texts refers to; then
    (module, "Class.member") for each class member of its own name that
    nothing outside its body refers to."""
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
    owners = Counter(name for _, stmt in statements for name in {m.name for m in members(stmt)})
    everywhere = sum(refs, Counter())
    for module, stmt in statements:
        for member in members(stmt):
            name = member.name
            if owners[name] == 1 and name not in seen and everywhere[name] == references(member)[name]:
                out.append((module, f"{stmt.name}.{name}"))
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


def test_scan_flags_an_unreached_member():
    package = {
        "a.py": (
            "class Point:\n"
            "    def norm(self):\n        return self.norm() + self.scale\n\n"
            "    @property\n    def scale(self):\n        return 1\n\n"
            "    def shown(self):\n        return 0\n\n"
            "    def size(self):\n        return 0\n\n"
            "    def __add__(self, other):\n        return self\n\n"
            "class Line:\n"
            "    def size(self):\n        return 0\n\n"
            "    def called(self):\n        return 0\n\n"
            "    def dead(self):\n        return 0\n"
        ),
        "b.py": "from .a import Point, Line\n\ndef use(x):\n    return x.called()\n",
    }
    others = ["use(None)\n"]
    texts = ["`Point.shown` is described here."]
    # norm names itself only; size is shared by two classes, so not scanned.
    assert unreached(package, others, texts) == [("a.py", "Point.norm"), ("a.py", "Line.dead")]
    assert unreached(package, [], []) == [
        ("b.py", "use"),
        ("a.py", "Point.norm"),
        ("a.py", "Point.shown"),
        ("a.py", "Line.dead"),
    ]


def test_every_package_name_is_reached():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for p in OTHERS]
    texts = [p.read_text() for p in TEXTS]
    assert unreached(package, others, texts) == []

"""The package's modules form one-way layers, and only cli writes reports.

A stdlib `ast` scan of src/logahoric checks three things:

- the graph of imports between the package's own modules, counting an
  import wherever it sits, is acyclic (today linalgq, rootsys, polyq,
  parahoric, poisson, higgs, cli, each importing only from earlier ones
  and errors);
- every import is a top-level statement of its module, so none is hidden
  in a function or under a condition;
- no module defines `to_json_dict`: the report dicts are built in cli.py,
  from the library's result objects.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logahoric"


def package_imports(source: str, package: str = "logahoric") -> set:
    """The package modules a module imports, at any depth: `from . import a`
    names a, `from .a import x` and `from package.a import x` name a, and
    `import package.a` names a."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                out.update(alias.name for alias in node.names)
            elif node.level == 1:
                out.add(node.module.split(".")[0])
            elif node.module and node.module.startswith(package + "."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith(package + ".")
            )
    return out


def find_cycle(graph: dict) -> list:
    """One cycle [a, b, ..., a] of the directed graph (module -> set of
    modules it imports), or [] when there is none."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return []


def nested_imports(source: str) -> list:
    """Line numbers of the imports that are not top-level statements."""
    tree = ast.parse(source)
    top = {id(stmt) for stmt in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def report_writers(source: str) -> list:
    """Line numbers of the functions named to_json_dict, at any depth."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "to_json_dict"
    ]


def modules() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_scan_flags_a_cycle_a_nested_import_and_a_report_writer():
    sources = {
        "a": "from . import b\nfrom .errors import E\n",
        "b": (
            "import json\n\n"
            "def f():\n"
            "    from . import c\n"
            "    return c\n\n"
            "class R:\n"
            "    def to_json_dict(self):\n"
            "        return {}\n"
        ),
        "c": "from logahoric.a import x\nimport logahoric.errors\n",
        "errors": "",
    }
    graph = {name: package_imports(src) for name, src in sources.items()}
    assert graph == {"a": {"b", "errors"}, "b": {"c"}, "c": {"a", "errors"}, "errors": set()}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert nested_imports(sources["b"]) == [4]
    assert report_writers(sources["b"]) == [8]
    assert nested_imports(sources["a"]) == report_writers(sources["a"]) == []


def test_package_imports_are_acyclic():
    graph = {name: package_imports(src) for name, src in modules().items()}
    assert graph["poisson"].isdisjoint({"higgs", "cli"})
    assert find_cycle(graph) == []


def test_every_import_is_top_level():
    assert {name: nested_imports(src) for name, src in modules().items()} == {
        name: [] for name in modules()
    }


def test_only_cli_builds_report_dicts():
    assert {name: report_writers(src) for name, src in modules().items()} == {
        name: [] for name in modules()
    }


def identifiers(source: str) -> set:
    """Every name a module spells in code: bare names, attribute names and
    the names it imports (docstrings and comments do not count)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def test_weights_are_cocharacters_outside_parahoric():
    """A point's weight is its cocharacter theta: ParahoricDatum, the
    derived data of parahoric.analyze_weight, is named in no module but
    parahoric.py, and poisson and higgs import nothing from parahoric."""
    assert identifiers("from .a import D\nx: D = m.D\nD()\n'''D'''\n") == {"D", "x", "m"}
    sources = modules()
    assert [
        name
        for name, src in sources.items()
        if name != "parahoric" and "ParahoricDatum" in identifiers(src)
    ] == []
    assert "parahoric" not in package_imports(sources["poisson"])
    assert "parahoric" not in package_imports(sources["higgs"])

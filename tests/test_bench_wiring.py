"""Every library name the benchmark reaches exists.

`bench/run.py --trace 1` wraps functions by name: the (module, attribute)
pairs of its LAYERS tuple, plus the literal `tracer.install(_lib(module),
attribute, ...)` calls.  Set-up and the runner also reach library names
directly, as chained `_lib(module).attribute` accesses (set-up builds
`_lib("poisson").full_site(n)`).  A stdlib `ast` scan reads all of these
names without importing the benchmark, and each must name an attribute of
`logahoric.<module>`.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _lib_module(node):
    """The module name of a literal `_lib("<module>")` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_lib"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    return None


def traced_names(source: str) -> list:
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            names.extend(tuple(pair) for pair in ast.literal_eval(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "install"
            and len(node.args) >= 2
            and _lib_module(node.args[0])
            and isinstance(node.args[1], ast.Constant)
        ):
            names.append((_lib_module(node.args[0]), node.args[1].value))
        elif isinstance(node, ast.Attribute) and _lib_module(node.value):
            names.append((_lib_module(node.value), node.attr))
    return names


def test_scan_reads_layers_and_literal_installs():
    source = (
        'LAYERS = (("polyq", "evaluate"), ("cli", "run"))\n'
        'tracer.install(_lib("linalgq"), "char_coeffs", name)\n'
        "tracer.install(_lib(module), attr, name)\n"
        'cli = _lib("cli")\n'
        'site = _lib("poisson").full_site(n)\n'
    )
    assert traced_names(source) == [
        ("polyq", "evaluate"),
        ("cli", "run"),
        ("linalgq", "char_coeffs"),
        ("poisson", "full_site"),
    ]


def test_traced_functions_exist():
    names = traced_names(RUN.read_text(encoding="utf-8"))
    assert ("linalgq", "char_coeffs") in names
    assert ("poisson", "full_site") in names
    assert len(names) > 10
    missing = [
        f"logahoric.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"logahoric.{module}"), attr)
    ]
    assert missing == []

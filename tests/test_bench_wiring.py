"""Every library function the benchmark traces exists.

`bench/run.py --trace 1` wraps functions by name: the (module, attribute)
pairs of its LAYERS tuple, plus the literal `tracer.install(_lib(module),
attribute, ...)` calls.  A stdlib `ast` scan reads those names without
importing the benchmark, and each must name an attribute of
`logahoric.<module>`.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


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
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "_lib"
            and all(isinstance(a, ast.Constant) for a in node.args[0].args + node.args[1:2])
        ):
            names.append((node.args[0].args[0].value, node.args[1].value))
    return names


def test_scan_reads_layers_and_literal_installs():
    source = (
        'LAYERS = (("polyq", "evaluate"), ("cli", "run"))\n'
        'tracer.install(_lib("linalgq"), "char_coeffs", name)\n'
        "tracer.install(_lib(module), attr, name)\n"
    )
    assert traced_names(source) == [
        ("polyq", "evaluate"),
        ("cli", "run"),
        ("linalgq", "char_coeffs"),
    ]


def test_traced_functions_exist():
    names = traced_names(RUN.read_text(encoding="utf-8"))
    assert ("linalgq", "char_coeffs") in names
    assert len(names) > 10
    missing = [
        f"logahoric.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"logahoric.{module}"), attr)
    ]
    assert missing == []

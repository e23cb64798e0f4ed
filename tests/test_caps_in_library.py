"""Every cap lives in the library function it guards.

A cap is a module constant named *_MAX_*, read by the function whose cost
it bounds, which refuses larger input with ShapeError before any work; the
CLI only turns that refusal into a report.  A stdlib `ast` scan of the
package checks the layout: cli.py defines no cap and raises only
ConfigError, and each cap is read in the module that defines it.  The
refusals are then called on the library functions themselves, and the
number each message reports is pinned.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from logahoric import higgs, linalgq, parahoric, poisson
from logahoric.errors import ShapeError
from logahoric.rootsys import GroupTag

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logahoric"
CAP = re.compile(r"[A-Z0-9_]*_MAX_[A-Z0-9_]*")


def caps_defined(source: str) -> list:
    """The *_MAX_* names bound at the top level of a module."""
    return [
        t.id
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.Assign)
        for t in stmt.targets
        if isinstance(t, ast.Name) and CAP.fullmatch(t.id)
    ]


def names_read(source: str) -> set:
    """The plain names a module loads."""
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def raised(source: str) -> set:
    """The exception names of every `raise X` and `raise X(...)`; a bare
    re-raise names nothing."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    return out


def test_scan_reads_caps_reads_and_raises():
    source = (
        "A_MAX_B = 3\n"
        "MAX = 4\n"
        "OTHER_MAX_C, D = 1, 2\n"
        "def f(x):\n"
        "    if x > A_MAX_B:\n"
        "        raise ShapeError('big')\n"
        "    try:\n"
        "        g()\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise errors.ConfigError\n"
    )
    assert caps_defined(source) == ["A_MAX_B"]
    assert {"A_MAX_B", "g"} <= names_read(source)
    assert "MAX" not in names_read(source)
    assert raised(source) == {"ShapeError", "errors.ConfigError"}


def test_cli_holds_no_cap_and_raises_only_config_errors():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert caps_defined(source) == []
    assert raised(source) == {"ConfigError"}


def test_every_cap_is_read_where_it_is_defined():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for cap in caps_defined(source):
            found[cap] = path.stem
            assert cap in names_read(source), f"{path.stem}.{cap} is never read"
    assert found == {
        "RANK2_MAX_FLAGS": "parahoric",
        "RANK2_MAX_GAP": "parahoric",
        "SPECTRAL_MAX_DEGREE": "higgs",
        "GAUDIN_INVOLUTION_MAX_SIZE": "higgs",
        "HITCHIN_INVOLUTION_MAX_POINTS": "poisson",
        "LEAF_MAX_FALLBACK_BLOCK": "poisson",
    }


def test_cap_refusals_report_their_numbers():
    """Each refusal names the size it saw: |a1 - a2| (not |a1 + a2|), the
    flag count, the point count or matrix size, and the n*s or degree
    bound; a Gaudin shape with n*s at the bound is accepted."""
    with pytest.raises(ShapeError, match=r"at most 32, got 34$"):
        parahoric.rank2_semistability((-3, 31), [(1, 1)], [(0, 0)])
    flags = [(1, i + 1) for i in range(11)]
    with pytest.raises(ShapeError, match=r"at most 10 flags, got 11$"):
        parahoric.rank2_semistability((1, 0), flags, [(Fraction(1, 2), 0)] * 11)
    with pytest.raises(ShapeError, match=r"at most 4 points for n = 3, got 5$"):
        poisson.hitchin_coefficient_hamiltonians(range(5), 3, "SL")
    with pytest.raises(ShapeError, match=r"n = 2\.\.3, got 4$"):
        poisson.hitchin_coefficient_hamiltonians(range(3), 4, "SL")

    def zero_field(n, s):
        return higgs.build_field(range(s), [linalgq.zeros(n)] * s, GroupTag("A", n - 1, "SL"))

    with pytest.raises(ShapeError, match=r"at most 80; n = 9 with 9 points gives 81$"):
        higgs.gaudin_hamiltonians(zero_field(9, 9))
    for n, s in ((8, 10), (10, 8)):  # n*s = 80 exactly is accepted
        alg, hams = higgs.gaudin_hamiltonians(zero_field(n, s))
        assert (alg.matrix_size, alg.site_count, len(hams)) == (n, s, s)
    with pytest.raises(ShapeError, match=r"at most 120; n = 6 with 7 points gives 150$"):
        higgs.spectral_curve(zero_field(6, 7))

import contextlib
import copy
import functools
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logahoric import __version__, cli, higgs, linalgq, parahoric, poisson, polyq
from logahoric.cli import main
from logahoric.errors import ConfigError, ShapeError
from support import poly

EFH = {
    "group": {"family": "A", "rank": 1, "form": "SL"},
    "points": [{"x": 0}, {"x": 1}, {"x": 2}],
    "residues": [
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
        [[0, -1], [-1, 0]],
    ],
}

HEH = {
    "group": {"family": "A", "rank": 1, "form": "SL"},
    "points": [{"x": 0}, {"x": 1}, {"x": 2}],
    "residues": [
        [[1, 0], [0, -1]],
        [[0, 1], [0, 0]],
        [[-1, -1], [0, 1]],
    ],
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- happy paths, one per command ----------------------------------------------


def test_gaudin_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EFH)
    report = run_json(capsys, ["gaudin", "--config", cfg])
    assert report["command"] == "gaudin"
    assert report["version"] == __version__
    assert report["results"]["values"] == ["-1/2", "2", "-3/2"]
    assert report["results"]["value_sum"] == "0"
    assert report["results"]["hamiltonian_count"] == 3
    assert report["results"]["generator_count"] == 12
    assert isinstance(report["timing_seconds"], float)


def test_gaudin_command_builds_nothing_symbolic(tmp_path, capsys, monkeypatch):
    """`gaudin` reports numbers only: with the Poisson algebra and polynomial
    constructors made to fail, it still gives test_gaudin_command's report."""

    def refuse(*args, **kwargs):
        raise AssertionError("gaudin built a symbolic Hamiltonian")

    monkeypatch.setattr(poisson, "LiePoissonAlgebra", refuse)
    monkeypatch.setattr(poisson.PoissonPolynomial, "_from_dict", staticmethod(refuse))
    field = cli.ParsedConfig(EFH).field()
    with pytest.raises(AssertionError):  # the spies bite on the symbolic route
        higgs.gaudin_hamiltonians(field)
    cfg = write_config(tmp_path, EFH)
    assert run_json(capsys, ["gaudin", "--config", cfg])["results"] == {
        "values": ["-1/2", "2", "-3/2"],
        "value_sum": "0",
        "hamiltonian_count": 3,
        "generator_count": 12,
    }


def test_parahoric_analyze_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "A", "rank": 1, "form": "SL"},
            "points": [
                {"x": 0, "theta": ["1/4"]},
                {"x": 1, "theta": [0]},
                {"x": 2, "theta": ["1/2"]},
            ],
        },
    )
    report = run_json(capsys, ["parahoric-analyze", "--config", cfg])
    pts = report["results"]["points"]
    assert pts[0]["facet"] == parahoric.FACET_IWAHORI
    assert pts[0]["jumps"] == {"-1": 1, "1": 0}
    assert pts[0]["levi_roots"] == []
    assert pts[1]["facet"] == parahoric.FACET_HYPERSPECIAL
    assert set(pts[1]["levi_roots"]) == {"1", "-1"}
    assert pts[2]["facet"] == parahoric.FACET_HYPERSPECIAL
    assert pts[2]["jumps"] == {"-1": 1, "1": -1}
    assert pts[2]["plus_levels"] == {"-1": 2, "1": 0}


def test_hitchin_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EFH)
    report = run_json(capsys, ["hitchin", "--config", cfg])
    assert report["results"]["degrees"] == [2]
    assert report["results"]["ambient_dims"] == [3]
    assert report["results"]["sections"] == [["0", "2", "-2"]]


def test_spectral_command_with_csv(tmp_path, capsys):
    payload = dict(EFH)
    payload["options"] = {"grid": ["-1", "1/2", "2"]}
    cfg = write_config(tmp_path, payload)
    csv_path = tmp_path / "disc.csv"
    report = run_json(
        capsys, ["spectral", "--config", cfg, "--csv", str(csv_path)]
    )
    res = report["results"]
    assert res["discriminant"] == ["0", "-8", "8"]
    assert res["branch_count"] == 2
    assert res["is_squarefree"] is True
    assert res["genus"] == 0
    assert res["csv_path"] == str(csv_path)
    assert res["csv_rows"] == 3
    lines = csv_path.read_text().splitlines()
    # the disc changes sign between -1 and 1/2 and back: a root is bracketed
    assert lines == ["z,disc", "-1,16", "1/2,-2", "2,16"]


def test_spectral_genus_is_null_where_the_formula_goes_negative(tmp_path, capsys):
    """Triangular residues give A(z) constant eigenvalues: the spectral
    curve is two disjoint sheets, the discriminant a non-zero constant with
    no roots, and branch/2 - n + 1 = -1 is no genus.  The weighted points
    are part of the config as found and change nothing here."""
    payload = {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": "-9/2", "theta": ["-1/3"]}, {"x": -2, "theta": ["1/2"]}, {"x": "1/2"}],
        "residues": [
            [["1/2", 0], [1, "-1/2"]],
            [[-1, 0], [0, 1]],
            [["1/2", 0], [-1, "-1/2"]],
        ],
    }
    res = run_json(capsys, ["spectral", "--config", write_config(tmp_path, payload)])["results"]
    assert res["discriminant"] == ["625/4"]
    assert res["branch_count"] == 0
    assert res["is_squarefree"] is True
    assert res["genus"] is None


def test_spectral_default_grid_via_option(tmp_path, capsys):
    payload = dict(EFH)
    payload["options"] = {"emit_csv": str(tmp_path / "grid.csv")}
    cfg = write_config(tmp_path, payload)
    report = run_json(capsys, ["spectral", "--config", cfg])
    assert report["results"]["csv_rows"] == 9  # integers -4..4 for 3 points
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "z,disc"
    assert len(lines) == 10


def test_moment_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "A", "rank": 1, "form": "SL"},
            "points": [
                {"x": 0, "theta": ["1/4"]},
                {"x": 1, "theta": ["1/4"]},
            ],
            "residues": [
                [[1, 1], [0, -1]],
                [[-1, -1], [0, 1]],
            ],
        },
    )
    report = run_json(capsys, ["moment", "--config", cfg])
    assert report["results"]["sites"] == [
        [["1", "0"], ["0", "-1"]],
        [["-1", "0"], ["0", "1"]],
    ]


def test_involution_command_gaudin(tmp_path, capsys):
    cfg = write_config(tmp_path, EFH)
    report = run_json(capsys, ["involution", "--config", cfg])
    res = report["results"]
    assert res["hamiltonians"] == "gaudin"
    assert res["all_commute"] is True
    assert res["pair_count"] == 3
    assert res["message"] == "all 3 pairs commute"


def test_involution_command_hitchin(tmp_path, capsys):
    payload = dict(EFH)
    payload["options"] = {"hamiltonians": "hitchin"}
    cfg = write_config(tmp_path, payload)
    report = run_json(capsys, ["involution", "--config", cfg])
    res = report["results"]
    assert res["hamiltonian_count"] == 5
    assert res["pair_count"] == 10
    assert res["all_commute"] is True


def test_involution_hitchin_rejects_repeated_points(tmp_path, capsys):
    """Repeated points are a divisor error for Hitchin-coefficient
    Hamiltonians, as they are for gaudin."""
    payload = hitchin_involution_config(2, 3)
    payload["points"] = [{"x": 0}, {"x": 0}, {"x": 1}]
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["involution", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "divisor"
    assert "pairwise distinct" in report["error"]["message"]
    assert "results" not in report


def test_diagram_check_command(tmp_path, capsys):
    cfg = write_config(tmp_path, HEH)
    report = run_json(capsys, ["diagram-check", "--config", cfg])
    res = report["results"]
    assert res["all_equal"] is True
    assert len(res["rows"]) == 3
    assert res["rows"][0]["residue_route"] == "-1"
    assert res["rows"][1]["residue_route"] == "0"


def test_stability_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "options": {
                "reductions": [
                    {
                        "sub_degree": 0,
                        "sub_rank": 1,
                        "total_degree": 0,
                        "total_rank": 2,
                    }
                ],
                "rank2": {
                    "split_degrees": [0, 0],
                    "flags": [["1", "0"]],
                    "weights": [["1/4", "0"]],
                    "points": [0],
                },
            }
        },
    )
    report = run_json(capsys, ["stability", "--config", cfg])
    row = report["results"]["reductions"][0]
    assert row["slope_verdict"] == parahoric.VERDICT_BOUNDARY
    assert row["character_verdict"] == parahoric.VERDICT_BOUNDARY
    assert row["character_margin"] == "0"
    r2 = report["results"]["rank2"]
    assert r2["verdict"] == parahoric.VERDICT_FAIL
    assert r2["total_slope"] == "1/8"
    assert r2["witness"]["weighted_degree"] == "1/4"
    assert r2["witness"]["incidences"] == [0]


def test_leaf_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "A", "rank": 1, "form": "SL"},
            "points": [{"x": 0}, {"x": 1}],
            "residues": [
                [[1, 0], [0, -1]],
                [[-1, 0], [0, 1]],
            ],
        },
    )
    report = run_json(capsys, ["leaf", "--config", cfg])
    res = report["results"]
    assert res["site_invariants"] == [["0", "-1"], ["0", "-1"]]
    assert res["bivector_rank"] == 4
    assert res["sites"] == [
        [["1", "0"], ["0", "-1"]],
        [["-1", "0"], ["0", "1"]],
    ]


def test_involution_leaf_and_diagram_reports_in_full(tmp_path, capsys):
    """cli builds these three reports from the library's result objects;
    each is pinned whole, on the fields of the library tests
    test_gaudin_involution, test_leaf_invariants_examples and
    test_quotient_diagram_frozen_example."""
    cfg = write_config(tmp_path, EFH)
    assert run_json(capsys, ["involution", "--config", cfg])["results"] == {
        "hamiltonians": "gaudin",
        "hamiltonian_count": 3,
        "pair_count": 3,
        "all_commute": True,
        "nonzero_pairs": [],
        "message": "all 3 pairs commute",
    }
    group = {"family": "A", "rank": 1, "form": "SL"}
    h = [[1, 0], [0, -1]]
    cfg = write_config(tmp_path, {"group": group, "points": [{"x": 0}], "residues": [h]})
    assert run_json(capsys, ["leaf", "--config", cfg])["results"] == {
        "site_invariants": [["0", "-1"]],
        "bivector_rank": 2,
        "sites": [[["1", "0"], ["0", "-1"]]],
    }
    cfg = write_config(tmp_path, HEH)
    assert run_json(capsys, ["diagram-check", "--config", cfg])["results"] == {
        "all_equal": True,
        "rows": [
            {"point": j, "degree": 2, "residue_route": v, "moment_route": v, "equal": True}
            for j, v in enumerate(["-1", "0", "-1"])
        ],
    }


# Weight coordinates whose diagonals tie often enough to give Levi blocks
# of every size, the whole matrix included.
THETA_COORDS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 3)]


def diagonal_of(theta):
    """The type-A weight diagonal t of coroot coordinates theta: simple
    coroot i is E_ii - E_(i+1)(i+1)."""
    t = [Fraction(0)] * (len(theta) + 1)
    for i, c in enumerate(theta):
        t[i] += c
        t[i + 1] -= c
    return t


@st.composite
def field_configs(draw):
    """(config, n, s, diagonals): a field regular at infinity, n = 2..4,
    s = 3..6, SL or GL, with a weight theta at some points before the last,
    whose residue is drawn in the weight's parahoric stalk (entry (p, q)
    zero where t_p < t_q); the last residue is minus the sum of the others.
    diagonals holds each point's t, None where it has no weight."""
    n, s = draw(st.integers(2, 4)), draw(st.integers(3, 6))
    form = draw(st.sampled_from(["SL", "GL"]))
    xs = draw(st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 2)),
                       min_size=s, max_size=s, unique=True))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2))
    thetas, diagonals, residues = [], [], []
    for j in range(s):
        theta = None
        if j < s - 1 and draw(st.booleans()):
            theta = draw(st.lists(st.sampled_from(THETA_COORDS), min_size=n - 1, max_size=n - 1))
        t = None if theta is None else diagonal_of(theta)
        if j < s - 1:
            m = [[draw(entry) if t is None or t[p] >= t[q] else Fraction(0) for q in range(n)]
                 for p in range(n)]
            if form == "SL":
                m[n - 1][n - 1] -= sum(m[i][i] for i in range(n))
        else:
            m = [[-sum(r[p][q] for r in residues) for q in range(n)] for p in range(n)]
        thetas.append(theta)
        diagonals.append(t)
        residues.append(m)
    points = [{"x": str(x)} if th is None else {"x": str(x), "theta": [str(c) for c in th]}
              for x, th in zip(xs, thetas)]
    config = {
        "group": {"family": "A", "rank": n - 1, "form": form},
        "points": points,
        "residues": [[[str(v) for v in row] for row in m] for m in residues],
    }
    return config, n, s, diagonals


@settings(derandomize=True, max_examples=50, deadline=None)
@given(field_configs())
def test_reports_of_one_field_agree_across_commands(tmp_path_factory, case):
    """Six commands on one field, read from their reports alone, agree:

    - hitchin's section of degree i is (-1)^i spectral's char_coeffs[n - i];
    - gaudin's values are the residues of the degree-2 section, by the
      formula of support.reference_gaudin_values;
    - leaf's sites are moment's;
    - each diagram-check moment_route is leaf's site invariant of its point
      and degree;
    - where spectral gives a genus, 2 genus = bivector_rank + sum over weighted points of (n^2 - sum b^2)
      - 2(n^2 - 1), b the Levi block sizes of the point's weight: the
      Riemann-Hurwitz count of the eigenvalue curve against the dimension
      of the generic symplectic leaf, reduced by the diagonal action
      (Adams, Harnad and Hurtubise, Comm. Math. Phys. 134, 1990).
    """
    config, n, s, diagonals = case
    tmp = tmp_path_factory.mktemp("oracle")
    cfg = write_config(tmp, config)
    reports = {}
    for command in ("hitchin", "spectral", "gaudin", "moment", "leaf", "diagram-check"):
        out = tmp / f"{command}.json"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text(encoding="utf-8"))["results"]
    hitchin, spectral, leaf = reports["hitchin"], reports["spectral"], reports["leaf"]
    for i, section in zip(hitchin["degrees"], hitchin["sections"]):
        sign = -1 if i % 2 else 1
        char = spectral["char_coeffs"][n - i]
        assert poly(section) == [sign * c for c in poly(char)]
    sections = dict(zip(hitchin["degrees"], map(poly, hitchin["sections"])))
    e1, e2 = sections.get(1, []), sections[2]
    xs = [Fraction(point["x"]) for point in config["points"]]
    for j, (x, value) in enumerate(zip(xs, reports["gaudin"]["values"])):
        gaps = [x - y for k, y in enumerate(xs) if k != j]
        e1x, de1x = polyq.evaluate(e1, x), polyq.evaluate(polyq.derivative(e1), x)
        g = polyq.evaluate(e2, x) - e1x * e1x / 2
        dg = polyq.evaluate(polyq.derivative(e2), x) - e1x * de1x
        w = math.prod(gaps)
        assert Fraction(value) == -(dg - 2 * g * sum(1 / d for d in gaps)) / (w * w)
    assert leaf["sites"] == reports["moment"]["sites"]
    for row in reports["diagram-check"]["rows"]:
        assert row["moment_route"] == leaf["site_invariants"][row["point"]][row["degree"] - 1]
    if spectral["genus"] is not None:
        lost = sum(n * n - sum(t.count(v) ** 2 for v in set(t)) for t in diagonals if t is not None)
        assert 2 * spectral["genus"] == leaf["bivector_rank"] + lost - 2 * (n * n - 1)


# Two SL2 fields whose affine discriminant falls short of its degree bound
# N = n(n-1)(s-2) by e = 1 (points 0..3; sum_j x_j X_j = [[0, 1], [0, 0]] is
# nilpotent) and by e = 2 (points 0..4; sum_j X_j and sum_j x_j X_j are 0).
SHORT_DISCRIMINANTS = [
    (
        [[["1/3", "1/3"], ["4/3", "-1/3"]], [[0, -1], [-2, 0]], [[-1, 0], [0, 1]],
         [["2/3", "2/3"], ["2/3", "-2/3"]]],
        {"branch_count": 3, "is_squarefree": True, "genus": 1},
        8,
    ),
    (
        [[[4, 4], [11, -4]], [[-6, -7], [-15, 6]], [[1, 2], [0, -1]], [[0, 1], [1, 0]],
         [[1, 0], [3, -1]]],
        {"branch_count": 4, "is_squarefree": True, "genus": None},
        10,
    ),
]


@pytest.mark.parametrize("residues, curve, rank", SHORT_DISCRIMINANTS)
def test_genus_sees_the_branch_point_at_infinity(tmp_path, capsys, residues, curve, rank):
    """A discriminant short of its bound N by e has a root of order e at
    infinity.  For e = 1 that is one more simple branch point, and the genus
    is N/2 - n + 1 = 1, which leaf's count 2 genus = bivector_rank - 2(n^2 - 1)
    confirms; for e = 2 the curve is singular over infinity, the count would
    give 2 where the affine roots give 1, and no genus is reported.
    branch_count and is_squarefree describe the affine discriminant."""
    config = {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": k} for k in range(len(residues))],
        "residues": residues,
    }
    cfg = write_config(tmp_path, config)
    spectral = run_json(capsys, ["spectral", "--config", cfg])["results"]
    assert {key: spectral[key] for key in curve} == curve
    assert run_json(capsys, ["leaf", "--config", cfg])["results"]["bivector_rank"] == rank


def test_involution_report_lists_a_noncommuting_pair(tmp_path, capsys, monkeypatch):
    """With gaudin_hamiltonians made to return x_00 and x_01 of one gl_2
    site, whose bracket is -x_01, involution still exits 0 and reports the
    pair, its bracket and the count of failing pairs."""
    alg = poisson.LiePoissonAlgebra(2, 1)
    pair = (alg.generator(0, 0, 0), alg.generator(0, 0, 1))
    monkeypatch.setattr(higgs, "gaudin_hamiltonians", lambda f: (alg, pair))
    cfg = write_config(tmp_path, EFH)
    assert run_json(capsys, ["involution", "--config", cfg])["results"] == {
        "hamiltonians": "gaudin",
        "hamiltonian_count": 2,
        "pair_count": 1,
        "all_commute": False,
        "nonzero_pairs": [{"i": 0, "j": 1, "bracket": "-1*x0_01"}],
        "message": "1 pairs fail to commute",
    }


def test_two_levi_sets_differ_on_affine_walls(tmp_path, capsys):
    """analyze_weight's levi_roots are the roots of integer pairing, while the
    leaf's site is the block of zero pairing {t_p == t_q}: for SL2 at
    theta = 1/2 (pairing 1) and theta = 0, parahoric-analyze reports both
    points hyperspecial with Levi roots +-alpha, but leaf at diag(1, -1)
    ranks the theta = 1/2 site 0 (its block is the diagonal) and the
    theta = 0 site 2.  This pins the current matrix-side rule."""
    group = {"family": "A", "rank": 1, "form": "SL"}
    points = [{"x": 0, "theta": ["1/2"]}, {"x": 1, "theta": [0]}]
    cfg = write_config(tmp_path, {"group": group, "points": points})
    for pt in run_json(capsys, ["parahoric-analyze", "--config", cfg])["results"]["points"]:
        assert pt["facet"] == parahoric.FACET_HYPERSPECIAL
        assert sorted(pt["levi_roots"]) == ["-1", "1"]
    h = [[1, 0], [0, -1]]
    for point, rank in zip(points, (0, 2)):
        cfg = write_config(tmp_path, {"group": group, "points": [point], "residues": [h]})
        res = run_json(capsys, ["leaf", "--config", cfg])["results"]
        assert (res["bivector_rank"], res["sites"]) == (rank, [[["1", "0"], ["0", "-1"]]])
    cfg = write_config(tmp_path, {"group": group, "points": points, "residues": [h, h]})
    assert run_json(capsys, ["leaf", "--config", cfg])["results"]["bivector_rank"] == 2


# -- report plumbing ------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    cfg = write_config(tmp_path, EFH)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, ["gaudin", "--config", cfg, "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["results"]["values"] == ["-1/2", "2", "-3/2"]


@pytest.mark.parametrize(
    "payload",
    [EFH, dict(EFH, points=[{"x": 0}, {"x": 0}, {"x": 2}])],
    ids=["success", "domain-failure"],
)
def test_unwritable_report_is_one_stderr_line(tmp_path, capsys, payload):
    """An --out under a missing directory, after a run that succeeds or one
    that fails with a domain error: exit 1, nothing on stdout and one
    'cannot write report:' line on stderr."""
    cfg = write_config(tmp_path, payload)
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["gaudin", "--config", cfg, "--out", str(out_path)])
    assert (code, out) == (1, "")
    assert err.startswith("cannot write report: ") and err.count("\n") == 1
    assert err.endswith("\n") and not out_path.parent.exists()


def test_csv_into_a_directory_is_one_io_error_line(tmp_path, capsys):
    """spectral --csv naming a directory: exit 1, nothing on stdout and one
    'i/o error:' line on stderr."""
    cfg = write_config(tmp_path, EFH)
    code, out, err = run_cli(capsys, ["spectral", "--config", cfg, "--csv", str(tmp_path)])
    assert (code, out) == (1, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_timing_seconds_is_a_duration(tmp_path, capsys):
    """timing_seconds lies between 0 and the wall time of the main call
    around it."""
    cfg = write_config(tmp_path, EFH)
    start = time.perf_counter()
    report = run_json(capsys, ["hitchin", "--config", cfg])
    wall = time.perf_counter() - start
    assert 0 <= report["timing_seconds"] <= wall


GL1 = {
    "group": {"family": "A", "rank": 0, "form": "GL"},
    "points": [{"x": 0}, {"x": 1}, {"x": 3}],
    "residues": [[["1"]], [["-3/2"]], [["1/2"]]],
}


@pytest.mark.parametrize("command", ["moment", "leaf", "diagram-check", "gaudin"])
def test_gl1_field_with_empty_thetas_runs_as_without(tmp_path, capsys, command):
    """A GL1 point's theta has no coordinates: with theta [] at every point
    a field command reports what it reports for the same field with no
    theta.  It once failed (exit 1, unsupported-type) building an A0 root
    system that nothing read."""
    weighted = dict(GL1, points=[dict(p, theta=[]) for p in GL1["points"]])
    reports = []
    for name, payload in (("plain.json", GL1), ("weighted.json", weighted)):
        report = run_json(capsys, [command, "--config", write_config(tmp_path, payload, name)])
        report.pop("timing_seconds")
        reports.append(report)
    assert reports[0] == reports[1]


def test_reports_are_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, EFH)
    code, out1, _ = run_cli(capsys, ["spectral", "--config", cfg])
    code2, out2, _ = run_cli(capsys, ["spectral", "--config", cfg])
    assert code == code2 == 0
    r1 = json.loads(out1)
    r2 = json.loads(out2)
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_config_command_pin_must_match(tmp_path, capsys):
    payload = dict(EFH)
    payload["command"] = "gaudin"
    cfg = write_config(tmp_path, payload)
    report = run_json(capsys, ["gaudin", "--config", cfg])
    assert report["command"] == "gaudin"
    code, out, err = run_cli(capsys, ["hitchin", "--config", cfg])
    assert code == 2
    assert "config error" in err
    assert out == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip() == f"logahoric {__version__}"


# -- exit code 2: unusable configs ----------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["gaudin", "--config", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "config error" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["gaudin", "--config", str(path)])
    assert code == 2
    assert "config error" in err


# Each byte string gets past a json.dumps-based fuzzer: bytes that are not
# UTF-8, nesting past the recursion limit, an integer past the digit limit.
UNREADABLE_CONFIGS = {
    "not-utf8": b'\xff\xfe{"command": "gaudin"}',
    "deep-nesting": b"[" * 200_000,
    "long-integer": b'{"group": {"family": "A", "rank": ' + b"1" * 5000 + b"}}",
}


@pytest.mark.parametrize("case", list(UNREADABLE_CONFIGS))
def test_unreadable_config_bytes_are_config_errors(tmp_path, capsys, case):
    path = tmp_path / "cfg.json"
    path.write_bytes(UNREADABLE_CONFIGS[case])
    code, out, err = run_cli(capsys, ["gaudin", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: config is not valid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_empty_points_rejected(tmp_path, capsys):
    payload = dict(EFH)
    payload["points"] = []
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(capsys, ["gaudin", "--config", cfg])
    assert code == 2
    assert "nonempty" in err


def test_float_rejected(tmp_path, capsys):
    payload = json.loads(json.dumps(EFH))
    payload["points"][0]["x"] = 0.5
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(capsys, ["gaudin", "--config", cfg])
    assert code == 2
    assert "floating point" in err


def rat_config(x):
    return {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": x, "theta": ["0"]}],
    }


# Rationals are parsed by Fraction(str): decimals, exponents, underscores and
# surrounding spaces are accepted, a signed denominator is not.
@pytest.mark.parametrize(
    "text, value",
    [("1.5", Fraction(3, 2)), (" 3 ", Fraction(3)), ("1e2", Fraction(100)),
     ("1_0", Fraction(10)), ("-7/3", Fraction(-7, 3))],
)
def test_rat_accepted_strings(tmp_path, capsys, text, value):
    assert cli._rat(text, "x") == value
    cfg = write_config(tmp_path, rat_config(text))
    report = run_json(capsys, ["parahoric-analyze", "--config", cfg])
    assert report["results"]["points"][0]["x"] == str(value)


@pytest.mark.parametrize("value", ["3/-4", "", "1/0", "abc", 1.5])
def test_rat_refused_values(tmp_path, capsys, value):
    cfg = write_config(tmp_path, rat_config(value))
    code, out, err = run_cli(capsys, ["parahoric-analyze", "--config", cfg])
    assert code == 2 and out == ""
    assert err.startswith("config error: points[0].x: ")


# Fraction(str) accepts \d digits, which include non-ASCII decimals such as
# '\u0663' but not other digits such as '\u00b2'.
@given(st.text(alphabet="0123456789-+/ _.e\u0663\u00b2", max_size=8))
@example("-\u0663/\u0663")
@example("\u00b2")
@example("--1")
@example("-")
@example("3/")
@example("-0/5")
@example("12/08")
@example("9" * 5000)  # past int's digit limit (Python 3.11+): both refuse
@example("-1/" + "9" * 5000)
def test_rat_reads_what_fraction_reads(text):
    """_rat, and linalgq.rational under it with the library's ShapeError,
    accept exactly the strings Fraction(str) accepts, with the same value,
    and refuse every other one with their error class."""
    for read, error in [(cli._rat, ConfigError), (linalgq.rational, ShapeError)]:
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(error, match="is not a rational 'p/q' string"):
                read(text, "x")
        else:
            value = read(text, "x")
            assert type(value) is Fraction and value == expected


def test_unknown_command_in_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "make-coffee"})
    code, _, err = run_cli(capsys, ["gaudin", "--config", cfg])
    assert code == 2
    assert "unknown command" in err


@pytest.mark.parametrize("command", [[0], {}, 1, True])
def test_non_string_command_in_config(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(EFH, command=command))
    assert run_cli(capsys, ["gaudin", "--config", cfg]) == (
        2,
        "",
        "config error: command must be a string\n",
    )


def test_bad_hamiltonian_choice(tmp_path, capsys):
    payload = dict(EFH)
    payload["options"] = {"hamiltonians": "maxwell"}
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(capsys, ["involution", "--config", cfg])
    assert code == 2
    assert "hamiltonians" in err


def test_stability_rank2_weight_walls(tmp_path, capsys):
    """Rank-2 weights of exactly 0 are accepted; a weight of exactly 1 is a
    normalization failure, exit 1."""

    def config(weight):
        rank2 = {"split_degrees": [0, 0], "flags": [["1", "0"], ["1", "1"]], "weights": weight}
        return {"options": {"rank2": rank2}}

    cfg = write_config(tmp_path, config([["0", "0"], ["0", "1/2"]]))
    r2 = run_json(capsys, ["stability", "--config", cfg])["results"]["rank2"]
    assert r2["total_slope"] == "1/4"
    for weight in ([["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]):
        cfg = write_config(tmp_path, config(weight))
        code, out, _ = run_cli(capsys, ["stability", "--config", cfg])
        assert code == 1
        report = json.loads(out)
        assert report["error"]["kind"] == "normalization"
        assert "results" not in report


def test_stability_without_options(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {}})
    code, _, err = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 2


REDUCTION = {"sub_degree": 0, "sub_rank": 1, "total_degree": 0, "total_rank": 2}

CONFIG_ERRORS = {
    "split-degrees-pair": (
        "stability",
        {"options": {"rank2": {"split_degrees": [0]}}},
        "options.rank2.split_degrees must be a pair",
    ),
    "flags-pair": (
        "stability",
        {
            "options": {
                "rank2": {
                    "split_degrees": [0, 0],
                    "flags": [["1", "0"], ["1"]],
                    "weights": [["0", "0"], ["0", "0"]],
                }
            }
        },
        "options.rank2.flags[1] must be a pair",
    ),
    "weights-pair": (
        "stability",
        {
            "options": {
                "rank2": {
                    "split_degrees": [0, 0],
                    "flags": [["1", "0"], ["1", "1"]],
                    "weights": [["0", "0"], "0"],
                }
            }
        },
        "options.rank2.weights[1] must be a pair",
    ),
    "no-theta": (
        "parahoric-analyze",
        {"group": EFH["group"], "points": [{"x": 0, "theta": ["1/4"]}, {"x": 1}]},
        "points[1] has no theta; parahoric-analyze needs one",
    ),
    "theta-length-analyze": (
        "parahoric-analyze",
        {
            "group": {"family": "A", "rank": 2, "form": "SL"},
            "points": [{"x": 0, "theta": ["1/4", 0]}, {"x": 1, "theta": ["1/4"]}],
        },
        "points[1].theta must have 2 coroot coordinates",
    ),
    "theta-length-leaf": (
        "leaf",
        {
            "group": EFH["group"],
            "points": [{"x": 0}, {"x": 1, "theta": ["1/4", 0]}],
            "residues": [[[1, 0], [0, -1]], [[-1, 0], [0, 1]]],
        },
        "points[1].theta must have 1 coroot coordinates",
    ),
    # Integer fields: a missing or null value, and a container.
    "rank-missing": (
        "gaudin",
        dict(EFH, group={"family": "A", "form": "SL"}),
        "group.rank: missing required integer",
    ),
    "rank-null": (
        "gaudin",
        dict(EFH, group={"family": "A", "rank": None, "form": "SL"}),
        "group.rank: missing required integer",
    ),
    "rank-list": (
        "gaudin",
        dict(EFH, group={"family": "A", "rank": [1], "form": "SL"}),
        "group.rank: expected an integer, got list",
    ),
    "sub-rank-null": (
        "stability",
        {"options": {"reductions": [dict(REDUCTION, sub_rank=None)]}},
        "options.reductions[0].sub_rank: missing required integer",
    ),
    "total-rank-missing": (
        "stability",
        {"options": {"reductions": [{"sub_degree": 0, "sub_rank": 1, "total_degree": 0}]}},
        "options.reductions[0].total_rank: missing required integer",
    ),
    "split-degree-null": (
        "stability",
        {"options": {"rank2": {"split_degrees": [None, 0]}}},
        "options.rank2.split_degrees[0]: missing required integer",
    ),
    # Each list in the config names its own location.
    "points-not-list": (
        "gaudin",
        dict(EFH, points={"x": 0}),
        "points must be a nonempty list",
    ),
    "points-empty": ("gaudin", dict(EFH, points=[]), "points must be a nonempty list"),
    "theta-not-list": (
        "parahoric-analyze",
        {"group": EFH["group"], "points": [{"x": 0, "theta": "1/4"}]},
        "points[0].theta must be a list",
    ),
    "residues-not-list": (
        "gaudin",
        dict(EFH, residues={"0": [[0, 0], [0, 0]]}),
        "residues must be a list",
    ),
    "residues-not-list-before-group": (
        "gaudin",
        {"points": EFH["points"], "residues": "none"},
        "residues must be a list",
    ),
    "grid-not-list": (
        "spectral",
        dict(EFH, options={"emit_csv": "never-written.csv", "grid": "0"}),
        "options.grid must be a nonempty list",
    ),
    "weight-pairings-not-list": (
        "stability",
        {"options": {"reductions": [dict(REDUCTION, weight_pairings="1/2")]}},
        "options.reductions[0].weight_pairings must be a list",
    ),
    "total-weight-pairings-not-list": (
        "stability",
        {"options": {"reductions": [dict(REDUCTION, total_weight_pairings={})]}},
        "options.reductions[0].total_weight_pairings must be a list",
    ),
    "reductions-empty": (
        "stability",
        {"options": {"reductions": []}},
        "options.reductions must be a nonempty list",
    ),
    "reduction-not-object": (
        "stability",
        {"options": {"reductions": [REDUCTION, [0, 1, 0, 2]]}},
        "options.reductions[1] must be an object",
    ),
    "flags-not-list": (
        "stability",
        {"options": {"rank2": {"split_degrees": [0, 0], "flags": "none"}}},
        "options.rank2.flags must be a list",
    ),
    "weights-not-list": (
        "stability",
        {"options": {"rank2": {"split_degrees": [0, 0], "weights": {}}}},
        "options.rank2.weights must be a list",
    ),
    "rank2-points-not-list": (
        "stability",
        {"options": {"rank2": {"split_degrees": [0, 0], "points": 0}}},
        "options.rank2.points must be a list",
    ),
    "rank2-no-split-degrees": (
        "stability",
        {"options": {"rank2": {"flags": []}}},
        "options.rank2 needs split_degrees [a1, a2]",
    ),
    # Values of the wrong kind, and a config that is not an object.
    "x-boolean": (
        "gaudin",
        dict(EFH, points=[{"x": True}, {"x": 1}, {"x": 2}]),
        "points[0].x: expected a rational, got a boolean",
    ),
    "rank-fraction": (
        "gaudin",
        dict(EFH, group={"family": "A", "rank": "3/2", "form": "SL"}),
        "group.rank: expected an integer, got 3/2",
    ),
    "residue-row-length": (
        "gaudin",
        dict(EFH, residues=[[[0, 1], [0]], *EFH["residues"][1:]]),
        "residues[0]: row 1 must have 2 entries",
    ),
    "root-list": ("gaudin", [EFH], "config root must be a JSON object"),
    "emit-csv-not-string": (
        "spectral",
        dict(EFH, options={"emit_csv": 5}),
        "options.emit_csv must be a path string",
    ),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_messages(tmp_path, capsys, case):
    command, payload, message = CONFIG_ERRORS[case]
    cfg = write_config(tmp_path, payload)
    assert run_cli(capsys, [command, "--config", cfg]) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("command", ["parahoric-analyze", "leaf"])
def test_theta_length_refused_before_root_system(tmp_path, capsys, command):
    """A theta of the wrong length is refused before the root system of the
    group is built, which at rank 200 would take minutes."""
    payload = {
        "group": {"family": "A", "rank": 200, "form": "SL"},
        "points": [{"x": 0, "theta": []}],
    }
    if command == "leaf":
        payload["residues"] = [[[0] * 201] * 201]
    cfg = write_config(tmp_path, payload)
    start = time.perf_counter()
    result = run_cli(capsys, [command, "--config", cfg])
    assert time.perf_counter() - start < 1
    assert result == (2, "", "config error: points[0].theta must have 200 coroot coordinates\n")


@pytest.mark.parametrize("options", [[], 0, False, "", "{}", [{"grid": [0]}]])
def test_options_must_be_an_object(tmp_path, capsys, options):
    cfg = write_config(tmp_path, dict(EFH, options=options))
    assert run_cli(capsys, ["gaudin", "--config", cfg]) == (
        2,
        "",
        "config error: options must be a JSON object\n",
    )


def test_null_options_mean_no_options(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(EFH, options=None))
    assert run_json(capsys, ["gaudin", "--config", cfg])["results"]["values"] == [
        "-1/2",
        "2",
        "-3/2",
    ]


# -- exit code 1: domain failures reported as JSON -------------------------------


def test_domain_failure_report(tmp_path, capsys):
    payload = {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": 0}, {"x": 1}],
        "residues": [
            [[1, 0], [0, -1]],
            [[1, 0], [0, -1]],
        ],
    }
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["gaudin", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "gaudin"
    assert report["error"]["kind"] == "constraint"
    assert "residue sum" in report["error"]["message"]


def test_rank2_flag_cap_report(tmp_path, capsys):
    m = parahoric.RANK2_MAX_FLAGS + 1
    cfg = write_config(
        tmp_path,
        {
            "options": {
                "rank2": {
                    "split_degrees": [1, 0],
                    "flags": [["1", str(i + 1)] for i in range(m)],
                    "weights": [["1/2", "0"]] * m,
                }
            }
        },
    )
    code, out, _ = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "stability"
    assert report["error"]["kind"] == "shape"
    assert f"at most {parahoric.RANK2_MAX_FLAGS} flags" in report["error"]["message"]
    assert "results" not in report


def hitchin_involution_config(n, s):
    return {
        "group": {"family": "A", "rank": n - 1, "form": "SL"},
        "points": [{"x": x} for x in range(s)],
        "options": {"hamiltonians": "hitchin"},
    }


def test_hitchin_involution_cap_report(tmp_path, capsys):
    for n, s, phrase in ((3, 5, "at most 4 points"), (4, 3, "matrix size n = 2..3")):
        cfg = write_config(tmp_path, hitchin_involution_config(n, s))
        code, out, _ = run_cli(capsys, ["involution", "--config", cfg])
        assert code == 1
        report = json.loads(out)
        assert report["error"]["kind"] == "shape"
        assert phrase in report["error"]["message"]
        assert "results" not in report
    caps = poisson.HITCHIN_INVOLUTION_MAX_POINTS
    assert caps[2] >= 7 and caps[3] == 4 and max(caps) == 3
    for n, s in ((2, 7), (3, 3)):
        cfg = write_config(tmp_path, hitchin_involution_config(n, s))
        res = run_json(capsys, ["involution", "--config", cfg])["results"]
        assert res["all_commute"] is True


def test_gaudin_involution_cap_report(tmp_path, capsys):
    """n*s past higgs.GAUDIN_INVOLUTION_MAX_SIZE is a shape failure; the
    largest bench shapes, n = 5, s = 5 and n = 2, s = 7, are accepted."""
    cap = higgs.GAUDIN_INVOLUTION_MAX_SIZE

    def config(n, s):
        unit = [[int((p, q) == (0, n - 1)) for q in range(n)] for p in range(n)]
        last = [[-(s - 1) * v for v in row] for row in unit]
        return {
            "group": {"family": "A", "rank": n - 1, "form": "SL"},
            "points": [{"x": x} for x in range(s)],
            "residues": [unit] * (s - 1) + [last],
        }

    assert 25 <= cap < 81
    cfg = write_config(tmp_path, config(9, 9))
    code, out, _ = run_cli(capsys, ["involution", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "shape"
    assert f"n*s at most {cap}" in report["error"]["message"]
    assert "results" not in report
    for n, s in ((5, 5), (2, 7)):
        cfg = write_config(tmp_path, config(n, s))
        assert run_json(capsys, ["involution", "--config", cfg])["results"]["all_commute"]


def test_rank2_gap_cap_report(tmp_path, capsys):
    gap = parahoric.RANK2_MAX_GAP + 1
    rank2 = {"split_degrees": [0, gap], "flags": [["1", "1"]], "weights": [["0", "0"]]}
    cfg = write_config(tmp_path, {"options": {"rank2": rank2}})
    code, out, _ = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "shape"
    assert f"gap of at most {parahoric.RANK2_MAX_GAP}" in report["error"]["message"]


def test_leaf_fallback_cap_report(tmp_path, capsys):
    """A derogatory block past poisson.LEAF_MAX_FALLBACK_BLOCK is a shape
    failure; the largest accepted one is ranked."""
    cap = poisson.LEAF_MAX_FALLBACK_BLOCK

    def config(b):
        diag = [[(1 if p < cap // 2 else 2) if p == q else 0 for q in range(b)] for p in range(b)]
        return {
            "group": {"family": "A", "rank": b - 1, "form": "GL"},
            "points": [{"x": 0}],
            "residues": [diag],
        }

    code, out, _ = run_cli(capsys, ["leaf", "--config", write_config(tmp_path, config(cap + 1))])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "leaf"
    assert report["error"]["kind"] == "shape"
    assert f"derogatory blocks up to {cap}x{cap}" in report["error"]["message"]
    assert "results" not in report
    res = run_json(capsys, ["leaf", "--config", write_config(tmp_path, config(cap))])["results"]
    assert res["bivector_rank"] == cap * cap - 2 * (cap // 2) ** 2


def spectral_cap_config(n, s):
    """An SL field with residue sum zero: E_12 at the first s - 1 points."""
    unit = [[1 if (p, q) == (0, 1) else 0 for q in range(n)] for p in range(n)]
    last = [[-(s - 1) * v for v in row] for row in unit]
    return {
        "group": {"family": "A", "rank": n - 1, "form": "SL"},
        "points": [{"x": x} for x in range(s)],
        "residues": [unit] * (s - 1) + [last],
    }


def test_spectral_size_cap_report(tmp_path, capsys):
    csv_path = tmp_path / "disc.csv"
    cfg = write_config(tmp_path, spectral_cap_config(6, 7))  # bound 30 * 5 = 150
    code, out, _ = run_cli(capsys, ["spectral", "--config", cfg, "--csv", str(csv_path)])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "spectral"
    assert report["error"]["kind"] == "shape"
    assert f"at most {higgs.SPECTRAL_MAX_DEGREE}" in report["error"]["message"]
    assert "gives 150" in report["error"]["message"]
    assert "results" not in report
    assert not csv_path.exists()
    cfg = write_config(tmp_path, spectral_cap_config(5, 8))  # bound 20 * 6 = 120
    res = run_json(capsys, ["spectral", "--config", cfg])["results"]
    assert res["branch_count"] <= 120


# Run under python -O, where a bare assert would be stripped.
OPTIMIZED_HITCHIN_CAP = """
import json, os, sys, tempfile
from logahoric.cli import main
if __debug__:
    sys.exit(4)
for n, s in ((3, 5), (4, 3)):
    cfg = {
        "group": {"family": "A", "rank": n - 1, "form": "SL"},
        "points": [{"x": x} for x in range(s)],
        "options": {"hamiltonians": "hitchin"},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        out = os.path.join(tmp, "out.json")
        if main(["involution", "--config", path, "--out", out]) != 1:
            sys.exit(3)
        with open(out) as handle:
            if json.load(handle)["error"]["kind"] != "shape":
                sys.exit(5)
sys.exit(0)
"""


def test_hitchin_involution_cap_survives_optimize():
    # A child process, because -O would strip this test's own asserts too.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_HITCHIN_CAP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# The spectral cap under python -O, in the library and through the CLI.
OPTIMIZED_SPECTRAL_CAP = """
import json, os, sys, tempfile
from logahoric import higgs
from logahoric.cli import main
from logahoric.errors import ShapeError
from logahoric.rootsys import GroupTag
if __debug__:
    sys.exit(4)
n, s = 6, 7
unit = [[1 if (p, q) == (0, 1) else 0 for q in range(n)] for p in range(n)]
last = [[-(s - 1) * v for v in row] for row in unit]
residues = [unit] * (s - 1) + [last]
f = higgs.build_field(range(s), residues, GroupTag("A", n - 1, "SL"))
try:
    higgs.spectral_curve(f)
    sys.exit(3)
except ShapeError:
    pass
cfg = {
    "group": {"family": "A", "rank": n - 1, "form": "SL"},
    "points": [{"x": x} for x in range(s)],
    "residues": residues,
}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    out = os.path.join(tmp, "out.json")
    if main(["spectral", "--config", path, "--out", out]) != 1:
        sys.exit(5)
    with open(out) as handle:
        if json.load(handle)["error"]["kind"] != "shape":
            sys.exit(6)
sys.exit(0)
"""


def test_spectral_size_cap_survives_optimize():
    # A child process, because -O would strip this test's own asserts too.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SPECTRAL_CAP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_trace_failure_report(tmp_path, capsys):
    payload = {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": 0}],
        "residues": [[[1, 0], [0, 0]]],
    }
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["moment", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "trace"


def test_domain_failure_written_to_out(tmp_path, capsys):
    payload = {
        "group": {"family": "A", "rank": 1, "form": "SL"},
        "points": [{"x": 0}, {"x": 0}],
        "residues": [
            [[0, 1], [0, 0]],
            [[0, 0], [1, 0]],
        ],
    }
    cfg = write_config(tmp_path, payload)
    out_path = tmp_path / "err.json"
    code, out, _ = run_cli(
        capsys, ["spectral", "--config", cfg, "--out", str(out_path)]
    )
    assert code == 1
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["error"]["kind"] == "divisor"


# -- report emission -----------------------------------------------------------

JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
    max_leaves=40,
)


@given(JSON_TREES)
@example({"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "\u00e9\n\"\\": ["\u2203", 1.5, True, None]})
def test_emitter_matches_json_dumps_on_trees(tree):
    assert cli._json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def subtree_paths(tree, path=()):
    """The key/index path of every node of a JSON tree, the root included."""
    yield path
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from subtree_paths(v, path + (k,))
    elif isinstance(tree, (list, tuple)):
        for i, v in enumerate(tree):
            yield from subtree_paths(v, path + (i,))


def with_subtree(tree, path, leaf):
    """A copy of tree with the node at path replaced by leaf."""
    if not path:
        return leaf
    head, rest = path[0], path[1:]
    if isinstance(tree, dict):
        return {**tree, head: with_subtree(tree[head], rest, leaf)}
    items = list(tree)
    items[head] = with_subtree(tree[head], rest, leaf)
    return items


# Rank-2 candidates as a report holds them: the verdict follows the
# weighted degree, as every candidate sharing a Fraction shares its verdict.
CANDIDATES = st.lists(
    st.builds(
        lambda degree, incidences, wd: parahoric.Rank2Candidate(
            degree, tuple(incidences), wd, parahoric.verdict(wd, 1)
        ),
        st.integers(),
        st.lists(st.integers(0, 9)),
        st.fractions(),
    ),
    min_size=1,
    max_size=6,
)


@given(JSON_TREES, CANDIDATES, st.data())
def test_emitter_splices_encoded_text_at_any_depth(tree, candidates, data):
    """The rank-2 candidates may stand at any node of a report as a
    _Candidates leaf, encoded at that depth: the emitted bytes stay those
    of the tree holding each candidate's report object there."""
    path = data.draw(st.sampled_from(list(subtree_paths(tree))))
    leaf = cli._Candidates(tuple(candidates))
    mappings = [candidate_mapping(c) for c in candidates]
    expected = json.dumps(with_subtree(tree, path, mappings), sort_keys=True, indent=2)
    assert cli._json(with_subtree(tree, path, leaf)) == expected


def test_emitter_matches_json_dumps_on_bench_reports(tmp_path):
    """Every report of the benchmark's stability-leaf workload at its
    default seed is written with the bytes of json.dumps(indent=2)."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    ops = [
        op
        for r in range(workloads.RUN_ROUNDS["stability-leaf"])
        for op in run.write_round("stability-leaf", run.DEFAULT_SEED, r, tmp_path)
    ]
    assert len(ops) >= 200
    out = tmp_path / "report.json"
    for op in ops:
        assert main([op.command, "--config", str(op.path), "--out", str(out)]) == 0, op.id
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", op.id


def candidate_mapping(c):
    """A rank-2 candidate as the report lists it, built field by field."""
    return {
        "degree": c.degree,
        "incidences": list(c.incidences),
        "weighted_degree": str(c.weighted_degree),
        "verdict": c.verdict,
    }


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_rank2_report_lists_the_library_candidates(tmp_path_factory, data):
    """The witness and candidates `stability` writes are the enumerator's,
    in its order, on inputs that take both routes of the enumerator: flags
    of the repeated direction (1, 0) make the rows dependent (the walk), and
    points k/p over distinct primes p clear to one large denominator."""
    m = data.draw(st.integers(1, 8))
    gap = data.draw(st.integers(0, 4))
    a2 = data.draw(st.integers(-2, 2))
    split = data.draw(st.sampled_from([[a2 + gap, a2], [a2, a2 + gap]]))
    direction = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    flags = data.draw(
        st.lists(st.one_of(st.just((1, 0)), direction), min_size=m, max_size=m)
    )
    unit = st.builds(Fraction, st.integers(0, 6), st.just(7))
    weights = data.draw(st.lists(st.tuples(unit, unit), min_size=m, max_size=m))
    points = [
        Fraction(data.draw(st.integers(-9, 9)), p) if data.draw(st.booleans()) else Fraction(i)
        for i, p in enumerate(PRIMES[:m])
    ]
    assume(len(set(points)) == m)
    rank2 = {
        "split_degrees": split,
        "flags": [[str(c), str(d)] for c, d in flags],
        "weights": [[str(on), str(off)] for on, off in weights],
        "points": [str(x) for x in points],
    }
    tmp = tmp_path_factory.mktemp("rank2")
    cfg, out = write_config(tmp, {"options": {"rank2": rank2}}), tmp / "report.json"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))["results"]["rank2"]
    report = parahoric.rank2_semistability(split, flags, weights, points)
    assert written["witness"] == candidate_mapping(report.witness)
    assert written["candidates"] == [candidate_mapping(c) for c in report.candidates]


def test_negative_group_rank_is_a_config_error(tmp_path, capsys):
    """Rank -1 asks for 0x0 matrices; with empty residues the field commands
    once reached the samplers and died there with a bare ValueError.  Now
    the group itself is refused: exit 2 and one config error line."""
    cfg = write_config(
        tmp_path,
        {
            "group": {"family": "A", "rank": -1, "form": "SL"},
            "points": [{"x": 0}, {"x": 1}],
            "residues": [[], []],
        },
    )
    fields = ("gaudin", "hitchin", "spectral", "moment", "involution", "diagram-check", "leaf")
    for command in fields:
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert (code, out) == (2, "")
        assert err == "config error: group: rank must be at least 0, got -1\n"


# -- config-boundary fuzzer ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def bench_first_round():
    """(command, config) of every operation of the first round of each bench
    workload at the default seed 7, seeded as bench/run.py's write_round
    seeds round 0; bench/workloads.py is only read."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    workloads = importlib.import_module("workloads")
    return tuple(
        (command, cfg)
        for name in sorted(workloads.ROUNDS)
        for _, command, cfg in workloads.round_configs(name, random.Random(f"{name}/7/0"))
    )


# Values a mutation writes in place of any node of a config.
FUZZ_POOL = [0, 1, -1, "1/2", "1/0", "", None, [], {}, [[]], True, 10**6]

# Every example finishes well inside this many seconds: the slowest
# first-round bench operation runs in 0.04 s, and no mutation found in a
# search of 85,000 runs over 1 s (shared 2-CPU host).
FUZZ_DEADLINE_S = 5.0


@st.composite
def mutated_bench_configs(draw):
    """(argv command, config): a first-round bench config after one to three
    edits.  Each edit walks down from the root, taking a drawn child at each
    level and going on below it while a drawn coin says so, so a key near
    the root is edited about as often as a deep entry; it then replaces that node by a
    FUZZ_POOL value, removes it (a list item popped or a key dropped) or
    duplicates it when it is a list item.  The argv command is the config's
    own, or any of the nine once its command key is dropped."""
    command, cfg = draw(st.sampled_from(bench_first_round()))
    cfg = copy.deepcopy(cfg)
    for _ in range(draw(st.integers(1, 3))):
        if not cfg:
            break
        parent = cfg
        while True:
            keys = list(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            parent = child
        edit = draw(st.sampled_from(["replace", "remove", "duplicate"]))
        if edit == "remove":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_POOL)))
    if "command" not in cfg:
        command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    return command, cfg


@settings(max_examples=300)
@given(mutated_bench_configs())
def test_mutated_bench_configs_keep_the_exit_code_contract(case):
    """Mutated bench configs through cli.main --out: exit 0 writes a report,
    exit 1 a JSON error report with a kind, exit 2 exactly one
    `config error:` line; no traceback escapes, nothing goes to stdout, and
    each run takes under FUZZ_DEADLINE_S."""
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_path = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path), "--out", str(out_path)])
        assert time.perf_counter() - start < FUZZ_DEADLINE_S
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()
        if code == 0:
            assert err.getvalue() == ""
            assert "results" in json.loads(out_path.read_text())
        elif code == 1:
            assert json.loads(out_path.read_text())["error"]["kind"]
        else:
            assert code == 2
            assert not out_path.exists()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")

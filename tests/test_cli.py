import json
import os
import subprocess
import sys

import pytest

from logahoric import __version__, cli, higgs, parahoric
from logahoric.cli import main

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


def test_unknown_command_in_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "make-coffee"})
    code, _, err = run_cli(capsys, ["gaudin", "--config", cfg])
    assert code == 2
    assert "unknown command" in err


def test_bad_hamiltonian_choice(tmp_path, capsys):
    payload = dict(EFH)
    payload["options"] = {"hamiltonians": "maxwell"}
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(capsys, ["involution", "--config", cfg])
    assert code == 2
    assert "hamiltonians" in err


def test_stability_without_options(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {}})
    code, _, err = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 2


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
    caps = cli.HITCHIN_INVOLUTION_MAX_POINTS
    assert caps[2] >= 7 and caps[3] == 4 and max(caps) == 3
    for n, s in ((2, 7), (3, 3)):
        cfg = write_config(tmp_path, hitchin_involution_config(n, s))
        res = run_json(capsys, ["involution", "--config", cfg])["results"]
        assert res["all_commute"] is True


def test_rank2_gap_cap_report(tmp_path, capsys):
    gap = parahoric.RANK2_MAX_GAP + 1
    rank2 = {"split_degrees": [0, gap], "flags": [["1", "1"]], "weights": [["0", "0"]]}
    cfg = write_config(tmp_path, {"options": {"rank2": rank2}})
    code, out, _ = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "shape"
    assert f"gap of at most {parahoric.RANK2_MAX_GAP}" in report["error"]["message"]


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

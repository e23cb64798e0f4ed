"""stability-leaf reports stay byte-identical to the benchmark's digests.

The benchmark checks every report against `bench/digests.json`, a hash of
each operation's results payload at seed 7.  This test rebuilds every round
(`workloads.RUN_ROUNDS`) of `stability-leaf` configs with the benchmark's
own generator, runs all their operations (`stability`, `leaf`, `moment`
and `parahoric-analyze`) through `cli.main`, and checks each report with
the benchmark's own check and digest, so a change in the bytes of one of
these reports fails here as well as in the benchmark.  It only reads
`bench/`.  The 234 operations of seed 7 take about 2 s on a shared 2-CPU
host.
"""

import importlib
import json
import sys
from pathlib import Path

from logahoric import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOAD = "stability-leaf"


def bench_module(name: str):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def test_stability_reports_match_committed_digests(tmp_path):
    run, checks = bench_module("run"), bench_module("checks")
    rounds = bench_module("workloads").RUN_ROUNDS[WORKLOAD]
    expected = json.loads(run.DIGESTS.read_text(encoding="utf-8"))[WORKLOAD]
    ops = [
        op
        for r in range(rounds)
        for op in run.write_round(WORKLOAD, run.DEFAULT_SEED, r, tmp_path)
    ]
    commands = {"stability", "leaf", "moment", "parahoric-analyze"}
    assert {op.command for op in ops} == commands
    assert len(ops) == len(expected)
    out = tmp_path / "report.json"
    for op in ops:
        assert cli.main([op.command, "--config", str(op.path), "--out", str(out)]) == 0
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert checks.CHECKS[op.command](op.cfg, results) is None, op.id
        assert checks.digest(results) == expected[op.id], op.id

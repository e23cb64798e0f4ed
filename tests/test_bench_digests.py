"""Every benchmark report stays byte-identical to the benchmark's digests.

The benchmark checks every report against `bench/digests.json`, a hash of
each operation's results payload at seed 7.  For each workload this test
rebuilds every round (`workloads.RUN_ROUNDS`) of configs with the
benchmark's own generator, runs all their operations through `cli.main`,
and checks each report with the benchmark's own check and digest, so a
change in the bytes of one of these reports fails here as well as in the
benchmark.  Config parsing and `build_field` feed every field command, so
all three workloads are pinned.  It only reads `bench/`.  On a shared
2-CPU host the 180 `hitchin-spectral` operations of seed 7 take about
1.0 s, the 148 `poisson-involution` ones 1.3 s and the 234
`stability-leaf` ones 1.7 s.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from logahoric import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The commands each workload runs.
WORKLOAD_COMMANDS = {
    "hitchin-spectral": {"spectral", "hitchin", "diagram-check"},
    "poisson-involution": {"involution", "gaudin"},
    "stability-leaf": {"stability", "leaf", "moment", "parahoric-analyze"},
}


def bench_module(name: str):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


@pytest.mark.parametrize("workload", list(WORKLOAD_COMMANDS))
def test_reports_match_committed_digests(tmp_path, workload):
    run, checks = bench_module("run"), bench_module("checks")
    rounds = bench_module("workloads").RUN_ROUNDS[workload]
    expected = json.loads(run.DIGESTS.read_text(encoding="utf-8"))[workload]
    ops = [
        op
        for r in range(rounds)
        for op in run.write_round(workload, run.DEFAULT_SEED, r, tmp_path)
    ]
    assert {op.command for op in ops} == WORKLOAD_COMMANDS[workload]
    assert len(ops) == len(expected)
    out = tmp_path / "report.json"
    for op in ops:
        assert cli.main([op.command, "--config", str(op.path), "--out", str(out)]) == 0
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert checks.CHECKS[op.command](op.cfg, results) is None, op.id
        assert checks.digest(results) == expected[op.id], op.id

"""Closed-loop benchmark of the logahoric CLI.

One client runs one CLI command at a time, in process, through
``logahoric.cli.main(argv)``: the next operation starts only when the
previous one has returned.  Each operation reads a config generated from
the seed and writes its report with ``--out``; every report is checked
(see checks.py) outside the timed region.

    python3 bench/run.py --workload hitchin-spectral --seed 7
    python3 bench/run.py --workload stability-leaf --trace 1

With ``--trace 0`` the run makes the workload's fixed number of rounds
(workloads.RUN_ROUNDS) and reports the end-to-end metrics, with times
paced against a reference loop (see timed()).  With ``--trace 1`` it runs
each operation of the first TRACE_ROUNDS rounds twice, plain and with spans
recorded around calls into the library's layers (see spans.py), and
reports the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Run it from the root of the repository; it reads the
library from ./src and writes only under ./.bench_work.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 7
TRACE_ROUNDS = 2
SETUP_REPEATS = 5
# The reference loop's time on an unloaded CPU of the host this benchmark
# was tuned on (0.84-0.93 ms); paced times are wall times at that pace.
REFERENCE_S = 1e-3
SITE_SIZES = (2, 3, 4, 5)

COMMANDS = (
    "parahoric-analyze", "gaudin", "hitchin", "spectral", "moment",
    "involution", "diagram-check", "stability", "leaf",
)

# Wrapped layer functions: (module, attribute).  char_coeffs is split by the
# coefficient ring of its `ops` argument (see _ring_name).
LAYERS = (
    ("linalgq", "det"), ("linalgq", "rank"), ("linalgq", "nullspace"),
    ("polyq", "is_squarefree"), ("polyq", "evaluate"),
    ("higgs", "spectral_curve"), ("higgs", "residue_of_invariant"),
    ("higgs", "hitchin_map"), ("higgs", "gaudin_hamiltonians"),
    ("poisson", "bracket"), ("poisson", "verify_involution"),
    ("poisson", "hitchin_coefficient_hamiltonians"),
    ("poisson", "bivector_rank_at"), ("poisson", "moment_map"),
    ("parahoric", "rank2_semistability"), ("parahoric", "analyze_weight"),
    ("rootsys", "build_root_system"),
    ("cli", "run"),
)
RINGS = ("fraction", "qz", "poisson", "poisson_z")
SPAN_NAMES = tuple(f"linalgq.char_coeffs.{r}" for r in RINGS) + tuple(
    f"{m}.{a}" for m, a in LAYERS
)
SIZE_NAMES = (
    "higgs.spectral_curve.disc_degree_max",
    "higgs.spectral_curve.disc_bits_max",
    "poisson.hamiltonian_terms",
    "parahoric.rank2_semistability.candidates",
    "poisson.bivector_rank_at.dim_max",
)


@dataclass
class Op:
    id: str
    shape: int
    command: str
    cfg: dict
    path: Path


def _lib(name: str):
    return sys.modules[f"logahoric.{name}"]


def write_round(workload: str, seed: int, r: int, work: Path) -> List[Op]:
    rng = random.Random(f"{workload}/{seed}/{r}")
    ops = []
    for i, (shape, command, cfg) in enumerate(workloads.round_configs(workload, rng)):
        path = work / f"r{r}-{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        ops.append(Op(f"r{r}-{i}", shape, command, cfg, path))
    return ops


def _reference_work() -> None:
    acc = Fraction(1, 3)
    for i in range(1, 200):
        acc = acc * Fraction(i, i + 1) + Fraction(1, 7)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)


def reference_seconds() -> float:
    """Best of two timings of the reference loop on the current CPU."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return min(times)


def timed(fn, *args):
    """Run fn(*args); return (result, wall seconds, paced seconds).

    The host is shared, and the same pure-Python work runs up to 2x slower
    for seconds to minutes at a time.  So the call's wall time is rescaled
    by REFERENCE_S over the mean time of the reference loop just before and
    just after it: the time the call would have taken at the machine's
    unloaded pace.  The process is not pinned: the call, and the bracket
    pool's threads, run wherever the scheduler puts them, as for a user.
    """
    before = reference_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    after = reference_seconds()
    return result, wall, wall * REFERENCE_S * 2 / (before + after)


def _setup_once(workload: str, seed: int, work: Path):
    t0 = time.perf_counter()
    importlib.import_module("logahoric.cli")
    first = write_round(workload, seed, 0, work)
    t1 = time.perf_counter()
    for n in SITE_SIZES:
        _lib("poisson").full_site(n)
    return first, time.perf_counter() - t1


def setup(workload: str, seed: int, work: Path):
    """Import the library cold, write the first round's configs and build
    the full Poisson sites, SETUP_REPEATS times; report the median paced
    set-up time and site-build time."""
    totals, site_builds = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "logahoric"]:
            del sys.modules[name]
        (first, site_wall), wall, paced = timed(_setup_once, workload, seed, work)
        totals.append(paced)
        site_builds.append(site_wall * paced / wall)
    return statistics.median(totals), statistics.median(site_builds), first


class Runner:
    """Runs operations and checks their reports."""

    def __init__(self, work: Path, digests: Dict[str, str]):
        import checks  # imports the library, so only after setup

        self.checks = checks
        self.cli = _lib("cli")
        self.out = work / "report.json"
        self.digests = digests
        self.attempted = 0
        self.failures: List[str] = []
        self.sizes: Dict[str, int] = defaultdict(int)

    def run(self, op: Op, tracer=None) -> Tuple[bool, float, float]:
        """Run one operation; return whether it succeeded and passed its
        checks, and its wall and paced times in seconds.

        A non-zero exit, an exception or a failed check is a failure.
        """
        argv = [op.command, "--config", str(op.path), "--out", str(self.out)]
        self.out.unlink(missing_ok=True)

        def call():
            try:
                if tracer is None:
                    return self.cli.main(argv), None
                return tracer.run_op(op.id, self.cli.main, argv), None
            except Exception as exc:  # one broken operation must not end the run
                return None, f"{type(exc).__name__}: {exc}"

        (code, error), wall, paced = timed(call)
        self.attempted += 1
        why = f"exit {code} {error or ''}" if code != 0 else self._verify(op)
        if why is not None:
            self.failures.append(f"{op.id} {op.command}: {why}")
        return why is None, wall, paced

    def _verify(self, op: Op) -> Optional[str]:
        """Why the operation's report is wrong, or None."""
        try:
            results = json.loads(self.out.read_text(encoding="utf-8"))["results"]
            why = self.checks.CHECKS[op.command](op.cfg, results)
            expected = self.digests.get(op.id)
            if why is None and expected and self.checks.digest(results) != expected:
                why = "results digest differs from the committed one"
            for name, value in self.checks.sizes(op.command, op.cfg, results).items():
                self.sizes[name] = max(self.sizes[name], value)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"malformed report: {type(exc).__name__}: {exc}"
        return why


def _ring_name(_matrix, ops=None) -> str:
    linalgq = _lib("linalgq")
    if ops is None or ops is linalgq.FRACTION_RING:
        return "linalgq.char_coeffs.fraction"
    if ops is linalgq.POLY_RING:
        return "linalgq.char_coeffs.qz"
    if isinstance(ops.zero, list):
        return "linalgq.char_coeffs.poisson_z"
    return "linalgq.char_coeffs.poisson"


def install_spans(tracer, runner: Runner) -> None:
    def count_terms(op, result, hams, alg):
        # The involution report does not list the Hamiltonians, so their
        # terms are counted on the inputs; a representation without
        # `terms` reads 0 rather than failing the operation.
        terms = sum(len(getattr(h, "terms", ())) for h in hams)
        runner.sizes["poisson.hamiltonian_terms"] = max(
            runner.sizes["poisson.hamiltonian_terms"], terms
        )

    tracer.install(_lib("linalgq"), "char_coeffs", _ring_name)
    for module, attr in LAYERS:
        tracer.install(
            _lib(module),
            attr,
            f"{module}.{attr}",
            # cli imported build_root_system by name.
            also=(_lib("cli"),) if attr == "build_root_system" else (),
            pool_root=attr == "verify_involution",
            after=count_terms if attr == "verify_involution" else None,
        )


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )


def commit() -> str:
    """HEAD of the checkout's own git repository.

    Read from ./.git rather than asked of git, which would report the HEAD
    of any repository the checkout happens to sit inside.
    """
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, setup_s: float, first: List[Op],
            runner: Runner, work: Path) -> Optional[Dict[str, float]]:
    """End-to-end metrics over the workload's fixed rounds.  Failed
    operations are left out of the times; None if none succeeded."""
    latencies: List[float] = []
    walls: List[float] = []
    log = []
    rounds = workloads.RUN_ROUNDS[workload]
    start = time.perf_counter()
    for r in range(rounds):
        ops = first if r == 0 else write_round(workload, seed, r, work)
        for op in ops:
            at = time.perf_counter() - start
            ok, wall, paced = runner.run(op)
            log.append({"op": op.id, "shape": op.shape, "command": op.command,
                        "ok": ok, "at": at, "wall_s": wall, "paced_s": paced})
            if ok:
                walls.append(wall)
                latencies.append(paced)
    with open(WORK / f"ops-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(entry) + "\n" for entry in log)
    print(f"rounds {rounds}, operations {len(log)}, succeeded {len(latencies)}, "
          f"measured {time.perf_counter() - start:.1f} s")
    if len(latencies) < 2:
        return None
    print(f"wall clock, not paced: {len(walls) / sum(walls):.4g} ops/s, "
          f"p50 {statistics.median(walls):.4g} s, "
          f"p90 {statistics.quantiles(walls, n=10)[-1]:.4g} s")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload: str, seed: int, site_build_s: float, first: List[Op],
           runner: Runner, work: Path) -> Dict[str, float]:
    from spans import STATS, Tracer, aggregate

    ops = first + [
        op for r in range(1, TRACE_ROUNDS) for op in write_round(workload, seed, r, work)
    ]
    by_command: Dict[str, List[float]] = defaultdict(list)
    plain = with_spans = 0.0
    tracer = Tracer()
    # Each operation runs plain and with spans, in alternating order, so
    # that the caches its first run warms favour neither pass.  The wrappers
    # are in place only during the traced run.
    for k, op in enumerate(ops):
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_pass:
                install_spans(tracer, runner)
                try:
                    ok, _, paced = runner.run(op, tracer)
                finally:
                    tracer.uninstall()
                with_spans += paced if ok else 0.0
            else:
                ok, _, paced = runner.run(op)
                if ok:
                    plain += paced
                    by_command[op.command].append(paced)
    tracer.dump(WORK / f"spans-{workload}-seed{seed}.jsonl")
    agg = aggregate(tracer.spans)

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        row = agg.get(name, dict.fromkeys(STATS, 0))
        for stat in STATS:
            metrics[f"{name}.{stat}"] = row[stat]
    op_s = agg["op"]["total_s"] if "op" in agg else 0.0
    metrics["cli.io_s"] = op_s - metrics["cli.run.total_s"]
    for command in COMMANDS:
        times = by_command.get(command)
        metrics[f"cli.{command}.p50_s"] = statistics.median(times) if times else 0.0
    metrics["poisson.site_build_s"] = site_build_s
    pool = metrics["poisson.verify_involution.total_s"]
    metrics["poisson.bracket.overlap"] = (
        metrics["poisson.bracket.total_s"] / pool if pool else 0.0
    )
    for name in SIZE_NAMES:
        metrics[name] = runner.sizes.get(name, 0)
    metrics["trace_overhead_s"] = with_spans - plain
    metrics["src_lines"] = src_lines()
    return metrics


def declared(trace: bool) -> Optional[Dict[str, str]]:
    """Metric name -> unit from BENCHMARK.json, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # The run makes a fixed number of rounds, so that every version of the
    # library runs the same operations; --seconds is accepted and unused.
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help=f"record the results digests of the default seed in {DIGESTS.name}",
    )
    args = parser.parse_args(argv)
    if not (SRC / "logahoric" / "cli.py").is_file():
        sys.stderr.write(f"no library sources under {SRC}; run from a full checkout\n")
        return 2
    units = declared(bool(args.trace))
    # Measure what a user gets by default: the library's own thread count.
    threads_env = os.environ.pop("LOGAHORIC_THREADS", None)
    sys.path.insert(0, str(SRC))

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, site_build_s, first = setup(args.workload, args.seed, work)
        all_digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests = (
            all_digests.get(args.workload, {})
            if args.seed == DEFAULT_SEED and not args.write_digests
            else {}
        )
        runner = Runner(work, digests)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "LOGAHORIC_THREADS_set": threads_env is not None,
            "commit": commit(),
            "src_lines": src_lines(),
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        if args.write_digests:
            return write_digests(args.workload, first, runner, work, all_digests)
        if args.trace:
            metrics = traced(
                args.workload, args.seed, site_build_s, first, runner, work
            )
        else:
            metrics = measure(args.workload, args.seed, setup_s, first, runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED " + line)
    if metrics is None:
        sys.stderr.write("no operation succeeded\n")
        return 1
    if units is None:
        units = {name: "" for name in metrics}
    if set(units) != set(metrics):
        sys.stderr.write(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}\n"
        )
        return 3
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_ratio':48s} {failed / runner.attempted:14.6g} fraction")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_digests(workload, first, runner, work, all_digests) -> int:
    ops = first + [
        op for r in range(1, workloads.RUN_ROUNDS[workload])
        for op in write_round(workload, DEFAULT_SEED, r, work)
    ]
    table = {}
    for op in ops:
        if not runner.run(op)[0]:
            sys.stderr.write("\n".join(runner.failures) + "\n")
            return 1
        results = json.loads(runner.out.read_text(encoding="utf-8"))["results"]
        table[op.id] = runner.checks.digest(results)
    all_digests[workload] = table
    DIGESTS.write_text(json.dumps(all_digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

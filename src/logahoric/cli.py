"""Batch front end: read a JSON experiment config, run one command against
the library, and emit a machine-readable report (and optionally a CSV).

All rational values cross the boundary as strings of the form "p/q" or an
integer literal; no floating point is accepted or produced in the payload.
Reports are serialized with sorted keys so that identical configs give
identical bytes, except for the timing field, which golden comparisons
must exclude.

Exit codes: 0 success, 1 domain failure (reported as structured JSON),
2 unusable config or environment (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__, higgs, parahoric, poisson, polyq
from .errors import ConfigError, LogahoricError, ShapeError
from .higgs import LogHiggsField
from .parahoric import ParahoricDatum, ReductionDatum
from .rootsys import GroupTag, RationalCocharacter, build_root_system

COMMANDS = (
    "parahoric-analyze",
    "gaudin",
    "hitchin",
    "spectral",
    "moment",
    "involution",
    "diagram-check",
    "stability",
    "leaf",
)


# ---------------------------------------------------------------------------
# Config parsing: rationals as strings, matrices as nested lists
# ---------------------------------------------------------------------------


def _rat(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise ConfigError(
            f"{where}: floating point is not accepted; write rationals as 'p/q' strings"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where}: {value!r} is not a rational 'p/q' string")
    raise ConfigError(f"{where}: expected a rational string, got {type(value).__name__}")


def _int(value, where: str) -> int:
    f = _rat(value, where)
    if f.denominator != 1:
        raise ConfigError(f"{where}: expected an integer, got {f}")
    return f.numerator


def _matrix(value, n: int, where: str) -> List[List[Fraction]]:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where}: expected a {n}x{n} matrix")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{where}: row {i} must have {n} entries")
        out.append([_rat(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def _str_field(mapping: dict, key: str, where: str) -> str:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}: expected a string")
    return value


class ParsedConfig:
    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.command: Optional[str] = raw.get("command")
        if self.command is not None and self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r} in config")
        self.options: dict = raw.get("options") or {}
        if not isinstance(self.options, dict):
            raise ConfigError("options must be a JSON object")
        self.group = self._parse_group(raw.get("group"))
        self.points, self.thetas = self._parse_points(raw.get("points"))
        self.residues = self._parse_residues(raw.get("residues"))

    def _parse_group(self, raw) -> Optional[GroupTag]:
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigError("group must be an object {family, rank, form}")
        family = _str_field(raw, "family", "group")
        rank = _int(raw.get("rank"), "group.rank")
        form = _str_field(raw, "form", "group")
        try:
            return GroupTag(family=family, rank=rank, form=form)
        except LogahoricError as exc:
            raise ConfigError(f"group: {exc}")

    def _parse_points(self, raw):
        if raw is None:
            return None, None
        if not isinstance(raw, list):
            raise ConfigError("points must be a list")
        if len(raw) == 0:
            raise ConfigError("divisor must be nonempty")
        xs: List[Fraction] = []
        thetas: List[Optional[List[Fraction]]] = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ConfigError(f"points[{i}] must be an object")
            xs.append(_rat(entry.get("x"), f"points[{i}].x"))
            th = entry.get("theta")
            if th is None:
                thetas.append(None)
            else:
                if not isinstance(th, list):
                    raise ConfigError(f"points[{i}].theta must be a list")
                thetas.append(
                    [_rat(v, f"points[{i}].theta[{j}]") for j, v in enumerate(th)]
                )
        return xs, thetas

    def _parse_residues(self, raw):
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise ConfigError("residues must be a list of matrices")
        if self.group is None:
            raise ConfigError("residues need a group to fix the matrix size")
        try:
            n = self.group.matrix_size
        except LogahoricError as exc:
            raise ConfigError(f"group: {exc}")
        return [_matrix(m, n, f"residues[{i}]") for i, m in enumerate(raw)]

    # -- assembled library objects -------------------------------------

    def require_group(self) -> GroupTag:
        if self.group is None:
            raise ConfigError("this command needs a group section")
        return self.group

    def require_points(self) -> List[Fraction]:
        if self.points is None:
            raise ConfigError("this command needs a points list")
        return self.points

    def theta_data(self) -> Optional[Tuple[Optional[ParahoricDatum], ...]]:
        if self.thetas is None or all(t is None for t in self.thetas):
            return None
        group = self.require_group()
        rs = build_root_system(group.family, group.rank)
        data: List[Optional[ParahoricDatum]] = []
        for i, th in enumerate(self.thetas):
            if th is None:
                data.append(None)
                continue
            if len(th) != rs.rank:
                raise ConfigError(
                    f"points[{i}].theta must have {rs.rank} coroot coordinates"
                )
            data.append(parahoric.analyze_weight(rs, RationalCocharacter.of(th)))
        return tuple(data)

    def field(self) -> LogHiggsField:
        group = self.require_group()
        points = self.require_points()
        if self.residues is None:
            raise ConfigError("this command needs a residues list")
        return higgs.build_field(points, self.residues, group, self.theta_data())


# ---------------------------------------------------------------------------
# Payload helpers
# ---------------------------------------------------------------------------


def _s(value) -> str:
    return str(Fraction(value))


def _matrix_out(m) -> List[List[str]]:
    return [[_s(v) for v in row] for row in m]


def _coeffs_out(cs) -> List[str]:
    return [_s(c) for c in cs]


def _root_key(root: Tuple[int, ...]) -> str:
    return ",".join(str(c) for c in root)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_parahoric_analyze(cfg: ParsedConfig) -> dict:
    group = cfg.require_group()
    points = cfg.require_points()
    if cfg.thetas is None:
        raise ConfigError("parahoric-analyze needs a theta at each point")
    rs = build_root_system(group.family, group.rank)
    out = []
    for i, (x, th) in enumerate(zip(points, cfg.thetas)):
        if th is None:
            raise ConfigError(f"points[{i}] has no theta; parahoric-analyze needs one")
        if len(th) != rs.rank:
            raise ConfigError(
                f"points[{i}].theta must have {rs.rank} coroot coordinates"
            )
        datum = parahoric.analyze_weight(rs, RationalCocharacter.of(th))
        out.append(
            {
                "x": _s(x),
                "theta": [_s(c) for c in th],
                "facet": datum.facet_class,
                "jumps": {_root_key(r): m for r, m in sorted(datum.jumps.items())},
                "levi_roots": [_root_key(r) for r in datum.levi_roots],
                "plus_levels": {
                    _root_key(r): m for r, m in sorted(datum.plus_grading.items())
                },
            }
        )
    return {"family": group.family, "rank": group.rank, "points": out}


def _cmd_gaudin(cfg: ParsedConfig) -> dict:
    data = higgs.gaudin_hamiltonians(cfg.field())
    return {
        "values": [_s(v) for v in data.values],
        "value_sum": _s(sum(data.values, Fraction(0))),
        "hamiltonian_count": len(data.polynomials),
        "generator_count": data.algebra.gen_count,
    }


def _cmd_hitchin(cfg: ParsedConfig) -> dict:
    image = higgs.hitchin_map(cfg.field())
    return {
        "degrees": list(image.degrees),
        "ambient_dims": list(image.ambient_dims),
        "sections": [_coeffs_out(sec) for sec in image.sections],
    }


def _default_grid(s: int) -> List[Fraction]:
    return [Fraction(k) for k in range(-(s + 1), s + 2)]


def _cmd_spectral(cfg: ParsedConfig, csv_path: Optional[str]) -> dict:
    f = cfg.field()
    sc = higgs.spectral_curve(f)
    results = {
        "char_coeffs": [_coeffs_out(cs) for cs in sc.char_coeffs],
        "discriminant": _coeffs_out(sc.discriminant),
        "branch_count": sc.branch_count,
        "is_squarefree": sc.is_squarefree,
        "genus": sc.genus,
    }
    path = csv_path or cfg.options.get("emit_csv")
    if path is not None:
        if not isinstance(path, str):
            raise ConfigError("options.emit_csv must be a path string")
        raw_grid = cfg.options.get("grid")
        if raw_grid is None:
            grid = _default_grid(f.site_count)
        else:
            if not isinstance(raw_grid, list) or not raw_grid:
                raise ConfigError("options.grid must be a nonempty list of rationals")
            grid = [_rat(v, f"options.grid[{i}]") for i, v in enumerate(raw_grid)]
        lines = ["z,disc"]
        for z in grid:
            lines.append(f"{z},{polyq.evaluate(sc.discriminant, z)}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        results["csv_path"] = path
        results["csv_rows"] = len(grid)
    return results


def _cmd_moment(cfg: ParsedConfig) -> dict:
    mv = poisson.moment_map(cfg.field())
    return {"sites": [_matrix_out(site) for site in mv.sites]}


# Largest point count s that `involution` with Hitchin-coefficient
# Hamiltonians accepts for each matrix size n; other sizes are refused
# (ShapeError) before any work.  On a shared 2-CPU host the largest accepted
# shapes, n = 2, s = 12 and n = 3, s = 4, take 2-4 s each; n = 3, s = 5
# takes 18 s and n = 4, s = 3 three minutes.
HITCHIN_INVOLUTION_MAX_POINTS = {2: 12, 3: 4}


def _hitchin_symbolic_hams(cfg: ParsedConfig):
    group = cfg.require_group()
    points = cfg.require_points()
    try:
        n = group.matrix_size
    except LogahoricError as exc:
        raise ConfigError(f"group: {exc}")
    limit = HITCHIN_INVOLUTION_MAX_POINTS.get(n)
    if limit is None:
        raise ShapeError(
            "Hitchin-coefficient involution takes matrix size n = "
            f"{min(HITCHIN_INVOLUTION_MAX_POINTS)}..{max(HITCHIN_INVOLUTION_MAX_POINTS)}"
            f", got {n}"
        )
    if len(points) > limit:
        raise ShapeError(
            f"Hitchin-coefficient involution takes at most {limit} points "
            f"for n = {n}, got {len(points)}"
        )
    alg, hams = poisson.hitchin_coefficient_hamiltonians(points, n, group.form)
    return alg, list(hams)


def _cmd_involution(cfg: ParsedConfig) -> dict:
    which = cfg.options.get("hamiltonians", "gaudin")
    if which == "gaudin":
        data = higgs.gaudin_hamiltonians(cfg.field())
        alg, hams = data.algebra, list(data.polynomials)
    elif which == "hitchin":
        alg, hams = _hitchin_symbolic_hams(cfg)
    else:
        raise ConfigError(
            f"options.hamiltonians must be 'gaudin' or 'hitchin', got {which!r}"
        )
    report = poisson.verify_involution(hams, alg)
    payload = report.to_json_dict()
    payload["hamiltonians"] = which
    payload["hamiltonian_count"] = len(hams)
    if report.all_commute:
        payload["message"] = f"all {report.pair_count} pairs commute"
    else:
        payload["message"] = f"{len(report.nonzero_pairs)} pairs fail to commute"
    return payload


def _cmd_diagram_check(cfg: ParsedConfig) -> dict:
    return poisson.quotient_diagram_check(cfg.field()).to_json_dict()


def _reduction_from(entry: dict, where: str) -> ReductionDatum:
    for key in ("sub_degree", "sub_rank", "total_degree", "total_rank"):
        if key not in entry:
            raise ConfigError(f"{where}: missing required key {key!r}")
    pairings = entry.get("weight_pairings", [])
    if not isinstance(pairings, list):
        raise ConfigError(f"{where}.weight_pairings must be a list")
    return ReductionDatum.of(
        _int(entry["sub_degree"], f"{where}.sub_degree"),
        _int(entry["sub_rank"], f"{where}.sub_rank"),
        _int(entry["total_degree"], f"{where}.total_degree"),
        _int(entry["total_rank"], f"{where}.total_rank"),
        [_rat(w, f"{where}.weight_pairings[{i}]") for i, w in enumerate(pairings)],
    )


def _character_verdict(margin: Fraction) -> str:
    if margin > 0:
        return parahoric.VERDICT_STABLE
    if margin == 0:
        return parahoric.VERDICT_BOUNDARY
    return parahoric.VERDICT_FAIL


def _cmd_stability(cfg: ParsedConfig) -> dict:
    reductions = cfg.options.get("reductions")
    rank2 = cfg.options.get("rank2")
    if reductions is None and rank2 is None:
        raise ConfigError("stability needs options.reductions or options.rank2")
    results: dict = {}
    if reductions is not None:
        if not isinstance(reductions, list) or not reductions:
            raise ConfigError("options.reductions must be a nonempty list")
        tests = []
        for i, entry in enumerate(reductions):
            if not isinstance(entry, dict):
                raise ConfigError(f"options.reductions[{i}] must be an object")
            where = f"options.reductions[{i}]"
            rd = _reduction_from(entry, where)
            total = None
            total_raw = entry.get("total_weight_pairings")
            if total_raw is not None:
                if not isinstance(total_raw, list):
                    raise ConfigError(f"{where}.total_weight_pairings must be a list")
                total = ReductionDatum.of(
                    rd.total_degree,
                    rd.total_rank,
                    rd.total_degree,
                    rd.total_rank,
                    [
                        _rat(w, f"{where}.total_weight_pairings[{k}]")
                        for k, w in enumerate(total_raw)
                    ],
                )
            verdict = parahoric.slope_test(rd, total)
            sub_deg = parahoric.parahoric_degree(rd)
            total_deg = (
                parahoric.parahoric_degree(total)
                if total is not None
                else Fraction(rd.total_degree)
            )
            margin = total_deg * rd.sub_rank - sub_deg * rd.total_rank
            tests.append(
                {
                    "sub_parhdeg": _s(sub_deg),
                    "total_parhdeg": _s(total_deg),
                    "sub_slope": _s(sub_deg / rd.sub_rank),
                    "total_slope": _s(total_deg / rd.total_rank),
                    "slope_verdict": verdict,
                    "character_margin": _s(margin),
                    "character_verdict": _character_verdict(margin),
                }
            )
        results["reductions"] = tests
    if rank2 is not None:
        if not isinstance(rank2, dict):
            raise ConfigError("options.rank2 must be an object")
        if "split_degrees" not in rank2:
            raise ConfigError("options.rank2 needs split_degrees [a1, a2]")
        degs = rank2["split_degrees"]
        if not isinstance(degs, list) or len(degs) != 2:
            raise ConfigError("options.rank2.split_degrees must be a pair")
        a1 = _int(degs[0], "options.rank2.split_degrees[0]")
        a2 = _int(degs[1], "options.rank2.split_degrees[1]")
        flags = rank2.get("flags", [])
        weights = rank2.get("weights", [])
        if not isinstance(flags, list) or not isinstance(weights, list):
            raise ConfigError("options.rank2.flags and .weights must be lists")
        parsed_flags = []
        for i, fl in enumerate(flags):
            if not isinstance(fl, list) or len(fl) != 2:
                raise ConfigError(f"options.rank2.flags[{i}] must be a pair")
            parsed_flags.append(
                (
                    _rat(fl[0], f"options.rank2.flags[{i}][0]"),
                    _rat(fl[1], f"options.rank2.flags[{i}][1]"),
                )
            )
        parsed_weights = []
        for i, w in enumerate(weights):
            if not isinstance(w, list) or len(w) != 2:
                raise ConfigError(f"options.rank2.weights[{i}] must be a pair")
            parsed_weights.append(
                (
                    _rat(w[0], f"options.rank2.weights[{i}][0]"),
                    _rat(w[1], f"options.rank2.weights[{i}][1]"),
                )
            )
        pts = rank2.get("points")
        parsed_pts = None
        if pts is not None:
            if not isinstance(pts, list):
                raise ConfigError("options.rank2.points must be a list")
            parsed_pts = [
                _rat(p, f"options.rank2.points[{i}]") for i, p in enumerate(pts)
            ]
        elif cfg.points is not None:
            parsed_pts = cfg.points
        report = parahoric.rank2_semistability(
            (a1, a2), parsed_flags, parsed_weights, parsed_pts
        )

        def cand_out(c):
            return {
                "degree": c.degree,
                "incidences": list(c.incidences),
                "weighted_degree": _s(c.weighted_degree),
                "verdict": c.verdict,
            }

        results["rank2"] = {
            "verdict": report.verdict,
            "total_weighted_degree": _s(report.total_weighted_degree),
            "total_slope": _s(report.total_slope),
            "witness": cand_out(report.witness),
            "candidates": [cand_out(c) for c in report.candidates],
        }
    return results


def _cmd_leaf(cfg: ParsedConfig) -> dict:
    mv = poisson.moment_map(cfg.field())
    descriptor = poisson.leaf_invariants(mv)
    payload = descriptor.to_json_dict()
    payload["sites"] = [_matrix_out(site) for site in mv.sites]
    return payload


_DISPATCH = {
    "parahoric-analyze": lambda cfg, csv: _cmd_parahoric_analyze(cfg),
    "gaudin": lambda cfg, csv: _cmd_gaudin(cfg),
    "hitchin": lambda cfg, csv: _cmd_hitchin(cfg),
    "spectral": _cmd_spectral,
    "moment": lambda cfg, csv: _cmd_moment(cfg),
    "involution": lambda cfg, csv: _cmd_involution(cfg),
    "diagram-check": lambda cfg, csv: _cmd_diagram_check(cfg),
    "stability": lambda cfg, csv: _cmd_stability(cfg),
    "leaf": lambda cfg, csv: _cmd_leaf(cfg),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def run(command: str, cfg: ParsedConfig, csv_path: Optional[str]) -> dict:
    """Dispatch one command against the parsed config; returns the report."""
    start = time.perf_counter()
    results = _DISPATCH[command](cfg, csv_path)
    return {
        "command": command,
        "version": __version__,
        "results": results,
        "timing_seconds": round(time.perf_counter() - start, 6),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="logahoric",
        description="Exact computations for parahoric weights and the "
        "logarithmic Hitchin system on the line.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="command to run")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--csv", default=None, help="spectral only: write a z,disc CSV here")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        cfg = ParsedConfig(raw)
        if cfg.command is not None and cfg.command != args.command:
            raise ConfigError(
                f"config file says command {cfg.command!r} but argv says {args.command!r}"
            )
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    try:
        report = run(args.command, cfg, args.csv)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except LogahoricError as exc:
        failure = {
            "command": args.command,
            "version": __version__,
            "error": {"kind": exc.kind, "message": str(exc)},
        }
        try:
            _emit(failure, args.out)
        except OSError as io_exc:
            sys.stderr.write(f"cannot write report: {io_exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1

    try:
        _emit(report, args.out)
    except OSError as exc:
        sys.stderr.write(f"cannot write report: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
